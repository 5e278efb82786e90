//! Elastic re-sharding: live VNI migration between clusters.
//!
//! The split computed by [`Controller::plan_split`] is not forever —
//! festival scale-ups, device retirement and load imbalance all force the
//! VNI→cluster split to change while traffic is in flight. This module
//! plans the *minimal* set of VNI moves between two splits
//! ([`ReshardPlan`]) and drives each move through a typed
//! make-before-break state machine ([`MoveMachine`]) over the shared
//! [`MoveStage`]s:
//!
//! ```text
//!   Planned ──announce──▶ Announce ──advance──▶ Dual ──advance──▶ Commit ──advance──▶ Drain
//!                            │                   │
//!                            └─────rollback──────┴──▶ RolledBack
//! ```
//!
//! - **Announce** — the destination cluster (and its 1:1 backup) gets an
//!   image holding its planned VNIs plus the moving ones, through the
//!   same two-phase push as [`Controller::install_with`]: static
//!   `sailfish-verify` gate first, then push → consistency-check →
//!   bounded retry with rollback. Traffic still flows to the old owner.
//! - **Dual** — both owners hold the range; the directory hashes each
//!   flow to one of them ([`crate::lb::pick_owner`]). No packet can
//!   black-hole: whichever owner it lands on has the tables.
//! - **Commit** — one atomic directory step retargets the VNIs (and the
//!   split plan, so consistency checks follow the new owner).
//! - **Drain** — the source (and its backup) moves to an image without
//!   the moved VNIs, freeing their SRAM/TCAM.
//!
//! Rollback is possible from every pre-commit state and leaves the
//! region exactly as before the move began. Where the group is served
//! and held at each stage is written once, in [`LiveMove`].

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use sailfish_asic::verify::world::MoveStage;
use sailfish_net::Vni;
use sailfish_sim::faults::VirtualClock;
use sailfish_sim::topology::Topology;
use sailfish_xgw_h::HardwareTables;

use crate::cluster::ImageBuilder;
use crate::controller::{
    peer_leaders, vni_weights, ClusterCapacity, ClusterLoad, Controller, InstallError,
    InstallInjector, InstallPolicy, InstallReport, Push, SplitPlan,
};
use crate::region::Region;

/// One in-flight migration of a peer group at one make-before-break
/// stage. Its two methods are the one rule for where the group lives
/// mid-move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMove {
    /// Current owner the group is moving away from.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Where the make-before-break sequence stands.
    pub stage: MoveStage,
}

impl LiveMove {
    /// The clusters serving the group: the directory's primary and, in
    /// the Dual window, the second owner a flow may hash to. Traffic
    /// moves only at Commit.
    pub fn owners(&self) -> (usize, Option<usize>) {
        match self.stage {
            MoveStage::Announce => (self.from, None),
            MoveStage::Dual => (self.from, Some(self.to)),
            MoveStage::Commit | MoveStage::Drain => (self.to, None),
        }
    }

    /// The clusters holding the group's tables, primary owner first: the
    /// destination from Announce on, the source until Drain frees it —
    /// so every owner has the tables, and after Commit so do batches
    /// still pinned to the prior epoch.
    pub fn holders(&self) -> (usize, Option<usize>) {
        match self.stage {
            MoveStage::Announce | MoveStage::Dual => (self.from, Some(self.to)),
            MoveStage::Commit => (self.to, Some(self.from)),
            MoveStage::Drain => (self.to, None),
        }
    }
}

/// Where a [`MoveMachine`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveState {
    /// Nothing touched yet.
    Planned,
    /// Driven to this stage; `At(Drain)` is a completed move.
    At(MoveStage),
    /// Aborted before Commit; the region is as before the move.
    RolledBack,
}

/// Why a re-shard step failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReshardError {
    /// The two splits disagree on which VNIs exist or break a peer
    /// group apart (peers must stay co-located).
    SplitInconsistent {
        /// The offending VNI.
        vni: Vni,
    },
    /// Applying the moves would overload a cluster.
    CapacityExceeded {
        /// The overloaded cluster.
        cluster: usize,
        /// Route entries it would hold.
        routes: usize,
        /// VM mappings it would hold.
        vms: usize,
    },
    /// A move names a cluster the region does not have.
    UnknownCluster {
        /// The offending index.
        cluster: usize,
        /// Clusters that exist.
        clusters: usize,
    },
    /// The state machine was asked for a step its state does not allow.
    InvalidTransition {
        /// The state the machine is in.
        state: MoveState,
        /// The step that was requested.
        action: &'static str,
    },
    /// The plan-time world verifier refused the move before any push:
    /// some intermediate world of its make-before-break sequence would
    /// strand a VNI or overload a cluster (`SF-E007`+ codes).
    StaticallyRejected {
        /// The verifier's error diagnostics, `; `-joined.
        detail: String,
    },
    /// The two-phase push to the destination failed for good; the
    /// destination was left clean.
    Install(InstallError),
}

impl core::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReshardError::SplitInconsistent { vni } => {
                write!(f, "splits are inconsistent at {vni}")
            }
            ReshardError::CapacityExceeded {
                cluster,
                routes,
                vms,
            } => write!(
                f,
                "cluster {cluster} would exceed capacity ({routes} routes, {vms} vms)"
            ),
            ReshardError::UnknownCluster { cluster, clusters } => {
                write!(f, "cluster {cluster} does not exist ({clusters} clusters)")
            }
            ReshardError::InvalidTransition { state, action } => {
                write!(f, "cannot {action} from {state:?}")
            }
            ReshardError::StaticallyRejected { detail } => {
                write!(f, "statically rejected by the world verifier: {detail}")
            }
            ReshardError::Install(e) => write!(f, "destination push: {e}"),
        }
    }
}

impl std::error::Error for ReshardError {}

impl From<InstallError> for ReshardError {
    fn from(e: InstallError) -> Self {
        ReshardError::Install(e)
    }
}

/// One planned migration: a peer group of VNIs moving between clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VniMove {
    /// Canonical group leader (smallest VNI of the peer group).
    pub leader: Vni,
    /// Every VNI moving together (peers stay co-located), sorted.
    pub vnis: Vec<Vni>,
    /// Current owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
    /// Route entries the group carries.
    pub routes: usize,
    /// VM mappings the group carries.
    pub vms: usize,
}

impl VniMove {
    /// Moves the group's load from its source to its destination in
    /// per-cluster `loads`; `Err` names a cluster `loads` lacks.
    fn shift_load(&self, loads: &mut [ClusterLoad]) -> Result<(), usize> {
        let src = loads.get_mut(self.from).ok_or(self.from)?;
        src.routes = src.routes.saturating_sub(self.routes);
        src.vms = src.vms.saturating_sub(self.vms);
        let dst = loads.get_mut(self.to).ok_or(self.to)?;
        dst.routes += self.routes;
        dst.vms += self.vms;
        Ok(())
    }
}

/// The minimal set of moves turning `current` into `target`.
#[derive(Debug, Clone, Default)]
pub struct ReshardPlan {
    /// Moves, sorted by group leader (deterministic drive order).
    pub moves: Vec<VniMove>,
}

impl ReshardPlan {
    /// Plans the migration from `current` to `target`.
    ///
    /// Only peer groups whose assignment differs move; groups with any
    /// member in `pinned` (heavy VNIs an operator refuses to migrate)
    /// stay put. The achieved per-cluster loads — target loads corrected
    /// for pinned groups — are re-checked against `capacity`, so a plan
    /// that would overload a cluster is refused before anything runs.
    pub fn plan(
        topology: &Topology,
        current: &SplitPlan,
        target: &SplitPlan,
        capacity: ClusterCapacity,
        pinned: &BTreeSet<Vni>,
    ) -> Result<ReshardPlan, ReshardError> {
        // Both splits must cover exactly the same VNIs.
        for vni in current.assignments.keys() {
            if !target.assignments.contains_key(vni) {
                return Err(ReshardError::SplitInconsistent { vni: *vni });
            }
        }
        for vni in target.assignments.keys() {
            if !current.assignments.contains_key(vni) {
                return Err(ReshardError::SplitInconsistent { vni: *vni });
            }
        }

        let weights = vni_weights(topology);

        // Group members by leader, checking co-location in both splits.
        let leaders = peer_leaders(topology);
        let mut groups: HashMap<Vni, Vec<Vni>> = HashMap::new();
        for vni in current.assignments.keys() {
            let lead = leaders.get(vni).copied().unwrap_or(*vni);
            groups.entry(lead).or_default().push(*vni);
        }
        let mut ordered: Vec<(Vni, Vec<Vni>)> = groups.into_iter().collect();
        ordered.sort_by_key(|(lead, _)| *lead);

        let clusters = current.clusters_needed().max(target.clusters_needed());
        let mut achieved = current.per_cluster.clone();
        achieved.resize(clusters, Default::default());
        let mut moves = Vec::new();
        for (lead, mut members) in ordered {
            members.sort();
            let cur = current.assignments[&members[0]];
            let tgt = target.assignments[&members[0]];
            for vni in &members {
                if current.assignments[vni] != cur || target.assignments[vni] != tgt {
                    // A peer group split across clusters would strand
                    // cross-VPC traffic in software.
                    return Err(ReshardError::SplitInconsistent { vni: *vni });
                }
            }
            if cur == tgt || members.iter().any(|v| pinned.contains(v)) {
                continue;
            }
            let (routes, vms) = members
                .iter()
                .filter_map(|v| weights.get(v))
                .fold((0, 0), |(r, m), (wr, wm)| (r + wr, m + wm));
            let mv = VniMove {
                leader: lead,
                vnis: members,
                from: cur,
                to: tgt,
                routes,
                vms,
            };
            mv.shift_load(&mut achieved)
                .map_err(|cluster| ReshardError::UnknownCluster { cluster, clusters })?;
            moves.push(mv);
        }
        for (cluster, load) in achieved.iter().enumerate() {
            if load.routes > capacity.max_routes || load.vms > capacity.max_vms {
                return Err(ReshardError::CapacityExceeded {
                    cluster,
                    routes: load.routes,
                    vms: load.vms,
                });
            }
        }
        Ok(ReshardPlan { moves })
    }

    /// Total VNIs moving.
    pub fn vnis_moving(&self) -> usize {
        self.moves.iter().map(|m| m.vnis.len()).sum()
    }
}

/// Drives one [`VniMove`] through the make-before-break stages.
#[derive(Debug, Clone)]
pub struct MoveMachine<'t> {
    /// The move being driven.
    pub mv: VniMove,
    state: MoveState,
    /// The topology the images are built from.
    topology: &'t Topology,
}

impl<'t> MoveMachine<'t> {
    /// A machine for `mv` over `topology` (pure planning; no device is
    /// touched).
    pub fn new(topology: &'t Topology, mv: VniMove) -> Self {
        MoveMachine {
            mv,
            state: MoveState::Planned,
            topology,
        }
    }

    /// Where the machine stands.
    pub fn state(&self) -> MoveState {
        self.state
    }

    fn refuse(&self, action: &'static str) -> ReshardError {
        ReshardError::InvalidTransition {
            state: self.state,
            action,
        }
    }

    /// The image `cluster` holds under the region's plan, with the
    /// moving VNIs when `with_move`.
    fn image(&self, region: &Region, cluster: usize, with_move: bool) -> Arc<HardwareTables> {
        let vpcs: Vec<usize> = (0..)
            .zip(&self.topology.vpcs)
            .filter(|(_, vpc)| {
                (with_move && self.mv.vnis.binary_search(&vpc.vni).is_ok())
                    || region.plan.assignments.get(&vpc.vni) == Some(&cluster)
            })
            .map(|(i, _)| i)
            .collect();
        Arc::new(ImageBuilder::new(self.topology, 0).build(&vpcs, region.config.alpm))
    }

    /// **Announce**: the destination cluster (and its backup) statically
    /// verifies and two-phase-pushes an image holding the moving tables.
    /// Traffic is untouched — the directory still points at the source.
    pub fn announce(
        &mut self,
        region: &mut Region,
        clock: &mut VirtualClock,
        policy: &InstallPolicy,
        injector: &mut InstallInjector<'_>,
    ) -> Result<InstallReport, ReshardError> {
        if self.state != MoveState::Planned {
            return Err(self.refuse("announce"));
        }
        let clusters = region.plan.clusters_needed();
        for c in [self.mv.from, self.mv.to] {
            if c >= clusters || c >= region.hw.len() {
                return Err(ReshardError::UnknownCluster {
                    cluster: c,
                    clusters: clusters.min(region.hw.len()),
                });
            }
        }
        // Plan-time world gate: every intermediate world of this move's
        // make-before-break sequence must leave its VNIs covered and
        // every touched cluster within capacity. O(delta) — the live
        // base is covered by a trusted certificate.
        let world =
            crate::worldcheck::verify_reshard(region, core::slice::from_ref(&self.mv), "announce");
        if !world.is_clean() {
            return Err(ReshardError::StaticallyRejected {
                detail: world.error_detail(),
            });
        }

        let (to, routes, vms) = (self.mv.to, self.mv.routes, self.mv.vms);
        let image = self.image(region, to, true);
        // Static gate before any push: the destination's devices must
        // legally hold current + moving load.
        Controller::verify_load(
            to,
            region.hw[to].route_entries() + routes,
            region.hw[to].vm_entries() + vms,
        )?;
        let previous = region.hw[to].devices.clone();
        let mut report = InstallReport::default();
        for cluster in std::iter::once(to).chain(region.backup_of(to)) {
            let Some(hw) = region.hw.get_mut(cluster) else {
                continue;
            };
            let pushed = Push {
                cluster,
                slots: 0..hw.devices.len(),
                image: &image,
                routes,
                vms,
            }
            .run(hw, clock, policy, injector);
            match pushed {
                Ok(pushed) => report.absorb(&pushed),
                Err(e) => {
                    // Make-before-break means *make* everywhere or
                    // nothing: a failed backup push unwinds the primary.
                    region.hw[to].devices = previous;
                    return Err(e.into());
                }
            }
        }
        self.state = MoveState::At(MoveStage::Announce);
        Ok(report)
    }

    /// One stage forward: **Dual** (both owners serve; flows hash to
    /// either), **Commit** (one atomic step retargets the directory and
    /// the split plan to the destination) or **Drain** (the source and
    /// its backup move to an image without the moved entries, freeing
    /// their SRAM/TCAM).
    pub fn advance(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        let next = match self.state {
            MoveState::At(stage) => stage.next(),
            MoveState::Planned | MoveState::RolledBack => None,
        };
        let next = next.ok_or_else(|| self.refuse("advance"))?;
        self.step(region, MoveState::At(next));
        Ok(())
    }

    /// Rolls back from Announce or Dual: the group's directory entries
    /// return to the source alone and the destination (and its backup)
    /// returns to an image of its planned VNIs. The region is exactly as
    /// before `announce`.
    pub fn rollback(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        if !matches!(self.state, MoveState::At(stage) if stage < MoveStage::Commit) {
            return Err(self.refuse("rollback"));
        }
        self.step(region, MoveState::RolledBack);
        Ok(())
    }

    /// The move in flight in `state`, if any.
    fn live(&self, state: MoveState) -> Option<LiveMove> {
        match state {
            MoveState::At(stage) => Some(LiveMove {
                from: self.mv.from,
                to: self.mv.to,
                stage,
            }),
            MoveState::Planned | MoveState::RolledBack => None,
        }
    }

    /// Moves the region to `next`: the group's directory entries follow
    /// its owners there, Commit retargets the split plan, and every
    /// cluster that stops holding the group (and its backup) re-points
    /// at its plan image. With no move in flight the source alone owns
    /// and holds the group.
    fn step(&mut self, region: &mut Region, next: MoveState) {
        let home = (self.mv.from, None);
        let (held, also_held) = self.live(self.state).map_or(home, |m| m.holders());
        let after = self.live(next);
        let (primary, dual) = after.map_or(home, |m| m.owners());
        let holders = after.map_or(home, |m| m.holders());
        for vni in &self.mv.vnis {
            region.directory.assign(*vni, primary);
            region.directory.set_dual(*vni, dual);
        }
        if next == MoveState::At(MoveStage::Commit) {
            for vni in &self.mv.vnis {
                region.plan.assignments.insert(*vni, self.mv.to);
            }
            // `announce` checked that the plan has both clusters.
            let _ = self.mv.shift_load(&mut region.plan.per_cluster);
        }
        let left = std::iter::once(held).chain(also_held);
        for left in left.filter(|c| *c != holders.0 && Some(*c) != holders.1) {
            let image = self.image(region, left, false);
            for c in std::iter::once(left).chain(region.backup_of(left)) {
                if let Some(hw) = region.hw.get_mut(c) {
                    hw.point_all(&image);
                }
            }
        }
        self.state = next;
    }
}

/// Outcome of driving one move.
#[derive(Debug, Clone)]
pub struct MoveOutcome {
    /// The move's group leader.
    pub leader: Vni,
    /// Source cluster.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Final state reached (`At(Drain)` on success, `RolledBack` on a
    /// clean abort).
    pub state: MoveState,
    /// Push attempts made during `Announce`.
    pub attempts: u32,
    /// The error that forced a rollback, if any.
    pub error: Option<String>,
}

/// Report of a full re-shard run.
#[derive(Debug, Clone, Default)]
pub struct ReshardReport {
    /// Per-move outcomes, in drive order.
    pub outcomes: Vec<MoveOutcome>,
    /// Virtual time consumed by the whole run.
    pub virtual_ns: u64,
    /// When the plan-time world verifier rejected the whole plan before
    /// any move was driven: its error diagnostics. `None` on a plan that
    /// verified clean and ran.
    pub static_detail: Option<String>,
}

impl ReshardReport {
    /// Moves that completed (drained).
    pub fn committed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == MoveState::At(MoveStage::Drain))
            .count()
    }

    /// Moves that rolled back cleanly.
    pub fn rolled_back(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == MoveState::RolledBack)
            .count()
    }

    /// Directory epochs (stage transitions that retarget traffic: Dual
    /// entry + Commit per completed move, one abort per rollback) per
    /// virtual second.
    pub fn epochs_per_sec(&self) -> f64 {
        let epochs = (self.committed() * 2 + self.rolled_back()) as f64;
        if self.virtual_ns == 0 {
            0.0
        } else {
            epochs / (self.virtual_ns as f64 / 1e9)
        }
    }
}

/// Drives every move of a plan through the full make-before-break
/// sequence. A move whose `announce` push exhausts its retries is rolled
/// back (the destination is left clean) and the next move proceeds —
/// one stuck migration must not wedge the whole re-shard.
pub fn run_plan(
    region: &mut Region,
    topology: &Topology,
    plan: &ReshardPlan,
    clock: &mut VirtualClock,
    policy: &InstallPolicy,
    injector: &mut InstallInjector<'_>,
) -> ReshardReport {
    let start_ns = clock.now_ns();
    let mut report = ReshardReport::default();
    // Whole-plan static verification up front: every intermediate world
    // of the full move sequence is proved black-hole-free and within
    // capacity before the first announce. A rejected plan drives
    // nothing — the outcomes stay `Planned` with the verifier's verdict.
    let world = crate::worldcheck::verify_reshard(region, &plan.moves, "reshard-plan");
    if !world.is_clean() {
        let detail = world.error_detail();
        for mv in &plan.moves {
            report.outcomes.push(MoveOutcome {
                leader: mv.leader,
                from: mv.from,
                to: mv.to,
                state: MoveState::Planned,
                attempts: 0,
                error: Some(format!("statically rejected: {detail}")),
            });
        }
        report.static_detail = Some(detail);
        return report;
    }
    for mv in &plan.moves {
        let mut machine = MoveMachine::new(topology, mv.clone());
        let mut outcome = MoveOutcome {
            leader: mv.leader,
            from: mv.from,
            to: mv.to,
            state: MoveState::Planned,
            attempts: 0,
            error: None,
        };
        match machine.announce(region, clock, policy, injector) {
            Ok(push) => {
                outcome.attempts = push.attempts;
                (1..MoveStage::SEQUENCE.len())
                    .try_for_each(|_| machine.advance(region))
                    .unwrap_or_else(|e| outcome.error = Some(e.to_string()));
                outcome.state = machine.state();
            }
            Err(e) => {
                // Announce left the destination clean; nothing to unwind.
                outcome.state = MoveState::RolledBack;
                outcome.error = Some(e.to_string());
            }
        }
        report.outcomes.push(outcome);
    }
    report.virtual_ns = clock.now_ns() - start_ns;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::InstallError;
    use crate::region::{FlowPath, RegionConfig};
    use sailfish_sim::faults::InstallFault;
    use sailfish_sim::topology::TopologyConfig;
    use sailfish_sim::workload::{generate_flows, WorkloadConfig};

    fn tight() -> ClusterCapacity {
        ClusterCapacity {
            max_routes: 600,
            max_vms: 3_000,
        }
    }

    fn build() -> (Topology, Region) {
        let topology = Topology::generate(TopologyConfig::default());
        let region = Region::build(
            &topology,
            RegionConfig {
                hw_clusters: 4,
                spare_clusters: 1,
                devices_per_cluster: 2,
                sw_nodes: 2,
                capacity: tight(),
                ..RegionConfig::default()
            },
        )
        .unwrap();
        (topology, region)
    }

    /// A target split that moves one group from `from` onto the spare.
    fn single_move_plan(topology: &Topology, region: &Region) -> ReshardPlan {
        let current = &region.plan;
        let spare = current.clusters_needed() - 1;
        let mut target = current.clone();
        // Move the first (sorted) group owned by cluster 0 to the spare.
        let leaders = peer_leaders(topology);
        let mut by_leader: HashMap<Vni, Vec<Vni>> = HashMap::new();
        for vni in current.assignments.keys() {
            let lead = leaders.get(vni).copied().unwrap_or(*vni);
            by_leader.entry(lead).or_default().push(*vni);
        }
        let mut on_zero: Vec<Vni> = by_leader
            .iter()
            .filter(|(_, members)| current.assignments[&members[0]] == 0)
            .map(|(lead, _)| *lead)
            .collect();
        on_zero.sort();
        let lead = on_zero[0];
        for vni in &by_leader[&lead] {
            target.assignments.insert(*vni, spare);
        }
        ReshardPlan::plan(topology, current, &target, tight(), &BTreeSet::new()).unwrap()
    }

    #[test]
    fn plan_moves_only_the_differing_groups() {
        let (topology, region) = build();
        let plan = single_move_plan(&topology, &region);
        assert_eq!(plan.moves.len(), 1);
        let spare = region.plan.clusters_needed() - 1;
        assert_eq!(plan.moves[0].from, 0);
        assert_eq!(plan.moves[0].to, spare);
        assert!(plan.moves[0].routes > 0);

        // Identical splits plan zero moves.
        let noop = ReshardPlan::plan(
            &topology,
            &region.plan,
            &region.plan,
            tight(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert!(noop.moves.is_empty());

        // Pinning any member of the group suppresses its move.
        let pinned: BTreeSet<Vni> = plan.moves[0].vnis.iter().copied().take(1).collect();
        let mut target = region.plan.clone();
        for vni in &plan.moves[0].vnis {
            target.assignments.insert(*vni, spare);
        }
        let suppressed =
            ReshardPlan::plan(&topology, &region.plan, &target, tight(), &pinned).unwrap();
        assert!(suppressed.moves.is_empty());
    }

    #[test]
    fn full_sequence_commits_and_drains() {
        let (topology, mut region) = build();
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 1_000,
                total_gbps: 500.0,
                ..WorkloadConfig::default()
            },
        );
        let plan = single_move_plan(&topology, &region);
        let mv = plan.moves[0].clone();
        let before = region.offer(&flows, 1.0);
        assert_eq!(before.unrouted_pps, 0.0);

        let mut machine = MoveMachine::new(&topology, mv.clone());
        let mut clock = VirtualClock::new();
        let policy = InstallPolicy::default();

        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        // Announce: traffic still entirely on the old owner.
        for f in &flows {
            if mv.vnis.contains(&f.vni) {
                assert!(matches!(
                    region.classify(f),
                    FlowPath::Hw { cluster, .. } if cluster == mv.from
                ));
            }
        }

        machine.advance(&mut region).unwrap();
        // Dual: no packet black-holes; flows land on either owner.
        let mut on = [0usize; 2];
        for f in &flows {
            if mv.vnis.contains(&f.vni) {
                match region.classify(f) {
                    FlowPath::Hw { cluster, .. } if cluster == mv.from => on[0] += 1,
                    FlowPath::Hw { cluster, .. } if cluster == mv.to => on[1] += 1,
                    FlowPath::Punt { cluster, .. } if cluster == mv.from || cluster == mv.to => {}
                    other => panic!("dual-phase flow took {other:?}"),
                }
            }
        }
        let dual_report = region.offer(&flows, 1.0);
        assert_eq!(dual_report.unrouted_pps, 0.0);
        assert_eq!(dual_report.fallback_pps, 0.0);

        machine.advance(&mut region).unwrap();
        assert_eq!(region.directory.dual_len(), 0);
        for vni in &mv.vnis {
            assert_eq!(region.directory.cluster_for(*vni), Some(mv.to));
            assert_eq!(region.plan.assignments[vni], mv.to);
        }

        machine.advance(&mut region).unwrap();
        assert_eq!(machine.state(), MoveState::At(MoveStage::Drain));
        // Source freed its SRAM/TCAM; consistency check follows the plan.
        for d in 0..region.hw[mv.from].devices.len() {
            for vni in &mv.vnis {
                assert_eq!(region.hw[mv.from].route_entries_for(d, *vni), 0);
            }
        }
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        assert!(findings.is_empty(), "{findings:?}");
        let after = region.offer(&flows, 1.0);
        assert_eq!(after.unrouted_pps, 0.0);
        assert_eq!(after.fallback_pps, 0.0);
        assert!((after.offered_pps - before.offered_pps).abs() < 1.0);
    }

    #[test]
    fn rollback_from_each_precommit_phase_restores_the_region() {
        let (topology, mut region) = build();
        let plan = single_move_plan(&topology, &region);
        let mv = plan.moves[0].clone();
        let policy = InstallPolicy::default();
        let baseline_routes = region.hw[mv.to].route_entries();
        let baseline_snapshot = region.directory.snapshot();

        // Rollback from Announce.
        let mut clock = VirtualClock::new();
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.rollback(&mut region).unwrap();
        assert_eq!(machine.state(), MoveState::RolledBack);
        assert_eq!(region.hw[mv.to].route_entries(), baseline_routes);
        assert_eq!(region.directory.snapshot(), baseline_snapshot);

        // Rollback from Dual.
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.advance(&mut region).unwrap();
        assert!(region.directory.dual_len() > 0);
        machine.rollback(&mut region).unwrap();
        assert_eq!(region.directory.dual_len(), 0);
        assert_eq!(region.hw[mv.to].route_entries(), baseline_routes);
        assert_eq!(region.directory.snapshot(), baseline_snapshot);

        // Rollback from Commit is refused: make-before-break has no
        // undo once the directory is retargeted.
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.advance(&mut region).unwrap();
        machine.advance(&mut region).unwrap();
        assert!(matches!(
            machine.rollback(&mut region),
            Err(ReshardError::InvalidTransition { .. })
        ));
        machine.advance(&mut region).unwrap();
    }

    /// One step the exhaustive check drives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Announce,
        /// An announce whose every push faults.
        FaultedAnnounce,
        Advance,
        Rollback,
    }

    fn apply(
        step: Step,
        machine: &mut MoveMachine<'_>,
        region: &mut Region,
    ) -> Result<(), ReshardError> {
        let mut clock = VirtualClock::new();
        let policy = InstallPolicy {
            max_attempts: 2,
            ..InstallPolicy::default()
        };
        match step {
            Step::Announce => machine
                .announce(region, &mut clock, &policy, &mut |_, _| None)
                .map(drop),
            Step::FaultedAnnounce => machine
                .announce(region, &mut clock, &policy, &mut |_, _| {
                    Some(InstallFault::Partial { fraction: 0.5 })
                })
                .map(drop),
            Step::Advance => machine.advance(region),
            Step::Rollback => machine.rollback(region),
        }
    }

    /// Everything a step may touch: the directory's primaries, its dual
    /// entries, and every device slot's image.
    type Observed = (
        Vec<(Vni, usize)>,
        Vec<(Vni, usize)>,
        Vec<Vec<Arc<HardwareTables>>>,
    );

    fn observe(region: &Region) -> Observed {
        let snapshot = region.directory.snapshot();
        let dual = snapshot
            .iter()
            .filter_map(|(v, _)| region.directory.dual_of(*v).map(|d| (*v, d)))
            .collect();
        let images = region.hw.iter().map(|c| c.devices.clone()).collect();
        (snapshot, dual, images)
    }

    /// What an image holds, for comparing two builds of one plan.
    fn contents(image: &HardwareTables) -> (usize, Vec<(Vni, usize)>) {
        let routes = image.routes.vnis();
        let per_vni = routes
            .into_iter()
            .map(|v| (v, image.routes.len_for_vni(v)))
            .collect();
        (image.vm_nc.len(), per_vni)
    }

    /// Every reachable machine state crossed with every step, each
    /// replayed on a freshly built region with backups: an illegal step
    /// changes nothing, every owner of the group holds its routes after
    /// a legal one, and a rollback restores the pre-move region.
    #[test]
    fn every_reachable_state_handles_every_step_safely() {
        const STEPS: [Step; 4] = [
            Step::Announce,
            Step::FaultedAnnounce,
            Step::Advance,
            Step::Rollback,
        ];
        let (topology, probe) = build();
        let mv = single_move_plan(&topology, &probe).moves[0].clone();
        let routes: Vec<usize> = mv
            .vnis
            .iter()
            .map(|v| probe.hw[mv.from].route_entries_for(0, *v))
            .collect();
        assert!(routes.iter().sum::<usize>() > 0);
        drop(probe);

        let mut seen = vec![MoveState::Planned];
        let mut queue = std::collections::VecDeque::from([(MoveState::Planned, Vec::new())]);
        let mut checked = 0;
        while let Some((state, path)) = queue.pop_front() {
            for step in STEPS {
                let (_, mut region) = build();
                let pre = observe(&region);
                let mut machine = MoveMachine::new(&topology, mv.clone());
                for s in &path {
                    apply(*s, &mut machine, &mut region).unwrap();
                }
                assert_eq!(machine.state(), state);
                let before = observe(&region);
                let result = apply(step, &mut machine, &mut region);
                let after = observe(&region);
                let unchanged = before.0 == after.0
                    && before.1 == after.1
                    && before
                        .2
                        .iter()
                        .zip(&after.2)
                        .all(|(b, a)| b.iter().zip(a).all(|(b, a)| Arc::ptr_eq(b, a)));
                let what = format!("{step:?} from {state:?}");
                checked += 1;
                match result {
                    Err(ReshardError::InvalidTransition { state: s, .. }) => {
                        assert_eq!(s, state, "{what}");
                        assert_eq!(machine.state(), state, "{what}");
                        assert!(unchanged, "{what}: an illegal step changed the region");
                        continue;
                    }
                    Err(e) => {
                        assert_eq!((step, state), (Step::FaultedAnnounce, MoveState::Planned));
                        assert!(
                            matches!(
                                e,
                                ReshardError::Install(InstallError::RetriesExhausted { .. })
                            ),
                            "{what}: {e}"
                        );
                        assert_eq!(machine.state(), state, "{what}");
                        assert!(unchanged, "{what}: a failed announce changed the region");
                    }
                    Ok(()) => {
                        let next = machine.state();
                        if !seen.contains(&next) {
                            seen.push(next);
                            let mut longer = path.clone();
                            longer.push(step);
                            queue.push_back((next, longer));
                        }
                    }
                }
                // Every owner of every group VNI — and its backup —
                // holds the VNI's routes on every device.
                for (vni, want) in mv.vnis.iter().zip(&routes) {
                    let (primary, dual) = region.directory.owners_for(*vni).unwrap();
                    for owner in std::iter::once(primary).chain(dual) {
                        for c in std::iter::once(owner).chain(region.backup_of(owner)) {
                            for d in 0..region.hw[c].devices.len() {
                                assert_eq!(
                                    region.hw[c].route_entries_for(d, *vni),
                                    *want,
                                    "{what}: cluster {c} device {d} lacks {vni}"
                                );
                            }
                        }
                    }
                }
                if step == Step::Rollback {
                    assert_eq!(after.0, pre.0, "{what}: directory");
                    assert!(after.1.is_empty(), "{what}: dual entries");
                    for (c, (now, then)) in after.2.iter().zip(&pre.2).enumerate() {
                        for (now, then) in now.iter().zip(then) {
                            assert_eq!(contents(now), contents(then), "{what}: cluster {c}");
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 6, "reachable: {seen:?}");
        assert_eq!(checked, 6 * STEPS.len());
    }

    #[test]
    fn exhausted_announce_leaves_destination_clean() {
        let (topology, mut region) = build();
        let plan = single_move_plan(&topology, &region);
        let mv = plan.moves[0].clone();
        let policy = InstallPolicy {
            max_attempts: 2,
            ..InstallPolicy::default()
        };
        let baseline = region.hw[mv.to].route_entries();
        let mut clock = VirtualClock::new();
        let report = run_plan(
            &mut region,
            &topology,
            &plan,
            &mut clock,
            &policy,
            &mut |_, _| Some(InstallFault::Timeout),
        );
        assert_eq!(report.committed(), 0);
        assert_eq!(report.rolled_back(), 1);
        assert!(report.outcomes[0].error.is_some());
        assert_eq!(region.hw[mv.to].route_entries(), baseline);
        // Directory untouched: traffic still flows to the old owner.
        for vni in &mv.vnis {
            assert_eq!(region.directory.cluster_for(*vni), Some(mv.from));
        }
    }

    #[test]
    fn run_plan_survives_partial_faults_and_commits() {
        let (topology, mut region) = build();
        let plan = single_move_plan(&topology, &region);
        let mut clock = VirtualClock::new();
        let mut first = true;
        let report = run_plan(
            &mut region,
            &topology,
            &plan,
            &mut clock,
            &InstallPolicy::default(),
            &mut |_, _| {
                if first {
                    first = false;
                    Some(InstallFault::Partial { fraction: 0.5 })
                } else {
                    None
                }
            },
        );
        assert_eq!(report.committed(), plan.moves.len());
        assert_eq!(report.rolled_back(), 0);
        assert!(report.outcomes[0].attempts >= 2, "partial push retried");
        assert!(report.epochs_per_sec() > 0.0);
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
