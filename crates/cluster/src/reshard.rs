//! Elastic re-sharding: live VNI migration between clusters.
//!
//! The split computed by [`Controller::plan_split`] is not forever —
//! festival scale-ups, device retirement and load imbalance all force the
//! VNI→cluster split to change while traffic is in flight. This module
//! plans the *minimal* set of VNI moves between two splits
//! ([`ReshardPlan`]) and drives each move through a typed
//! make-before-break state machine ([`MoveMachine`]):
//!
//! ```text
//!   Planned ──announce──▶ Announced ──enter_dual──▶ Dual ──commit──▶ Committed ──drain──▶ Drained
//!                │                          │
//!                └────────rollback──────────┴──▶ RolledBack
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
//! region exactly as before the move began.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use sailfish_net::Vni;
use sailfish_sim::faults::VirtualClock;
use sailfish_sim::topology::Topology;
use sailfish_xgw_h::HardwareTables;

use crate::cluster::ImageBuilder;
use crate::controller::{
    peer_leaders, vni_weights, ClusterCapacity, Controller, InstallError, InstallInjector,
    InstallPolicy, InstallReport, Push, SplitPlan,
};
use crate::region::Region;

/// Phase of one make-before-break migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MovePhase {
    /// Planned; nothing touched yet.
    Planned,
    /// Destination (and backup) verified and holding the tables.
    Announced,
    /// Both owners serve the range.
    Dual,
    /// Directory retargeted; destination is sole owner.
    Committed,
    /// Source freed its copy; migration complete.
    Drained,
    /// Aborted from a pre-commit phase; region as before the move.
    RolledBack,
}

impl MovePhase {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MovePhase::Planned => "planned",
            MovePhase::Announced => "announced",
            MovePhase::Dual => "dual",
            MovePhase::Committed => "committed",
            MovePhase::Drained => "drained",
            MovePhase::RolledBack => "rolled_back",
        }
    }
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
    /// The state machine was asked for a step its phase does not allow.
    InvalidTransition {
        /// The phase the machine is in.
        phase: MovePhase,
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
            ReshardError::InvalidTransition { phase, action } => {
                write!(f, "cannot {action} from phase {}", phase.label())
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
            let src = achieved.get_mut(cur).ok_or(ReshardError::UnknownCluster {
                cluster: cur,
                clusters,
            })?;
            src.routes = src.routes.saturating_sub(routes);
            src.vms = src.vms.saturating_sub(vms);
            let dst = achieved.get_mut(tgt).ok_or(ReshardError::UnknownCluster {
                cluster: tgt,
                clusters,
            })?;
            dst.routes += routes;
            dst.vms += vms;
            moves.push(VniMove {
                leader: lead,
                vnis: members,
                from: cur,
                to: tgt,
                routes,
                vms,
            });
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

/// Drives one [`VniMove`] through the make-before-break phases.
#[derive(Debug, Clone)]
pub struct MoveMachine<'t> {
    /// The move being driven.
    pub mv: VniMove,
    /// Current phase.
    pub phase: MovePhase,
    /// The topology the images are built from.
    topology: &'t Topology,
}

impl<'t> MoveMachine<'t> {
    /// A machine for `mv` over `topology` (pure planning; no device is
    /// touched).
    pub fn new(topology: &'t Topology, mv: VniMove) -> Self {
        MoveMachine {
            mv,
            phase: MovePhase::Planned,
            topology,
        }
    }

    fn expect_phase(&self, want: MovePhase, action: &'static str) -> Result<(), ReshardError> {
        if self.phase == want {
            Ok(())
        } else {
            Err(ReshardError::InvalidTransition {
                phase: self.phase,
                action,
            })
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

    /// Points `cluster` and its backup at `image`.
    fn point(region: &mut Region, cluster: usize, image: &Arc<HardwareTables>) {
        for c in std::iter::once(cluster).chain(region.backup_of(cluster)) {
            if let Some(hw) = region.hw.get_mut(c) {
                hw.point_all(image);
            }
        }
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
        self.expect_phase(MovePhase::Planned, "announce")?;
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
        self.phase = MovePhase::Announced;
        Ok(report)
    }

    /// **Dual**: both owners serve the range; flows hash to either.
    pub fn enter_dual(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        self.expect_phase(MovePhase::Announced, "enter_dual")?;
        for vni in &self.mv.vnis {
            region.directory.begin_dual(*vni, self.mv.to);
        }
        self.phase = MovePhase::Dual;
        Ok(())
    }

    /// **Commit**: one atomic step retargets the directory and the split
    /// plan, making the destination the sole owner.
    pub fn commit(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        self.expect_phase(MovePhase::Dual, "commit")?;
        for vni in &self.mv.vnis {
            region.directory.promote(*vni);
            region.plan.assignments.insert(*vni, self.mv.to);
        }
        if let Some(src) = region.plan.per_cluster.get_mut(self.mv.from) {
            src.routes = src.routes.saturating_sub(self.mv.routes);
            src.vms = src.vms.saturating_sub(self.mv.vms);
        }
        if let Some(dst) = region.plan.per_cluster.get_mut(self.mv.to) {
            dst.routes += self.mv.routes;
            dst.vms += self.mv.vms;
        }
        self.phase = MovePhase::Committed;
        Ok(())
    }

    /// **Drain**: the source cluster (and its backup) moves to an image
    /// without the moved entries, freeing their SRAM/TCAM.
    pub fn drain(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        self.expect_phase(MovePhase::Committed, "drain")?;
        let image = self.image(region, self.mv.from, false);
        Self::point(region, self.mv.from, &image);
        self.phase = MovePhase::Drained;
        Ok(())
    }

    /// Rolls back from any pre-commit phase: dual ownership (if entered)
    /// is aborted and the destination (and its backup) returns to an
    /// image of its planned VNIs. The region is exactly as before
    /// `announce`.
    pub fn rollback(&mut self, region: &mut Region) -> Result<(), ReshardError> {
        match self.phase {
            MovePhase::Announced | MovePhase::Dual => {}
            _ => {
                return Err(ReshardError::InvalidTransition {
                    phase: self.phase,
                    action: "rollback",
                })
            }
        }
        if self.phase == MovePhase::Dual {
            for vni in &self.mv.vnis {
                region.directory.abort_dual(*vni);
            }
        }
        let image = self.image(region, self.mv.to, false);
        Self::point(region, self.mv.to, &image);
        self.phase = MovePhase::RolledBack;
        Ok(())
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
    /// Final phase reached (`Drained` on success, `RolledBack` on a
    /// clean abort).
    pub phase: MovePhase,
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
            .filter(|o| o.phase == MovePhase::Drained)
            .count()
    }

    /// Moves that rolled back cleanly.
    pub fn rolled_back(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.phase == MovePhase::RolledBack)
            .count()
    }

    /// Directory epochs (phase transitions that retarget traffic: Dual
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
                phase: MovePhase::Planned,
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
            phase: MovePhase::Planned,
            attempts: 0,
            error: None,
        };
        match machine.announce(region, clock, policy, injector) {
            Ok(push) => {
                outcome.attempts = push.attempts;
                machine
                    .enter_dual(region)
                    .and_then(|()| machine.commit(region))
                    .and_then(|()| machine.drain(region))
                    .unwrap_or_else(|e| outcome.error = Some(e.to_string()));
            }
            Err(e) => {
                // Announce left the destination clean; nothing to unwind.
                machine.phase = MovePhase::RolledBack;
                outcome.error = Some(e.to_string());
            }
        }
        outcome.phase = machine.phase;
        report.outcomes.push(outcome);
    }
    report.virtual_ns = clock.now_ns() - start_ns;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
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

        machine.enter_dual(&mut region).unwrap();
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

        machine.commit(&mut region).unwrap();
        assert_eq!(region.directory.dual_len(), 0);
        for vni in &mv.vnis {
            assert_eq!(region.directory.cluster_for(*vni), Some(mv.to));
            assert_eq!(region.plan.assignments[vni], mv.to);
        }

        machine.drain(&mut region).unwrap();
        assert_eq!(machine.phase, MovePhase::Drained);
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

        // Rollback from Announced.
        let mut clock = VirtualClock::new();
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.rollback(&mut region).unwrap();
        assert_eq!(machine.phase, MovePhase::RolledBack);
        assert_eq!(region.hw[mv.to].route_entries(), baseline_routes);
        assert_eq!(region.directory.snapshot(), baseline_snapshot);

        // Rollback from Dual.
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.enter_dual(&mut region).unwrap();
        assert!(region.directory.dual_len() > 0);
        machine.rollback(&mut region).unwrap();
        assert_eq!(region.directory.dual_len(), 0);
        assert_eq!(region.hw[mv.to].route_entries(), baseline_routes);
        assert_eq!(region.directory.snapshot(), baseline_snapshot);

        // Rollback from Committed is refused: make-before-break has no
        // undo once the directory is retargeted.
        let mut machine = MoveMachine::new(&topology, mv.clone());
        machine
            .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
            .unwrap();
        machine.enter_dual(&mut region).unwrap();
        machine.commit(&mut region).unwrap();
        assert!(matches!(
            machine.rollback(&mut region),
            Err(ReshardError::InvalidTransition { .. })
        ));
        machine.drain(&mut region).unwrap();
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
