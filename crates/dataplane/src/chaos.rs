//! Dataplane chaos harness: replay fault schedules against a **live**
//! executor.
//!
//! PR 2's `sim::faults` schedules drive an abstract region model; this
//! harness replays the same six fault kinds against the packet-level
//! [`Dataplane`], with recovery applied the only way a live gateway may
//! apply it: **staged epoch builds published by atomic swap**
//! ([`crate::epoch`]). Per slot the harness
//!
//! 1. derives the degraded [`WorldView`] from the faults active this
//!    slot, stages a rebuild and publishes it (install faults defer or
//!    discard the publish — a torn staged state never goes live),
//! 2. drives a Zipf traffic slice through [`Dataplane::run_single`], and
//! 3. checks three invariants:
//!    - **no black hole** — the accounting identity holds exactly: every
//!      parsed packet is forwarded, intentionally dropped, or served by
//!      a software rung (DPU middle tier or x86 fallback);
//!    - **bounded fallback share** — punts never exceed the degradation's
//!      blast radius (per-frame classification against the published
//!      world) plus a small margin;
//!    - **oracle agreement** — after every published epoch swap, the
//!      differential oracle must find zero mismatches between the
//!      executor and the reference software forwarder.
//!
//! Per-tier share alerts ([`sailfish_cluster::monitor::Alert::DpuShare`]
//! and [`sailfish_cluster::monitor::Alert::FallbackShare`]) are raised
//! from the same measurements, so tests can assert the operator sees each
//! rung's degradation before that rung's circuit breaker opens. When the
//! dataplane runs the three-tier ladder ([`DataplaneConfig::tier`]), the
//! two DPU fault kinds — node death and pool saturation — land in the
//! [`WorldView`] like any other degradation and recover through the same
//! staged-epoch publishes, so consistent-hash re-homing and saturation
//! shedding are chaos-verified alongside the classic six kinds.

use std::collections::{BTreeMap, BTreeSet};

use sailfish_asic::verify::world::{
    trusted_certificate, verify_plan, EntryBudget, MoveStage, TransitionPlan, WorldModel,
    WorldMove, WorldOptions,
};
use sailfish_cluster::controller::{peer_anchor, InstallPolicy, SplitPlan};
use sailfish_cluster::monitor::{evaluate_tier_shares, Alert, WaterLevels};
use sailfish_cluster::reshard::LiveMove;
use sailfish_net::Vni;
use sailfish_sim::faults::{FaultEvent, FaultKind, FaultSchedule, InstallFault};
use sailfish_sim::workload::{self, Flow, WorkloadConfig};
use sailfish_sim::Topology;
use sailfish_xgw_h::HwDecision;

use crate::counters::TableCounters;
use crate::engine;
use crate::epoch::{EpochState, WorldView};
use crate::executor::{software_forwarder, Dataplane, DataplaneConfig};
use crate::oracle::differential_run;
use crate::traffic;

/// One scripted make-before-break migration the harness replays against
/// the live executor. Each stage dwells for `dwell` slots and advances
/// Announce → Dual → Commit → Drain; the implied stage transition is
/// published as a fresh epoch (and is therefore subject to any install
/// fault active at that slot, exactly like a recovery publish).
#[derive(Debug, Clone)]
pub struct ScriptedMove {
    /// Anchor VNI of the peer group to migrate (min of the pair — the
    /// key the epoch builder groups by).
    pub anchor: Vni,
    /// Source cluster; must be the group's healthy home for the world to
    /// converge back on rollback.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Slot the Announce stage begins.
    pub start: u64,
    /// Slots each stage lasts before advancing (min 1). Drain is
    /// terminal: once reached the group stays on the destination.
    pub dwell: u64,
    /// Roll back instead of advancing past this stage. Only pre-commit
    /// stages (`Announce`, `Dual`) can abort; the move is withdrawn from
    /// the world after the stage's window, returning the group home.
    pub abort_after: Option<MoveStage>,
}

impl ScriptedMove {
    /// The stages the move publishes: all of [`MoveStage::SEQUENCE`], or
    /// its prefix up to a pre-commit `abort_after`.
    fn stages(&self) -> &'static [MoveStage] {
        let kept = match self.abort_after {
            Some(limit) if limit < MoveStage::Commit => {
                MoveStage::SEQUENCE.iter().filter(|s| **s <= limit).count()
            }
            _ => MoveStage::SEQUENCE.len(),
        };
        &MoveStage::SEQUENCE[..kept]
    }
}

/// Where a scripted move's make-before-break sequence stands at `slot`,
/// or `None` before it starts / after a scripted rollback.
fn move_state_at(mv: &ScriptedMove, slot: u64) -> Option<LiveMove> {
    if slot < mv.start {
        return None;
    }
    let step = usize::try_from((slot - mv.start) / mv.dwell.max(1)).unwrap_or(usize::MAX);
    let stages = mv.stages();
    let stage = match stages.get(step) {
        Some(stage) => *stage,
        // Rolled back: the group is home again.
        None if stages.len() < MoveStage::SEQUENCE.len() => return None,
        None => MoveStage::Drain,
    };
    Some(LiveMove {
        from: mv.from,
        to: mv.to,
        stage,
    })
}

/// What one scripted move actually did across the run, as observed in
/// the **published** worlds (an install fault can delay or absorb a
/// stage; the outcome records what traffic really saw).
#[derive(Debug, Clone)]
pub struct ScriptedMoveOutcome {
    /// Anchor VNI of the migrated group.
    pub anchor: Vni,
    /// Source cluster.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Stages that reached a published epoch, in first-seen order.
    pub stages_published: Vec<MoveStage>,
    /// Whether the move reached `Drain` in a published world.
    pub committed: bool,
    /// Whether the move was withdrawn after a pre-commit stage and the
    /// group returned to its source.
    pub rolled_back: bool,
}

/// Harness tuning.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Distinct flows in the traffic pool.
    pub flows: usize,
    /// Frames offered per slot (before storm multipliers).
    pub frames_per_slot: usize,
    /// Seed for workload generation and per-slot scheduling.
    pub traffic_seed: u64,
    /// Frames in the post-swap differential-oracle probe.
    pub probe_frames: usize,
    /// Slack over the computed blast-radius share before the bounded-
    /// fallback invariant trips.
    pub fallback_margin: f64,
    /// Alert thresholds (the per-tier share levels are used here).
    pub levels: WaterLevels,
    /// Retry/backoff policy for publishes under install faults.
    pub install: InstallPolicy,
    /// Live migrations to replay alongside the fault schedule. Empty by
    /// default — the harness then behaves exactly as before.
    pub reshard: Vec<ScriptedMove>,
    /// Replay scripted moves the plan-time world verifier rejected
    /// instead of excluding them. `false` (the production posture) gates
    /// the overlay on the static verdict; `true` is the soundness
    /// differential's ungated arm — the rejected move runs, its dynamic
    /// fallout must be fully explained by the recorded rejection
    /// ([`ChaosReport::soundness_escapes`]).
    pub replay_rejected: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            flows: 600,
            frames_per_slot: 3_000,
            traffic_seed: 0xC4A05,
            probe_frames: 1_200,
            fallback_margin: 0.02,
            levels: WaterLevels::default(),
            install: InstallPolicy::default(),
            reshard: Vec::new(),
            replay_rejected: false,
        }
    }
}

/// Per-slot measurements.
#[derive(Debug, Clone)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Frames offered this slot.
    pub offered: u64,
    /// Packets the x86 software fallback served.
    pub fallback_packets: u64,
    /// `fallback_packets / offered`.
    pub fallback_share: f64,
    /// Packets the DPU middle tier served (zero without a configured
    /// tier).
    pub dpu_packets: u64,
    /// `dpu_packets / offered`.
    pub dpu_share: f64,
    /// Blast-radius share the published degradation explains.
    pub expected_fallback_share: f64,
    /// Packets the accounting identity could not explain (invariant 1;
    /// must be zero).
    pub unaccounted: u64,
    /// Punts shed by the meter or the open breaker.
    pub punts_shed: u64,
    /// The epoch the slot's traffic ran against.
    pub epoch: u64,
    /// Whether the published world was degraded during the slot.
    pub degraded: bool,
    /// Whether a `FallbackShare` alert fired.
    pub fallback_alert: bool,
    /// Whether a `DpuShare` alert fired.
    pub dpu_alert: bool,
    /// x86 punt-breaker open transitions observed this slot.
    pub breaker_opened: u64,
    /// DPU-tier breaker open transitions observed this slot.
    pub dpu_breaker_opened: u64,
    /// Punts served by a ring successor because the flow's primary DPU
    /// owner was dead (consistent-hash re-homing in action).
    pub dpu_rehomed: u64,
    /// Punts the DPU tier shed (meter or open breaker) that re-routed to
    /// the x86 rung.
    pub dpu_shed: u64,
    /// Packets a dual-ownership window steered to the secondary owner.
    pub dual_owner_packets: u64,
}

/// Outcome of one scheduled fault.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Stable fault-kind label.
    pub label: &'static str,
    /// Injection slot.
    pub injected_at: u64,
    /// Slot the schedule clears the fault (recovery may start).
    pub cleared_at: u64,
    /// Slot the recovery actually landed (published world no longer
    /// carries the fault), when it did within the run.
    pub recovered_at: Option<u64>,
    /// Slots from injection until the recovery landed (the MTTR measured
    /// in slots), when recovery landed.
    pub outage_slots: Option<u64>,
    /// Install attempts spent while this fault blocked publishes.
    pub install_attempts: u32,
}

/// A scripted move the plan-time world verifier refused before replay.
#[derive(Debug, Clone)]
pub struct StaticReject {
    /// Anchor VNI of the rejected move.
    pub anchor: Vni,
    /// Source cluster the script named.
    pub from: usize,
    /// Destination cluster the script named.
    pub to: usize,
    /// Slot the move would have started.
    pub start: u64,
    /// The verifier's error diagnostics, `; `-joined.
    pub detail: String,
}

/// One invariant violation (an empty list means the run holds).
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Slot of the violation.
    pub slot: u64,
    /// Which invariant tripped.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Full harness report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-slot measurements.
    pub slots: Vec<SlotRecord>,
    /// Per-fault outcomes in schedule order.
    pub faults: Vec<FaultOutcome>,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<InvariantViolation>,
    /// Epoch swaps published across the run.
    pub epochs_swapped: u64,
    /// Publishes discarded by the staged-state verify gate.
    pub discarded_installs: u64,
    /// Differential-oracle probes executed (one per published swap).
    pub oracle_checks: u64,
    /// Total oracle mismatches (must be zero).
    pub oracle_mismatches: u64,
    /// Per-scripted-move outcomes in config order.
    pub moves: Vec<ScriptedMoveOutcome>,
    /// Scripted moves the plan-time world verifier refused (in config
    /// order of the rejected moves). Unless
    /// [`ChaosConfig::replay_rejected`] is set they never reach a
    /// published world.
    pub static_rejects: Vec<StaticReject>,
    /// `(slot, alert)` pairs raised during the run.
    pub alerts: Vec<(u64, Alert)>,
    /// First slot a `FallbackShare` alert fired.
    pub first_fallback_alert_slot: Option<u64>,
    /// First slot the x86 punt breaker opened.
    pub first_breaker_open_slot: Option<u64>,
    /// First slot a `DpuShare` alert fired.
    pub first_dpu_alert_slot: Option<u64>,
    /// First slot the DPU-tier breaker opened.
    pub first_dpu_breaker_open_slot: Option<u64>,
}

impl ChaosReport {
    /// Whether all three invariants held across the whole run.
    pub fn holds(&self) -> bool {
        self.violations.is_empty() && self.oracle_mismatches == 0
    }

    /// The soundness differential: dynamic invariant violations that
    /// neither an injected fault (active in a window covering the slot)
    /// nor a statically rejected — and deliberately replayed — move
    /// explains. A sound plan-time verifier leaves **zero**: everything
    /// that goes wrong at runtime was either injected on purpose or
    /// flagged before the first packet.
    pub fn soundness_escapes(&self, schedule: &FaultSchedule) -> u64 {
        self.violations
            .iter()
            .filter(|v| {
                let faulted = schedule
                    .events
                    .iter()
                    .any(|e| e.at <= v.slot && v.slot <= e.ends_at());
                let flagged = self.static_rejects.iter().any(|r| v.slot >= r.start);
                !faulted && !flagged
            })
            .count() as u64
    }

    /// Mean MTTR in slots over the faults that recovered.
    pub fn mean_mttr_slots(&self) -> f64 {
        let recovered: Vec<u64> = self.faults.iter().filter_map(|f| f.outage_slots).collect();
        if recovered.is_empty() {
            0.0
        } else {
            recovered.iter().sum::<u64>() as f64 / recovered.len() as f64
        }
    }
}

/// The world the faults active at one slot imply, plus the traffic storm
/// multiplier and any install fault blocking publishes. `dpu_nodes` is
/// the configured pool size (0 without a tier — the DPU fault kinds then
/// land in the view but the epoch builder ignores them). With zero
/// clusters a cluster fault names nothing and degrades nothing.
fn world_of(
    active: &[&FaultEvent],
    clusters: usize,
    dpu_nodes: usize,
) -> (WorldView, f64, Option<InstallFault>) {
    let mut world = WorldView::healthy();
    let mut storm = 1.0f64;
    let mut install: Option<InstallFault> = None;
    for event in active {
        match event.kind {
            FaultKind::NodeDeath { cluster, device }
            | FaultKind::PortDegradation {
                cluster, device, ..
            } => {
                if let Some(cluster) = cluster.checked_rem(clusters) {
                    world.dead_devices.insert((cluster, device));
                }
            }
            FaultKind::ClusterFailure { cluster } => {
                world
                    .unassigned_clusters
                    .extend(cluster.checked_rem(clusters));
            }
            FaultKind::TableCorruption { cluster, .. } => {
                world.wiped_clusters.extend(cluster.checked_rem(clusters));
            }
            FaultKind::InstallFailure { fault, .. } => {
                install = Some(fault);
            }
            FaultKind::HeavyHitterStorm { multiplier } => {
                storm *= multiplier.max(1.0);
            }
            FaultKind::ConnectionStorm { multiplier, .. } => {
                // A connection-open storm loads the punt path the same
                // way a heavy-hitter storm loads the pipeline: every NEW
                // connection is a fresh SNAT walk until it is tracked.
                storm *= multiplier.max(1.0);
            }
            FaultKind::DpuNodeDeath { node } => {
                world.dead_dpus.insert((node % dpu_nodes.max(1)) as u16);
            }
            FaultKind::DpuPoolSaturation { .. } => {
                // The epoch's tier map keeps placement but inflates the
                // DPU admission byte cost, shedding overload to x86 —
                // the severity knob shapes experiment meters, not the
                // world view.
                world.dpu_saturated = true;
            }
        }
    }
    (world, storm, install)
}

/// Replays `schedule` against a live dataplane built from `topology`.
pub fn run_schedule(
    topology: &Topology,
    dp_config: DataplaneConfig,
    cfg: &ChaosConfig,
    schedule: &FaultSchedule,
) -> ChaosReport {
    let clusters = dp_config.clusters;
    let dpu_nodes = dp_config
        .tier
        .as_ref()
        .map_or(0usize, |t| usize::from(t.pool.nodes));
    let dp = Dataplane::build(topology, dp_config);
    let (flows, frames, anchor_of) = flow_pool(topology, cfg);
    // One x86 table image for the whole schedule: every slot's run and
    // oracle probe clones this forwarder, so starts with no SNAT sessions.
    let x86 = software_forwarder(topology);

    // Classify every flow against the healthy epoch once: which cluster
    // serves it, and whether the healthy hardware punts it anyway
    // (withheld VM mapping, SNAT, no hardware route, no cluster at all).
    // The blast-radius bound is computed from this classification.
    let healthy = dp.pin();
    let flow_cluster: Vec<Option<usize>> = flows
        .iter()
        .map(|f| healthy.directory.cluster_for(f.vni))
        .collect();
    // Peer-group anchor per flow, so the blast-radius bound can widen to
    // every owner of a mid-migration group.
    let flow_anchor: Vec<Option<Vni>> = flows
        .iter()
        .map(|f| anchor_of.get(&f.vni).copied())
        .collect();
    let healthy_punt: Vec<bool> = flows
        .iter()
        .zip(&flow_cluster)
        .map(|(flow, cluster)| {
            let Some(served) = cluster.and_then(|c| healthy.clusters.get(c)) else {
                return true;
            };
            let packet = traffic::packet_for_flow(flow);
            let mut scratch = TableCounters::default();
            matches!(
                engine::walk(&served.tables, &packet, &mut scratch),
                HwDecision::PuntToX86 { .. }
            )
        })
        .collect();
    drop(healthy);

    // Plan-time gate over the scripted moves: each migration is verified
    // against the abstract anchor world (one unit per peer-group anchor,
    // homed by `SplitPlan::by_anchor` — the epoch builder's own
    // placement; with zero clusters no anchor has a home) before it may
    // reach a published world. A rejected move is excluded from the
    // replay unless `cfg.replay_rejected` deliberately lets it through
    // (the soundness differential's ungated arm).
    let mut rejected = vec![false; cfg.reshard.len()];
    let mut static_rejects: Vec<StaticReject> = Vec::new();
    if !cfg.reshard.is_empty() {
        let mut anchor_world = WorldModel::new("chaos-anchors", clusters);
        let anchors: BTreeSet<Vni> = anchor_of.values().copied().collect();
        let plan = SplitPlan::by_anchor(topology, clusters);
        for anchor in &anchors {
            if let Some(&home) = plan.assignments.get(anchor) {
                anchor_world.add_unit(u64::from(anchor.value()), 1, 1, home);
            }
        }
        let certificate = trusted_certificate(&anchor_world);
        // Capacity is not the dataplane harness's concern (the epoch
        // builder holds whole tables per cluster); the gate proves the
        // ownership and stage-order invariants.
        let budget = EntryBudget {
            max_routes: usize::MAX,
            max_vms: usize::MAX,
        };
        let options = WorldOptions::default();
        for (i, mv) in cfg.reshard.iter().enumerate() {
            let plan = TransitionPlan {
                moves: vec![WorldMove {
                    units: vec![u64::from(mv.anchor.value())],
                    from: mv.from,
                    to: mv.to,
                    stages: mv.stages().to_vec(),
                }],
            };
            let verdict = verify_plan(&anchor_world, &certificate, &plan, &budget, &options);
            if !verdict.is_clean() {
                rejected[i] = true;
                static_rejects.push(StaticReject {
                    anchor: mv.anchor,
                    from: mv.from,
                    to: mv.to,
                    start: mv.start,
                    detail: verdict.error_detail(),
                });
            }
        }
    }

    // Oracle probe slice, fixed across the run.
    let probe_idx = traffic::schedule(&flows, cfg.probe_frames.max(1), cfg.traffic_seed ^ 0xA11CE);
    let probe: Vec<&[u8]> = probe_idx
        .iter()
        .filter_map(|i| frames.get(*i).map(|f| f.as_slice()))
        .collect();

    let mut report = ChaosReport {
        slots: Vec::new(),
        faults: schedule
            .events
            .iter()
            .map(|e| FaultOutcome {
                label: e.kind.label(),
                injected_at: e.at,
                cleared_at: e.ends_at(),
                recovered_at: None,
                outage_slots: None,
                install_attempts: 0,
            })
            .collect(),
        violations: Vec::new(),
        epochs_swapped: 0,
        discarded_installs: 0,
        oracle_checks: 0,
        oracle_mismatches: 0,
        moves: cfg
            .reshard
            .iter()
            .map(|mv| ScriptedMoveOutcome {
                anchor: mv.anchor,
                from: mv.from,
                to: mv.to,
                stages_published: Vec::new(),
                committed: false,
                rolled_back: false,
            })
            .collect(),
        static_rejects,
        alerts: Vec::new(),
        first_fallback_alert_slot: None,
        first_breaker_open_slot: None,
        first_dpu_alert_slot: None,
        first_dpu_breaker_open_slot: None,
    };

    let mut published_world = WorldView::healthy();

    for slot in 0..schedule.slots {
        let active: Vec<&FaultEvent> = schedule
            .events
            .iter()
            .filter(|e| slot >= e.at && slot < e.ends_at())
            .collect();
        let (mut target_world, storm, install_fault) = world_of(&active, clusters, dpu_nodes);
        for (i, mv) in cfg.reshard.iter().enumerate() {
            if rejected.get(i).copied().unwrap_or(false) && !cfg.replay_rejected {
                continue; // gated on the static verdict: never published
            }
            if let Some(live) = move_state_at(mv, slot) {
                target_world.moves.insert(mv.anchor, live);
            }
        }

        // Sync the published epoch to the target world. Install faults
        // gate the publish: a timeout burns every attempt, a partial push
        // leaves torn epoch tags that the verify gate rejects.
        let mut published_this_slot = false;
        if target_world != published_world {
            match install_fault {
                Some(InstallFault::Timeout) => {
                    for event in &active {
                        if matches!(event.kind, FaultKind::InstallFailure { .. }) {
                            record_attempts(&mut report.faults, event, cfg.install.max_attempts);
                        }
                    }
                }
                Some(InstallFault::Partial { .. }) => {
                    // Stage, tear one cluster's tag the way a half-landed
                    // push would, and let the verify gate discard it.
                    let mut staged = EpochState::build_with_world(
                        topology,
                        dp.config(),
                        dp.next_epoch(),
                        &target_world,
                    );
                    if let Some(first) = staged.clusters.first_mut() {
                        first.epoch_tag = staged.epoch.wrapping_sub(1);
                    }
                    if staged.tags_consistent() {
                        // Cannot happen with a cluster present; publish
                        // would be legal.
                        dp.publish(staged);
                        published_this_slot = true;
                        published_world = target_world.clone();
                    } else {
                        report.discarded_installs += 1;
                        for event in &active {
                            if matches!(event.kind, FaultKind::InstallFailure { .. }) {
                                record_attempts(
                                    &mut report.faults,
                                    event,
                                    cfg.install.max_attempts,
                                );
                            }
                        }
                    }
                }
                None => {
                    let staged = EpochState::build_with_world(
                        topology,
                        dp.config(),
                        dp.next_epoch(),
                        &target_world,
                    );
                    dp.publish(staged);
                    published_this_slot = true;
                    published_world = target_world.clone();
                }
            }
        }

        // Record what each scripted move's group actually experienced:
        // stages only count once they reach a *published* world.
        for (mv, outcome) in cfg.reshard.iter().zip(report.moves.iter_mut()) {
            match published_world.moves.get(&mv.anchor) {
                Some(live) => {
                    if !outcome.stages_published.contains(&live.stage) {
                        outcome.stages_published.push(live.stage);
                    }
                    if live.stage == MoveStage::Drain {
                        outcome.committed = true;
                    }
                }
                None => {
                    if !outcome.stages_published.is_empty() && !outcome.committed {
                        outcome.rolled_back = true;
                    }
                }
            }
        }

        // Invariant 3: after every published swap the oracle must agree.
        if published_this_slot {
            let mut fb = x86.clone();
            let mut reference = x86.clone();
            let oracle = differential_run(&dp, &probe, &mut fb, &mut reference);
            report.oracle_checks += 1;
            report.oracle_mismatches += oracle.mismatches;
            if oracle.mismatches > 0 {
                report.violations.push(InvariantViolation {
                    slot,
                    invariant: "oracle_agreement",
                    detail: format!(
                        "{} mismatches in {} probe packets after epoch swap",
                        oracle.mismatches, oracle.packets
                    ),
                });
            }
        }

        // Mark recoveries: a fault is recovered once its clearing slot
        // has passed and the published world has converged back to the
        // target implied by the faults still active.
        if published_world == target_world {
            for (event, outcome) in schedule.events.iter().zip(report.faults.iter_mut()) {
                if outcome.recovered_at.is_none() && slot >= event.ends_at() {
                    outcome.recovered_at = Some(slot);
                    outcome.outage_slots = Some(slot.saturating_sub(event.at));
                }
            }
        }

        // Drive the slot's Zipf traffic slice.
        let count = ((cfg.frames_per_slot.max(1) as f64) * storm) as usize;
        let sched = traffic::schedule(
            &flows,
            count,
            cfg.traffic_seed
                .wrapping_add((slot + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let seq: Vec<&[u8]> = sched
            .iter()
            .filter_map(|i| frames.get(*i).map(|f| f.as_slice()))
            .collect();
        let mut fallback = x86.clone();
        let run = dp.run_single(&seq, &mut fallback);
        let c = &run.counters;

        // Invariant 1: no black hole — the two exact accounting
        // identities of `TableCounters::unaccounted`.
        let (unaccounted, punt_residue) = c.unaccounted();
        if unaccounted != 0 || punt_residue != 0 || c.parse_errors != 0 {
            report.violations.push(InvariantViolation {
                slot,
                invariant: "no_black_hole",
                detail: format!(
                    "unaccounted={} punt_residue={} parse_errors={}",
                    unaccounted, punt_residue, c.parse_errors
                ),
            });
        }
        if c.epoch_violations != 0 {
            report.violations.push(InvariantViolation {
                slot,
                invariant: "epoch_consistency",
                detail: format!("{} packets saw torn epoch tags", c.epoch_violations),
            });
        }

        // Invariant 2: bounded fallback share. Expected share is the
        // exact blast radius of the *published* degradation plus the
        // healthy punt baseline.
        let degraded_clusters: Vec<usize> = published_world
            .wiped_clusters
            .iter()
            .chain(published_world.unassigned_clusters.iter())
            .copied()
            .collect();
        let expected_punts = sched
            .iter()
            .filter(|i| {
                if healthy_punt.get(**i).copied().unwrap_or(true) {
                    return true;
                }
                // A mid-migration group may be served by either owner, so
                // the bound widens to every cluster the published stage
                // lets traffic land on.
                let live = flow_anchor
                    .get(**i)
                    .copied()
                    .flatten()
                    .and_then(|anchor| published_world.moves.get(&anchor));
                let owners: [Option<usize>; 2] = match live.map(LiveMove::owners) {
                    Some((primary, dual)) => [Some(primary), dual],
                    None => [flow_cluster.get(**i).copied().flatten(), None],
                };
                owners
                    .iter()
                    .flatten()
                    .any(|c| degraded_clusters.contains(c))
            })
            .count() as u64;
        let offered = seq.len() as u64;
        let expected_share = if offered == 0 {
            0.0
        } else {
            expected_punts as f64 / offered as f64
        };
        let actual_punt_share = if c.parsed == 0 {
            0.0
        } else {
            c.punted() as f64 / c.parsed as f64
        };
        if actual_punt_share > expected_share + cfg.fallback_margin {
            report.violations.push(InvariantViolation {
                slot,
                invariant: "bounded_fallback_share",
                detail: format!(
                    "punt share {:.4} exceeds blast radius {:.4} + margin {:.4}",
                    actual_punt_share, expected_share, cfg.fallback_margin
                ),
            });
        }

        // Per-tier alerts and breaker observations: the monitor sees one
        // share per software rung and must alarm on each strictly before
        // the matching breaker opens.
        let fallback_share = if offered == 0 {
            0.0
        } else {
            run.fallback_packets as f64 / offered as f64
        };
        let dpu_share = if offered == 0 {
            0.0
        } else {
            run.dpu_packets as f64 / offered as f64
        };
        let tier_alerts = evaluate_tier_shares(dpu_share, fallback_share, cfg.levels);
        let dpu_alert = tier_alerts
            .iter()
            .any(|a| matches!(a, Alert::DpuShare { .. }));
        let fallback_alert = tier_alerts
            .iter()
            .any(|a| matches!(a, Alert::FallbackShare { .. }));
        for alert in tier_alerts {
            report.alerts.push((slot, alert));
        }
        if dpu_alert && report.first_dpu_alert_slot.is_none() {
            report.first_dpu_alert_slot = Some(slot);
        }
        if fallback_alert && report.first_fallback_alert_slot.is_none() {
            report.first_fallback_alert_slot = Some(slot);
        }
        if run.breaker.opened > 0 && report.first_breaker_open_slot.is_none() {
            report.first_breaker_open_slot = Some(slot);
        }
        if run.dpu_breaker.opened > 0 && report.first_dpu_breaker_open_slot.is_none() {
            report.first_dpu_breaker_open_slot = Some(slot);
        }

        report.slots.push(SlotRecord {
            slot,
            offered,
            fallback_packets: run.fallback_packets,
            fallback_share,
            expected_fallback_share: expected_share,
            dpu_packets: run.dpu_packets,
            dpu_share,
            dpu_rehomed: c.dpu_rehomed,
            dpu_shed: c.dpu_shed_meter + c.dpu_breaker_open,
            unaccounted,
            punts_shed: c.punt_rate_limited + c.punt_breaker_open,
            epoch: dp.pin().epoch,
            degraded: published_world.is_degraded(),
            fallback_alert,
            dpu_alert,
            breaker_opened: run.breaker.opened,
            dpu_breaker_opened: run.dpu_breaker.opened,
            dual_owner_packets: c.dual_owner_packets,
        });
    }

    report.epochs_swapped = dp.epoch_swaps();
    report
}

fn record_attempts(faults: &mut [FaultOutcome], event: &FaultEvent, attempts: u32) {
    // Attribute attempts to the matching outcome (same injection slot and
    // label — schedules never duplicate both).
    for outcome in faults.iter_mut() {
        if outcome.injected_at == event.at && outcome.label == event.kind.label() {
            outcome.install_attempts += attempts;
            return;
        }
    }
}

/// The harness's traffic pool: `cfg`'s seeded Zipf flows, one wire frame
/// per flow, and each VPC's peer-group anchor (the smaller VNI of a
/// peered pair — the key the epoch builder groups by).
fn flow_pool(
    topology: &Topology,
    cfg: &ChaosConfig,
) -> (Vec<Flow>, Vec<Vec<u8>>, BTreeMap<Vni, Vni>) {
    let mut flows = workload::generate_flows(
        topology,
        &WorkloadConfig {
            seed: cfg.traffic_seed,
            flows: cfg.flows.max(1),
            internet_share: 0.01,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    flows.truncate(frames.len());
    let anchor_of = topology
        .vpcs
        .iter()
        .map(|vpc| (vpc.vni, peer_anchor(vpc)))
        .collect();
    (flows, frames, anchor_of)
}

/// The `n` anchors whose peer groups split most evenly across the two
/// owners under the dual-window flow-hash parity, best first — so
/// dual-window assertions (and scripted-move arms) always observe
/// traffic on both sides. Each comes with its home cluster under the
/// epoch builder's [`SplitPlan::by_anchor`] placement; with zero
/// clusters no anchor has a home and the list is empty. Deterministic
/// for a given topology and traffic seed.
pub fn ranked_anchors(
    topology: &Topology,
    cfg: &ChaosConfig,
    clusters: usize,
    n: usize,
) -> Vec<(Vni, usize)> {
    use sailfish_net::rss::Toeplitz;
    let (flows, frames, anchor_of) = flow_pool(topology, cfg);
    let hasher = Toeplitz::default();
    let mut parity: BTreeMap<Vni, (usize, usize)> = BTreeMap::new();
    for (flow, frame) in flows.iter().zip(&frames) {
        let Some(a) = anchor_of.get(&flow.vni) else {
            continue;
        };
        let Ok(packet) = sailfish_net::GatewayPacket::parse(frame) else {
            continue;
        };
        let slot = parity.entry(*a).or_insert((0, 0));
        if hasher.hash_tuple(&packet.five_tuple()) & 1 == 0 {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }
    let mut ranked: Vec<(Vni, (usize, usize))> = parity.into_iter().collect();
    ranked.sort_by_key(|&(a, (even, odd))| std::cmp::Reverse((even.min(odd), even + odd, a)));
    let plan = SplitPlan::by_anchor(topology, clusters);
    ranked
        .into_iter()
        .filter_map(|(a, _)| Some((a, *plan.assignments.get(&a)?)))
        .take(n)
        .collect()
}

/// The best of [`ranked_anchors`]; `None` when the workload touches no
/// VPC or there is no cluster to home it on.
pub fn busiest_anchor(
    topology: &Topology,
    cfg: &ChaosConfig,
    clusters: usize,
) -> Option<(Vni, usize)> {
    ranked_anchors(topology, cfg, clusters, 1)
        .into_iter()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::faults::FaultScheduleConfig;
    use sailfish_sim::TopologyConfig;

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            flows: 300,
            frames_per_slot: 800,
            probe_frames: 400,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn generated_schedule_holds_all_invariants() {
        let topology = Topology::generate(TopologyConfig::default());
        let schedule = FaultSchedule::generate(&FaultScheduleConfig {
            slots: 12,
            fault_rate: 0.5,
            ..FaultScheduleConfig::default()
        });
        let report = run_schedule(
            &topology,
            DataplaneConfig::default(),
            &quick_cfg(),
            &schedule,
        );
        assert!(report.holds(), "violations: {:?}", report.violations);
        assert_eq!(report.oracle_mismatches, 0);
        assert_eq!(report.slots.len(), 12);
        if !schedule.events.is_empty() {
            assert!(report.epochs_swapped > 0);
        }
    }

    #[test]
    fn corruption_degrades_and_recovers_with_epoch_swaps() {
        let topology = Topology::generate(TopologyConfig::default());
        let schedule = FaultSchedule::from_events(
            8,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::TableCorruption {
                    cluster: 0,
                    device: 0,
                },
            }],
        );
        let report = run_schedule(
            &topology,
            DataplaneConfig::default(),
            &quick_cfg(),
            &schedule,
        );
        assert!(report.holds(), "violations: {:?}", report.violations);
        // Inject swap + recovery swap.
        assert_eq!(report.epochs_swapped, 2);
        let outcome = report.faults.first().unwrap();
        assert_eq!(outcome.recovered_at, Some(5));
        assert_eq!(outcome.outage_slots, Some(3));
        // Degraded slots show elevated fallback share and raise alerts.
        let degraded: Vec<&SlotRecord> = report.slots.iter().filter(|s| s.degraded).collect();
        assert_eq!(degraded.len(), 3);
        assert!(degraded.iter().all(|s| s.fallback_alert));
        // After recovery the share returns to the healthy baseline.
        let last = report.slots.last().unwrap();
        assert!(!last.degraded);
        assert!(last.fallback_share < degraded[0].fallback_share);
    }

    #[test]
    fn fallback_alerts_fire_before_the_breaker_opens() {
        let topology = Topology::generate(TopologyConfig::default());
        // A punt meter sized to absorb the healthy punt baseline but not
        // a wiped cluster's punt storm: the negligible refill makes the
        // burst the whole per-slot budget.
        let dp_config = DataplaneConfig {
            punt_rate_bps: 8_000,
            punt_burst_bytes: 120_000,
            ..DataplaneConfig::default()
        };
        let schedule = FaultSchedule::from_events(
            6,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::TableCorruption {
                    cluster: 0,
                    device: 0,
                },
            }],
        );
        let report = run_schedule(&topology, dp_config, &quick_cfg(), &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        // The healthy punt baseline (withheld VM mappings, SNAT) already
        // crosses the 1% fallback water level, so the operator-facing
        // alert fires from the first slot...
        let alert_slot = report
            .first_fallback_alert_slot
            .expect("fallback alerts must fire");
        // ...while the breaker only opens once the wiped cluster floods
        // the punt path past the meter at slot 2.
        let breaker_slot = report
            .first_breaker_open_slot
            .expect("the punt storm must open the breaker");
        assert!(
            alert_slot < breaker_slot,
            "alert at slot {alert_slot} must precede breaker open at slot {breaker_slot}"
        );
        assert_eq!(breaker_slot, 2);
        // Healthy slots never trip the breaker (the meter may clip a few
        // punts at the margin, but never enough consecutive rejects).
        for s in report.slots.iter().filter(|s| !s.degraded) {
            assert_eq!(s.breaker_opened, 0, "slot {} opened the breaker", s.slot);
        }
        // Degraded slots shed punts (meter first, then the open breaker).
        assert!(report
            .slots
            .iter()
            .filter(|s| s.degraded)
            .all(|s| s.punts_shed > 0));
    }

    #[test]
    fn scripted_move_commits_and_splits_dual_traffic() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut cfg = quick_cfg();
        let clusters = DataplaneConfig::default().clusters;
        let (anchor, from) = busiest_anchor(&topology, &cfg, clusters).unwrap();
        let to = (from + 1) % clusters;
        cfg.reshard = vec![ScriptedMove {
            anchor,
            from,
            to,
            start: 1,
            dwell: 2,
            abort_after: None,
        }];
        let schedule = FaultSchedule::from_events(10, vec![]);
        let report = run_schedule(&topology, DataplaneConfig::default(), &cfg, &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        // One publish per stage transition: Announce, Dual, Commit, Drain.
        assert_eq!(report.epochs_swapped, 4);
        assert_eq!(report.oracle_checks, 4);
        let mv = report.moves.first().unwrap();
        assert!(mv.committed);
        assert!(!mv.rolled_back);
        assert_eq!(
            mv.stages_published,
            vec![
                MoveStage::Announce,
                MoveStage::Dual,
                MoveStage::Commit,
                MoveStage::Drain
            ]
        );
        // The dual window (slots 3–4) splits the group's flows across
        // both owners; outside it no packet is steered to a secondary.
        let dual_total: u64 = report.slots.iter().map(|s| s.dual_owner_packets).sum();
        assert!(dual_total > 0, "dual window steered nothing");
        for s in report.slots.iter().filter(|s| s.slot < 3 || s.slot >= 5) {
            assert_eq!(s.dual_owner_packets, 0, "slot {}", s.slot);
        }
    }

    #[test]
    fn aborted_move_rolls_back_to_the_source() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut cfg = quick_cfg();
        let clusters = DataplaneConfig::default().clusters;
        let (anchor, from) = busiest_anchor(&topology, &cfg, clusters).unwrap();
        let to = (from + 1) % clusters;
        cfg.reshard = vec![ScriptedMove {
            anchor,
            from,
            to,
            start: 1,
            dwell: 2,
            abort_after: Some(MoveStage::Dual),
        }];
        let schedule = FaultSchedule::from_events(10, vec![]);
        let report = run_schedule(&topology, DataplaneConfig::default(), &cfg, &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        let mv = report.moves.first().unwrap();
        assert!(mv.rolled_back);
        assert!(!mv.committed);
        assert_eq!(
            mv.stages_published,
            vec![MoveStage::Announce, MoveStage::Dual]
        );
        // Announce, Dual, then the rollback republish of the home world.
        assert_eq!(report.epochs_swapped, 3);
    }

    #[test]
    fn poison_move_is_statically_rejected_and_gated_out() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut cfg = quick_cfg();
        let clusters = DataplaneConfig::default().clusters;
        let (anchor, from) = busiest_anchor(&topology, &cfg, clusters).unwrap();
        // Destination outside the cluster set: from Commit on the
        // directory would point into the void.
        cfg.reshard = vec![ScriptedMove {
            anchor,
            from,
            to: clusters + 3,
            start: 1,
            dwell: 2,
            abort_after: None,
        }];
        let schedule = FaultSchedule::from_events(8, vec![]);
        let report = run_schedule(&topology, DataplaneConfig::default(), &cfg, &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        let reject = report
            .static_rejects
            .first()
            .expect("move must be rejected");
        assert!(
            reject.detail.contains("SF-E008"),
            "unexpected detail: {}",
            reject.detail
        );
        // Gated out: the poison move never reaches a published world.
        assert_eq!(report.epochs_swapped, 0);
        assert!(report.moves.first().unwrap().stages_published.is_empty());
        assert_eq!(report.soundness_escapes(&schedule), 0);
    }

    #[test]
    fn replayed_poison_move_violates_only_where_statically_flagged() {
        // The ungated arm of the soundness differential: replay the same
        // rejected move and every dynamic invariant violation it causes
        // must be explained by the recorded static rejection — zero
        // escapes means the verifier flagged everything that went wrong.
        let topology = Topology::generate(TopologyConfig::default());
        let mut cfg = quick_cfg();
        let clusters = DataplaneConfig::default().clusters;
        let (anchor, from) = busiest_anchor(&topology, &cfg, clusters).unwrap();
        cfg.reshard = vec![ScriptedMove {
            anchor,
            from,
            to: clusters + 3,
            start: 1,
            dwell: 2,
            abort_after: None,
        }];
        cfg.replay_rejected = true;
        let schedule = FaultSchedule::from_events(8, vec![]);
        let report = run_schedule(&topology, DataplaneConfig::default(), &cfg, &schedule);
        assert_eq!(report.static_rejects.len(), 1);
        assert!(
            !report.holds(),
            "the replayed poison move must violate invariants at runtime"
        );
        assert!(report
            .violations
            .iter()
            .all(|v| v.slot >= report.static_rejects[0].start));
        assert_eq!(report.soundness_escapes(&schedule), 0);
    }

    #[test]
    fn move_survives_node_death_in_the_dual_window() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut cfg = quick_cfg();
        let clusters = DataplaneConfig::default().clusters;
        let (anchor, from) = busiest_anchor(&topology, &cfg, clusters).unwrap();
        let to = (from + 1) % clusters;
        cfg.reshard = vec![ScriptedMove {
            anchor,
            from,
            to,
            start: 1,
            dwell: 2,
            abort_after: None,
        }];
        // Kill a destination device for the whole dual window: ECMP must
        // absorb it with no black hole and no oracle drift.
        let schedule = FaultSchedule::from_events(
            10,
            vec![FaultEvent {
                at: 3,
                duration: 3,
                kind: FaultKind::NodeDeath {
                    cluster: to,
                    device: 1,
                },
            }],
        );
        let report = run_schedule(&topology, DataplaneConfig::default(), &cfg, &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        let mv = report.moves.first().unwrap();
        assert!(mv.committed, "stages: {:?}", mv.stages_published);
        assert!(report.epochs_swapped >= 4);
    }

    #[test]
    fn partial_install_is_discarded_then_lands_after_fault_clears() {
        let topology = Topology::generate(TopologyConfig::default());
        let schedule = FaultSchedule::from_events(
            8,
            vec![
                FaultEvent {
                    at: 1,
                    duration: 2,
                    kind: FaultKind::InstallFailure {
                        cluster: 0,
                        device: 0,
                        fault: InstallFault::Partial { fraction: 0.5 },
                    },
                },
                FaultEvent {
                    at: 1,
                    duration: 4,
                    kind: FaultKind::NodeDeath {
                        cluster: 1,
                        device: 1,
                    },
                },
            ],
        );
        let report = run_schedule(
            &topology,
            DataplaneConfig::default(),
            &quick_cfg(),
            &schedule,
        );
        assert!(report.holds(), "violations: {:?}", report.violations);
        // The degradation publish at slot 1/2 is blocked by the partial
        // install; the verify gate discards the torn state.
        assert!(report.discarded_installs > 0);
        let install = report
            .faults
            .iter()
            .find(|f| f.label == "install_failure")
            .unwrap();
        assert!(install.install_attempts > 0);
        // Once the install fault clears at slot 3 the degradation swap
        // lands; the recovery at slot 5 is the second swap.
        assert_eq!(report.epochs_swapped, 2);
    }

    fn tiered_config() -> DataplaneConfig {
        DataplaneConfig {
            tier: Some(crate::tier::TierConfig::default()),
            ..DataplaneConfig::default()
        }
    }

    #[test]
    fn dpu_node_death_rehomes_only_its_flows_and_recovers() {
        let topology = Topology::generate(TopologyConfig::default());
        let schedule = FaultSchedule::from_events(
            8,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::DpuNodeDeath { node: 1 },
            }],
        );
        let report = run_schedule(&topology, tiered_config(), &quick_cfg(), &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        // Death publish + recovery publish, and a bounded MTTR.
        assert_eq!(report.epochs_swapped, 2);
        let outcome = report.faults.first().unwrap();
        assert_eq!(outcome.recovered_at, Some(5));
        assert_eq!(outcome.outage_slots, Some(3));
        // Three live nodes still own the whole ring, so every punt keeps
        // being served at the DPU rung — nothing degrades to x86.
        assert!(report.slots.iter().all(|s| s.fallback_packets == 0));
        assert!(report.slots.iter().all(|s| s.dpu_packets > 0));
        // Bounded churn: ring successors serve the dead node's flows only
        // while it is dead; outside the window nothing is re-homed.
        let window: u64 = report
            .slots
            .iter()
            .filter(|s| (2..5).contains(&s.slot))
            .map(|s| s.dpu_rehomed)
            .sum();
        assert!(window > 0, "the dead node owned some punted flows");
        for s in report.slots.iter().filter(|s| s.slot < 2 || s.slot >= 5) {
            assert_eq!(
                s.dpu_rehomed, 0,
                "slot {} re-homed outside the window",
                s.slot
            );
        }
    }

    #[test]
    fn dpu_saturation_sheds_spills_to_the_x86_rung() {
        let topology = Topology::generate(TopologyConfig::default());
        // A DPU admission meter sized to absorb the healthy punt baseline
        // but not the saturation-inflated byte cost (16x): the negligible
        // refill makes the burst the whole per-slot budget.
        let dp_config = DataplaneConfig {
            tier: Some(crate::tier::TierConfig {
                dpu_rate_bps: 8_000,
                dpu_burst_bytes: 600_000,
                ..crate::tier::TierConfig::default()
            }),
            ..DataplaneConfig::default()
        };
        let schedule = FaultSchedule::from_events(
            8,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::DpuPoolSaturation { severity: 8.0 },
            }],
        );
        let report = run_schedule(&topology, dp_config, &quick_cfg(), &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        assert_eq!(report.epochs_swapped, 2);
        for s in &report.slots {
            if (2..5).contains(&s.slot) {
                // Saturated slots shed at the DPU meter and the sheds
                // re-route down the ladder — packets, never drops.
                assert!(s.dpu_shed > 0, "slot {} shed nothing", s.slot);
                assert!(s.fallback_packets > 0, "slot {} x86 served nothing", s.slot);
            } else {
                assert_eq!(s.dpu_shed, 0, "slot {} shed while healthy", s.slot);
                assert_eq!(s.fallback_packets, 0, "slot {} leaked to x86", s.slot);
            }
        }
    }

    #[test]
    fn dpu_alert_fires_before_the_dpu_breaker_opens() {
        let topology = Topology::generate(TopologyConfig::default());
        // Tight DPU meter (same shape as the x86 arm above): the healthy
        // punt baseline fits, a wiped cluster's punt storm does not.
        let dp_config = DataplaneConfig {
            tier: Some(crate::tier::TierConfig {
                dpu_rate_bps: 8_000,
                dpu_burst_bytes: 120_000,
                ..crate::tier::TierConfig::default()
            }),
            ..DataplaneConfig::default()
        };
        // The healthy DPU share sits above 1% (it absorbs the whole punt
        // baseline), so lowering the DPU water level to the x86 one makes
        // the operator-facing alert fire from slot 0.
        let mut cfg = quick_cfg();
        cfg.levels = WaterLevels {
            dpu_share_level: cfg.levels.fallback_level,
            ..cfg.levels
        };
        let schedule = FaultSchedule::from_events(
            6,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::TableCorruption {
                    cluster: 0,
                    device: 0,
                },
            }],
        );
        let report = run_schedule(&topology, dp_config, &cfg, &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        let alert_slot = report.first_dpu_alert_slot.expect("DPU alerts must fire");
        let breaker_slot = report
            .first_dpu_breaker_open_slot
            .expect("the punt storm must open the DPU breaker");
        assert!(
            alert_slot < breaker_slot,
            "DPU alert at slot {alert_slot} must precede breaker open at slot {breaker_slot}"
        );
        assert_eq!(breaker_slot, 2);
        // Healthy slots never trip the DPU breaker.
        for s in report.slots.iter().filter(|s| !s.degraded) {
            assert_eq!(
                s.dpu_breaker_opened, 0,
                "slot {} opened the breaker",
                s.slot
            );
        }
    }

    #[test]
    fn generated_schedule_with_tier_holds_all_invariants() {
        let topology = Topology::generate(TopologyConfig::default());
        let schedule = FaultSchedule::generate(&FaultScheduleConfig {
            slots: 12,
            fault_rate: 0.6,
            dpu_nodes: 4,
            ..FaultScheduleConfig::default()
        });
        let report = run_schedule(&topology, tiered_config(), &quick_cfg(), &schedule);
        assert!(report.holds(), "violations: {:?}", report.violations);
        assert_eq!(report.oracle_mismatches, 0);
        assert_eq!(report.slots.len(), 12);
        // The three-tier ladder serves every punt it admits.
        assert!(report.slots.iter().any(|s| s.dpu_packets > 0));
    }
}
