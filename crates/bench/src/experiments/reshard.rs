//! Elastic re-shard sweep: replays seeded scale-out/in schedules against
//! both layers of the make-before-break story under **live traffic**:
//!
//! 1. **Cluster layer** — a festival ramp tightens the effective
//!    per-cluster capacity, the controller plans a wider split, and
//!    [`ReshardPlan`] migrates the differing VNI groups spare-ward
//!    through Announce → Dual → Commit → Drain while `Region::offer`
//!    keeps classifying the full Zipf flow set every slot. A device
//!    retirement and the return-to-baseline scale-in ride the same
//!    schedule. Checked: every planned move commits, no slot sees an
//!    unrouted or fallback packet, offered load is conserved, and the
//!    controller's consistency sweep is clean after every transition.
//!    Rollback coverage runs alongside: exhausted-announce (install
//!    timeouts), explicit dual-phase rollback, and a partial push that
//!    retries then commits.
//!
//! 2. **Dataplane layer** — scripted migrations replay inside the live
//!    packet executor's chaos harness with concurrent faults aimed at
//!    each pre-commit phase (install timeout during Announce, node death
//!    mid-Dual, torn partial push at Commit). Checked: zero invariant
//!    violations (no black hole, epoch consistency, bounded blast
//!    radius), differential-oracle agreement after every epoch swap, the
//!    dual window really splits traffic across both owners, and aborted
//!    moves roll the group home from Announce and from Dual.
//!
//! Run with: `cargo run --release -p sailfish-bench --bin repro -- reshard`
//! (add `--tiny` for the CI smoke scale). Output is fully deterministic:
//! two runs produce byte-identical `experiments/reshard.json`.

use std::collections::{BTreeMap, BTreeSet};

use sailfish_cluster::controller::{ClusterCapacity, Controller, InstallPolicy};
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_cluster::reshard::{run_plan, MoveMachine, MovePhase as ClusterPhase, ReshardPlan};
use sailfish_dataplane::chaos::{self, ChaosConfig, ScriptedMove};
use sailfish_dataplane::epoch::MovePhase;
use sailfish_dataplane::DataplaneConfig;
use sailfish_net::Vni;
use sailfish_sim::elastic::{ElasticSchedule, ElasticScheduleConfig, ScaleTrigger, TriggerKind};
use sailfish_sim::faults::{FaultEvent, FaultKind, FaultSchedule, InstallFault, VirtualClock};
use sailfish_sim::workload::{generate_flows, Flow, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};

use crate::record::ExperimentRecord;
use crate::scale::Scale;

/// Baseline per-cluster capacity; the default topology needs 3 clusters.
fn base_capacity() -> ClusterCapacity {
    ClusterCapacity {
        max_routes: 600,
        max_vms: 3_000,
    }
}

/// Capacity in force at demand multiplier `m`: each cluster effectively
/// serves `1/m` of its nominal entry budget, so the split must widen.
fn effective_capacity(base: ClusterCapacity, m: f64) -> ClusterCapacity {
    ClusterCapacity {
        max_routes: (base.max_routes as f64 / m).floor() as usize,
        max_vms: (base.max_vms as f64 / m).floor() as usize,
    }
}

/// Peer-group anchor (smallest VNI of the pair) per VNI.
fn anchor_map(topology: &Topology) -> BTreeMap<Vni, Vni> {
    topology
        .vpcs
        .iter()
        .map(|vpc| {
            let anchor = match vpc.peer {
                Some(peer) => vpc.vni.min(peer),
                None => vpc.vni,
            };
            (vpc.vni, anchor)
        })
        .collect()
}

/// Distinct clusters the split currently occupies.
fn spread(region: &Region) -> usize {
    region
        .plan
        .assignments
        .values()
        .collect::<BTreeSet<_>>()
        .len()
}

/// A single-group plan moving the smallest cluster-0 peer group onto the
/// spare — the minimal move the rollback-coverage runs exercise.
fn one_group_plan(topology: &Topology, region: &Region, cap: ClusterCapacity) -> ReshardPlan {
    let current = &region.plan;
    let spare = current.clusters_needed() - 1;
    let anchors = anchor_map(topology);
    let mut groups: BTreeMap<Vni, Vec<Vni>> = BTreeMap::new();
    for vni in current.assignments.keys() {
        let a = anchors.get(vni).copied().unwrap_or(*vni);
        groups.entry(a).or_default().push(*vni);
    }
    // Peers are co-located, so checking every member is equivalent to
    // checking one; BTreeMap order makes the pick deterministic.
    let lead = groups
        .iter()
        .find(|(_, members)| members.iter().all(|v| current.assignments[v] == 0))
        .map(|(a, _)| *a)
        .expect("cluster 0 owns at least one group");
    let mut target = current.clone();
    for v in &groups[&lead] {
        target.assignments.insert(*v, spare);
    }
    ReshardPlan::plan(topology, current, &target, cap, &BTreeSet::new())
        .expect("single-group plan between valid splits")
}

/// One live-traffic interval: offer the whole flow set and fold the
/// routing-cleanliness and load-conservation checks.
fn offer_checked(
    region: &mut Region,
    flows: &[Flow],
    multiplier: f64,
    baseline_pps: f64,
    routing_clean: &mut bool,
    conserved: &mut bool,
) {
    let r = region.offer(flows, multiplier);
    *routing_clean &= r.unrouted_pps == 0.0 && r.fallback_pps == 0.0;
    *conserved &= (r.offered_pps - baseline_pps * multiplier).abs() < 1.0;
}

pub fn run(scale: Scale) -> ExperimentRecord {
    let (region_flows, dp_flows, frames_per_slot, probe_frames) =
        scale.pick((400, 300, 800, 400), (1_200, 600, 3_000, 1_200));

    let mut rec = ExperimentRecord::new(
        "reshard",
        "Elastic re-shard sweep: make-before-break VNI migration under live traffic and faults",
    );
    let topology = Topology::generate(TopologyConfig::default());

    // ---------------------------------------------------------------
    // Part 1 — cluster layer: elastic schedule replayed against a
    // region with spare clusters, live traffic offered every slot.
    // ---------------------------------------------------------------
    let base = base_capacity();
    let mut region = Region::build(
        &topology,
        RegionConfig {
            hw_clusters: 6,
            spare_clusters: 2,
            devices_per_cluster: 2,
            sw_nodes: 2,
            capacity: base,
            ..RegionConfig::default()
        },
    )
    .expect("region builds");
    let physical = region.plan.clusters_needed();
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: region_flows,
            total_gbps: 500.0,
            ..WorkloadConfig::default()
        },
    );

    let schedule = ElasticSchedule::from_triggers(
        12,
        vec![
            ScaleTrigger {
                at: 2,
                kind: TriggerKind::FestivalRamp { multiplier: 1.5 },
            },
            ScaleTrigger {
                at: 5,
                kind: TriggerKind::DeviceRetirement {
                    cluster: 0,
                    device: 1,
                },
            },
            ScaleTrigger {
                at: 8,
                kind: TriggerKind::LoadSubsides,
            },
        ],
    );
    // The generator itself is deterministic (the sweep replays the
    // explicit schedule above so the capacity math stays exact).
    let gen_cfg = ElasticScheduleConfig::default();
    let gen_a = ElasticSchedule::generate(&gen_cfg);
    let gen_b = ElasticSchedule::generate(&gen_cfg);

    let baseline_pps = region.offer(&flows, 1.0).offered_pps;
    let spread_before = spread(&region);
    let mut spread_peak = spread_before;

    let mut clock = VirtualClock::new();
    let policy = InstallPolicy::default();
    let mut routing_clean = true;
    let mut conserved = true;
    let mut consistency_clean = true;
    let mut planned_out = 0usize;
    let mut committed_out = 0usize;
    let mut planned_in = 0usize;
    let mut committed_in = 0usize;
    let mut epochs_per_sec = 0.0f64;
    let mut current_cap = base;

    for slot in 0..schedule.slots {
        let m = schedule.demand_multiplier(slot);
        for trigger in schedule.triggers.iter().filter(|t| t.at == slot) {
            if let TriggerKind::DeviceRetirement { cluster, device } = trigger.kind {
                region.retire_device(cluster, device);
                continue;
            }
            let eff = effective_capacity(base, m);
            if (eff.max_routes, eff.max_vms) == (current_cap.max_routes, current_cap.max_vms) {
                continue;
            }
            let target = Controller::plan_split(&topology, eff, physical)
                .expect("effective capacity fits the spare headroom");
            let plan = ReshardPlan::plan(&topology, &region.plan, &target, eff, &BTreeSet::new())
                .expect("plan toward the new split");
            let planned = plan.moves.len();
            let mut committed = 0usize;

            // Drive the first move by hand with live traffic offered
            // inside every make-before-break phase.
            if let Some(first) = plan.moves.first() {
                let mut machine = MoveMachine::new(&topology, first.clone());
                machine
                    .announce(&mut region, &mut clock, &policy, &mut |_, _| None)
                    .expect("announce push lands");
                offer_checked(
                    &mut region,
                    &flows,
                    m,
                    baseline_pps,
                    &mut routing_clean,
                    &mut conserved,
                );
                machine.enter_dual(&mut region).expect("dual entry");
                offer_checked(
                    &mut region,
                    &flows,
                    m,
                    baseline_pps,
                    &mut routing_clean,
                    &mut conserved,
                );
                machine.commit(&mut region).expect("commit");
                offer_checked(
                    &mut region,
                    &flows,
                    m,
                    baseline_pps,
                    &mut routing_clean,
                    &mut conserved,
                );
                machine.drain(&mut region).expect("drain");
                committed += usize::from(machine.phase == ClusterPhase::Drained);
            }

            // The rest of the plan runs through the standard driver
            // (re-planned: the hand-driven group already matches).
            let rest = ReshardPlan::plan(&topology, &region.plan, &target, eff, &BTreeSet::new())
                .expect("residual plan");
            let rep = run_plan(
                &mut region,
                &topology,
                &rest,
                &mut clock,
                &policy,
                &mut |_, _| None,
            );
            committed += rep.committed();
            if rep.epochs_per_sec() > 0.0 {
                epochs_per_sec = rep.epochs_per_sec();
            }
            if m > 1.0 {
                planned_out += planned;
                committed_out += committed;
            } else {
                planned_in += planned;
                committed_in += committed;
            }
            current_cap = eff;
            consistency_clean &= region
                .controller
                .check_consistency(&region.plan, &region.hw)
                .is_empty();
            spread_peak = spread_peak.max(spread(&region));
        }
        offer_checked(
            &mut region,
            &flows,
            m,
            baseline_pps,
            &mut routing_clean,
            &mut conserved,
        );
    }
    let spread_after = spread(&region);

    println!(
        "elastic replay: {spread_before} → {spread_peak} → {spread_after} clusters, \
         scale-out {committed_out}/{planned_out} moves, scale-in {committed_in}/{planned_in}, \
         {epochs_per_sec:.0} epochs/s, routing_clean={routing_clean}, \
         conserved={conserved}, consistency_clean={consistency_clean}"
    );

    rec.compare(
        "elastic scale-out: every planned move committed",
        format!("{planned_out} moves, all committed"),
        format!("{committed_out} committed"),
        planned_out > 0 && committed_out == planned_out,
    );
    rec.compare(
        "elastic scale-in: every planned move committed",
        format!("{planned_in} moves, all committed"),
        format!("{committed_in} committed"),
        planned_in > 0 && committed_in == planned_in,
    );
    rec.compare(
        "cluster spread follows demand (out then back in)",
        format!("{spread_before} → >{spread_before} → {spread_before}"),
        format!("{spread_before} → {spread_peak} → {spread_after}"),
        spread_peak > spread_before && spread_after == spread_before,
    );
    rec.compare(
        "routing clean in every slot and phase (unrouted = fallback = 0)",
        "clean",
        if routing_clean { "clean" } else { "dirty" },
        routing_clean,
    );
    rec.compare(
        "offered load conserved at every slot",
        "pps tracks the demand multiplier",
        if conserved { "conserved" } else { "diverged" },
        conserved,
    );
    rec.compare(
        "controller consistency sweep clean after every re-shard",
        "0 findings",
        if consistency_clean { "0" } else { ">0" },
        consistency_clean,
    );
    rec.compare(
        "device retirement honored",
        "device (0,1) retired, traffic unharmed",
        format!("retired={}", region.is_retired(0, 1)),
        region.is_retired(0, 1) && routing_clean,
    );
    rec.compare(
        "make-before-break migration throughput",
        "> 0 epochs/s",
        format!("{epochs_per_sec:.0} epochs/s"),
        epochs_per_sec > 0.0,
    );
    rec.compare(
        "elastic schedule generation deterministic, all trigger kinds",
        "identical schedules, 3 kinds",
        format!(
            "equal={}, kinds={}",
            gen_a == gen_b,
            gen_a.kinds_present().len()
        ),
        gen_a == gen_b && gen_a.kinds_present().len() == 3,
    );

    // ---------------------------------------------------------------
    // Part 1b — rollback coverage on a fresh region: every pre-commit
    // phase can unwind, and a partial push retries then commits.
    // ---------------------------------------------------------------
    let mut region2 = Region::build(
        &topology,
        RegionConfig {
            hw_clusters: 4,
            spare_clusters: 1,
            devices_per_cluster: 2,
            sw_nodes: 2,
            capacity: base,
            ..RegionConfig::default()
        },
    )
    .expect("rollback region builds");
    let plan2 = one_group_plan(&topology, &region2, base);
    let mv = plan2.moves.first().expect("one move planned").clone();
    let baseline_routes = region2.hw[mv.to].route_entries();
    let baseline_snapshot = region2.directory.snapshot();
    let mut clock2 = VirtualClock::new();

    // Announce rollback: install timeouts exhaust the retry budget and
    // the driver unwinds, leaving the destination clean.
    let strict = InstallPolicy {
        max_attempts: 2,
        ..InstallPolicy::default()
    };
    let timeout_rep = run_plan(
        &mut region2,
        &topology,
        &plan2,
        &mut clock2,
        &strict,
        &mut |_, _| Some(InstallFault::Timeout),
    );
    let announce_rb = timeout_rep.rolled_back() == 1
        && timeout_rep.committed() == 0
        && region2.hw[mv.to].route_entries() == baseline_routes
        && mv
            .vnis
            .iter()
            .all(|v| region2.directory.cluster_for(*v) == Some(mv.from));
    rec.compare(
        "rollback from Announce leaves the destination clean",
        "1 rolled back, tables and directory untouched",
        format!(
            "{} rolled back, dest routes {}",
            timeout_rep.rolled_back(),
            region2.hw[mv.to].route_entries()
        ),
        announce_rb,
    );

    // Dual rollback: both owners live, then the move unwinds and the
    // directory and tables match the pre-move state exactly.
    let mut machine = MoveMachine::new(&topology, mv.clone());
    machine
        .announce(
            &mut region2,
            &mut clock2,
            &InstallPolicy::default(),
            &mut |_, _| None,
        )
        .expect("announce lands");
    machine.enter_dual(&mut region2).expect("dual entry");
    let dual_live = region2.directory.dual_len() > 0;
    machine.rollback(&mut region2).expect("dual rollback");
    let dual_rb = dual_live
        && machine.phase == ClusterPhase::RolledBack
        && region2.directory.dual_len() == 0
        && region2.hw[mv.to].route_entries() == baseline_routes
        && region2.directory.snapshot() == baseline_snapshot;
    rec.compare(
        "rollback from Dual restores directory and tables exactly",
        "dual window live, then pre-move state",
        format!("restored={dual_rb}"),
        dual_rb,
    );

    // Partial push: first attempt tears, the two-phase installer
    // retries, and the move still commits.
    let mut first_call = true;
    let partial_rep = run_plan(
        &mut region2,
        &topology,
        &plan2,
        &mut clock2,
        &InstallPolicy::default(),
        &mut |_, _| {
            if first_call {
                first_call = false;
                Some(InstallFault::Partial { fraction: 0.5 })
            } else {
                None
            }
        },
    );
    let partial_ok = partial_rep.committed() == 1
        && partial_rep
            .outcomes
            .first()
            .map(|o| o.attempts)
            .unwrap_or(0)
            >= 2;
    rec.compare(
        "partial install push retried then committed",
        "1 committed after ≥ 2 attempts",
        format!(
            "{} committed, {} attempts",
            partial_rep.committed(),
            partial_rep
                .outcomes
                .first()
                .map(|o| o.attempts)
                .unwrap_or(0)
        ),
        partial_ok,
    );

    // ---------------------------------------------------------------
    // Part 2 — dataplane layer: scripted migrations inside the live
    // executor with faults aimed at each pre-commit phase.
    // ---------------------------------------------------------------
    let dp_config = DataplaneConfig::default();
    let clusters = dp_config.clusters;
    let mut cfg = ChaosConfig {
        flows: dp_flows,
        frames_per_slot,
        probe_frames,
        ..ChaosConfig::default()
    };
    let anchors = chaos::ranked_anchors(&topology, &cfg, clusters, 3);
    let [(a1, f1), (a2, f2), (a3, f3)] = anchors[..] else {
        panic!("topology carries at least three peer groups");
    };
    let (t1, t2, t3) = (
        (f1 + 1) % clusters,
        (f2 + 1) % clusters,
        (f3 + 1) % clusters,
    );
    cfg.reshard = vec![
        // Committing move: rides out a timeout during Announce, a node
        // death in its Dual window, and a torn push at Commit.
        ScriptedMove {
            anchor: a1,
            from: f1,
            to: t1,
            start: 1,
            dwell: 2,
            abort_after: None,
        },
        // Aborts after Announce: withdrawn before any traffic moved.
        ScriptedMove {
            anchor: a2,
            from: f2,
            to: t2,
            start: 2,
            dwell: 2,
            abort_after: Some(MovePhase::Announce),
        },
        // Aborts after Dual: both owners served, then the group goes home.
        ScriptedMove {
            anchor: a3,
            from: f3,
            to: t3,
            start: 3,
            dwell: 2,
            abort_after: Some(MovePhase::Dual),
        },
    ];
    let fault_schedule = FaultSchedule::from_events(
        10,
        vec![
            FaultEvent {
                at: 1,
                duration: 1,
                kind: FaultKind::InstallFailure {
                    cluster: t1,
                    device: 0,
                    fault: InstallFault::Timeout,
                },
            },
            FaultEvent {
                at: 3,
                duration: 2,
                kind: FaultKind::NodeDeath {
                    cluster: t1,
                    device: 1,
                },
            },
            FaultEvent {
                at: 5,
                duration: 1,
                kind: FaultKind::InstallFailure {
                    cluster: t1,
                    device: 0,
                    fault: InstallFault::Partial { fraction: 0.5 },
                },
            },
        ],
    );
    let report = chaos::run_schedule(&topology, dp_config, &cfg, &fault_schedule);
    let dual_total: u64 = report.slots.iter().map(|s| s.dual_owner_packets).sum();
    let node_death_recovered = report
        .faults
        .iter()
        .any(|f| f.label == "node_death" && f.recovered_at.is_some());

    println!(
        "live executor: {} epochs swapped, {} discarded installs, {} dual-owner packets, \
         oracle {}/{} ok, {} violations, moves: {:?}",
        report.epochs_swapped,
        report.discarded_installs,
        dual_total,
        report.oracle_checks - report.oracle_mismatches,
        report.oracle_checks,
        report.violations.len(),
        report
            .moves
            .iter()
            .map(|m| (m.committed, m.rolled_back, m.phases_published.len()))
            .collect::<Vec<_>>(),
    );
    for v in &report.violations {
        println!(
            "    violation @ slot {}: {}: {}",
            v.slot, v.invariant, v.detail
        );
    }

    rec.compare(
        "live executor: invariant violations during migrations under faults",
        "0 (no black hole, epoch consistency, bounded blast radius)",
        format!("{}", report.violations.len()),
        report.violations.is_empty(),
    );
    rec.compare(
        "live executor: oracle agrees after every epoch swap",
        format!("0 mismatches of {} checks", report.oracle_checks),
        format!("{}", report.oracle_mismatches),
        report.oracle_mismatches == 0 && report.oracle_checks > 0,
    );
    let m1 = &report.moves[0];
    rec.compare(
        "scripted move commits through all four published phases",
        "Announce, Dual, Commit, Drain; committed",
        format!("{:?}, committed={}", m1.phases_published, m1.committed),
        m1.committed
            && m1.phases_published
                == vec![
                    MovePhase::Announce,
                    MovePhase::Dual,
                    MovePhase::Commit,
                    MovePhase::Drain,
                ],
    );
    let m2 = &report.moves[1];
    rec.compare(
        "announce-phase abort rolls the group home",
        "phases [Announce], rolled back",
        format!("{:?}, rolled_back={}", m2.phases_published, m2.rolled_back),
        m2.rolled_back && !m2.committed && m2.phases_published == vec![MovePhase::Announce],
    );
    let m3 = &report.moves[2];
    rec.compare(
        "dual-phase abort rolls the group home",
        "phases [Announce, Dual], rolled back",
        format!("{:?}, rolled_back={}", m3.phases_published, m3.rolled_back),
        m3.rolled_back
            && !m3.committed
            && m3.phases_published == vec![MovePhase::Announce, MovePhase::Dual],
    );
    rec.compare(
        "dual windows split traffic across both owners",
        "> 0 secondary-owner packets",
        format!("{dual_total}"),
        dual_total > 0,
    );
    rec.compare(
        "torn push at Commit discarded by the verify gate",
        "> 0 discarded installs",
        format!("{}", report.discarded_installs),
        report.discarded_installs > 0,
    );
    rec.compare(
        "node death inside the Dual window recovered",
        "recovered within the run",
        format!("recovered={node_death_recovered}"),
        node_death_recovered,
    );

    rec
}
