//! The two drivers are pinned to each other.
//!
//! [`Dataplane::run_single`] is the frame-at-a-time reference driver: on
//! the same frame sequence a cold [`BatchExecutor`] must reproduce its
//! `RunReport` field for field — decision digest, per-epoch digests,
//! every counter (including the per-layer `FrameError` lanes), device
//! attribution, both breakers' stats, per-tier punt volumes and virtual
//! time — in both single- and multi-worker modes, and under every epoch
//! shape the shared core reacts to: a DPU tier with a dead node, a
//! published SNAT offload, a live dual-ownership window. A warm cache may
//! shift the hit/miss split but never the decision digest. Hostile
//! batches (structure-aware mutants mixed with valid traffic) must
//! produce identical per-layer error counts on both paths. Every compared
//! report must also satisfy the no-black-hole accounting identity: a
//! frame counted as parsed ends in exactly one disposition lane.

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::chaos::{busiest_anchor, ChaosConfig};
use sailfish_dataplane::epoch::{LiveMove, MovePhase};
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::traffic;
use sailfish_dataplane::{EpochState, RunReport, TierConfig, WorldView};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::FlowKind;
use sailfish_sim::{Flow, Topology, TopologyConfig, WorkloadConfig};
use sailfish_snat::{HybridConfig, HybridSnat};
use sailfish_util::check;
use sailfish_util::fuzz::{FieldSpec, FrameMutator};
use sailfish_util::rand::Rng;

fn workload_flows(flows: usize) -> (Topology, Vec<Flow>, Vec<Vec<u8>>) {
    let topology = Topology::generate(TopologyConfig::default());
    let mut flow_set = sailfish_sim::workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flow_set);
    flow_set.truncate(frames.len());
    (topology, flow_set, frames)
}

fn workload(flows: usize, packets: usize, seed: u64) -> (Topology, Vec<Vec<u8>>, Vec<usize>) {
    let (topology, flow_set, frames) = workload_flows(flows);
    let sched = traffic::schedule(&flow_set, packets, seed);
    (topology, frames, sched)
}

/// Runs both drivers cold over the published epoch of `dp` and requires
/// field-for-field equal reports; returns the (shared) report.
fn cold_pair(dp: &Dataplane, topology: &Topology, seq: &[&[u8]], what: &str) -> RunReport {
    let mut fb_scalar = software_forwarder(topology);
    let scalar = dp.run_single(seq, &mut fb_scalar);
    let mut batch = BatchExecutor::new(dp, 1);
    let mut fb_batch = software_forwarder(topology);
    let report = batch.run(dp, seq, &mut fb_batch);
    assert_reports_match(&scalar, &report, what);
    report
}

/// Full-report equality: everything the scalar executor measures, the
/// batch pipeline must measure identically.
fn assert_reports_match(scalar: &RunReport, batch: &RunReport, what: &str) {
    assert_eq!(
        scalar.decision_digest, batch.decision_digest,
        "{what}: decision digest diverged"
    );
    assert_eq!(
        scalar.epoch_digests, batch.epoch_digests,
        "{what}: per-epoch digests diverged"
    );
    let diff: Vec<String> = scalar
        .counters
        .fields()
        .iter()
        .zip(batch.counters.fields().iter())
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{}: scalar={} batch={}", a.0, a.1, b.1))
        .collect();
    assert!(diff.is_empty(), "{what}: counters diverged: {diff:?}");
    assert_eq!(
        scalar.device_packets, batch.device_packets,
        "{what}: ECMP device attribution diverged"
    );
    assert_eq!(
        scalar.breaker, batch.breaker,
        "{what}: breaker stats diverged"
    );
    assert_eq!(
        scalar.dpu_breaker, batch.dpu_breaker,
        "{what}: DPU breaker stats diverged"
    );
    assert_eq!(
        scalar.fallback_packets, batch.fallback_packets,
        "{what}: punt volume diverged"
    );
    assert_eq!(
        scalar.dpu_packets, batch.dpu_packets,
        "{what}: DPU spill volume diverged"
    );
    assert_eq!(
        scalar.virtual_ns, batch.virtual_ns,
        "{what}: virtual clock diverged"
    );
    assert_eq!(
        scalar.packets, batch.packets,
        "{what}: packet count diverged"
    );
    for (driver, report) in [("scalar", scalar), ("batch", batch)] {
        assert_eq!(
            report.counters.unaccounted(),
            (0, 0),
            "{what}: {driver} driver black-holed packets (undecided, unserved)"
        );
    }
}

#[test]
fn cold_batch_reproduces_scalar_report() {
    let (topology, frames, sched) = workload(900, 40_000, 11);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = cold_pair(&dp, &topology, &seq, "single-worker cold");
    // The run must exercise real decision diversity or equality is vacuous.
    assert!(report.counters.hw_forwarded > 0, "no hardware forwards");
    assert!(report.fallback_packets > 0, "no punts exercised");
    assert!(report.counters.cache_hits > 0, "no cache hits exercised");
}

#[test]
fn cold_batch_matches_under_a_degraded_dpu_tier() {
    let (topology, frames, sched) = workload(900, 40_000, 23);
    let config = DataplaneConfig {
        tier: Some(TierConfig::default()),
        ..DataplaneConfig::default()
    };
    let dp = Dataplane::build(&topology, config.clone());
    let mut one_dead = WorldView::healthy();
    one_dead.dead_dpus.insert(0);
    dp.publish(EpochState::build_with_world(
        &topology,
        &config,
        dp.next_epoch(),
        &one_dead,
    ));
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = cold_pair(&dp, &topology, &seq, "one dead DPU node");
    assert!(report.dpu_packets > 0, "no DPU spills exercised");
    assert!(
        report.counters.dpu_rehomed > 0,
        "dead node re-homed nothing"
    );
}

#[test]
fn cold_batch_matches_under_a_published_snat_offload() {
    let (topology, flows, frames) = workload_flows(900);
    let sched = traffic::schedule(&flows, 40_000, 29);
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());

    // Every Internet flow opens a connection in the hybrid tier; the
    // rebalance seals the hot set for the epoch it ships in.
    let mut hybrid = HybridSnat::new(HybridConfig {
        promote_packets: 1,
        ..HybridConfig::default()
    });
    let internet = flows
        .iter()
        .filter(|f| matches!(f.kind, FlowKind::Internet));
    for (i, flow) in internet.enumerate() {
        let now_ns = (i as u64 + 1) * 1_000;
        hybrid.outbound(flow.vni, flow.tuple, ConnSignal::Payload, now_ns);
    }
    let epoch = dp.next_epoch();
    dp.publish(EpochState::build(&topology, &config, epoch).with_snat(hybrid.rebalance(epoch)));
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = cold_pair(&dp, &topology, &seq, "SNAT offload epoch");
    assert!(
        report.counters.snat_translations > 0,
        "no offloaded translations exercised"
    );
}

#[test]
fn cold_batch_matches_inside_a_dual_ownership_window() {
    let (topology, frames, sched) = workload(900, 40_000, 31);
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());
    // Move the group whose flows split most evenly across both owners to
    // the next cluster and stop in the Dual phase.
    let chaos = ChaosConfig {
        flows: 900,
        ..ChaosConfig::default()
    };
    let (anchor, from) = busiest_anchor(&topology, &chaos, config.clusters);
    let mut world = WorldView::healthy();
    world.moves.insert(
        anchor,
        LiveMove {
            from,
            to: (from + 1) % config.clusters,
            phase: MovePhase::Dual,
        },
    );
    dp.publish(EpochState::build_with_world(
        &topology,
        &config,
        dp.next_epoch(),
        &world,
    ));
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = cold_pair(&dp, &topology, &seq, "dual-ownership window");
    assert!(
        report.counters.dual_owner_packets > 0,
        "no packet took the secondary owner"
    );
    assert_eq!(report.counters.epoch_violations, 0);
}

/// One batch built against the miss stage's assumptions: the warm pass
/// sees each pending frame's *first* hop in the *primary* owner's tables
/// and nothing else, so everything it does not cover must still come out
/// of the miss loop exactly as the frame-at-a-time driver decides it.
#[test]
fn one_batch_of_awkward_misses_matches_scalar() {
    let (topology, flows, frames) = workload_flows(900);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let is_v6 = |f: &Flow| f.tuple.dst_ip.is_ipv6();
    let pick = |what: &str, want: &dyn Fn(&Flow) -> bool| -> usize {
        flows
            .iter()
            .position(want)
            .unwrap_or_else(|| panic!("workload has no {what} flow"))
    };
    let first = pick("intra-VPC v4", &|f| {
        matches!(f.kind, FlowKind::IntraVpc) && !is_v6(f)
    });
    let second = pick("second intra-VPC v4", &|f| {
        matches!(f.kind, FlowKind::IntraVpc) && !is_v6(f) && f.vni != flows[first].vni
    });
    // Its second hop runs in the peer's VNI, which the warm pass never
    // touched.
    let peered = pick("cross-VPC", &|f| matches!(f.kind, FlowKind::CrossVpc));
    let v6 = pick("v6 destination", &is_v6);
    // A VNI no cluster owns: the directory level yields nothing to carry
    // forward and the frame default-routes to software.
    let mut stray = traffic::packet_for_flow(&flows[first]);
    stray.vni = sailfish_net::Vni::from_const(0xfe_dcba);
    let stray = stray.emit().unwrap();
    let hostile = &frames[second][..60];

    let seq: Vec<&[u8]> = vec![
        &frames[first],
        &frames[second],
        // Probed in stage 1 before `first` is inserted, so it parks in
        // the pending lane, is warmed a second time, and must then hit
        // on the re-probe like the frame-at-a-time driver does.
        &frames[first],
        &frames[peered],
        &stray,
        &frames[v6],
        hostile,
    ];
    assert!(seq.len() <= dp.config().batch_size, "must stay one batch");

    let report = cold_pair(&dp, &topology, &seq, "awkward misses");
    let c = &report.counters;
    assert_eq!(c.cache_hits, 1, "the duplicate is a re-probe hit");
    assert_eq!(c.cache_misses, 4, "first, second, peered, v6 each walk");
    assert!(c.peer_hops >= 1, "no peer chain walked");
    assert_eq!(c.parse_errors, 1, "the truncated frame is a counted error");
    assert!(c.punt_no_route >= 1, "the stray VNI default-routes to x86");
}

#[test]
fn multi_worker_batch_reproduces_scalar_multi() {
    let (topology, frames, sched) = workload(900, 40_000, 13);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut fb_scalar = software_forwarder(&topology);
    let scalar_multi = dp.run_multi(&seq, &mut fb_scalar);

    let workers = dp.config().workers;
    let mut batch = BatchExecutor::new(&dp, workers);
    let mut fb_batch = software_forwarder(&topology);
    let report = batch.run(&dp, &seq, &mut fb_batch);

    // Same flow-entropy partitioning, same per-worker batching: the whole
    // report matches, not just the order-independent digest.
    assert_reports_match(&scalar_multi, &report, "multi-worker cold");

    // And the digest is partition-independent, matching single-worker.
    let mut fb_single = software_forwarder(&topology);
    let scalar_single = dp.run_single(&seq, &mut fb_single);
    assert_eq!(scalar_single.decision_digest, report.decision_digest);
    assert_eq!(scalar_single.epoch_digests, report.epoch_digests);
}

#[test]
fn warm_cache_shifts_hits_but_never_decisions() {
    let (topology, frames, sched) = workload(700, 25_000, 17);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut batch = BatchExecutor::new(&dp, 1);
    let mut fb = software_forwarder(&topology);
    let cold = batch.run(&dp, &seq, &mut fb);

    let mut fb_warm = software_forwarder(&topology);
    let warm = batch.run(&dp, &seq, &mut fb_warm);

    assert_eq!(cold.decision_digest, warm.decision_digest, "warm digest");
    assert_eq!(cold.epoch_digests, warm.epoch_digests, "warm epoch digests");
    assert_eq!(cold.device_packets, warm.device_packets, "warm attribution");
    assert!(
        warm.counters.cache_hits > cold.counters.cache_hits,
        "warm run should hit more ({} vs {})",
        warm.counters.cache_hits,
        cold.counters.cache_hits
    );
    assert_eq!(warm.counters.cache_misses, 0, "warm run should never miss");

    // reset_caches restores the cold profile exactly.
    batch.reset_caches();
    let mut fb_cold2 = software_forwarder(&topology);
    let cold2 = batch.run(&dp, &seq, &mut fb_cold2);
    assert_eq!(cold.counters, cold2.counters, "reset_caches cold profile");
    assert_eq!(cold.decision_digest, cold2.decision_digest);
}

/// The decision-point field map of the hostile-frame suite: mutations
/// aimed at every layer's validation branches.
fn v4_field_map() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new(12, 2),    // outer ethertype
        FieldSpec::length(14, 1), // outer version/IHL
        FieldSpec::length(16, 2), // outer total length
        FieldSpec::new(20, 2),    // outer flags/fragment
        FieldSpec::new(23, 1),    // outer protocol
        FieldSpec::new(24, 2),    // outer header checksum
        FieldSpec::new(36, 2),    // outer UDP dst port
        FieldSpec::length(38, 2), // outer UDP length
        FieldSpec::new(40, 2),    // outer UDP checksum
        FieldSpec::new(42, 1),    // VXLAN flags
        FieldSpec::new(46, 3),    // VNI
        FieldSpec::new(62, 2),    // inner ethertype
        FieldSpec::length(64, 1), // inner version/IHL
        FieldSpec::length(66, 2), // inner total length
        FieldSpec::new(70, 2),    // inner flags/fragment
        FieldSpec::new(73, 1),    // inner protocol
        FieldSpec::new(74, 2),    // inner header checksum
        FieldSpec::length(88, 2), // inner UDP length
    ]
}

#[test]
fn hostile_batches_keep_identical_error_lanes() {
    let (topology, frames, sched) = workload(400, 1, 19);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let mutator = FrameMutator::new(v4_field_map());
    let _ = sched;

    check::run("batch_hostile_equivalence", 6, |rng| {
        // A fuzzed batch: valid flow frames interleaved with
        // structure-aware mutants (truncations, checksum/length lies,
        // fragment bits, bad ports — whatever the mutator lands on).
        let mut storage: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.gen_range(500..2000usize) {
            let base = &frames[rng.gen_range(0..frames.len())];
            if rng.gen_bool(0.45) {
                let (mutant, _applied) = mutator.mutate(rng, base);
                storage.push(mutant);
            } else {
                storage.push(base.clone());
            }
        }
        let seq: Vec<&[u8]> = storage.iter().map(|f| f.as_slice()).collect();

        let mut fb_scalar = software_forwarder(&topology);
        let scalar = dp.run_single(&seq, &mut fb_scalar);

        let mut batch = BatchExecutor::new(&dp, 1);
        let mut fb_batch = software_forwarder(&topology);
        let report = batch.run(&dp, &seq, &mut fb_batch);

        assert_reports_match(&scalar, &report, "hostile batch");

        // The per-layer error lanes must agree entry by entry, and the
        // mutated share of the batch must actually trip some of them.
        let layer_errors: u64 = report
            .counters
            .fields()
            .iter()
            .filter(|(name, _)| name.starts_with("layer_"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(
            layer_errors, report.counters.parse_errors,
            "layer lanes must partition parse errors"
        );

        // Multi-worker over the same hostile batch: digest and counters
        // still match the scalar multi run.
        let mut fb_sm = software_forwarder(&topology);
        let scalar_multi = dp.run_multi(&seq, &mut fb_sm);
        let mut batch_multi = BatchExecutor::new(&dp, dp.config().workers);
        let mut fb_bm = software_forwarder(&topology);
        let report_multi = batch_multi.run(&dp, &seq, &mut fb_bm);
        assert_reports_match(&scalar_multi, &report_multi, "hostile multi");
    });
}
