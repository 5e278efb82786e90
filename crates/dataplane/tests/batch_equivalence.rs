//! The batch size is a performance knob, never a behaviour.
//!
//! [`BatchExecutor`] is the dataplane's only driver, so it is pinned to
//! itself: every case runs the same frame sequence cold at batch sizes 1,
//! 32 and a ragged 7, and the `RunReport`s must be equal field for field
//! — decision digest, per-epoch digests, every counter (including the
//! per-layer `FrameError` lanes), device attribution, both breakers'
//! stats, per-tier punt volumes — except `virtual_ns`, which must differ
//! by exactly [`cost::BATCH_OVERHEAD_NS`] per batch. That holds under
//! every epoch shape the core reacts to: a DPU tier with a dead node, a
//! published SNAT offload, a live dual-ownership window, one batch of
//! misses the warm stage cannot cover, and hostile frames. The decision
//! digest must not depend on the worker count either. A warm cache may
//! shift the hit/miss split but never the decision digest. Every report
//! must also satisfy the no-black-hole accounting identity: a frame
//! counted as parsed ends in exactly one disposition lane.
//!
//! Under a tight punt meter the virtual clock decides what is shed, so
//! the last case pins a run's numbers to those of frame-by-frame
//! processing.

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::chaos::{busiest_anchor, ChaosConfig};
use sailfish_dataplane::engine::cost;
use sailfish_dataplane::epoch::{LiveMove, MovePhase};
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::traffic;
use sailfish_dataplane::{
    BreakerConfig, BreakerStats, EpochState, RunReport, TierConfig, WorldView,
};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::FlowKind;
use sailfish_sim::{Flow, Topology, TopologyConfig, WorkloadConfig};
use sailfish_snat::{HybridConfig, HybridSnat};
use sailfish_util::check;
use sailfish_util::fuzz::{FieldSpec, FrameMutator};
use sailfish_util::rand::Rng;

/// One frame per batch, the default, and a size that leaves a ragged
/// last batch.
const BATCH_SIZES: [usize; 3] = [1, 32, 7];

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

/// Runs `seq` cold on one worker at every batch size in [`BATCH_SIZES`],
/// over a dataplane `build` makes from `config` with that batch size
/// (publishing whatever epoch the case needs), and requires the reports
/// to agree; returns the batch-32 report.
fn across_batch_sizes(
    topology: &Topology,
    config: &DataplaneConfig,
    build: impl Fn(DataplaneConfig) -> Dataplane,
    seq: &[&[u8]],
    what: &str,
) -> RunReport {
    let reports: Vec<(usize, RunReport)> = BATCH_SIZES
        .iter()
        .map(|&batch_size| {
            let dp = build(DataplaneConfig {
                batch_size,
                ..config.clone()
            });
            let mut fallback = software_forwarder(topology);
            let report = BatchExecutor::new(&dp, 1).run(&dp, seq, &mut fallback);
            (batch_size, report)
        })
        .collect();
    let (base_size, base) = &reports[0];
    for (size, report) in &reports[1..] {
        assert_same_run(
            base,
            report,
            &format!("{what}: batch {base_size} vs {size}"),
        );
        let batches = |size: usize| seq.len().div_ceil(size) as u64;
        assert_eq!(
            report.virtual_ns - cost::BATCH_OVERHEAD_NS * batches(*size),
            base.virtual_ns - cost::BATCH_OVERHEAD_NS * batches(*base_size),
            "{what}: batch {base_size} vs {size}: virtual time differs beyond per-batch overhead"
        );
    }
    reports
        .into_iter()
        .find(|(size, _)| *size == 32)
        .map(|(_, report)| report)
        .unwrap()
}

/// Field-for-field equality of two runs of the same frames, except the
/// virtual time, which the caller relates. The exhaustive destructuring
/// makes a new report field a compile error here until it is compared.
fn assert_same_run(a: &RunReport, b: &RunReport, what: &str) {
    let RunReport {
        packets,
        counters,
        decision_digest,
        epoch_digests,
        virtual_ns: _,
        fallback_packets,
        dpu_packets,
        workers,
        device_packets,
        breaker,
        dpu_breaker,
    } = a;
    assert_eq!(
        *decision_digest, b.decision_digest,
        "{what}: decision digest diverged"
    );
    assert_eq!(
        *epoch_digests, b.epoch_digests,
        "{what}: per-epoch digests diverged"
    );
    let diff: Vec<String> = counters
        .fields()
        .iter()
        .zip(b.counters.fields().iter())
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, y)| format!("{}: {} vs {}", x.0, x.1, y.1))
        .collect();
    assert!(diff.is_empty(), "{what}: counters diverged: {diff:?}");
    assert_eq!(
        *device_packets, b.device_packets,
        "{what}: ECMP device attribution diverged"
    );
    assert_eq!(*breaker, b.breaker, "{what}: breaker stats diverged");
    assert_eq!(
        *dpu_breaker, b.dpu_breaker,
        "{what}: DPU breaker stats diverged"
    );
    assert_eq!(
        *fallback_packets, b.fallback_packets,
        "{what}: punt volume diverged"
    );
    assert_eq!(
        *dpu_packets, b.dpu_packets,
        "{what}: DPU spill volume diverged"
    );
    assert_eq!(*packets, b.packets, "{what}: packet count diverged");
    assert_eq!(*workers, b.workers, "{what}: worker count diverged");
    for report in [a, b] {
        assert_eq!(
            report.counters.unaccounted(),
            (0, 0),
            "{what}: black-holed packets (undecided, unserved)"
        );
    }
}

#[test]
fn plain_epoch_report_is_batch_size_invariant() {
    let (topology, frames, sched) = workload(900, 40_000, 11);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
    let report = across_batch_sizes(
        &topology,
        &DataplaneConfig::default(),
        |config| Dataplane::build(&topology, config),
        &seq,
        "plain epoch",
    );
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
    let mut one_dead = WorldView::healthy();
    one_dead.dead_dpus.insert(0);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = across_batch_sizes(
        &topology,
        &config,
        |config| {
            let dp = Dataplane::build(&topology, config.clone());
            dp.publish(EpochState::build_with_world(
                &topology,
                &config,
                dp.next_epoch(),
                &one_dead,
            ));
            dp
        },
        &seq,
        "one dead DPU node",
    );
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
    let offload = hybrid.rebalance(1);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = across_batch_sizes(
        &topology,
        &config,
        |config| {
            let dp = Dataplane::build(&topology, config.clone());
            let epoch = dp.next_epoch();
            dp.publish(EpochState::build(&topology, &config, epoch).with_snat(offload.clone()));
            dp
        },
        &seq,
        "SNAT offload epoch",
    );
    assert!(
        report.counters.snat_translations > 0,
        "no offloaded translations exercised"
    );
}

#[test]
fn cold_batch_matches_inside_a_dual_ownership_window() {
    let (topology, frames, sched) = workload(900, 40_000, 31);
    let config = DataplaneConfig::default();
    // Move the group whose flows split most evenly across both owners to
    // the next cluster and stop in the Dual phase.
    let chaos = ChaosConfig {
        flows: 900,
        ..ChaosConfig::default()
    };
    let (anchor, from) = busiest_anchor(&topology, &chaos, config.clusters).unwrap();
    let mut world = WorldView::healthy();
    world.moves.insert(
        anchor,
        LiveMove {
            from,
            to: (from + 1) % config.clusters,
            phase: MovePhase::Dual,
        },
    );
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let report = across_batch_sizes(
        &topology,
        &config,
        |config| {
            let dp = Dataplane::build(&topology, config.clone());
            dp.publish(EpochState::build_with_world(
                &topology,
                &config,
                dp.next_epoch(),
                &world,
            ));
            dp
        },
        &seq,
        "dual-ownership window",
    );
    assert!(
        report.counters.dual_owner_packets > 0,
        "no packet took the secondary owner"
    );
    assert_eq!(report.counters.epoch_violations, 0);
}

/// One batch (at size 32 or 7; seven at size 1) built against the miss
/// stage's assumptions: the warm pass sees each pending frame's *first*
/// hop in the *primary* owner's tables and nothing else, so everything it
/// does not cover must still come out of the miss loop exactly as a batch
/// of one decides it.
#[test]
fn awkward_misses_match_across_batch_sizes() {
    let (topology, flows, frames) = workload_flows(900);
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
        // Probed in stage 1 before `first` is inserted, so in a shared
        // batch it parks in the pending lane, is warmed a second time,
        // and must then hit on the re-probe like a batch of one does.
        &frames[first],
        &frames[peered],
        &stray,
        &frames[v6],
        hostile,
    ];

    let report = across_batch_sizes(
        &topology,
        &DataplaneConfig::default(),
        |config| Dataplane::build(&topology, config),
        &seq,
        "awkward misses",
    );
    let c = &report.counters;
    assert_eq!(c.cache_hits, 1, "the duplicate is a re-probe hit");
    assert_eq!(c.cache_misses, 4, "first, second, peered, v6 each walk");
    assert!(c.peer_hops >= 1, "no peer chain walked");
    assert_eq!(c.parse_errors, 1, "the truncated frame is a counted error");
    assert!(c.punt_no_route >= 1, "the stray VNI default-routes to x86");
}

#[test]
fn decision_digest_is_worker_count_invariant() {
    let (topology, frames, sched) = workload(900, 40_000, 13);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let single = dp.run_single(&seq, &mut software_forwarder(&topology));
    assert_eq!(single.counters.unaccounted(), (0, 0));
    for workers in [2, 4] {
        let mut batch = BatchExecutor::new(&dp, workers);
        let report = batch.run(&dp, &seq, &mut software_forwarder(&topology));
        assert_eq!(report.workers, workers);
        assert_eq!(
            single.decision_digest, report.decision_digest,
            "{workers} workers: decision digest diverged"
        );
        assert_eq!(
            single.epoch_digests, report.epoch_digests,
            "{workers} workers: per-epoch digests diverged"
        );
        assert_eq!(report.counters.unaccounted(), (0, 0));
    }
    // `run_multi` is the `config.workers` run of the same executor.
    let multi = dp.run_multi(&seq, &mut software_forwarder(&topology));
    assert_eq!(multi.workers, dp.config().workers);
    assert_eq!(single.decision_digest, multi.decision_digest);
    assert_eq!(multi.counters.unaccounted(), (0, 0));
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
    for report in [&cold, &warm, &cold2] {
        assert_eq!(report.counters.unaccounted(), (0, 0));
    }
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
    let (topology, _, frames) = workload_flows(400);
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());
    let mutator = FrameMutator::new(v4_field_map());

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

        let report = across_batch_sizes(
            &topology,
            &config,
            |config| Dataplane::build(&topology, config),
            &seq,
            "hostile batch",
        );

        // The per-layer error lanes must partition the parse errors, and
        // the mutated share of the batch must actually trip some of them.
        let layer_errors: u64 = report
            .counters
            .fields()
            .iter()
            .filter(|(name, _)| name.starts_with("layer_"))
            .map(|(_, v)| *v)
            .sum();
        assert!(report.counters.parse_errors > 0, "no mutant was rejected");
        assert_eq!(
            layer_errors, report.counters.parse_errors,
            "layer lanes must partition parse errors"
        );

        // Multi-worker over the same hostile batch: the same decisions.
        let multi = dp.run_multi(&seq, &mut software_forwarder(&topology));
        assert_eq!(report.decision_digest, multi.decision_digest);
        assert_eq!(report.counters.parse_errors, multi.counters.parse_errors);
        assert_eq!(multi.counters.unaccounted(), (0, 0));
    });
}

/// A tight punt meter (the chaos harness's: 8 kbit/s, 120 kB burst)
/// behind a breaker whose short cool-down expires many times within the
/// run, so what is shed depends on the exact clock at each admission.
/// The pinned numbers are what processing the frames one at a time
/// produces, each frame's parse and walk charged before it reaches the
/// breaker. A clock charged in stage order (all parses of a batch, then
/// all its walks) opens and half-opens the breaker at other frames, and
/// its counters, breaker stats and virtual time all miss these.
#[test]
fn tight_meter_admissions_read_the_frame_by_frame_clock() {
    let (topology, frames, sched) = workload(900, 12_000, 37);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
    let dp = Dataplane::build(
        &topology,
        DataplaneConfig {
            punt_rate_bps: 8_000,
            punt_burst_bytes: 120_000,
            breaker: BreakerConfig {
                open_threshold: 4,
                open_ns: 2_000,
                half_open_trials: 2,
            },
            ..DataplaneConfig::default()
        },
    );
    assert_eq!(dp.config().batch_size, 32);
    let report = BatchExecutor::new(&dp, 1).run(&dp, &seq, &mut software_forwarder(&topology));

    // Every other counter lane is zero.
    let pinned: [(&str, u64); 14] = [
        ("parsed", 12_000),
        ("route_lookups", 864),
        ("route_hits", 864),
        ("peer_hops", 66),
        ("vm_hit_main", 736),
        ("vm_miss", 45),
        ("punt_snat", 62),
        ("punt_no_vm", 1_214),
        ("punt_rate_limited", 12),
        ("punt_breaker_open", 1_166),
        ("cache_hits", 11_202),
        ("cache_misses", 798),
        ("hw_forwarded", 10_724),
        ("fallback_forwarded", 98),
    ];
    for (name, value) in report.counters.fields() {
        let want = pinned
            .iter()
            .find(|(pinned, _)| *pinned == name)
            .map_or(0, |(_, v)| *v);
        assert_eq!(value, want, "counter {name}");
    }
    assert_eq!(
        report.breaker,
        BreakerStats {
            opened: 258,
            half_opened: 257,
            closed: 1,
            shed_open: 1_166,
            shed_meter: 12,
        }
    );
    assert_eq!(report.virtual_ns, 895_293);
    assert_eq!(report.counters.unaccounted(), (0, 0));
    // Both sides of the meter were exercised.
    assert!(report.counters.punt_rate_limited + report.counters.punt_breaker_open > 0);
    assert!(report.fallback_packets > 0);
}
