//! Three-tier graceful degradation sweep: drives every layer of the
//! XGW-H → DPU pool → XGW-x86 ladder and records the claims behind it.
//!
//! 1. **Ladder walk** — the same traffic runs against the flat two-tier
//!    dataplane and the tiered one, then against published worlds with
//!    one DPU node dead and the whole pool dead. Checked: the decision
//!    digest is byte-identical at every rung (placement never changes
//!    *what* is decided, only *where* punts are served), the DPU pool
//!    absorbs the entire punt stream while alive, the three-tier
//!    latency strictly beats the two-tier one, the exact three-tier
//!    accounting identity holds, and killing the pool collapses
//!    gracefully back to the two-tier baseline count for count.
//! 2. **Executor parity** — scalar vs batch vs multi-worker runs with
//!    the tier layer active and a node dead: byte-identical decision
//!    digests and counter fingerprints.
//! 3. **Chaos failover** — the packet-level chaos harness replays DPU
//!    node death (bounded re-homing churn, MTTR bounded by the fault
//!    window, recovery as epoch swaps), DPU pool saturation under a
//!    tight DPU meter (sheds re-route to x86, never drop), the
//!    alert-before-breaker ordering for the DPU rung, and a generated
//!    schedule covering all nine fault kinds.
//! 4. **Ownership churn** — seeded property sweep over pool shapes:
//!    killing a node moves only that node's flows and fail/restore
//!    round-trips the ownership digest byte-identically.
//! 5. **SRAM budget** — the DPU spill steering table fits the
//!    calibrated device next to the SNAT offload and region-scale
//!    tables, and the verifier rejects an absurd grant.
//! 6. **Breaker accounting** — a failed half-open probe refunds the
//!    bytes its admitted trials drained, so probe cycles make identical
//!    progress instead of latching open.
//!
//! Run with: `cargo run --release -p sailfish-bench --bin tier_sweep`
//! (add `--tiny` for the CI smoke scale). Output is fully
//! deterministic: two runs produce byte-identical
//! `experiments/tier.json`.

use sailfish_asic::config::TofinoConfig;
use sailfish_bench::record::ExperimentRecord;
use sailfish_bench::scale::calibrated_scenario;
use sailfish_cluster::dpu::{DpuPool, DpuPoolConfig};
use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::chaos::{self, ChaosConfig};
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{
    traffic, Admission, BreakerConfig, Dataplane, DataplaneConfig, EpochState, PuntBreaker,
    RunReport, TierConfig, WorldView,
};
use sailfish_sim::faults::{FaultEvent, FaultKind, FaultSchedule, FaultScheduleConfig};
use sailfish_sim::workload::{generate_flows, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::meter::Meter;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};
use sailfish_xgw_h::layout::{
    verify_tier_offload, DPU_SPILL_TABLE_ENTRIES, SNAT_EXACT_TABLE_ENTRIES,
};

/// Sweep scale: `--tiny` keeps the CI smoke fast.
struct Scale {
    flows: usize,
    packets: usize,
    chaos_flows: usize,
    frames_per_slot: usize,
    probe_frames: usize,
    churn_keys: u64,
}

impl Scale {
    fn pick(tiny: bool) -> Self {
        if tiny {
            Scale {
                flows: 300,
                packets: 6_000,
                chaos_flows: 300,
                frames_per_slot: 800,
                probe_frames: 400,
                churn_keys: 1_024,
            }
        } else {
            Scale {
                flows: 600,
                packets: 20_000,
                chaos_flows: 600,
                frames_per_slot: 3_000,
                probe_frames: 1_200,
                churn_keys: 4_096,
            }
        }
    }
}

/// The exact three-tier accounting identity over one run's counters:
/// every parsed packet is decided, and every punt is served by exactly
/// one software rung or shed by a meter/breaker.
fn three_tier_identity(run: &RunReport) -> bool {
    let c = &run.counters;
    c.unaccounted() == (0, 0)
        && c.dpu_spilled == c.dpu_forwarded + c.dpu_dropped
        && c.parse_errors == 0
}

/// Whether two reports agree on every decision-relevant byte.
fn reports_agree(a: &RunReport, b: &RunReport) -> bool {
    a.decision_digest == b.decision_digest
        && a.epoch_digests == b.epoch_digests
        && a.fallback_packets == b.fallback_packets
        && a.dpu_packets == b.dpu_packets
        && a.counters
            .fields()
            .iter()
            .zip(b.counters.fields().iter())
            .all(|(x, y)| x.1 == y.1)
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let scale = Scale::pick(tiny);
    let mut rec = ExperimentRecord::new(
        "tier",
        "Three-tier graceful degradation: DPU middle tier with chaos-verified failover",
    );

    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: scale.flows,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let sched = traffic::schedule(&flows[..frames.len()], scale.packets, 23);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    // --- 1. ladder walk -----------------------------------------------
    let flat_config = DataplaneConfig::default();
    let flat_dp = Dataplane::build(&topology, flat_config);
    let mut fb = software_forwarder(&topology);
    let flat = flat_dp.run_single(&seq, &mut fb);

    let tier_config = DataplaneConfig {
        tier: Some(TierConfig::default()),
        ..DataplaneConfig::default()
    };
    let dp = Dataplane::build(&topology, tier_config.clone());
    let mut fb_tier = software_forwarder(&topology);
    let tiered = dp.run_single(&seq, &mut fb_tier);

    rec.compare(
        "decision digest: flat vs three-tier ladder",
        "byte-identical (placement changes where, never what)",
        if tiered.decision_digest == flat.decision_digest
            && tiered.epoch_digests == flat.epoch_digests
        {
            "identical"
        } else {
            "DIVERGED"
        }
        .to_string(),
        tiered.decision_digest == flat.decision_digest
            && tiered.epoch_digests == flat.epoch_digests,
    );
    rec.compare(
        "healthy pool absorbs the whole punt stream",
        "dpu == flat fallback count, x86 idle",
        format!(
            "{} on DPU, {} on x86 (flat served {})",
            tiered.dpu_packets, tiered.fallback_packets, flat.fallback_packets
        ),
        tiered.dpu_packets == flat.fallback_packets
            && tiered.fallback_packets == 0
            && tiered.dpu_packets > 0,
    );
    rec.compare(
        "three-tier latency beats two-tier",
        "virtual_ns strictly lower",
        format!("{} vs {} ns", tiered.virtual_ns, flat.virtual_ns),
        tiered.virtual_ns < flat.virtual_ns,
    );
    rec.compare(
        "three-tier accounting identity",
        "hw + dpu + x86 + typed sheds == offered, exactly",
        if three_tier_identity(&tiered) && three_tier_identity(&flat) {
            "exact"
        } else {
            "BROKEN"
        }
        .to_string(),
        three_tier_identity(&tiered) && three_tier_identity(&flat),
    );

    // One node dead: punts stay on the pool, churn is visible and
    // bounded to the dead node's flows.
    let mut one_dead = WorldView::healthy();
    one_dead.dead_dpus.insert(1);
    dp.publish(EpochState::build_with_world(
        &topology,
        &tier_config,
        dp.next_epoch(),
        &one_dead,
    ));
    let mut fb_dead = software_forwarder(&topology);
    let degraded = dp.run_single(&seq, &mut fb_dead);
    rec.compare(
        "one DPU node dead: survivors own the ring",
        "digest unchanged, re-homed > 0, x86 still idle",
        format!(
            "{} re-homed of {} spills, {} on x86",
            degraded.counters.dpu_rehomed, degraded.counters.dpu_spilled, degraded.fallback_packets
        ),
        degraded.decision_digest == flat.decision_digest
            && degraded.counters.dpu_rehomed > 0
            && degraded.fallback_packets == 0
            && three_tier_identity(&degraded),
    );

    // Whole pool dead: graceful collapse to the two-tier baseline.
    let mut all_dead = WorldView::healthy();
    for node in 0..TierConfig::default().pool.nodes {
        all_dead.dead_dpus.insert(node);
    }
    dp.publish(EpochState::build_with_world(
        &topology,
        &tier_config,
        dp.next_epoch(),
        &all_dead,
    ));
    let mut fb_all = software_forwarder(&topology);
    let collapsed = dp.run_single(&seq, &mut fb_all);
    rec.compare(
        "pool dead: graceful collapse to two tiers",
        "matches the flat baseline count for count",
        format!(
            "{} on x86 (flat {}), {} on DPU",
            collapsed.fallback_packets, flat.fallback_packets, collapsed.dpu_packets
        ),
        collapsed.decision_digest == flat.decision_digest
            && collapsed.fallback_packets == flat.fallback_packets
            && collapsed.dpu_packets == 0
            && three_tier_identity(&collapsed),
    );

    // --- 2. executor parity under the tier layer ----------------------
    // Re-publish the one-dead world so parity is checked under churn.
    dp.publish(EpochState::build_with_world(
        &topology,
        &tier_config,
        dp.next_epoch(),
        &one_dead,
    ));
    let mut fb_scalar = software_forwarder(&topology);
    let scalar = dp.run_single(&seq, &mut fb_scalar);
    let mut batch = BatchExecutor::new(&dp, 1);
    let mut fb_batch = software_forwarder(&topology);
    let batched = batch.run(&dp, &seq, &mut fb_batch);
    rec.compare(
        "batch pipeline under tier placement",
        "reproduces scalar report field-for-field",
        if reports_agree(&scalar, &batched) {
            "field-for-field"
        } else {
            "DIVERGED"
        }
        .to_string(),
        reports_agree(&scalar, &batched),
    );
    let multi_dp = Dataplane::build(
        &topology,
        DataplaneConfig {
            workers: 4,
            ..tier_config.clone()
        },
    );
    multi_dp.publish(EpochState::build_with_world(
        &topology,
        &tier_config,
        multi_dp.next_epoch(),
        &one_dead,
    ));
    let mut fb_multi = software_forwarder(&topology);
    let multi = multi_dp.run_multi(&seq, &mut fb_multi);
    rec.compare(
        "multi-worker digest under tier placement",
        "decision digest identical across 4 workers",
        if multi.decision_digest == scalar.decision_digest {
            "identical"
        } else {
            "DIVERGED"
        }
        .to_string(),
        multi.decision_digest == scalar.decision_digest && multi.workers == 4,
    );

    // --- 3. chaos failover --------------------------------------------
    let cfg = ChaosConfig {
        flows: scale.chaos_flows,
        frames_per_slot: scale.frames_per_slot,
        probe_frames: scale.probe_frames,
        ..ChaosConfig::default()
    };
    let tiered_chaos_config = DataplaneConfig {
        tier: Some(TierConfig::default()),
        ..DataplaneConfig::default()
    };

    // 3a. DPU node death: bounded churn, bounded MTTR, epoch swaps.
    let death_schedule = FaultSchedule::from_events(
        8,
        vec![FaultEvent {
            at: 2,
            duration: 3,
            kind: FaultKind::DpuNodeDeath { node: 1 },
        }],
    );
    let death = chaos::run_schedule(
        &topology,
        tiered_chaos_config.clone(),
        &cfg,
        &death_schedule,
    );
    let churn_in_window: u64 = death
        .slots
        .iter()
        .filter(|s| (2..5).contains(&s.slot))
        .map(|s| s.dpu_rehomed)
        .sum();
    let churn_outside: u64 = death
        .slots
        .iter()
        .filter(|s| s.slot < 2 || s.slot >= 5)
        .map(|s| s.dpu_rehomed)
        .sum();
    rec.compare(
        "DPU node death replay: invariants hold",
        "0 violations, 0 oracle mismatches on every slot",
        format!(
            "{} violations, {} mismatches",
            death.violations.len(),
            death.oracle_mismatches
        ),
        death.holds() && death.oracle_mismatches == 0,
    );
    rec.compare(
        "DPU node death: bounded churn and MTTR",
        "re-homing only inside the window, recovery in 3 slots",
        format!(
            "{churn_in_window} re-homed in window, {churn_outside} outside, MTTR {:.1} slots, {} swaps",
            death.mean_mttr_slots(),
            death.epochs_swapped
        ),
        churn_in_window > 0
            && churn_outside == 0
            && death.faults.first().map(|f| f.outage_slots) == Some(Some(3))
            && death.epochs_swapped == 2,
    );

    // 3b. DPU pool saturation under a meter sized for the healthy punt
    // baseline but not the 16x saturated byte cost: sheds re-route.
    let tight_tier = DataplaneConfig {
        tier: Some(TierConfig {
            dpu_rate_bps: 8_000,
            dpu_burst_bytes: (scale.frames_per_slot as u64) * 600,
            ..TierConfig::default()
        }),
        ..DataplaneConfig::default()
    };
    let saturation_schedule = FaultSchedule::from_events(
        8,
        vec![FaultEvent {
            at: 2,
            duration: 3,
            kind: FaultKind::DpuPoolSaturation { severity: 8.0 },
        }],
    );
    let saturation = chaos::run_schedule(&topology, tight_tier.clone(), &cfg, &saturation_schedule);
    let saturated_ok = saturation
        .slots
        .iter()
        .filter(|s| (2..5).contains(&s.slot))
        .all(|s| s.dpu_shed > 0 && s.fallback_packets > 0);
    let healthy_ok = saturation
        .slots
        .iter()
        .filter(|s| s.slot < 2 || s.slot >= 5)
        .all(|s| s.dpu_shed == 0 && s.fallback_packets == 0);
    rec.compare(
        "DPU saturation: sheds re-route down the ladder",
        "saturated slots spill to x86, healthy slots never",
        format!(
            "saturated slots shed+reroute: {saturated_ok}, healthy slots quiet: {healthy_ok}, \
             {} violations",
            saturation.violations.len()
        ),
        saturation.holds() && saturated_ok && healthy_ok && saturation.epochs_swapped == 2,
    );

    // 3c. Alert-before-breaker ordering for the DPU rung: a punt storm
    // against the tight DPU meter. The healthy DPU share sits above the
    // x86 water level (the pool absorbs the whole punt baseline), so
    // sharing that level makes the operator-facing alert lead.
    let mut alert_cfg = cfg.clone();
    alert_cfg.levels.dpu_share_level = alert_cfg.levels.fallback_level;
    let storm_schedule = FaultSchedule::from_events(
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
    let storm_tier = DataplaneConfig {
        tier: Some(TierConfig {
            dpu_rate_bps: 8_000,
            dpu_burst_bytes: (scale.frames_per_slot as u64) * 150,
            ..TierConfig::default()
        }),
        ..DataplaneConfig::default()
    };
    let storm = chaos::run_schedule(&topology, storm_tier, &alert_cfg, &storm_schedule);
    let ordered = match (
        storm.first_dpu_alert_slot,
        storm.first_dpu_breaker_open_slot,
    ) {
        (Some(alert), Some(open)) => alert < open,
        _ => false,
    };
    rec.compare(
        "DpuShare alert precedes DPU breaker open",
        "alert slot < open slot (= 2)",
        format!(
            "alert {:?}, open {:?}",
            storm.first_dpu_alert_slot, storm.first_dpu_breaker_open_slot
        ),
        ordered && storm.first_dpu_breaker_open_slot == Some(2) && storm.holds(),
    );

    // 3d. Generated schedule covering all nine fault kinds.
    let nine_schedule = FaultSchedule::generate(&FaultScheduleConfig {
        slots: 24,
        clusters: tiered_chaos_config.clusters,
        devices_per_cluster: tiered_chaos_config.devices_per_cluster,
        fault_rate: 0.5,
        ..FaultScheduleConfig::default()
    });
    let kinds = nine_schedule.kinds_present().len();
    let nine = chaos::run_schedule(&topology, tiered_chaos_config, &cfg, &nine_schedule);
    rec.compare(
        "nine-kind generated schedule with tier active",
        "9 kinds, 0 violations, 0 oracle mismatches",
        format!(
            "{kinds} kinds, {} violations, {} mismatches, {} swaps",
            nine.violations.len(),
            nine.oracle_mismatches,
            nine.epochs_swapped
        ),
        kinds == 9 && nine.holds() && nine.oracle_mismatches == 0 && nine.epochs_swapped > 0,
    );

    // --- 4. ownership churn property sweep ----------------------------
    let mut bounded = true;
    let mut round_trip = true;
    let mut rng = StdRng::seed_from_u64(20_260_808);
    for _ in 0..6 {
        let config = DpuPoolConfig {
            nodes: rng.gen_range(2..10u16),
            vnodes: 16 + rng.gen_range(0..64u16),
            ..DpuPoolConfig::default()
        };
        let mut pool = DpuPool::new(config);
        let digest_before = pool.ownership_digest(scale.churn_keys);
        let keys: Vec<u64> = (0..scale.churn_keys)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5)
            .collect();
        let before: Vec<Option<u16>> = keys.iter().map(|k| pool.owner_of(*k)).collect();
        let victim = rng.gen_range(0..config.nodes);
        pool.fail(victim);
        for (i, owner) in keys.iter().map(|k| pool.owner_of(*k)).enumerate() {
            if owner == Some(victim) {
                bounded = false;
            }
            if owner != before[i] && before[i] != Some(victim) {
                bounded = false;
            }
        }
        pool.restore(victim);
        if pool.ownership_digest(scale.churn_keys) != digest_before {
            round_trip = false;
        }
    }
    rec.compare(
        "consistent-hash churn over 6 seeded pool shapes",
        "only the dead node's flows move",
        format!("bounded: {bounded}"),
        bounded,
    );
    rec.compare(
        "fail/restore ownership round-trip",
        "byte-identical digests",
        format!("round-trip identical: {round_trip}"),
        round_trip,
    );

    // --- 5. XGW-H SRAM budget -----------------------------------------
    let scenario = calibrated_scenario();
    let asic = TofinoConfig::tofino_64t();
    let fits = verify_tier_offload(
        &asic,
        scenario.route_entries,
        scenario.vm_entries,
        SNAT_EXACT_TABLE_ENTRIES,
        DPU_SPILL_TABLE_ENTRIES,
    )
    .map(|r| r.is_clean())
    .unwrap_or(false);
    rec.compare(
        "DPU spill table on the calibrated device",
        "fits beside SNAT offload and region-scale tables",
        format!("{DPU_SPILL_TABLE_ENTRIES} entries verify clean: {fits}"),
        fits,
    );
    let absurd_rejected = verify_tier_offload(
        &asic,
        scenario.route_entries,
        scenario.vm_entries,
        SNAT_EXACT_TABLE_ENTRIES,
        64_000_000,
    )
    .map(|r| !r.is_clean())
    .unwrap_or(true);
    rec.compare(
        "SRAM verifier rejects absurd spill table",
        "64M entries must not fit",
        format!("rejected: {absurd_rejected}"),
        absurd_rejected,
    );

    // --- 6. breaker probe accounting ----------------------------------
    // 1000 B/s with a 3000 B burst: a probe cycle admits two 1500 B
    // trials then fails the third. With the refund, the next cycle makes
    // identical progress from the same full bucket.
    let mut breaker = PuntBreaker::named(
        "dpu",
        Meter::new(8_000, 3_000),
        BreakerConfig {
            open_threshold: 1,
            open_ns: 1_000,
            half_open_trials: 3,
        },
    );
    breaker.admit(0, 1500);
    breaker.admit(0, 1500);
    breaker.admit(0, 1500); // opens
    let t1 = 4_000_000_000u64;
    let first_cycle = (breaker.admit(t1, 1500), breaker.admit(t1, 1500));
    breaker.admit(t1, 1500); // failed trial: reopens, refunds the drain
    let t2 = t1 + 1_000;
    let second_cycle = (breaker.admit(t2, 1500), breaker.admit(t2, 1500));
    let refunded = first_cycle == (Admission::Admitted, Admission::Admitted)
        && second_cycle == first_cycle
        && breaker.stats().half_opened == 2;
    rec.compare(
        "failed half-open probe refunds its trial drain",
        "second probe cycle repeats the first exactly",
        format!("refunded: {refunded} (name: {})", breaker.name()),
        refunded,
    );

    rec.finish();
    let all_hold = rec.comparisons.iter().all(|c| c.holds);
    assert!(all_hold, "tier_sweep: some claims diverged");
}
