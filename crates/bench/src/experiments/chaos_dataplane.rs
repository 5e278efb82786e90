//! Dataplane chaos sweep: replays seeded fault schedules against the
//! **live packet-level executor** (not the abstract region model — see
//! the `fault_injection` experiment for that one) and checks the epoch-consistent
//! recovery story end to end:
//!
//! - every recovery lands as an atomic epoch swap, never a torn install
//!   (zero `epoch_violations`, partial pushes discarded by the verify
//!   gate);
//! - no black hole: the per-slot accounting identity is exact — every
//!   parsed packet is forwarded, intentionally dropped, or served by the
//!   rate-limited fallback;
//! - the fallback share stays inside the published degradation's blast
//!   radius;
//! - after every swap the differential oracle agrees with the reference
//!   software forwarder; and
//! - under a constrained punt meter, operator-facing `FallbackShare`
//!   alerts fire **before** the punt-path circuit breaker opens.
//!
//! Run with: `cargo run --release -p sailfish-bench --bin repro --
//! chaos_dataplane` (add `--tiny` for the CI smoke scale). Output is
//! fully deterministic: two runs produce byte-identical
//! `experiments/chaos_dataplane.json`.

use sailfish_dataplane::chaos::{self, ChaosConfig};
use sailfish_dataplane::DataplaneConfig;
use sailfish_sim::faults::{FaultEvent, FaultKind, FaultSchedule, FaultScheduleConfig};
use sailfish_sim::{Topology, TopologyConfig};

use crate::record::ExperimentRecord;
use crate::scale::Scale;

pub fn run(scale: Scale) -> ExperimentRecord {
    let (slots, flows, frames_per_slot, probe_frames, rates): (u64, usize, usize, usize, &[f64]) =
        scale.pick((8, 300, 800, 400, &[0.5]), (24, 600, 3_000, 1_200, &[0.25, 0.5]));

    let mut rec = ExperimentRecord::new(
        "chaos_dataplane",
        "Live-executor chaos sweep: epoch swaps, no black hole, oracle agreement",
    );
    let topology = Topology::generate(TopologyConfig::default());
    let dp_config = DataplaneConfig::default();
    let cfg = ChaosConfig {
        flows,
        frames_per_slot,
        probe_frames,
        ..ChaosConfig::default()
    };

    for &rate in rates {
        let schedule = FaultSchedule::generate(&FaultScheduleConfig {
            slots,
            clusters: dp_config.clusters,
            devices_per_cluster: dp_config.devices_per_cluster,
            fault_rate: rate,
            ..FaultScheduleConfig::default()
        });
        let kinds = schedule.kinds_present();
        let report = chaos::run_schedule(&topology, dp_config.clone(), &cfg, &schedule);

        // A fault can only recover inside the run if its window closes
        // before the last slot.
        let recoverable = schedule
            .events
            .iter()
            .filter(|e| e.ends_at() < schedule.slots)
            .count();
        let recovered = report
            .faults
            .iter()
            .filter(|f| f.recovered_at.is_some())
            .count();
        let total_shed: u64 = report.slots.iter().map(|s| s.punts_shed).sum();
        let peak_fallback = report
            .slots
            .iter()
            .map(|s| s.fallback_share)
            .fold(0.0f64, f64::max);

        println!(
            "rate {rate:>5}: {} events ({} kinds), {} epochs swapped, \
             {} discarded installs, {}/{} recovered, MTTR {:.2} slots, \
             oracle {}/{} ok, peak fallback {:.4}, {} violations",
            schedule.events.len(),
            kinds.len(),
            report.epochs_swapped,
            report.discarded_installs,
            recovered,
            recoverable,
            report.mean_mttr_slots(),
            report.oracle_checks - report.oracle_mismatches,
            report.oracle_checks,
            peak_fallback,
            report.violations.len(),
        );
        for v in &report.violations {
            println!(
                "    violation @ slot {}: {}: {}",
                v.slot, v.invariant, v.detail
            );
        }

        let label = format!("rate {rate}");
        rec.compare(
            format!("{label}: invariant violations (no black hole, bounded fallback)"),
            "0",
            format!("{}", report.violations.len()),
            report.violations.is_empty(),
        );
        rec.compare(
            format!("{label}: oracle mismatches after epoch swaps"),
            format!("0 of {} checks", report.oracle_checks),
            format!("{}", report.oracle_mismatches),
            report.oracle_mismatches == 0 && report.oracle_checks > 0,
        );
        rec.compare(
            format!("{label}: recoveries landed as epoch swaps"),
            format!("{recoverable} recovered, swaps > 0"),
            format!("{recovered} recovered, {} swaps", report.epochs_swapped),
            recovered == recoverable && report.epochs_swapped > 0,
        );
        rec.compare(
            format!("{label}: MTTR within one fault window"),
            "<= 4 slots (max fault duration)",
            format!("{:.2} slots", report.mean_mttr_slots()),
            report.mean_mttr_slots() <= 4.0,
        );
        rec.compare(
            format!("{label}: generous punt meter never sheds"),
            "0 shed",
            format!("{total_shed}"),
            total_shed == 0,
        );
    }

    // Breaker ordering scenario: a punt meter sized for the healthy
    // baseline but not a wiped cluster's storm. The operator must see the
    // FallbackShare alert strictly before the breaker opens. The burst
    // scales with the per-slot frame budget (~150 B of punt per offered
    // frame absorbs the healthy baseline, not a wiped cluster).
    let tight = DataplaneConfig {
        punt_rate_bps: 8_000,
        punt_burst_bytes: (frames_per_slot as u64) * 150,
        ..DataplaneConfig::default()
    };
    let storm_at = 2;
    let schedule = FaultSchedule::from_events(
        slots.min(8),
        vec![FaultEvent {
            at: storm_at,
            duration: 3,
            kind: FaultKind::TableCorruption {
                cluster: 0,
                device: 0,
            },
        }],
    );
    let report = chaos::run_schedule(&topology, tight, &cfg, &schedule);
    println!(
        "breaker scenario: first alert slot {:?}, first breaker-open slot {:?}, \
         {} violations",
        report.first_fallback_alert_slot,
        report.first_breaker_open_slot,
        report.violations.len(),
    );
    rec.compare(
        "breaker scenario: invariants hold under a tight punt meter",
        "0 violations, 0 oracle mismatches",
        format!(
            "{} violations, {} mismatches",
            report.violations.len(),
            report.oracle_mismatches
        ),
        report.holds(),
    );
    let ordered = match (
        report.first_fallback_alert_slot,
        report.first_breaker_open_slot,
    ) {
        (Some(alert), Some(open)) => alert < open,
        _ => false,
    };
    rec.compare(
        "breaker scenario: FallbackShare alert precedes breaker open",
        format!("alert slot < open slot (= {storm_at})"),
        format!(
            "alert {:?}, open {:?}",
            report.first_fallback_alert_slot, report.first_breaker_open_slot
        ),
        ordered && report.first_breaker_open_slot == Some(storm_at),
    );
    rec.compare(
        "breaker scenario: degraded slots shed punts",
        "all degraded slots shed",
        format!(
            "{} of {} degraded slots shed",
            report
                .slots
                .iter()
                .filter(|s| s.degraded && s.punts_shed > 0)
                .count(),
            report.slots.iter().filter(|s| s.degraded).count(),
        ),
        report
            .slots
            .iter()
            .filter(|s| s.degraded)
            .all(|s| s.punts_shed > 0),
    );

    rec
}
