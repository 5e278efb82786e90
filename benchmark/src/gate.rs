//! The correctness gate run before every timed window, the per-pass
//! checks run inside it, and the regime guards that fail a run whose
//! inputs drifted into measuring something else.

use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{differential_run, RunReport, TableCounters};

use crate::workload::Setup;

/// Counter lanes that measure cache/walk *effort* rather than what was
/// decided. Under eviction pressure the S3-FIFO batch cache and the
/// scalar executor's no-evict cache legitimately split hits and misses
/// differently (see `dataplane::batch`'s determinism contract), so these
/// are compared only when the flow set fits both caches.
const EFFORT_LANES: [&str; 9] = [
    "cache_hits",
    "cache_misses",
    "route_lookups",
    "route_hits",
    "route_misses",
    "peer_hops",
    "vm_hit_main",
    "vm_hit_conflict",
    "vm_miss",
];

/// Attempted and failed operations of one run, with the reasons.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Operations attempted: gate packets plus installs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per kind of failure or violated guard.
    pub notes: Vec<String>,
    /// Whether a regime guard was violated.
    pub guard_violated: bool,
}

impl Ledger {
    /// Records `count` failed operations of one kind.
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("FAILED x{count}: {}", what()));
        }
    }

    /// Records a violated regime guard with the observed value.
    pub fn guard(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.guard_violated = true;
            self.notes.push(format!("GUARD: {}", what()));
        }
    }

    /// Whether the run's outputs were correct and in regime.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.guard_violated
    }
}

/// Packets one report cannot account for: `offered` must equal parsed +
/// parse errors; every parsed packet must be forwarded, dropped with a
/// reason or classified as a punt; and every punt must be served by a
/// software tier, translated on-chip by the SNAT offload, or shed with
/// a counted reason.
pub fn unaccounted_packets(offered: u64, c: &TableCounters) -> u64 {
    let classified = c.hw_forwarded + c.acl_denied + c.loop_drops + c.punted();
    // SNAT-offloaded packets sit in both `punt_snat` (a classification
    // lane) and `hw_forwarded`.
    let decided = classified - c.snat_translations.min(classified);
    let punt_served = c.dpu_forwarded
        + c.dpu_dropped
        + c.fallback_forwarded
        + c.fallback_dropped
        + c.punt_rate_limited
        + c.punt_breaker_open
        + c.snat_translations;
    offered.abs_diff(c.parsed + c.parse_errors)
        + c.parsed.abs_diff(decided)
        + c.punted().abs_diff(punt_served)
}

/// Checks applied to every pass's report, inside and outside the timed
/// window: digest stability, the accounting identity, no torn epoch, no
/// frame errors and no packet lost to a shed lane.
pub fn check_pass(report: &RunReport, expect_digest: u64, ledger: &mut Ledger) {
    let c = &report.counters;
    ledger.fail(u64::from(report.decision_digest != expect_digest), || {
        format!(
            "pass decision digest {:016x} != gate digest {expect_digest:016x}",
            report.decision_digest
        )
    });
    ledger.fail(unaccounted_packets(report.packets, c), || {
        "packets missing from the accounting identity".to_string()
    });
    ledger.fail(c.epoch_violations, || {
        "epoch_violations (torn table state)".to_string()
    });
    ledger.fail(c.parse_errors, || {
        "frame errors on generated frames".to_string()
    });
    // The reference forwards every generated packet (the differential
    // pass proved it), so anything a shed lane dropped is a lost packet.
    ledger.fail(
        c.punt_rate_limited + c.punt_breaker_open + c.fallback_dropped + c.dpu_dropped,
        || {
            format!(
                "packets lost on the punt path: rate_limited={} breaker_open={} fallback_dropped={} dpu_dropped={}",
                c.punt_rate_limited, c.punt_breaker_open, c.fallback_dropped, c.dpu_dropped
            )
        },
    );
}

/// The gate: one cold pass through the differential oracle, the scalar
/// executor against the batch executor's cold pass, and the accounting
/// identity. Returns the decision digest every later pass must repeat.
pub fn correctness_gate(setup: &Setup, ledger: &mut Ledger) -> u64 {
    let seq = setup.sequence();
    ledger.attempted += seq.len() as u64;

    let mut oracle_fallback = software_forwarder(&setup.topology);
    let mut reference = software_forwarder(&setup.topology);
    let oracle = differential_run(&setup.dp, &seq, &mut oracle_fallback, &mut reference);
    ledger.fail(oracle.mismatches, || {
        format!(
            "differential oracle: {}",
            oracle.first_mismatch.clone().unwrap_or_default()
        )
    });
    ledger.fail(
        seq.len() as u64 - oracle.packets.min(seq.len() as u64),
        || "generated frames the reference parser rejected".to_string(),
    );

    let mut scalar_fallback = software_forwarder(&setup.topology);
    let scalar = setup.dp.run_single(&seq, &mut scalar_fallback);
    let cold = &setup.cold;
    ledger.fail(
        u64::from(cold.decision_digest != scalar.decision_digest),
        || {
            format!(
                "batch digest {:016x} != run_single digest {:016x}",
                cold.decision_digest, scalar.decision_digest
            )
        },
    );
    ledger.fail(
        u64::from(cold.epoch_digests != scalar.epoch_digests),
        || "batch vs run_single per-epoch digests differ".to_string(),
    );
    // Half the scalar executor's sharded no-evict capacity leaves every
    // shard room for its hash-uneven share of the flows.
    let fits_both_caches =
        setup.spec.flows * 2 <= setup.config.cache_shards * setup.config.cache_shard_capacity;
    let diverged: Vec<String> = scalar
        .counters
        .fields()
        .iter()
        .zip(cold.counters.fields().iter())
        .filter(|(a, b)| a.1 != b.1 && (fits_both_caches || !EFFORT_LANES.contains(&a.0)))
        .map(|(a, b)| format!("{}: run_single={} batch={}", a.0, a.1, b.1))
        .collect();
    ledger.fail(diverged.len() as u64, || {
        format!("batch vs run_single counters: {}", diverged.join(", "))
    });
    ledger.fail(
        u64::from(
            cold.fallback_packets != scalar.fallback_packets
                || cold.dpu_packets != scalar.dpu_packets,
        ),
        || "batch vs run_single punt placement differs".to_string(),
    );
    check_pass(cold, scalar.decision_digest, ledger);
    scalar.decision_digest
}

/// Share of one steady pass that reached a software tier.
pub fn punt_share(report: &RunReport) -> f64 {
    (report.fallback_packets + report.dpu_packets) as f64 / report.packets.max(1) as f64
}

/// Flow-cache hit ratio of one pass.
pub fn hit_ratio(c: &TableCounters) -> f64 {
    c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64
}

/// Regime guards on a steady pass (installs are guarded where they are
/// counted, in `window`).
pub fn regime_guards(setup: &Setup, steady: &RunReport, ledger: &mut Ledger) {
    let c = &steady.counters;
    let punts = steady.fallback_packets + steady.dpu_packets;
    let share = punt_share(steady);
    let hits = hit_ratio(c);
    // The inputs fix how many packets of a pass belong to a punting
    // class; the program must punt exactly those.
    ledger.guard(punts == setup.expected_punts(), || {
        format!(
            "{}: {punts} packets punted, the input classes predict {}",
            setup.spec.name,
            setup.expected_punts()
        )
    });
    match setup.spec.name {
        "hot_path" | "churn" => {
            ledger.guard(hits >= 0.999, || {
                format!("{}: hit ratio {hits:.5} < 0.999", setup.spec.name)
            });
            ledger.guard(share <= 0.001 && punts > 0, || {
                format!(
                    "{}: punt_share {share:.6} outside (0, 0.001]",
                    setup.spec.name
                )
            });
        }
        "miss_walk" => {
            ledger.guard((0.55..=0.80).contains(&hits), || {
                format!("miss_walk: hit ratio {hits:.4} outside [0.55, 0.80]")
            });
        }
        "service_mix" => {
            ledger.guard((0.05..=0.30).contains(&share), || {
                format!("service_mix: punt_share {share:.4} outside [0.05, 0.30]")
            });
            ledger.guard(c.dpu_spilled > 0, || {
                "service_mix: dpu_spilled == 0".to_string()
            });
            ledger.guard(c.snat_translations > 0, || {
                "service_mix: snat_translations == 0".to_string()
            });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_accepts_every_disposition_and_flags_a_hole() {
        let c = TableCounters {
            parsed: 100,
            parse_errors: 2,
            hw_forwarded: 70,
            acl_denied: 3,
            loop_drops: 1,
            punt_snat: 20,
            punt_no_vm: 10,
            punt_no_route: 6,
            // 10 of the SNAT punts were translated on-chip.
            snat_translations: 10,
            dpu_forwarded: 12,
            fallback_forwarded: 11,
            fallback_dropped: 1,
            punt_rate_limited: 1,
            punt_breaker_open: 1,
            ..TableCounters::default()
        };
        assert_eq!(unaccounted_packets(102, &c), 0);
        assert_eq!(unaccounted_packets(103, &c), 1);
        let hole = TableCounters {
            fallback_forwarded: 9,
            ..c
        };
        assert_eq!(unaccounted_packets(102, &hole), 2);
    }

    #[test]
    fn ledger_separates_failures_from_guards() {
        let mut l = Ledger::default();
        l.fail(0, || unreachable!());
        l.guard(true, || unreachable!());
        assert!(l.correct());
        l.guard(false, || "hit ratio 0.5".to_string());
        assert!(!l.correct() && l.failed == 0);
        l.fail(3, || "mismatch".to_string());
        assert_eq!((l.failed, l.notes.len()), (3, 2));
    }
}
