//! Fault-injection sweep: replays seeded chaos schedules of increasing
//! fault rate against a Sailfish region and checks the §6.1 hardening
//! story — every fault recovered, zero invariant violations, loss
//! confined to fault windows, bounded virtual-time MTTR, and graceful
//! degradation to the rate-limited XGW-x86 path instead of black-holing.
//!
//! Run with: `cargo run --release -p sailfish-bench --bin repro --
//! fault_injection` (add `--tiny` for the CI smoke scale). Output is
//! fully deterministic for a fixed schedule seed: two runs produce
//! byte-identical `experiments/fault_injection.json`.

use sailfish::prelude::*;
use sailfish_cluster::chaos::{self, ChaosConfig};
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_cluster::failover;
use sailfish_sim::faults::{FaultSchedule, FaultScheduleConfig};

use crate::record::ExperimentRecord;
use crate::scale::Scale;

/// Devices per hardware cluster of [`build_region`].
pub const DEVICES: usize = 3;

/// The 4-cluster region the cluster-level chaos harness replays against
/// (also the `snat` experiment's connection-storm arm).
pub fn build_region(topology: &Topology) -> Region {
    Region::build(
        topology,
        RegionConfig {
            hw_clusters: 4,
            devices_per_cluster: DEVICES,
            with_backup: true,
            sw_nodes: 2,
            capacity: ClusterCapacity {
                max_routes: 600,
                max_vms: 3_000,
            },
            ..RegionConfig::default()
        },
    )
    .expect("region builds")
}

pub fn run(scale: Scale) -> ExperimentRecord {
    // Tiny: 18 slots at rate 0.5 = 9 events — exactly one of each fault
    // kind, so the kind-coverage claim holds at the CI smoke scale.
    let (slots, flows_n, rates): (u64, usize, &[f64]) =
        scale.pick((18, 1_000, &[0.5]), (48, 4_000, &[0.125, 0.25, 0.5]));

    let mut rec = ExperimentRecord::new(
        "fault_injection",
        "Deterministic fault-injection sweep over the recovery path",
    );
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: flows_n,
            total_gbps: 1_000.0,
            ..WorkloadConfig::default()
        },
    );

    let mut densest_kinds = 0usize;
    for &rate in rates {
        let mut region = build_region(&topology);
        let schedule = FaultSchedule::generate(&FaultScheduleConfig {
            slots,
            clusters: region.plan.clusters_needed(),
            devices_per_cluster: DEVICES,
            fault_rate: rate,
            ..FaultScheduleConfig::default()
        });
        let kinds = schedule.kinds_present().len();
        densest_kinds = densest_kinds.max(kinds);
        let report = chaos::run_schedule(
            &mut region,
            &topology,
            &flows,
            &schedule,
            &ChaosConfig::default(),
        );

        println!(
            "rate {rate:>5}: {} events ({kinds} kinds), {} recovered, \
             {} violations, baseline loss {:.2e}, worst in-fault {:.2e}, \
             worst out-of-fault {:.2e}, MTTR {:.2} ms (virtual)",
            schedule.events.len(),
            report.recovered_count(),
            report.violations.len(),
            report.baseline_loss,
            report.max_loss(),
            report.max_loss_outside_faults(),
            report.mean_repair_ns() / 1e6,
        );
        for v in &report.violations {
            println!("    violation @ slot {}: {}", v.slot, v.what);
        }

        let label = format!("rate {rate}");
        rec.compare(
            format!("{label}: invariant violations"),
            "0",
            format!("{}", report.violations.len()),
            report.violations.is_empty(),
        );
        rec.compare(
            format!("{label}: faults recovered"),
            format!("{}", report.faults.len()),
            format!("{}", report.recovered_count()),
            report.recovered_count() == report.faults.len(),
        );
        rec.compare(
            format!("{label}: loss confined to fault windows"),
            format!("<= baseline ({:.1e})", report.baseline_loss),
            format!("{:.1e} outside windows", report.max_loss_outside_faults()),
            report.max_loss_outside_faults() <= report.baseline_loss * 1.001 + 1e-12,
        );
        rec.compare(
            format!("{label}: directory restored byte-identical"),
            "true",
            format!("{}", report.directory_restored),
            report.directory_restored,
        );
        rec.compare(
            format!("{label}: mean repair time (virtual)"),
            "well under one slot (1 s)",
            format!("{:.2} ms", report.mean_repair_ns() / 1e6),
            report.mean_repair_ns() < 1e9,
        );
    }

    rec.compare(
        "fault kinds in one schedule",
        "9",
        format!("{densest_kinds}"),
        densest_kinds == 9,
    );

    // Graceful degradation: with a whole cluster's devices dead and no
    // failover yet, traffic must take the rate-limited XGW-x86 path, not
    // black-hole.
    let mut region = build_region(&topology);
    for d in 0..DEVICES {
        failover::fail_device(&mut region, 0, d).expect("valid device");
    }
    let degraded = region.offer(&flows, 1.0);
    println!(
        "degradation: fallback share {:.4}, unrouted {} pps, \
         fallback-limited {:.0} pps",
        degraded.fallback_share(),
        degraded.unrouted_pps,
        degraded.fallback_limited_pps,
    );
    rec.compare(
        "no black-holing with a dead cluster",
        "0 pps unrouted",
        format!("{} pps", degraded.unrouted_pps),
        degraded.unrouted_pps == 0.0,
    );
    rec.compare(
        "dead cluster degrades to XGW-x86",
        "> 0 fallback share",
        format!("{:.4}", degraded.fallback_share()),
        degraded.fallback_share() > 0.0,
    );

    rec
}
