//! Ablation: the ALPM first-level depth knob.
//!
//! "The tradeoff between TCAM occupancy and table lookup efficiency can
//! be made by adjusting the depth of the first level" (§4.4, Fig 16).
//! Sweeps the bucket capacity on a live route set and reports the TCAM /
//! SRAM / lookup-cost frontier.

use std::time::Instant;

use sailfish::prelude::*;
use sailfish_xgw_h::tables::HwRoutingTable;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let topology = Topology::generate(TopologyConfig {
        vpcs: 2_000,
        total_vms: 50_000,
        ..TopologyConfig::default()
    });
    println!("route set: {} entries", topology.routes.len());

    // Probe addresses drawn from real VMs.
    let probes: Vec<(Vni, core::net::IpAddr)> = topology
        .vms
        .iter()
        .step_by(7)
        .take(20_000)
        .map(|vm| (vm.vni, vm.ip))
        .collect();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for bucket in [4usize, 8, 16, 24, 48, 96] {
        let mut table = HwRoutingTable::new(AlpmConfig {
            bucket_capacity: bucket,
        });
        for (key, target) in &topology.routes {
            table.insert(*key, *target).unwrap();
        }
        table.audit().unwrap();
        let stats = table.grouped_alpm_stats();

        let start = Instant::now();
        let mut hits = 0u64;
        for (vni, ip) in &probes {
            if table.lookup(*vni, *ip).is_some() {
                hits += 1;
            }
        }
        let ns_per_lookup = start.elapsed().as_nanos() as f64 / probes.len() as f64;
        assert_eq!(hits as usize, probes.len(), "every VM resolves");

        // The hardware cost of a deeper first level is the in-bucket
        // scan: a bucket probe must compare up to `bucket` stored
        // prefixes in SRAM (the model's wall time measures the software
        // model and is informational only).
        let avg_scan = stats.avg_fill * bucket as f64;
        rows.push(vec![
            format!("{bucket}"),
            format!("{}", stats.tcam_entries),
            format!("{}", stats.allocated_slots),
            format!("{:.2}", stats.avg_fill),
            format!("{avg_scan:.1} / {bucket}"),
            format!("{ns_per_lookup:.0}"),
        ]);
        results.push((bucket, stats.tcam_entries, avg_scan));
    }
    print_table(
        "ALPM first-level depth ablation",
        &[
            "Bucket cap",
            "TCAM entries",
            "SRAM slots",
            "Fill",
            "scan avg/max",
            "ns/lookup (sw)",
        ],
        &rows,
    );

    // The frontier: deeper buckets monotonically shrink the TCAM and grow
    // the in-bucket scan work.
    let tcam_shrinks = results.windows(2).all(|w| w[1].1 <= w[0].1);
    let scan_grows = results.windows(2).all(|w| w[1].2 >= w[0].2 * 0.95);
    let first = &results[0];
    let last = &results[results.len() - 1];
    let mut rec = ExperimentRecord::new(
        "ablation_alpm_depth",
        "ALPM TCAM/efficiency trade (Fig 16 knob)",
    );
    rec.compare(
        "deeper first level -> fewer TCAM entries",
        "monotone trade",
        format!("{} -> {} entries", first.1, last.1),
        tcam_shrinks && last.1 * 4 < first.1,
    );
    rec.compare(
        "...at the cost of lookup efficiency (in-bucket scan work)",
        "slightly reduced lookup efficiency (§4.4)",
        format!(
            "{:.1} -> {:.1} avg entries scanned per probe",
            first.2, last.2
        ),
        scan_grows && last.2 > first.2 * 2.0,
    );
    rec
}
