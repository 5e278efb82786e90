//! Fig 19: Sailfish in three large regions during the festival week —
//! packet drop rates stay at 10⁻¹¹–10⁻¹⁰, six orders of magnitude below
//! the x86 baseline (Fig 5).

use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::{one_in, print_series};

pub fn run(_scale: Scale) -> ExperimentRecord {
    let mut rec = ExperimentRecord::new("fig19", "Sailfish region loss during the festival");
    let mut worst_overall: f64 = 0.0;

    for region_idx in 0..3u64 {
        let topology = Topology::generate(TopologyConfig {
            seed: 11 + region_idx,
            vpcs: 400,
            total_vms: 10_000,
            ..TopologyConfig::default()
        });
        let mut region = Region::build(
            &topology,
            RegionConfig {
                hw_clusters: 4,
                devices_per_cluster: 4,
                capacity: ClusterCapacity {
                    max_routes: 1_500,
                    max_vms: 6_000,
                },
                ..RegionConfig::default()
            },
        )
        .unwrap();
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                seed: 50 + region_idx,
                flows: 20_000,
                total_gbps: 6_000.0, // dozens of Tbps at the festival peak
                heavy_hitters: 6,
                heavy_hitter_gbps: 40.0,
                mouse_cap_gbps: Some(5.0),
                ..WorkloadConfig::default()
            },
        );

        let days = 8;
        let samples = 8;
        let mut loss = Vec::new();
        let mut rate = Vec::new();
        let mut worst: f64 = 0.0;
        for step in 0..days * samples {
            let day = step as f64 / samples as f64;
            let report = region.offer(&flows, festival_profile(day));
            let ratio = report.loss_ratio();
            loss.push((day, ratio));
            rate.push((day, report.offered_bps / 1e12));
            worst = worst.max(ratio);
        }
        let name = ["A", "B", "C"][region_idx as usize];
        print_series(&format!("Region {name} traffic (Tbps)"), &rate, 8);
        print_series(&format!("Region {name} loss ratio"), &loss, 8);
        println!("Region {name}: worst loss {worst:.2e} ({})", one_in(worst));
        worst_overall = worst_overall.max(worst);

        rec.compare(
            format!("region {name} worst loss"),
            "1e-11..1e-10",
            format!("{worst:.1e}"),
            (1e-12..5e-10).contains(&worst),
        );
    }

    rec.compare(
        "improvement vs x86 baseline (Fig 5 ~1e-4.5)",
        "~6 orders of magnitude",
        format!("{:.1} orders", (10f64.powf(-4.5) / worst_overall).log10()),
        10f64.powf(-4.5) / worst_overall > 1e4,
    );
    rec
}
