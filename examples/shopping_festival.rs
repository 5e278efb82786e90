//! A shopping-festival week in one region, run twice: first on the
//! XGW-x86-only baseline (heavy hitters overload single cores, packets
//! drop — Figs 4/5), then on Sailfish (the hardware absorbs everything —
//! Fig 19).
//!
//! Run with: `cargo run --release --example shopping_festival`

use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;

fn main() {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 30_000,
            total_gbps: 350.0,
            heavy_hitters: 2,
            heavy_hitter_gbps: 15.0,
            zipf_s: 1.1,
            mouse_cap_gbps: Some(2.0),
            ..WorkloadConfig::default()
        },
    );
    println!(
        "region: {} VPCs, {} VMs, {} routes; workload: {} flows, {:.0} Gbps nominal",
        topology.vpcs.len(),
        topology.vms.len(),
        topology.routes.len(),
        flows.len(),
        flows.iter().map(|f| f.bps()).sum::<f64>() / 1e9
    );

    // --- Baseline: 15 software gateways behind ECMP ---
    let baseline = SwCluster::new(15, 16, XgwX86Config::default(), SnatConfig::default()).unwrap();
    // --- Sailfish: hardware clusters + software fallback ---
    let mut sailfish = Region::build(
        &topology,
        RegionConfig {
            capacity: ClusterCapacity {
                max_routes: 600,
                max_vms: 3_000,
            },
            ..RegionConfig::default()
        },
    )
    .unwrap();
    println!(
        "sailfish: {} hw clusters (+1:1 backups) x {} devices, {} sw fallback nodes\n",
        sailfish.plan.clusters_needed(),
        sailfish.config.devices_per_cluster,
        sailfish.config.sw_nodes
    );

    println!(
        "{:>5} {:>7} | {:>12} {:>10} | {:>12} {:>10} {:>9}",
        "day", "load", "x86 loss", "hot core", "sailfish", "peak dev", "punted"
    );
    let mut worst_x86: f64 = 0.0;
    let mut worst_sailfish: f64 = 0.0;
    for step in 0..16 {
        let day = step as f64 / 2.0;
        let m = festival_profile(day);
        let x86 = baseline.offer(&flows, m);
        let sf = sailfish.offer(&flows, m);
        let hot = x86
            .node_reports
            .iter()
            .map(|r| r.hottest_core().1)
            .fold(0.0, f64::max);
        worst_x86 = worst_x86.max(x86.loss_ratio());
        worst_sailfish = worst_sailfish.max(sf.loss_ratio());
        println!(
            "{day:>5.1} {m:>6.2}x | {:>12.2e} {:>9.0}% | {:>12.2e} {:>9.0}% {:>8.2}G",
            x86.loss_ratio(),
            hot * 100.0,
            sf.loss_ratio(),
            sf.peak_device_util() * 100.0,
            sf.punted_bps / 1e9,
        );
    }

    println!(
        "\nworst-case loss: x86 {worst_x86:.2e} vs sailfish {worst_sailfish:.2e} ({:.1} orders better)",
        (worst_x86 / worst_sailfish).log10()
    );
    assert!(
        worst_sailfish < worst_x86 / 1e3,
        "Sailfish must be orders of magnitude better"
    );
    println!("shopping_festival OK");
}
