//! Shared experiment scales and expensive shared builds.

use sailfish::compression::{CALIBRATED_ROUTES, CALIBRATED_VMS};
use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_sim::workload::Flow;
use sailfish_tables::alpm::AlpmStats;
use sailfish_xgw_h::tables::HwRoutingTable;

/// How large an experiment runs: `Tiny` is `repro --tiny`, the CI smoke
/// scale; `Full` is the default. Experiments with one size ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The CI smoke scale.
    Tiny,
    /// The scale the paper comparison is made at.
    Full,
}

impl Scale {
    /// `tiny` at [`Scale::Tiny`], `full` at [`Scale::Full`].
    pub fn pick<T>(self, tiny: T, full: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Full => full,
        }
    }
}

/// The XGW-x86-only region of Figs 4–6: 15 nodes behind a 16-way ECMP
/// group, offered 60k Zipf flows (two 15 Gbps heavy hitters, mice capped
/// at 2 Gbps) totalling `total_gbps` over the default topology.
pub fn x86_festival_region(total_gbps: f64) -> (SwCluster, Vec<Flow>) {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 60_000,
            total_gbps,
            heavy_hitters: 2,
            heavy_hitter_gbps: 15.0,
            zipf_s: 1.1,
            mouse_cap_gbps: Some(2.0),
            ..WorkloadConfig::default()
        },
    );
    let region = SwCluster::new(15, 16, XgwX86Config::default(), SnatConfig::default())
        .expect("15 nodes fit 16-way ECMP");
    (region, flows)
}

/// The Sailfish region of Figs 20–22: 400 VPCs / 10k VMs split over four
/// 3-device hardware clusters, offered 20k Zipf flows at 8 Tbps with the
/// given Internet (SNAT-bound) share.
pub fn sailfish_region(internet_share: f64) -> (Region, Vec<Flow>) {
    let topology = Topology::generate(TopologyConfig {
        vpcs: 400,
        total_vms: 10_000,
        ..TopologyConfig::default()
    });
    let region = Region::build(
        &topology,
        RegionConfig {
            hw_clusters: 4,
            devices_per_cluster: 3,
            capacity: ClusterCapacity {
                max_routes: 1_500,
                max_vms: 6_000,
            },
            ..RegionConfig::default()
        },
    )
    .expect("the 400-VPC topology fits four clusters");
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 20_000,
            total_gbps: 8_000.0,
            internet_share,
            ..WorkloadConfig::default()
        },
    );
    (region, flows)
}

/// Builds the region-scale topology and measures the *real* ALPM layout
/// by installing every route into a live `HwRoutingTable`. Slow (~tens of
/// seconds in release); used by the memory experiments so the Fig 17 /
/// Table 3 ALPM numbers come from the actual compressed structure, not a
/// formula.
pub fn measured_region_alpm() -> (Topology, AlpmStats) {
    let topology = Topology::generate(TopologyConfig::region_scale());
    let mut table = HwRoutingTable::new(AlpmConfig::default());
    for (key, target) in &topology.routes {
        table
            .insert(*key, *target)
            .expect("fresh table accepts all installs");
    }
    table.audit().expect("ALPM invariants hold at region scale");
    let stats = table.grouped_alpm_stats();
    (topology, stats)
}

/// The paper-calibrated scenario (75/25 mix).
pub fn calibrated_scenario() -> MemoryScenario {
    MemoryScenario {
        route_entries: CALIBRATED_ROUTES,
        vm_entries: CALIBRATED_VMS,
        v4_fraction: 0.75,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_scenario_matches_design_doc() {
        let s = calibrated_scenario();
        assert_eq!(s.route_entries, 229_300);
        assert_eq!(s.vm_entries, 459_000);
    }
}
