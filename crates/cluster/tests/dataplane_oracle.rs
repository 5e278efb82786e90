//! Satellite: the differential oracle must still hold after a region has
//! been through fault injection and recovery.
//!
//! The §6.1 recovery ladder promises table state is *restored*, not just
//! traffic-level loss contained. This test makes that behavioral: replay
//! every flow through the recovered region's hardware tables with the
//! dataplane walk engine and compare each decision against a fresh
//! reference XGW-x86 forwarder over the full topology. A stale table
//! entry surviving recovery — a black hole the loss-ratio metrics can
//! average away — shows up here as a per-flow mismatch.

use sailfish_cluster::chaos::{self, ChaosConfig};
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::oracle::PathDecision;
use sailfish_dataplane::{traffic, CachedAction};
use sailfish_sim::faults::{FaultSchedule, FaultScheduleConfig};
use sailfish_sim::topology::{Topology, TopologyConfig};
use sailfish_sim::workload::{generate_flows, Flow, WorkloadConfig};
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_x86::SoftwareForwarder;

const DEVICES: usize = 3;

fn build() -> (Topology, Vec<Flow>, Region) {
    let topology = Topology::generate(TopologyConfig::default());
    let region = Region::build(
        &topology,
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
    .unwrap();
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 1_500,
            total_gbps: 800.0,
            ..WorkloadConfig::default()
        },
    );
    (topology, flows, region)
}

/// What one device's table walk yields, without resolving punts (punt
/// resolution is stateful; replica comparison wants pure table state).
#[derive(Debug, PartialEq)]
enum DeviceView {
    Terminal(PathDecision),
    Punt,
}

fn device_view(tables: &HardwareTables, flow: &Flow) -> DeviceView {
    let walked = tables.walk(flow.vni, &flow.tuple, &mut ());
    match CachedAction::from(walked).decision() {
        Some(decided) => DeviceView::Terminal(decided),
        None => DeviceView::Punt,
    }
}

/// The region's end-to-end decision for one flow: directory → ECMP device
/// → table walk, punts and directory gaps served by `fallback`.
fn region_decision(
    region: &Region,
    flow: &Flow,
    fallback: &mut SoftwareForwarder,
    now_ns: u64,
) -> PathDecision {
    let packet = traffic::packet_for_flow(flow);
    let Some(cluster) = region.directory.cluster_for(flow.vni) else {
        return PathDecision::from_software(&fallback.process(&packet, now_ns));
    };
    let Ok(device) = region.hw[cluster].device_for(&flow.tuple) else {
        return PathDecision::from_software(&fallback.process(&packet, now_ns));
    };
    match device_view(&region.hw[cluster].devices[device].tables, flow) {
        DeviceView::Terminal(d) => d,
        DeviceView::Punt => PathDecision::from_software(&fallback.process(&packet, now_ns)),
    }
}

/// Runs the oracle over every flow; returns `(mismatches, first)`.
fn run_oracle(region: &Region, topology: &Topology, flows: &[Flow]) -> (u64, Option<String>) {
    let mut fallback = software_forwarder(topology);
    let mut reference = software_forwarder(topology);
    let mut mismatches = 0u64;
    let mut first = None;
    for (i, flow) in flows.iter().enumerate() {
        let now_ns = (i as u64 + 1) * 1_000;
        let got = region_decision(region, flow, &mut fallback, now_ns);
        let packet = traffic::packet_for_flow(flow);
        let want = PathDecision::from_software(&reference.process(&packet, now_ns));
        if got != want {
            mismatches += 1;
            if first.is_none() {
                first = Some(format!(
                    "flow {i}: region {got:?} != reference {want:?} (vni {}, dst {})",
                    flow.vni, flow.tuple.dst_ip
                ));
            }
        }
    }
    (mismatches, first)
}

/// Every device of a serving cluster must hold replica-identical state
/// for every flow ("multiple XGW-H devices maintain the same table
/// entries", §4.3).
fn assert_replicas_agree(region: &Region, flows: &[Flow]) {
    for flow in flows {
        let Some(cluster) = region.directory.cluster_for(flow.vni) else {
            continue;
        };
        let views: Vec<DeviceView> = region.hw[cluster]
            .devices
            .iter()
            .map(|d| device_view(&d.tables, flow))
            .collect();
        for (d, view) in views.iter().enumerate().skip(1) {
            assert_eq!(
                *view, views[0],
                "cluster {cluster} device {d} diverges from device 0 on vni {}",
                flow.vni
            );
        }
    }
}

#[test]
fn oracle_holds_before_and_after_fault_recovery() {
    let (topology, flows, mut region) = build();

    // Pristine region: the oracle must hold, otherwise the post-recovery
    // assertion proves nothing.
    let (mismatches, first) = run_oracle(&region, &topology, &flows);
    assert_eq!(mismatches, 0, "pristine region disagrees: {first:?}");

    let schedule = FaultSchedule::generate(&FaultScheduleConfig {
        slots: 24,
        clusters: region.plan.clusters_needed(),
        devices_per_cluster: DEVICES,
        fault_rate: 0.3,
        ..FaultScheduleConfig::default()
    });
    let report = chaos::run_schedule(
        &mut region,
        &topology,
        &flows,
        &schedule,
        &ChaosConfig::default(),
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.recovered_count(), report.faults.len());
    assert!(report.directory_restored);

    // The recovered region must be behaviorally indistinguishable from
    // the reference — per flow, not on average.
    let (mismatches, first) = run_oracle(&region, &topology, &flows);
    assert_eq!(
        mismatches, 0,
        "stale table state survived recovery: {first:?}"
    );
    assert_replicas_agree(&region, &flows);
}
