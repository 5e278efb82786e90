//! Golden push accounting.
//!
//! A full install, a device reinstall and a re-shard announce all run
//! the same bounded-retry push under faults. Their reports — attempts,
//! retries, rolled-back entries, virtual time — feed the chaos, fault
//! injection and re-shard experiments, so a change to how tables reach
//! the devices must leave them exactly as they were. The values below
//! were recorded from the entry-by-entry installer, under one seeded
//! injector that mixes timeouts, partial pushes and clean ones.

use std::collections::BTreeSet;

use sailfish_cluster::cluster::{HwCluster, SwCluster};
use sailfish_cluster::controller::{ClusterCapacity, Controller, InstallPolicy, InstallReport};
use sailfish_cluster::lb::VniDirectory;
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_cluster::reshard::{MoveMachine, ReshardPlan};
use sailfish_sim::faults::{InstallFault, VirtualClock};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::alpm::AlpmConfig;
use sailfish_tables::snat::SnatConfig;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};
use sailfish_xgw_x86::XgwX86Config;

const SEED: u64 = 0x5A11;

fn tight() -> ClusterCapacity {
    ClusterCapacity {
        max_routes: 600,
        max_vms: 3_000,
    }
}

/// A quarter of attempts time out, a third land a prefix, the rest land.
fn seeded_injector(seed: u64) -> impl FnMut(usize, u32) -> Option<InstallFault> {
    let mut rng = StdRng::seed_from_u64(seed);
    move |_, _| {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < 0.25 {
            Some(InstallFault::Timeout)
        } else if roll < 0.6 {
            Some(InstallFault::Partial {
                fraction: rng.gen_range(0.05..1.0),
            })
        } else {
            None
        }
    }
}

fn golden(report: &InstallReport) -> (u32, u32, usize, u64) {
    (
        report.attempts,
        report.retries,
        report.rolled_back_entries,
        report.virtual_ns,
    )
}

fn region(topology: &Topology) -> Region {
    Region::build(
        topology,
        RegionConfig {
            hw_clusters: 4,
            spare_clusters: 1,
            devices_per_cluster: 2,
            sw_nodes: 2,
            capacity: tight(),
            ..RegionConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn install_with_report_is_golden() {
    let topology = Topology::generate(TopologyConfig::default());
    let plan = Controller::plan_split(&topology, tight(), 8).unwrap();
    let mut hw: Vec<HwCluster> = (0..plan.clusters_needed())
        .map(|id| HwCluster::new(id, 3, 16, AlpmConfig::default(), 10_000_000_000).unwrap())
        .collect();
    let mut sw = SwCluster::new(2, 16, XgwX86Config::default(), SnatConfig::default()).unwrap();
    let mut directory = VniDirectory::new();
    let mut clock = VirtualClock::new();
    let report = Controller::new()
        .install_with(
            &topology,
            &plan,
            &mut hw,
            &mut sw,
            &mut directory,
            &mut clock,
            &InstallPolicy::default(),
            &mut seeded_injector(SEED),
        )
        .unwrap();
    assert_eq!(golden(&report), (9, 6, 5048, 772_326_000));
}

#[test]
fn reinstall_device_report_is_golden() {
    let topology = Topology::generate(TopologyConfig::default());
    let mut region = region(&topology);
    let plan = region.plan.clone();
    let mut clock = VirtualClock::new();
    let mut injector = seeded_injector(SEED + 1);
    let mut reports = Vec::new();
    for (cluster, device) in [(0, 1), (1, 0), (2, 1)] {
        let report = region
            .controller
            .reinstall_device(
                &topology,
                &plan,
                &mut region.hw,
                cluster,
                cluster,
                device,
                &mut clock,
                &InstallPolicy::default(),
                &mut injector,
            )
            .unwrap();
        reports.push(golden(&report));
    }
    assert_eq!(
        reports,
        [
            (2, 1, 0, 256_150_000),
            (1, 0, 0, 4_358_000),
            (5, 4, 521, 1_152_764_000)
        ]
    );
    assert!(region
        .controller
        .check_consistency(&region.plan, &region.hw)
        .is_empty());
}

#[test]
fn announce_report_is_golden() {
    let topology = Topology::generate(TopologyConfig::default());
    let mut region = region(&topology);
    let spare = region.plan.clusters_needed() - 1;
    let mut target = region.plan.clone();
    let mut moved: Vec<_> = region
        .plan
        .assignments
        .iter()
        .filter(|(_, c)| **c == 0)
        .map(|(v, _)| *v)
        .collect();
    moved.sort();
    for vni in &moved {
        target.assignments.insert(*vni, spare);
    }
    let plan = ReshardPlan::plan(
        &topology,
        &region.plan,
        &target,
        ClusterCapacity::default(),
        &BTreeSet::new(),
    )
    .unwrap();
    let mut clock = VirtualClock::new();
    let mut injector = seeded_injector(SEED + 2);
    let mut reports = Vec::new();
    for mv in plan.moves.iter().take(3) {
        let mut machine = MoveMachine::new(&topology, mv.clone());
        let report = machine
            .announce(
                &mut region,
                &mut clock,
                &InstallPolicy::default(),
                &mut injector,
            )
            .unwrap();
        reports.push(golden(&report));
        for _ in 0..3 {
            machine.advance(&mut region).unwrap();
        }
    }
    assert_eq!(
        reports,
        [
            (9, 7, 3060, 1_711_328_000),
            (5, 3, 1204, 206_104_000),
            (8, 6, 82, 1_901_952_000)
        ]
    );
    assert!(region
        .controller
        .check_consistency(&region.plan, &region.hw)
        .is_empty());
}
