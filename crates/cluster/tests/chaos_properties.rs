//! Seeded property tests for the recovery path (in-tree harness).
//!
//! Each property drives randomized fault/recovery sequences through the
//! public failover API and asserts the §6.1 guarantees: restoration is
//! lossless state-wise (the VNI directory returns byte-identical), port
//! isolation only ever reduces capacity, and the probe gate passes after
//! every recovery sequence.

use sailfish_cluster::controller::{ClusterCapacity, InstallPolicy};
use sailfish_cluster::failover::{self, RecoveryOutcome};
use sailfish_cluster::probe;
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_sim::faults::VirtualClock;
use sailfish_sim::topology::{Topology, TopologyConfig};
use sailfish_sim::workload::{generate_flows, Flow, WorkloadConfig};
use sailfish_util::check;
use sailfish_util::rand::Rng;

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

#[test]
fn cluster_failover_roundtrip_restores_directory_byte_identical() {
    check::run("failover_directory_roundtrip", 6, |rng| {
        let (_topology, _flows, mut region) = build();
        let before = region.directory.snapshot();
        let primaries = region.plan.clusters_needed();
        // Fail a random subset of primaries (possibly with node churn in
        // between), then restore in a different random order.
        let mut failed: Vec<usize> = (0..primaries).filter(|_| rng.gen_bool(0.6)).collect();
        if failed.is_empty() {
            failed.push(rng.gen_range(0..primaries));
        }
        for &c in &failed {
            if rng.gen_bool(0.5) {
                let d = rng.gen_range(0..DEVICES);
                failover::fail_device(&mut region, c, d).unwrap();
            }
            match failover::fail_cluster(&mut region, c).unwrap() {
                RecoveryOutcome::RolledToBackup { backup, .. } => {
                    assert_eq!(backup, region.backup_of(c).unwrap());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Directory changed while failed over.
        assert_ne!(region.directory.snapshot(), before);
        while !failed.is_empty() {
            let i = rng.gen_range(0..failed.len());
            let c = failed.swap_remove(i);
            match failover::restore_cluster(&mut region, c).unwrap() {
                RecoveryOutcome::Restored { primary, .. } => assert_eq!(primary, c),
                other => panic!("unexpected {other:?}"),
            }
        }
        for c in 0..primaries {
            for d in 0..DEVICES {
                failover::restore_device(&mut region, c, d).unwrap();
            }
        }
        assert_eq!(
            region.directory.snapshot(),
            before,
            "fail/restore must round-trip the directory byte-identically"
        );
    });
}

#[test]
fn port_isolation_monotonically_reduces_capacity() {
    check::run("port_isolation_monotone", 6, |rng| {
        let (_topology, flows, mut region) = build();
        let cluster = rng.gen_range(0..region.plan.clusters_needed());
        let device = rng.gen_range(0..DEVICES);
        // A decreasing sequence of healthy fractions: utilization of the
        // degraded device must be non-decreasing step over step (fewer
        // ports, same load), i.e. effective capacity only shrinks.
        let mut fraction = 1.0f64;
        let mut last_util = region.offer(&flows, 1.0).device_util[cluster][device];
        let baseline = last_util;
        for _ in 0..4 {
            fraction *= rng.gen_range(0.5..0.95);
            match failover::isolate_ports(&mut region, cluster, device, fraction).unwrap() {
                RecoveryOutcome::PortsIsolated { remaining_capacity } => {
                    assert!((remaining_capacity - fraction).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
            let util = region.offer(&flows, 1.0).device_util[cluster][device];
            assert!(
                util >= last_util - 1e-12,
                "capacity must only shrink: {util} after {last_util} at {fraction}"
            );
            last_util = util;
        }
        // Restoration brings capacity all the way back.
        failover::restore_ports(&mut region, cluster, device).unwrap();
        let restored = region.offer(&flows, 1.0).device_util[cluster][device];
        assert!((restored - baseline).abs() < 1e-9);
    });
}

#[test]
fn probes_pass_after_every_recovery_sequence() {
    check::run("probes_pass_after_recovery", 6, |rng| {
        let (topology, _flows, mut region) = build();
        let probes = probe::generate(&topology, 3);
        let primaries = region.plan.clusters_needed();
        // A random sequence of the recovery ladder's fault kinds...
        let mut failed_clusters = Vec::new();
        let mut offline = Vec::new();
        for _ in 0..rng.gen_range(2..6u32) {
            let cluster = rng.gen_range(0..primaries);
            let device = rng.gen_range(0..DEVICES);
            match rng.gen_range(0..4u32) {
                0 => {
                    failover::fail_device(&mut region, cluster, device).unwrap();
                    offline.push((cluster, device));
                }
                1 => {
                    failover::isolate_ports(
                        &mut region,
                        cluster,
                        device,
                        rng.gen_range(0.25..0.75),
                    )
                    .unwrap();
                }
                2 => {
                    if failover::fail_cluster(&mut region, cluster).unwrap()
                        != RecoveryOutcome::NotApplicable
                    {
                        failed_clusters.push(cluster);
                    }
                }
                _ => {
                    // Silent corruption, then the documented repair:
                    // offline → two-phase reinstall → probe gate.
                    region.hw[cluster].wipe_device(device);
                    failover::fail_device(&mut region, cluster, device).unwrap();
                    let plan = region.plan.clone();
                    let mut clock = VirtualClock::new();
                    region
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
                            &mut |_, _| None,
                        )
                        .unwrap();
                    failover::readmit_device(&mut region, &probes, cluster, device).unwrap();
                }
            }
        }
        // ...then recover everything.
        for (cluster, device) in offline {
            failover::readmit_device(&mut region, &probes, cluster, device).unwrap();
        }
        for cluster in failed_clusters {
            failover::restore_cluster(&mut region, cluster).unwrap();
        }
        for cluster in 0..primaries {
            for device in 0..DEVICES {
                failover::restore_ports(&mut region, cluster, device).unwrap();
                failover::restore_device(&mut region, cluster, device).unwrap();
            }
        }
        let failures = probe::run(&mut region, &probes);
        assert!(
            failures.is_empty(),
            "probes must pass after recovery: {failures:?}"
        );
    });
}
