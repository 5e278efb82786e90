//! Integration test: the full §6.1 disaster-recovery ladder under load —
//! node failure, cluster failover to hot standby, controller consistency
//! checking, and the N+1 hierarchy evaluation.

use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_cluster::failover::{self, RecoveryOutcome};
use sailfish_cluster::hierarchy::{evaluate, HierarchyConfig};

fn build() -> (Vec<sailfish_sim::workload::Flow>, Region) {
    let topology = Topology::generate(TopologyConfig::default());
    let region = Region::build(
        &topology,
        RegionConfig {
            hw_clusters: 4,
            devices_per_cluster: 3,
            with_backup: true,
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
            flows: 5_000,
            total_gbps: 2_000.0,
            ..WorkloadConfig::default()
        },
    );
    (flows, region)
}

#[test]
fn full_recovery_ladder() {
    let (flows, mut region) = build();

    // Healthy.
    let healthy = region.offer(&flows, 1.0);
    assert_eq!(healthy.unrouted_pps, 0.0);
    let healthy_loss = healthy.loss_ratio();

    // Node failure: loss unchanged at this load (survivors absorb it).
    failover::fail_device(&mut region, 0, 0).unwrap();
    let node_down = region.offer(&flows, 1.0);
    assert_eq!(node_down.unrouted_pps, 0.0);
    assert!(node_down.loss_ratio() < healthy_loss * 10.0 + 1e-9);

    // Second and third node failures kill the cluster: cluster failover.
    failover::fail_device(&mut region, 0, 1).unwrap();
    failover::fail_device(&mut region, 0, 2).unwrap();
    match failover::fail_cluster(&mut region, 0).unwrap() {
        RecoveryOutcome::RolledToBackup { vnis_moved, .. } => assert!(vnis_moved > 0),
        other => panic!("unexpected {other:?}"),
    }
    let rolled = region.offer(&flows, 1.0);
    assert_eq!(rolled.unrouted_pps, 0.0, "backup must carry everything");

    // Restore the ladder bottom-up.
    for d in 0..3 {
        failover::restore_device(&mut region, 0, d).unwrap();
    }
    match failover::restore_cluster(&mut region, 0).unwrap() {
        RecoveryOutcome::Restored {
            primary,
            vnis_moved,
        } => {
            assert_eq!(primary, 0);
            assert!(vnis_moved > 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    let restored = region.offer(&flows, 1.0);
    assert_eq!(restored.unrouted_pps, 0.0);
    assert!(restored.device_util[0].iter().sum::<f64>() > 0.0);
}

#[test]
fn consistency_checker_localizes_faults_after_failover() {
    let (_flows, mut region) = build();
    // Clean at rest.
    assert!(region
        .controller
        .check_consistency(&region.plan, &region.hw)
        .is_empty());
    // Corrupt one backup device; the checker only inspects primaries, so
    // it stays clean — then corrupt a primary and it reports precisely.
    let primary_count = region.plan.clusters_needed();
    region.hw[primary_count].wipe_device(0);
    // Note: backups are outside the plan's primary indices; simulate a
    // primary fault too.
    region.hw[0].wipe_device(2);
    let findings = region
        .controller
        .check_consistency(&region.plan, &region.hw);
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.cluster == 0 && f.device == 2));
}

#[test]
fn hierarchy_extends_recovered_region() {
    // The §8 extension applies on top of the same region scale.
    let report = evaluate(&HierarchyConfig::default());
    assert!(report.performance_multiplier / report.cost_multiplier > 1.5);
    // Degenerate guardrails.
    let flat = evaluate(&HierarchyConfig {
        cache_clusters: 1,
        active_fraction: 1.0,
        ..HierarchyConfig::default()
    });
    assert!((flat.cost_multiplier - 2.0).abs() < 1e-9);
    assert!((flat.performance_multiplier - 1.0).abs() < 1e-9);
}
