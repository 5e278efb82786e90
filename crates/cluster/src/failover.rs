//! Disaster recovery (§6.1).
//!
//! "Disaster recovery is designed at different levels including cluster,
//! node and port. At the cluster level, all the gateway clusters strictly
//! follow 1:1 backup... At the node level, when some gateway reports
//! hardware failures..., the gateway will be put offline and the other
//! gateways in the same cluster will share the traffic load... At the
//! port level, when a port suffers abnormal jitters or persistent packet
//! loss, it will be isolated."
//!
//! Every action returns `Result<RecoveryOutcome, RecoveryError>`: a bad
//! target (out-of-range cluster/device, missing backup, failed probe
//! gate) is a typed error, while a valid target with nothing to do is
//! `Ok(RecoveryOutcome::NotApplicable)` — chaos schedules and operators
//! can tell the two apart.

use crate::probe::{self, Probe};
use crate::region::Region;

/// Result of a recovery action.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// Traffic rerouted to the backup cluster (`backup`).
    RolledToBackup {
        /// The backup cluster now serving the traffic.
        backup: usize,
        /// VNIs that moved.
        vnis_moved: usize,
    },
    /// A previously failed primary is serving its traffic again.
    Restored {
        /// The primary cluster back in charge.
        primary: usize,
        /// VNIs that moved back.
        vnis_moved: usize,
    },
    /// The node went offline; its cluster absorbed the load.
    NodeOffline {
        /// Devices still online in the cluster.
        remaining: usize,
    },
    /// The node is back in the ECMP group.
    NodeOnline {
        /// Devices online in the cluster.
        online: usize,
    },
    /// Ports isolated; the device runs at reduced capacity.
    PortsIsolated {
        /// Remaining capacity fraction.
        remaining_capacity: f64,
    },
    /// Valid target, nothing to do (e.g. the device was already in the
    /// requested state).
    NotApplicable,
}

/// Why a recovery action was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The cluster index does not name a usable target.
    UnknownCluster {
        /// The offending index.
        cluster: usize,
        /// Clusters that exist.
        clusters: usize,
    },
    /// The device index is out of range for the cluster.
    UnknownDevice {
        /// The cluster.
        cluster: usize,
        /// The offending device index.
        device: usize,
        /// Devices the cluster has.
        devices: usize,
    },
    /// Cluster-level failover needs a 1:1 backup and none is configured.
    NoBackup {
        /// The cluster without a backup.
        cluster: usize,
    },
    /// Probe-gated re-admission refused the device: it failed validation
    /// probes and stays out of the ECMP group.
    ProbeGateFailed {
        /// The cluster.
        cluster: usize,
        /// The device that failed its probes.
        device: usize,
        /// Probe failures observed.
        failures: usize,
    },
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::UnknownCluster { cluster, clusters } => {
                write!(f, "cluster {cluster} does not exist ({clusters} clusters)")
            }
            RecoveryError::UnknownDevice {
                cluster,
                device,
                devices,
            } => write!(
                f,
                "device {device} does not exist in cluster {cluster} ({devices} devices)"
            ),
            RecoveryError::NoBackup { cluster } => {
                write!(f, "cluster {cluster} has no 1:1 backup configured")
            }
            RecoveryError::ProbeGateFailed {
                cluster,
                device,
                failures,
            } => write!(
                f,
                "device {device} of cluster {cluster} failed {failures} probes; \
                 re-admission refused"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Convenience alias for recovery actions.
pub type RecoveryResult = Result<RecoveryOutcome, RecoveryError>;

fn check_cluster(region: &Region, cluster: usize) -> Result<(), RecoveryError> {
    if cluster >= region.hw.len() {
        return Err(RecoveryError::UnknownCluster {
            cluster,
            clusters: region.hw.len(),
        });
    }
    Ok(())
}

fn check_device(region: &Region, cluster: usize, device: usize) -> Result<(), RecoveryError> {
    check_cluster(region, cluster)?;
    let devices = region.hw[cluster].devices.len();
    if device >= devices {
        return Err(RecoveryError::UnknownDevice {
            cluster,
            device,
            devices,
        });
    }
    Ok(())
}

/// Whether a device is out of service *on purpose*: retired by an elastic
/// scale-in, or part of a cluster the split plan assigns nothing to (a
/// spare that was never admitted, or a source cluster drained by a
/// re-shard). Recovery actions aimed at such a device are no-ops —
/// `Ok(NotApplicable)`, never an error — so chaos and re-shard schedules
/// compose without coordinating.
fn intentionally_out(region: &Region, cluster: usize, device: usize) -> bool {
    if region.is_retired(cluster, device) {
        return true;
    }
    let primaries = region.plan.clusters_needed();
    let plan_cluster = if cluster >= primaries {
        cluster - primaries
    } else {
        cluster
    };
    !region.plan.assignments.values().any(|c| *c == plan_cluster)
}

fn check_primary(region: &Region, cluster: usize) -> Result<usize, RecoveryError> {
    let primaries = region.plan.clusters_needed();
    if cluster >= primaries {
        return Err(RecoveryError::UnknownCluster {
            cluster,
            clusters: primaries,
        });
    }
    region
        .backup_of(cluster)
        .ok_or(RecoveryError::NoBackup { cluster })
}

/// Fails an entire primary cluster: the controller rewrites the upstream
/// routes so its VNIs land on the 1:1 backup.
pub fn fail_cluster(region: &mut Region, cluster: usize) -> RecoveryResult {
    let backup = check_primary(region, cluster)?;
    let moved = region.directory.reroute_cluster(cluster, backup);
    if moved == 0 {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    Ok(RecoveryOutcome::RolledToBackup {
        backup,
        vnis_moved: moved,
    })
}

/// Restores a failed primary cluster, moving its VNIs back.
pub fn restore_cluster(region: &mut Region, cluster: usize) -> RecoveryResult {
    let backup = check_primary(region, cluster)?;
    let moved = region.directory.reroute_cluster(backup, cluster);
    if moved == 0 {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    Ok(RecoveryOutcome::Restored {
        primary: cluster,
        vnis_moved: moved,
    })
}

/// Takes one device offline; remaining cluster members share its load via
/// ECMP re-hashing.
pub fn fail_device(region: &mut Region, cluster: usize, device: usize) -> RecoveryResult {
    check_device(region, cluster, device)?;
    if intentionally_out(region, cluster, device) {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    if region.hw[cluster].take_device_offline(device) {
        Ok(RecoveryOutcome::NodeOffline {
            remaining: region.hw[cluster].online_devices(),
        })
    } else {
        // Valid target, already offline.
        Ok(RecoveryOutcome::NotApplicable)
    }
}

/// Isolates a fraction of a device's ports after "abnormal jitters or
/// persistent packet loss": its capacity drops proportionally while the
/// remaining ports keep forwarding ("the traffic will be migrated to
/// other ports"). `healthy_fraction` is the capacity that remains.
pub fn isolate_ports(
    region: &mut Region,
    cluster: usize,
    device: usize,
    healthy_fraction: f64,
) -> RecoveryResult {
    check_device(region, cluster, device)?;
    if intentionally_out(region, cluster, device) {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    let scale = &mut region.capacity_scale[cluster][device];
    *scale = healthy_fraction.clamp(0.0, 1.0);
    Ok(RecoveryOutcome::PortsIsolated {
        remaining_capacity: *scale,
    })
}

/// Restores all ports of a device.
pub fn restore_ports(region: &mut Region, cluster: usize, device: usize) -> RecoveryResult {
    isolate_ports(region, cluster, device, 1.0)
}

/// Brings a device straight back (no probe gate — prefer
/// [`readmit_device`] after any event that may have touched tables).
pub fn restore_device(region: &mut Region, cluster: usize, device: usize) -> RecoveryResult {
    check_device(region, cluster, device)?;
    if intentionally_out(region, cluster, device) {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    if region.hw[cluster].ecmp.members().contains(&device) {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    region.hw[cluster]
        .bring_device_online(device)
        .expect("validated index cannot exceed the ECMP cap");
    Ok(RecoveryOutcome::NodeOnline {
        online: region.hw[cluster].online_devices(),
    })
}

/// Probe-gated re-admission (§6.1 "modify the routes in the upstream
/// devices to admit user traffic" — only after probes pass): runs every
/// probe whose VNI the cluster serves against the target device and
/// brings it back into the ECMP group only on a clean sweep. A device
/// with corrupted or half-installed tables stays offline and the caller
/// gets the failure count.
pub fn readmit_device(
    region: &mut Region,
    probes: &[Probe],
    cluster: usize,
    device: usize,
) -> RecoveryResult {
    check_device(region, cluster, device)?;
    if intentionally_out(region, cluster, device) {
        return Ok(RecoveryOutcome::NotApplicable);
    }
    let failures = probe::run_device(region, probes, cluster, device);
    if !failures.is_empty() {
        return Err(RecoveryError::ProbeGateFailed {
            cluster,
            device,
            failures: failures.len(),
        });
    }
    restore_device(region, cluster, device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClusterCapacity;
    use crate::region::{FlowPath, RegionConfig};
    use sailfish_sim::topology::{Topology, TopologyConfig};
    use sailfish_sim::workload::{generate_flows, WorkloadConfig};

    fn build() -> (Topology, Vec<sailfish_sim::workload::Flow>, Region) {
        let topology = Topology::generate(TopologyConfig::default());
        let region = Region::build(
            &topology,
            RegionConfig {
                hw_clusters: 4,
                devices_per_cluster: 3,
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
                flows: 2_000,
                total_gbps: 1_000.0,
                ..WorkloadConfig::default()
            },
        );
        (topology, flows, region)
    }

    #[test]
    fn cluster_failover_keeps_forwarding() {
        let (_t, flows, mut region) = build();
        let before = region.offer(&flows, 1.0);
        assert_eq!(before.unrouted_pps, 0.0);
        let victim = 0usize;
        let outcome = fail_cluster(&mut region, victim).unwrap();
        let backup = match outcome {
            RecoveryOutcome::RolledToBackup { backup, vnis_moved } => {
                assert!(vnis_moved > 0);
                backup
            }
            other => panic!("unexpected {other:?}"),
        };
        let after = region.offer(&flows, 1.0);
        // No traffic lost to missing routes: the backup carries identical
        // tables.
        assert_eq!(after.unrouted_pps, 0.0);
        assert!((after.offered_pps - before.offered_pps).abs() < 1.0);
        // The backup cluster now carries load; the failed primary none.
        let primary_load: f64 = after.device_util[victim].iter().sum();
        let backup_load: f64 = after.device_util[backup].iter().sum();
        assert_eq!(primary_load, 0.0);
        assert!(backup_load > 0.0);
        // Restore reports the distinct Restored outcome and moves
        // everything back.
        match restore_cluster(&mut region, victim).unwrap() {
            RecoveryOutcome::Restored {
                primary,
                vnis_moved,
            } => {
                assert_eq!(primary, victim);
                assert!(vnis_moved > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let restored = region.offer(&flows, 1.0);
        assert!(restored.device_util[victim].iter().sum::<f64>() > 0.0);
        assert_eq!(restored.device_util[backup].iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn node_failover_shares_load_within_cluster() {
        let (_t, flows, mut region) = build();
        let before = region.offer(&flows, 1.0);
        // Pick the busiest device of cluster 0.
        let (victim, _) = before.device_util[0]
            .iter()
            .enumerate()
            .fold(
                (0, 0.0),
                |acc, (i, u)| if *u > acc.1 { (i, *u) } else { acc },
            );
        let outcome = fail_device(&mut region, 0, victim).unwrap();
        assert_eq!(outcome, RecoveryOutcome::NodeOffline { remaining: 2 });
        // Failing it again is a no-op, not an error.
        assert_eq!(
            fail_device(&mut region, 0, victim).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        let after = region.offer(&flows, 1.0);
        // The victim serves nothing; its former flows re-hash within the
        // cluster, keeping totals constant.
        assert_eq!(after.device_util[0][victim], 0.0);
        let cluster_pps_before: f64 = before.device_util[0].iter().sum();
        let cluster_pps_after: f64 = after.device_util[0].iter().sum();
        assert!((cluster_pps_after - cluster_pps_before).abs() / cluster_pps_before < 0.05);
        assert_eq!(after.unrouted_pps, 0.0);

        assert_eq!(
            restore_device(&mut region, 0, victim).unwrap(),
            RecoveryOutcome::NodeOnline { online: 3 }
        );
        let restored = region.offer(&flows, 1.0);
        assert!(restored.device_util[0][victim] > 0.0);
    }

    #[test]
    fn failing_all_devices_degrades_to_fallback() {
        let (_t, flows, mut region) = build();
        for d in 0..region.config.devices_per_cluster {
            fail_device(&mut region, 0, d).unwrap();
        }
        // Flows of cluster 0 can no longer pick a hardware device; the
        // hardened region degrades them to the rate-limited XGW-x86 path
        // instead of black-holing.
        let mut degraded = 0;
        for f in &flows {
            if region.directory.cluster_for(f.vni) == Some(0) {
                match region.classify(f) {
                    FlowPath::Fallback { .. } => degraded += 1,
                    other => panic!("expected fallback, got {other:?}"),
                }
            }
        }
        assert!(degraded > 0, "cluster-0 flows must degrade to fallback");
        let report = region.offer(&flows, 1.0);
        assert_eq!(report.unrouted_pps, 0.0, "nothing may black-hole");
        assert!(report.fallback_pps > 0.0);
        // The documented remedy is cluster-level failover, which moves the
        // traffic back into hardware.
        fail_cluster(&mut region, 0).unwrap();
        let after = region.offer(&flows, 1.0);
        assert_eq!(after.unrouted_pps, 0.0);
        assert_eq!(after.fallback_pps, 0.0);
    }

    #[test]
    fn port_isolation_reduces_capacity_and_restores() {
        let (_t, flows, mut region) = build();
        let before = region.offer(&flows, 1.0);
        // Halve the ports of the busiest device of cluster 0.
        let (victim, _) = before.device_util[0]
            .iter()
            .enumerate()
            .fold(
                (0, 0.0),
                |acc, (i, u)| if *u > acc.1 { (i, *u) } else { acc },
            );
        let outcome = isolate_ports(&mut region, 0, victim, 0.5).unwrap();
        assert_eq!(
            outcome,
            RecoveryOutcome::PortsIsolated {
                remaining_capacity: 0.5
            }
        );
        let degraded = region.offer(&flows, 1.0);
        // Same offered load, roughly doubled utilization on the victim.
        let ratio = degraded.device_util[0][victim] / before.device_util[0][victim];
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // And a correspondingly higher residual-loss exposure.
        assert!(degraded.residual_dropped_pps >= before.residual_dropped_pps);
        restore_ports(&mut region, 0, victim).unwrap();
        let restored = region.offer(&flows, 1.0);
        let ratio = restored.device_util[0][victim] / before.device_util[0][victim];
        assert!((ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_targets_are_typed_errors() {
        let (_t, _flows, mut region) = build();
        let clusters = region.hw.len();
        assert_eq!(
            isolate_ports(&mut region, 99, 0, 0.5),
            Err(RecoveryError::UnknownCluster {
                cluster: 99,
                clusters
            })
        );
        assert_eq!(
            fail_device(&mut region, 0, 99),
            Err(RecoveryError::UnknownDevice {
                cluster: 0,
                device: 99,
                devices: 3
            })
        );
        assert_eq!(
            restore_device(&mut region, clusters, 0),
            Err(RecoveryError::UnknownCluster {
                cluster: clusters,
                clusters
            })
        );
        // Backup indices are not valid cluster-failover targets.
        let primaries = region.plan.clusters_needed();
        assert!(matches!(
            fail_cluster(&mut region, primaries),
            Err(RecoveryError::UnknownCluster { .. })
        ));
    }

    #[test]
    fn retired_and_never_admitted_devices_are_not_applicable() {
        let (topology, _flows, mut region) = build();
        let probes = probe::generate(&topology, 3);
        // Retire a device (elastic scale-in): every recovery action aimed
        // at it becomes a typed no-op, not an error.
        region.retire_device(0, 2);
        assert_eq!(
            fail_device(&mut region, 0, 2).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        assert_eq!(
            restore_device(&mut region, 0, 2).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        assert_eq!(
            readmit_device(&mut region, &probes, 0, 2).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        assert_eq!(
            isolate_ports(&mut region, 0, 2, 0.5).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        // It stays out of rotation.
        assert_eq!(region.hw[0].online_devices(), 2);

        // A spare cluster's devices were never admitted into service (the
        // plan assigns them nothing): same no-op semantics, and an
        // out-of-range index is still a typed error.
        let mut spare_region = Region::build(
            &topology,
            RegionConfig {
                spare_clusters: 1,
                with_backup: false,
                capacity: ClusterCapacity {
                    max_routes: 600,
                    max_vms: 3_000,
                },
                ..RegionConfig::default()
            },
        )
        .unwrap();
        let spare = spare_region.plan.clusters_needed() - 1;
        assert!(!spare_region.plan.assignments.values().any(|c| *c == spare));
        assert_eq!(
            fail_device(&mut spare_region, spare, 0).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        assert_eq!(
            readmit_device(&mut spare_region, &probes, spare, 0).unwrap(),
            RecoveryOutcome::NotApplicable
        );
        assert!(matches!(
            fail_device(&mut spare_region, spare, 99),
            Err(RecoveryError::UnknownDevice { .. })
        ));
    }

    #[test]
    fn no_backup_is_a_typed_error() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut region = Region::build(
            &topology,
            RegionConfig {
                with_backup: false,
                capacity: ClusterCapacity {
                    max_routes: 600,
                    max_vms: 3_000,
                },
                ..RegionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            fail_cluster(&mut region, 0),
            Err(RecoveryError::NoBackup { cluster: 0 })
        );
    }

    #[test]
    fn probe_gate_blocks_corrupted_device_and_admits_healthy_one() {
        let (topology, _flows, mut region) = build();
        let probes = probe::generate(&topology, 5);
        fail_device(&mut region, 0, 1).unwrap();
        // Corrupt the offline device: the gate must refuse it.
        region.hw[0].wipe_device(1);
        match readmit_device(&mut region, &probes, 0, 1) {
            Err(RecoveryError::ProbeGateFailed {
                cluster: 0,
                device: 1,
                failures,
            }) => assert!(failures > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(region.hw[0].online_devices(), 2, "must stay offline");
        // Repair the tables; the gate now admits it.
        let mut clock = sailfish_sim::faults::VirtualClock::new();
        let plan = region.plan.clone();
        region
            .controller
            .reinstall_device(
                &topology,
                &plan,
                &mut region.hw,
                0,
                0,
                1,
                &mut clock,
                &crate::controller::InstallPolicy::default(),
                &mut |_, _| None,
            )
            .unwrap();
        assert_eq!(
            readmit_device(&mut region, &probes, 0, 1).unwrap(),
            RecoveryOutcome::NodeOnline { online: 3 }
        );
    }
}
