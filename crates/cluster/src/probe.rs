//! Probe-based cluster validation (§6.1, "Cluster construction").
//!
//! "Then, we will deploy probe generators to produce diverse probe
//! packets covering as many test scenarios as possible. Finally, we will
//! modify the routes in the upstream devices to admit user traffic."
//!
//! The generator derives one probe per installed behaviour class
//! (same-VPC, peered, Internet/SNAT, IDC, cross-region, and negative
//! probes for unknown destinations), runs them through every device of
//! the serving cluster, and reports divergences from the expected
//! decision — the go/no-go gate before admitting user traffic.

use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::{GatewayPacket, IpProtocol};
use sailfish_sim::topology::{Topology, PEERED_SUBNETS};
use sailfish_xgw_h::{HwDecision, PuntReason};

use crate::region::Region;

/// What a probe expects the gateway to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Forward to an NC in the (possibly rewritten) VNI.
    ForwardLocal,
    /// Hand off to another region.
    CrossRegion,
    /// Hand off to an IDC.
    Idc,
    /// Punt for SNAT.
    PuntSnat,
    /// Punt as unknown (long tail on software).
    PuntUnknown,
}

/// One probe packet with its expectation.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Descriptive label.
    pub label: String,
    /// The packet to inject.
    pub packet: GatewayPacket,
    /// Expected decision class.
    pub expect: Expectation,
}

/// A probe that failed on some device.
#[derive(Debug, Clone)]
pub struct ProbeFailure {
    /// The probe's label.
    pub label: String,
    /// Cluster where it failed.
    pub cluster: usize,
    /// Device where it failed.
    pub device: usize,
    /// What the device actually did.
    pub got: String,
}

/// Builds the probe set for a topology (up to `per_class` probes per
/// behaviour class).
pub fn generate(topology: &Topology, per_class: usize) -> Vec<Probe> {
    let mut probes = Vec::new();
    let mut local = 0;
    let mut peered = 0;
    let mut snat = 0;
    let mut idc = 0;
    let mut xregion = 0;
    let mut negative = 0;

    let by_vni = topology.vpcs_by_vni();
    for vpc in &topology.vpcs {
        let vms = topology.vms_of(vpc);
        let Some(src) = vms.iter().find(|m| m.ip.is_ipv4()) else {
            continue;
        };
        let mk = |dst: core::net::IpAddr| {
            GatewayPacketBuilder::new(vpc.vni, src.ip, dst)
                .transport(IpProtocol::Udp, 30000, 30001)
                .build()
        };
        if local < per_class {
            if let Some(dst) = vms.iter().find(|m| m.ip.is_ipv4() && m.ip != src.ip) {
                probes.push(Probe {
                    label: format!("local {} -> {}", vpc.vni, dst.ip),
                    packet: mk(dst.ip),
                    expect: Expectation::ForwardLocal,
                });
                local += 1;
            }
        }
        if peered < per_class {
            // A dangling peer reference (no such VPC in the topology) is
            // not probe-worthy; skip it rather than panic.
            if let Some(peer) = vpc.peer.and_then(|peer_vni| by_vni.get(&peer_vni)) {
                let pvms = topology.vms_of(peer);
                let reachable = pvms.len().min(PEERED_SUBNETS * 250);
                if let Some(dst) = pvms[..reachable].iter().find(|m| m.ip.is_ipv4()) {
                    probes.push(Probe {
                        label: format!("peer {} -> {} ({})", vpc.vni, dst.ip, peer.vni),
                        packet: mk(dst.ip),
                        expect: Expectation::ForwardLocal,
                    });
                    peered += 1;
                }
            }
        }
        if snat < per_class && vpc.internet {
            probes.push(Probe {
                label: format!("snat {}", vpc.vni),
                packet: mk("93.184.216.34".parse().expect("valid IPv4 literal")),
                expect: Expectation::PuntSnat,
            });
            snat += 1;
        }
        if idc < per_class && vpc.idc.is_some() {
            probes.push(Probe {
                label: format!("idc {}", vpc.vni),
                packet: mk("172.16.200.1".parse().expect("valid IPv4 literal")),
                expect: Expectation::Idc,
            });
            idc += 1;
        }
        if xregion < per_class && vpc.cross_region.is_some() {
            probes.push(Probe {
                label: format!("xregion {}", vpc.vni),
                packet: mk("100.64.200.1".parse().expect("valid IPv4 literal")),
                expect: Expectation::CrossRegion,
            });
            xregion += 1;
        }
        if negative < per_class && !vpc.internet {
            probes.push(Probe {
                label: format!("negative {}", vpc.vni),
                packet: mk("198.51.100.77".parse().expect("valid IPv4 literal")),
                expect: Expectation::PuntUnknown,
            });
            negative += 1;
        }
    }
    probes
}

/// The failure, if `device` of `cluster` does not take the decision
/// `probe` expects.
fn check(region: &Region, probe: &Probe, cluster: usize, device: usize) -> Option<ProbeFailure> {
    let packet = &probe.packet;
    let decision = region.hw[cluster].devices[device]
        .walk(packet.vni, &packet.five_tuple(), &mut ())
        .into_decision(packet);
    (!matches_expectation(&decision, probe.expect)).then(|| ProbeFailure {
        label: probe.label.clone(),
        cluster,
        device,
        got: format!("{decision:?}"),
    })
}

/// Whether a device decision satisfies a probe's expectation.
fn matches_expectation(decision: &HwDecision, expect: Expectation) -> bool {
    matches!(
        (decision, expect),
        (HwDecision::ToNc { .. }, Expectation::ForwardLocal)
            | (HwDecision::ToRegion { .. }, Expectation::CrossRegion)
            | (HwDecision::ToIdc { .. }, Expectation::Idc)
            | (
                HwDecision::PuntToX86 {
                    reason: PuntReason::SnatRequired,
                    ..
                },
                Expectation::PuntSnat
            )
            | (
                HwDecision::PuntToX86 {
                    reason: PuntReason::NoHwRoute,
                    ..
                },
                Expectation::PuntUnknown
            )
    )
}

/// Runs every probe on every device of its serving cluster.
pub fn run(region: &mut Region, probes: &[Probe]) -> Vec<ProbeFailure> {
    let mut failures = Vec::new();
    for probe in probes {
        let Some(cluster) = region.directory.cluster_for(probe.packet.vni) else {
            failures.push(ProbeFailure {
                label: probe.label.clone(),
                cluster: usize::MAX,
                device: usize::MAX,
                got: "VNI not in directory".into(),
            });
            continue;
        };
        let devices = 0..region.hw[cluster].devices.len();
        failures.extend(devices.filter_map(|device| check(region, probe, cluster, device)));
    }
    failures
}

/// Runs the probes relevant to one device — the §6.1 re-admission gate.
///
/// Probes are selected by the *plan* (which VNIs this cluster must serve),
/// not the live directory: a backup cluster (index ≥ primaries) is tested
/// against its primary's assignment, and a cluster whose traffic is
/// currently failed over elsewhere can still be validated before the
/// directory cuts back over.
pub fn run_device(
    region: &mut Region,
    probes: &[Probe],
    cluster: usize,
    device: usize,
) -> Vec<ProbeFailure> {
    let primaries = region.plan.clusters_needed();
    let plan_cluster = if cluster >= primaries {
        cluster - primaries
    } else {
        cluster
    };
    probes
        .iter()
        .filter(|probe| region.plan.assignments.get(&probe.packet.vni) == Some(&plan_cluster))
        .filter_map(|probe| check(region, probe, cluster, device))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClusterCapacity;
    use crate::region::RegionConfig;
    use sailfish_sim::topology::TopologyConfig;

    fn build() -> (Topology, Region) {
        let topology = Topology::generate(TopologyConfig::default());
        let region = Region::build(
            &topology,
            RegionConfig {
                devices_per_cluster: 2,
                capacity: ClusterCapacity {
                    max_routes: 600,
                    max_vms: 3_000,
                },
                ..RegionConfig::default()
            },
        )
        .unwrap();
        (topology, region)
    }

    #[test]
    fn probe_set_covers_all_classes() {
        let (topology, _region) = build();
        let probes = generate(&topology, 3);
        for expect in [
            Expectation::ForwardLocal,
            Expectation::PuntSnat,
            Expectation::Idc,
            Expectation::CrossRegion,
            Expectation::PuntUnknown,
        ] {
            assert!(
                probes.iter().any(|p| p.expect == expect),
                "missing class {expect:?}"
            );
        }
    }

    #[test]
    fn healthy_region_passes_all_probes() {
        let (topology, mut region) = build();
        let probes = generate(&topology, 5);
        assert!(probes.len() >= 15);
        let failures = run(&mut region, &probes);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn run_device_gates_single_devices_including_backups() {
        let (topology, mut region) = build();
        let probes = generate(&topology, 5);
        assert!(run_device(&mut region, &probes, 0, 0).is_empty());
        // A backup cluster's devices are testable against the primary's
        // plan assignment even though the directory points elsewhere.
        let backup = region.backup_of(0).unwrap();
        assert!(run_device(&mut region, &probes, backup, 0).is_empty());
        // Corruption on one device is caught there and only there.
        region.hw[0].wipe_device(1);
        assert!(!run_device(&mut region, &probes, 0, 1).is_empty());
        assert!(run_device(&mut region, &probes, 0, 0).is_empty());
    }

    #[test]
    fn corrupted_device_fails_probes_precisely() {
        let (topology, mut region) = build();
        let probes = generate(&topology, 5);
        // Wipe device 1 of cluster 0.
        region.hw[0].wipe_device(1);
        let failures = run(&mut region, &probes);
        assert!(!failures.is_empty());
        assert!(
            failures.iter().all(|f| f.cluster == 0 && f.device == 1),
            "failures must localize to the corrupted device: {failures:?}"
        );
    }
}
