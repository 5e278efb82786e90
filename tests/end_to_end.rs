//! Integration test: hardware and software forwarders agree on every
//! decision for traffic both can serve, wire bytes round-trip at every
//! hop, and the builder-assembled system behaves under load.

use sailfish::prelude::*;

/// Differential test: same tables, same packets — the hardware program
/// (ALPM + digest path) and the software forwarder (per-length LPM +
/// digest path)
/// must make identical forwarding decisions.
#[test]
fn hardware_and_software_forwarders_agree() {
    let topology = Topology::generate(TopologyConfig {
        vpcs: 50,
        total_vms: 1_500,
        ..TopologyConfig::default()
    });

    let mut hw = XgwH::with_defaults();
    let mut sw_tables = SoftwareTables::default();
    for (key, target) in &topology.routes {
        hw.tables.routes.insert(*key, *target).unwrap();
        sw_tables.routes.insert(*key, *target);
    }
    for vm in &topology.vms {
        let nc = topology.ncs[vm.nc.index()];
        hw.tables.add_vm(vm.vni, vm.ip, nc).unwrap();
        sw_tables.vm_nc.insert(vm.vni, vm.ip, nc).unwrap();
    }
    let mut sw = SoftwareForwarder::new(sw_tables.into(), SnatConfig::default());
    hw.tables.routes.audit().unwrap();

    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 3_000,
            ..WorkloadConfig::default()
        },
    );
    let mut compared = 0;
    for flow in &flows {
        let packet = GatewayPacketBuilder::new(flow.vni, flow.tuple.src_ip, flow.tuple.dst_ip)
            .transport(
                flow.tuple.protocol,
                flow.tuple.src_port,
                flow.tuple.dst_port,
            )
            .build();
        let hw_verdict = hw.tables.walk(packet.vni, &packet.five_tuple(), &mut ());
        let sw_verdict = sw.process(&packet, 0);
        match (hw_verdict, sw_verdict) {
            // SNAT punts in hardware, translates in software.
            (Verdict::Punt(Reason::SnatRequired), Verdict::ToInternet) => {}
            (h, s) => assert_eq!(h, s, "divergence for {}", packet.five_tuple()),
        }
        compared += 1;
    }
    assert_eq!(compared, flows.len());
}

/// The builder assembles a coherent system that absorbs a week of load.
#[test]
fn builder_system_survives_a_festival_week() {
    let (_topology, mut region, flows) = SailfishBuilder::small().build().unwrap();
    let mut worst = 0.0f64;
    for step in 0..16 {
        let day = step as f64 / 2.0;
        let report = region.offer(&flows, festival_profile(day));
        assert_eq!(report.unrouted_pps, 0.0);
        assert_eq!(report.overload_dropped_pps, 0.0, "day {day}");
        worst = worst.max(report.loss_ratio());
    }
    assert!(worst < 1e-8, "residual-only loss, got {worst:.2e}");
}

/// Every emitted packet on the hot path round-trips through real bytes.
#[test]
fn wire_round_trip_for_generated_workloads() {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 500,
            ..WorkloadConfig::default()
        },
    );
    for flow in &flows {
        let packet = GatewayPacketBuilder::new(flow.vni, flow.tuple.src_ip, flow.tuple.dst_ip)
            .transport(
                flow.tuple.protocol,
                flow.tuple.src_port,
                flow.tuple.dst_port,
            )
            .payload_len(flow.wire_bytes.min(1400))
            .build();
        let bytes = packet.emit().expect("well-formed workload tuples");
        let parsed = GatewayPacket::parse(&bytes).expect("parseable");
        assert_eq!(parsed, packet);
        assert_eq!(parsed.five_tuple(), flow.tuple);
    }
}

/// ECMP next-hop caps propagate: an oversized cluster is rejected.
#[test]
fn ecmp_cap_limits_cluster_size() {
    let err =
        sailfish_cluster::cluster::HwCluster::new(0, 17, 16, AlpmConfig::default(), 10_000_000_000);
    assert!(err.is_err(), "17 devices behind a 16-way ECMP must fail");
    assert!(sailfish_cluster::cluster::HwCluster::new(
        0,
        16,
        16,
        AlpmConfig::default(),
        10_000_000_000
    )
    .is_ok());
}
