//! Integration test: every Table 1 traffic route, end-to-end through a
//! built region — hardware decision, software fallback, and the wire
//! representation at each hop.

use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;

fn region() -> (Topology, Region) {
    let topology = Topology::generate(TopologyConfig::default());
    let region = Region::build(
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
    (topology, region)
}

fn process(
    region: &mut Region,
    vni: Vni,
    src: std::net::IpAddr,
    dst: std::net::IpAddr,
) -> HwDecision {
    let cluster = region.directory.cluster_for(vni).expect("vni assigned");
    let packet = GatewayPacketBuilder::new(vni, src, dst)
        .transport(IpProtocol::Tcp, 40000, 443)
        .build();
    let hw = &region.hw[cluster];
    let device = hw.device_for(&packet.five_tuple()).expect("devices online");
    let verdict = hw.devices[device].walk(packet.vni, &packet.five_tuple(), &mut ());
    HwDecision::new(verdict, &packet)
}

#[test]
fn vm_to_vm_same_vpc() {
    let (topology, mut region) = region();
    let vpc = topology
        .vpcs
        .iter()
        .find(|v| {
            let vms = topology.vms_of(v);
            vms.iter().filter(|m| m.ip.is_ipv4()).count() >= 2
        })
        .unwrap();
    let v4: Vec<_> = topology
        .vms_of(vpc)
        .iter()
        .filter(|m| m.ip.is_ipv4())
        .collect();
    match process(&mut region, vpc.vni, v4[0].ip, v4[1].ip) {
        HwDecision::ToNc { packet, nc } => {
            assert_eq!(nc, topology.ncs[v4[1].nc.index()]);
            assert_eq!(packet.vni, vpc.vni);
            assert_eq!(packet.outer.dst_ip, nc.ip);
            // The rewritten packet is emittable and parses back.
            let bytes = packet.emit().unwrap();
            assert_eq!(GatewayPacket::parse(&bytes).unwrap(), packet);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn vm_to_vm_across_vpcs() {
    let (topology, mut region) = region();
    let mut checked = 0;
    for vpc in &topology.vpcs {
        let Some(peer_vni) = vpc.peer else { continue };
        let peer = topology.vpcs.iter().find(|v| v.vni == peer_vni).unwrap();
        let srcs = topology.vms_of(vpc);
        let dsts = topology.vms_of(peer);
        let reachable = dsts.len().min(sailfish_sim::topology::PEERED_SUBNETS * 250);
        let Some(src) = srcs.iter().find(|m| m.ip.is_ipv4()) else {
            continue;
        };
        let Some(dst) = dsts[..reachable].iter().find(|m| m.ip.is_ipv4()) else {
            continue;
        };
        match process(&mut region, vpc.vni, src.ip, dst.ip) {
            HwDecision::ToNc { packet, nc } => {
                assert_eq!(nc, topology.ncs[dst.nc.index()]);
                assert_eq!(packet.vni, peer_vni, "VNI must be rewritten to the peer");
            }
            other => panic!("{} -> {}: unexpected {other:?}", vpc.vni, dst.ip),
        }
        checked += 1;
        if checked >= 10 {
            break;
        }
    }
    assert!(checked >= 5, "need real peerings to test ({checked})");
}

#[test]
fn vm_to_internet_via_snat_and_back() {
    let (topology, mut region) = region();
    let vpc = topology.vpcs.iter().find(|v| v.internet).unwrap();
    let src = topology
        .vms_of(vpc)
        .iter()
        .find(|m| m.ip.is_ipv4())
        .unwrap();
    let dst: std::net::IpAddr = "93.184.216.34".parse().unwrap();
    let punted = match process(&mut region, vpc.vni, src.ip, dst) {
        HwDecision::PuntToX86 { packet, reason } => {
            assert_eq!(reason, Reason::SnatRequired);
            packet
        }
        other => panic!("unexpected {other:?}"),
    };
    // The software node allocated by ECMP performs the translation.
    let node = region.sw.ecmp.pick(&punted.five_tuple()).unwrap();
    let forwarder = &mut region.sw.nodes[node].forwarder;
    assert_eq!(forwarder.process(&punted, 0), Verdict::ToInternet);
    // Its binding for the flow, read back from the node's session table.
    let binding = forwarder
        .snat
        .translate_outbound(punted.vni, punted.five_tuple(), 0)
        .unwrap();
    // And the response finds its way back.
    let back = region.sw.nodes[node]
        .forwarder
        .snat
        .translate_inbound(
            (binding.public_ip, binding.public_port),
            (dst, 443),
            IpProtocol::Tcp,
            1,
        )
        .unwrap();
    assert_eq!(back, (vpc.vni, punted.five_tuple()));
}

#[test]
fn vm_to_idc_and_cross_region() {
    let (topology, mut region) = region();
    // Pick VPCs that both have the attachment AND an IPv4 VM to send
    // from — which VPC is first is a function of the topology seed.
    let (idc_vpc, src) = topology
        .vpcs
        .iter()
        .filter(|v| v.idc.is_some())
        .find_map(|v| {
            let src = topology
                .vms_of(v)
                .iter()
                .find(|m| m.ip.is_ipv4())
                .copied()?;
            Some((v, src))
        })
        .unwrap();
    match process(
        &mut region,
        idc_vpc.vni,
        src.ip,
        "172.16.1.1".parse().unwrap(),
    ) {
        HwDecision::Other(Verdict::ToIdc { idc, .. }) => assert_eq!(Some(idc), idc_vpc.idc),
        other => panic!("unexpected {other:?}"),
    }
    let (xr_vpc, src) = topology
        .vpcs
        .iter()
        .filter(|v| v.cross_region.is_some())
        .find_map(|v| {
            let src = topology
                .vms_of(v)
                .iter()
                .find(|m| m.ip.is_ipv4())
                .copied()?;
            Some((v, src))
        })
        .unwrap();
    match process(
        &mut region,
        xr_vpc.vni,
        src.ip,
        "100.64.3.3".parse().unwrap(),
    ) {
        HwDecision::Other(Verdict::ToRegion { region: r, .. }) => {
            assert_eq!(Some(r), xr_vpc.cross_region)
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unknown_destination_punts_not_blackholes() {
    let (topology, mut region) = region();
    let vpc = topology.vpcs.iter().find(|v| !v.internet).unwrap();
    let src = topology.vms_of(vpc).first().unwrap();
    // A destination outside every installed route.
    match process(
        &mut region,
        vpc.vni,
        src.ip,
        "203.0.113.200".parse().unwrap(),
    ) {
        HwDecision::PuntToX86 { reason, .. } => {
            assert_eq!(reason, Reason::NoRoute, "long tail goes to software");
        }
        other => panic!("unexpected {other:?}"),
    }
}
