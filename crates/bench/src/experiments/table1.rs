//! Table 1: typical cloud services on each traffic route across the
//! gateway — exercised end-to-end through a built region, one packet per
//! route class.

use sailfish::prelude::*;
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_xgw_h::PuntReason;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
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

    // Pick a VPC with a peer, Internet, IDC and cross-region routes.
    let vpc = topology
        .vpcs
        .iter()
        .find(|v| v.peer.is_some() && v.internet && v.vm_range.1 - v.vm_range.0 >= 2)
        .expect("the default topology has richly connected VPCs");
    let vms = topology.vms_of(vpc);
    let src = vms.iter().find(|v| v.ip.is_ipv4()).expect("v4 VM");
    let dst_same = vms
        .iter()
        .find(|v| v.ip.is_ipv4() && v.ip != src.ip)
        .expect("second v4 VM");
    let peer = topology
        .vpcs
        .iter()
        .find(|v| Some(v.vni) == vpc.peer)
        .expect("peer exists");
    let idc_vpc = topology.vpcs.iter().find(|v| v.idc.is_some());
    let xregion_vpc = topology.vpcs.iter().find(|v| v.cross_region.is_some());

    let mut rows = Vec::new();
    let mut rec = ExperimentRecord::new("table1", "Traffic routes across the gateway");
    let mut run = |route: &str,
                   service: &str,
                   vni: Vni,
                   src_ip: core::net::IpAddr,
                   dst: core::net::IpAddr,
                   want: &str| {
        let flow = sailfish_sim::workload::Flow {
            tuple: FiveTuple::new(src_ip, dst, IpProtocol::Tcp, 40000, 443),
            vni,
            pps: 1.0,
            wire_bytes: 500,
            kind: sailfish_sim::workload::FlowKind::IntraVpc,
        };
        let cluster = region.directory.cluster_for(vni).expect("vni routed");
        let packet = GatewayPacketBuilder::new(vni, src_ip, dst)
            .transport(IpProtocol::Tcp, 40000, 443)
            .build();
        let hw = &region.hw[cluster];
        let device = hw.device_for(&flow.tuple).expect("devices online");
        let decision = hw.devices[device]
            .walk(vni, &flow.tuple, &mut ())
            .into_decision(&packet);
        let got = match &decision {
            HwDecision::ToNc { .. } => "forward to NC".to_string(),
            HwDecision::ToRegion { region, .. } => format!("cross-region ({region})"),
            HwDecision::ToIdc { idc, .. } => format!("CEN to {idc}"),
            HwDecision::PuntToX86 { reason, .. } => match reason {
                PuntReason::SnatRequired => "punt to XGW-x86 (SNAT)".to_string(),
                other => format!("punt to XGW-x86 ({other:?})"),
            },
            HwDecision::Drop(r) => format!("drop ({r:?})"),
        };
        let ok = got.starts_with(want);
        rows.push(vec![route.to_string(), service.to_string(), got.clone()]);
        rec.compare(route.to_string(), want.to_string(), got, ok);
        let _ = flow;
    };

    run(
        "VM-VM (same VPC, different vSwitches)",
        "message passing in distributed computing",
        vpc.vni,
        src.ip,
        dst_same.ip,
        "forward to NC",
    );
    if let Some(peer_vm) = topology.vms_of(peer).iter().find(|v| v.ip.is_ipv4()) {
        // Cross-VPC traffic: route the peer's first subnet through Peer().
        run(
            "VM-VM (different VPCs)",
            "two tenants in one region",
            vpc.vni,
            src.ip,
            peer_vm.ip,
            "forward to NC",
        );
    }
    run(
        "VM-Internet",
        "tenant crawls web pages",
        vpc.vni,
        src.ip,
        "93.184.216.34".parse().unwrap(),
        "punt to XGW-x86 (SNAT)",
    );
    if let Some(v) = idc_vpc {
        if let Some(vm) = topology.vms_of(v).iter().find(|m| m.ip.is_ipv4()) {
            run(
                "VM-IDC",
                "tenant pulls results to the office",
                v.vni,
                vm.ip,
                "172.16.9.9".parse().unwrap(),
                "CEN to",
            );
        }
    }
    if let Some(v) = xregion_vpc {
        if let Some(vm) = topology.vms_of(v).iter().find(|m| m.ip.is_ipv4()) {
            run(
                "VM-Cross-region",
                "tenants in China and USA",
                v.vni,
                vm.ip,
                "100.64.1.1".parse().unwrap(),
                "cross-region",
            );
        }
    }

    print_table(
        "Table 1: traffic routes exercised end-to-end",
        &["Traffic route", "Cloud service example", "Gateway decision"],
        &rows,
    );
    rec
}
