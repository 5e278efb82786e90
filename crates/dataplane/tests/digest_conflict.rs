//! Satellite: forced 128→32-bit digest collisions stay exact under the
//! executor.
//!
//! The VM-NC table compresses IPv6 keys to a 32-bit digest (§5.2); the
//! conflict table catches colliding keys. These tests *force* collisions
//! by birthday-scanning sequential v6 addresses, install both colliding
//! VMs, and assert the executor still resolves each to its own NC — the
//! conflict table makes lookups exact, not probabilistic.

use core::net::{IpAddr, Ipv6Addr};

use sailfish_dataplane::engine;
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::oracle::differential_run;
use sailfish_dataplane::TableCounters;
use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::{IpPrefix, IpProtocol, Vni};
use sailfish_sim::topology::{VmRecord, Vpc};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::digest::{digest32, DigestLookup};
use sailfish_tables::types::{NcAddr, NcId, RouteTarget, Verdict, VxlanRouteKey};
use sailfish_util::check;
use sailfish_util::rand::Rng;
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_h::HwDecision;

/// Birthday-scans addresses `base | i` until two distinct ones share a
/// 32-bit digest under `vni`. The first collision is expected around
/// sqrt(π/2 · 2³²) ≈ 82k draws; the 600k cap makes absence a digest bug.
fn find_collision(vni: u32, base: u128) -> (u128, u128) {
    let mut seen: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
    for i in 0..600_000u128 {
        let addr = base | i;
        if let Some(prev) = seen.insert(digest32(vni, addr), addr) {
            if prev != addr {
                return (prev, addr);
            }
        }
    }
    panic!("no 32-bit digest collision in 600k sequential keys");
}

fn v6(bits: u128) -> IpAddr {
    IpAddr::V6(Ipv6Addr::from(bits))
}

#[test]
fn forced_collisions_stay_exact_under_the_walk() {
    check::run("digest-conflict-walk-exactness", 8, |rng| {
        let vni_value: u32 = rng.gen_range(1..0x00ff_ffff);
        let vni = Vni::from_const(vni_value);
        // A random documentation-prefix base; the scan varies only the
        // low 20 bits.
        let base = (0x2001_0db8_u128 << 96) | (u128::from(rng.gen::<u32>()) << 64);
        let (a, b) = find_collision(vni_value, base);

        let mut tables = HardwareTables::default();
        let prefix = IpPrefix::new(v6(0x2001_0db8_u128 << 96), 16).unwrap();
        tables
            .routes
            .insert(VxlanRouteKey::new(vni, prefix), RouteTarget::Local)
            .unwrap();
        let nc_a = NcAddr::new("192.0.2.1".parse().unwrap());
        let nc_b = NcAddr::new("192.0.2.2".parse().unwrap());
        tables.add_vm(vni, v6(a), nc_a).unwrap();
        tables.add_vm(vni, v6(b), nc_b).unwrap();

        // Installation displaced exactly one of the pair.
        let (got_a, trace_a) = tables.vm_nc.lookup_traced(vni, v6(a));
        let (got_b, trace_b) = tables.vm_nc.lookup_traced(vni, v6(b));
        assert_eq!(got_a, Some(nc_a));
        assert_eq!(got_b, Some(nc_b));
        assert_eq!(trace_a, DigestLookup::HitMain);
        assert_eq!(trace_b, DigestLookup::HitConflict);

        // The walk resolves each colliding VM to its own NC and accounts
        // the conflict probe.
        let mut counters = TableCounters::default();
        for (dst, want) in [(a, nc_a), (b, nc_b)] {
            let packet = GatewayPacketBuilder::new(vni, v6(base | 0xf_ffff), v6(dst))
                .transport(IpProtocol::Udp, 4000, 5000)
                .build();
            match engine::walk(&tables, &packet, &mut counters) {
                HwDecision::ToNc { nc, .. } => assert_eq!(nc, want),
                other => panic!("expected ToNc, got {other:?}"),
            }
        }
        assert_eq!(counters.vm_hit_main, 1);
        assert_eq!(counters.vm_hit_conflict, 1);
        assert_eq!(counters.vm_miss, 0);
    });
}

#[test]
fn executor_serves_colliding_vms_exactly() {
    let vni = Vni::from_const(4242);
    let base = 0x2001_0db8_u128 << 96;
    let (a, b) = find_collision(4242, base);
    let prefix = IpPrefix::new(v6(base), 32).unwrap();

    // A hand-built one-VPC topology. VM index 0 is a decoy: the builder
    // withholds every `hw_vm_stride`-th mapping starting at 0, so the
    // colliding pair (indexes 1 and 2) is guaranteed on-chip.
    let nc = |i: u8| NcAddr::new(IpAddr::V4(core::net::Ipv4Addr::new(192, 0, 2, i)));
    // NC `i` is 192.0.2.i.
    let ncs = (0..10).map(nc).collect();
    let vms = vec![
        VmRecord {
            vni,
            ip: v6(base | 0xdead),
            nc: NcId(9),
        },
        VmRecord {
            vni,
            ip: v6(a),
            nc: NcId(1),
        },
        VmRecord {
            vni,
            ip: v6(b),
            nc: NcId(2),
        },
    ];
    let topology = Topology {
        config: TopologyConfig::default(),
        vpcs: vec![Vpc {
            vni,
            vm_range: (0, vms.len()),
            subnets: vec![prefix],
            peer: None,
            internet: false,
            idc: None,
            cross_region: None,
        }],
        routes: vec![(VxlanRouteKey::new(vni, prefix), RouteTarget::Local)],
        vms,
        ncs,
    };

    let dp = Dataplane::build(
        &topology,
        DataplaneConfig {
            clusters: 1,
            devices_per_cluster: 2,
            hw_vm_stride: 1_000_000,
            workers: 2,
            ..DataplaneConfig::default()
        },
    );
    assert!(
        dp.pin().clusters[0]
            .tables
            .vm_nc
            .digest_stats()
            .conflict_entries
            >= 1,
        "the colliding pair must occupy the conflict table"
    );

    // Many distinct flows to each colliding VM, emitted as wire frames.
    let mut frames = Vec::new();
    for port in 0..100u16 {
        for dst in [a, b] {
            let packet = GatewayPacketBuilder::new(vni, v6(base | 0xbeef), v6(dst))
                .transport(IpProtocol::Udp, 10_000 + port, 443)
                .build();
            frames.push(packet.emit().unwrap());
        }
    }
    let seq: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();

    let mut fallback = software_forwarder(&topology);
    let report = dp.run_single(&seq, &mut fallback);
    assert_eq!(report.counters.parse_errors, 0);
    assert_eq!(report.counters.hw_forwarded, seq.len() as u64);
    assert!(report.counters.vm_hit_conflict > 0, "{:?}", report.counters);
    assert!(report.counters.vm_hit_main > 0);
    assert_eq!(report.counters.vm_miss, 0);

    // Per-packet exactness against the reference forwarder, and each
    // colliding VM resolves to its own NC.
    let mut fb = software_forwarder(&topology);
    let mut reference = software_forwarder(&topology);
    let oracle = differential_run(&dp, &seq, &mut fb, &mut reference);
    assert!(oracle.holds(), "{:?}", oracle.first_mismatch);
    let mut fb2 = software_forwarder(&topology);
    for (dst, want) in [(a, nc(1)), (b, nc(2))] {
        let packet = GatewayPacketBuilder::new(vni, v6(base | 0xbeef), v6(dst))
            .transport(IpProtocol::Udp, 7, 443)
            .build();
        let frame = packet.emit().unwrap();
        match dp.decide_one(&frame, &mut fb2, 0).unwrap() {
            Verdict::ToNc { nc, .. } => assert_eq!(nc, want),
            other => panic!("expected ToNc, got {other:?}"),
        }
    }
}
