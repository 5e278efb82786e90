//! Golden digests of `generate_flows` output.
//!
//! The generator's output is an input to every experiment and benchmark,
//! so a change to how it finds peers, falls back to a same-family source
//! or picks packet sizes must leave the flows draw-for-draw identical.
//! Each flow is folded into a 64-bit FNV-1a digest over an explicit byte
//! encoding (5-tuple, VNI, the bits of `pps`, wire bytes, kind) — no
//! `Hash` impl is involved, so the pinned values do not depend on the
//! standard library's hashing of addresses or enums.

use core::net::IpAddr;

use sailfish_sim::workload::{generate_flows, FlowKind};
use sailfish_sim::{Flow, Topology, TopologyConfig, WorkloadConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ip(&mut self, ip: IpAddr) {
        match ip {
            IpAddr::V4(a) => {
                self.feed(&[4]);
                self.feed(&a.octets());
            }
            IpAddr::V6(a) => {
                self.feed(&[6]);
                self.feed(&a.octets());
            }
        }
    }

    fn flow(&mut self, f: &Flow) {
        self.ip(f.tuple.src_ip);
        self.ip(f.tuple.dst_ip);
        self.feed(&[f.tuple.protocol.number()]);
        self.feed(&f.tuple.src_port.to_be_bytes());
        self.feed(&f.tuple.dst_port.to_be_bytes());
        self.feed(&f.vni.value().to_be_bytes());
        self.feed(&f.pps.to_bits().to_be_bytes());
        self.feed(&(f.wire_bytes as u64).to_be_bytes());
        self.feed(&[match f.kind {
            FlowKind::IntraVpc => 0,
            FlowKind::CrossVpc => 1,
            FlowKind::Internet => 2,
            FlowKind::Idc => 3,
            FlowKind::CrossRegion => 4,
        }]);
    }
}

/// Thousands of VPCs, most of them peered, a third of subnets IPv6 (so
/// the same-family fallback runs), and every external route kind.
fn peered_topology() -> Topology {
    Topology::generate(TopologyConfig {
        seed: 31,
        vpcs: 4_000,
        total_vms: 40_000,
        v6_fraction: 0.35,
        peering_fraction: 0.7,
        internet_fraction: 0.6,
        idc_fraction: 0.3,
        cross_region_fraction: 0.3,
        ncs: 2_000,
        ..TopologyConfig::default()
    })
}

fn digest(topology: &Topology, seed: u64) -> (u64, [usize; 5]) {
    let flows = generate_flows(
        topology,
        &WorkloadConfig {
            seed,
            flows: 20_000,
            internet_share: 0.05,
            cross_vpc_share: 0.4,
            ..WorkloadConfig::default()
        },
    );
    let mut h = Fnv::new();
    let mut kinds = [0usize; 5];
    for f in &flows {
        h.flow(f);
        kinds[f.kind as usize] += 1;
    }
    (h.0, kinds)
}

#[test]
fn generated_flows_match_golden_digests() {
    let topology = peered_topology();
    let got = [digest(&topology, 7), digest(&topology, 2021)];
    for (_, kinds) in &got {
        // Every path class is exercised, cross-VPC ones in bulk.
        assert!(kinds.iter().all(|&n| n > 0), "{kinds:?}");
        assert!(kinds[FlowKind::CrossVpc as usize] > 1_000, "{kinds:?}");
    }
    let digests: Vec<u64> = got.iter().map(|(d, _)| *d).collect();
    // These pin the generator's draw order: moving one draw, or picking a
    // different peer or fallback source, changes them.
    assert_eq!(
        digests,
        [0x4016_a105_245f_03af, 0xefec_bd16_5552_213e],
        "{got:?}"
    );
}
