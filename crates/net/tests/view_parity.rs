//! The canonical-frame fast path is pinned to the layered validator.
//!
//! [`FrameView::parse`] is the gateway's only frame validator: the batch
//! hot path, the owned `GatewayPacket` parse, punt resolution and the
//! header rewrite all run it. Behind it sit two paths —
//! `FrameView::parse_fast`, flat constant-offset reads for the canonical
//! v4- and v6-in-v4 shapes, and the layered `FrameView::parse_full`, which decides
//! every other frame and types every reject. They agree only if the fast
//! path never accepts a frame the layered validator rejects and, when it
//! accepts, extracts the identical view. This suite sweeps valid frames,
//! every truncation prefix and structure-aware mutants for exactly that.

use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::view::FrameView;
use sailfish_net::{IpProtocol, Vni};
use sailfish_util::fuzz::{FieldSpec, FrameMutator};
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::SeedableRng;

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let v4 = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "10.1.0.1".parse().unwrap(),
        "10.2.0.2".parse().unwrap(),
    )
    .transport(IpProtocol::Udp, 10_000, 443)
    .build()
    .emit()
    .expect("well-formed");
    let v4_tcp = GatewayPacketBuilder::new(
        Vni::from_const(7),
        "172.16.4.9".parse().unwrap(),
        "172.16.9.4".parse().unwrap(),
    )
    .transport(IpProtocol::Tcp, 50_000, 80)
    .build()
    .emit()
    .expect("well-formed");
    let v4_icmp = GatewayPacketBuilder::new(
        Vni::from_const(9),
        "10.9.0.1".parse().unwrap(),
        "10.9.0.2".parse().unwrap(),
    )
    .transport(IpProtocol::Icmp, 0, 0)
    .build()
    .emit()
    .expect("well-formed");
    let v6_outer = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "10.1.0.1".parse().unwrap(),
        "10.2.0.2".parse().unwrap(),
    )
    .outer_ips(
        "2001:db8:ff::1".parse().unwrap(),
        "2001:db8:ff::2".parse().unwrap(),
    )
    .build()
    .emit()
    .expect("well-formed");
    let v6_inner = GatewayPacketBuilder::new(
        Vni::from_const(0x1234),
        "2001:db8:a::1".parse().unwrap(),
        "2001:db8:b::2".parse().unwrap(),
    )
    .build()
    .emit()
    .expect("well-formed");
    let v6_inner_tcp = GatewayPacketBuilder::new(
        Vni::from_const(7),
        "2001:db8:c::9".parse().unwrap(),
        "2001:db8:d::4".parse().unwrap(),
    )
    .transport(IpProtocol::Tcp, 50_000, 80)
    .build()
    .emit()
    .expect("well-formed");
    vec![
        ("v4", v4),
        ("v4-tcp", v4_tcp),
        ("v4-icmp", v4_icmp),
        ("v6-outer", v6_outer),
        ("v6-inner", v6_inner),
        ("v6-inner-tcp", v6_inner_tcp),
    ]
}

/// Asserts that when the fast path accepts `frame`, the layered validator
/// accepts it with an identical view; returns whether the fast path took
/// it.
fn assert_parity(frame: &[u8], what: &str) -> bool {
    let Some(fast) = FrameView::parse_fast(frame) else {
        return false;
    };
    assert_eq!(
        FrameView::parse_full(frame),
        Ok(fast),
        "{what}: fast path diverged from the layered validator"
    );
    true
}

#[test]
fn valid_corpus_and_every_truncation_agree() {
    for (name, frame) in corpus() {
        assert!(
            FrameView::parse_full(&frame).is_ok(),
            "{name}: valid frame rejected"
        );
        let fast = assert_parity(&frame, name);
        // Every shape over a v4 underlay must take the fast path, or the
        // sweep below would compare nothing.
        assert_eq!(fast, name != "v6-outer", "{name}: fast-path shape");
        for cut in 0..frame.len() {
            assert_parity(&frame[..cut], &format!("{name} cut at {cut}"));
        }
    }
}

/// The hostile-frame suite's decision-point field map, plus the inner
/// TCP data offset the fast path checks.
fn v4_field_map() -> Vec<FieldSpec> {
    let mut fields = outer_field_map();
    fields.extend([
        FieldSpec::length(64, 1), // inner version/IHL
        FieldSpec::length(66, 2), // inner total length
        FieldSpec::new(70, 2),    // inner flags/fragment
        FieldSpec::new(73, 1),    // inner protocol
        FieldSpec::new(74, 2),    // inner header checksum
        FieldSpec::length(88, 2), // inner UDP length
        FieldSpec::new(96, 1),    // inner TCP data offset (v4-tcp base)
    ]);
    fields
}

/// The same outer fields, then the inner IPv6 header's and its
/// transport's decision points.
fn v6_inner_field_map() -> Vec<FieldSpec> {
    let mut fields = outer_field_map();
    fields.extend([
        FieldSpec::new(64, 1),     // inner version
        FieldSpec::length(68, 2),  // inner payload length
        FieldSpec::new(70, 1),     // inner next header
        FieldSpec::length(108, 2), // inner UDP length
        FieldSpec::new(116, 1),    // inner TCP data offset (v6-inner-tcp base)
    ]);
    fields
}

/// Outer headers, VXLAN and the inner ethertype.
fn outer_field_map() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new(12, 2),    // outer ethertype
        FieldSpec::length(14, 1), // outer version/IHL
        FieldSpec::length(16, 2), // outer total length
        FieldSpec::new(20, 2),    // outer flags/fragment
        FieldSpec::new(23, 1),    // outer protocol
        FieldSpec::new(24, 2),    // outer header checksum
        FieldSpec::new(36, 2),    // outer UDP dst port
        FieldSpec::length(38, 2), // outer UDP length
        FieldSpec::new(40, 2),    // outer UDP checksum
        FieldSpec::new(42, 1),    // VXLAN flags
        FieldSpec::new(46, 3),    // VNI
        FieldSpec::new(62, 2),    // inner ethertype
    ]
}

#[test]
fn fuzzed_mutants_classify_identically() {
    let v4 = FrameMutator::new(v4_field_map());
    let v6_inner = FrameMutator::new(v6_inner_field_map());
    let bases: Vec<(Vec<u8>, &FrameMutator)> = corpus()
        .into_iter()
        .map(|(name, f)| {
            (
                f,
                if name.starts_with("v6-inner") {
                    &v6_inner
                } else {
                    &v4
                },
            )
        })
        .collect();
    let mut fast_accepts = 0u32;
    for seed in [0xF00Du64, 0xBEE5, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..10_000u32 {
            let (base, mutator) = &bases[case as usize % bases.len()];
            let (mutant, applied) = mutator.mutate(&mut rng, base);
            if assert_parity(&mutant, &format!("{applied:?}")) {
                fast_accepts += 1;
            }
        }
    }
    // Mutants of fields the fast path does not check (ports, VNI, a
    // re-fitted length) must still reach it.
    assert!(
        fast_accepts > 1_000,
        "only {fast_accepts} fast-path accepts"
    );
}
