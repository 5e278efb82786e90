//! Wire-frame traffic synthesis from the flow-level workload model.
//!
//! `sim::workload` produces Zipf-weighted flows; this module turns them
//! into real frames: one pre-emitted wire frame per flow (packets of a
//! flow are byte-identical up to payload content the gateway never reads)
//! and a pps-weighted packet schedule indexing into them. Pre-emitting
//! keeps million-packet replays allocation-free on the hot path.

use sailfish_net::packet::GatewayPacketBuilder;
use sailfish_net::rss::Toeplitz;
use sailfish_net::GatewayPacket;
use sailfish_sim::Flow;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

/// Builds the gateway packet for one flow.
///
/// The outer UDP source port — the underlay entropy the multi-worker
/// partitioner keys on — is derived from the flow's Toeplitz hash, as a
/// vSwitch would derive it from the inner flow.
pub fn packet_for_flow(flow: &Flow) -> GatewayPacket {
    let mut packet = GatewayPacketBuilder::new(flow.vni, flow.tuple.src_ip, flow.tuple.dst_ip)
        .transport(
            flow.tuple.protocol,
            flow.tuple.src_port,
            flow.tuple.dst_port,
        )
        .build();
    packet.outer.udp_src_port =
        0xC000 | (Toeplitz::default().hash_tuple(&flow.tuple) & 0x3FFF) as u16;
    // Fit the wire length to the flow's mean packet size.
    let overhead = packet.wire_len() - packet.inner.payload_len;
    packet.inner.payload_len = flow.wire_bytes.saturating_sub(overhead);
    packet
}

/// Emits one frame per flow. Flows whose address families cannot be
/// emitted (mixed-family tuples never leave the generator, so this is a
/// defensive filter) are skipped.
pub fn frames_for_flows(flows: &[Flow]) -> Vec<Vec<u8>> {
    flows
        .iter()
        .filter_map(|f| packet_for_flow(f).emit().ok())
        .collect()
}

/// A deterministic pps-weighted schedule of `count` packet slots over the
/// flow set: slot `i` carries a packet of flow `schedule[i]`.
pub fn schedule(flows: &[Flow], count: usize, seed: u64) -> Vec<usize> {
    assert!(!flows.is_empty(), "need at least one flow");
    let mut cumulative = Vec::with_capacity(flows.len());
    let mut total = 0.0f64;
    for f in flows {
        total += f.pps.max(0.0);
        cumulative.push(total);
    }
    assert!(total > 0.0, "workload offers no packets");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x: f64 = rng.gen::<f64>() * total;
            cumulative.partition_point(|c| *c < x).min(flows.len() - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::{Topology, TopologyConfig, WorkloadConfig};

    fn flows() -> Vec<Flow> {
        let topology = Topology::generate(TopologyConfig::default());
        sailfish_sim::workload::generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 500,
                ..WorkloadConfig::default()
            },
        )
    }

    #[test]
    fn frames_parse_back_to_their_flow() {
        let flows = flows();
        let frames = frames_for_flows(&flows);
        assert_eq!(frames.len(), flows.len());
        for (flow, frame) in flows.iter().zip(&frames) {
            let p = GatewayPacket::parse(frame).unwrap();
            assert_eq!(p.vni, flow.vni);
            assert_eq!(p.five_tuple(), flow.tuple);
            // Frame length tracks the flow's mean packet size (never
            // smaller than the encapsulation floor).
            assert!(frame.len() >= flow.wire_bytes.min(frame.len()));
        }
    }

    #[test]
    fn packet_for_flow_carries_the_flows_vni_and_tuple() {
        for flow in &flows() {
            let packet = packet_for_flow(flow);
            assert_eq!((packet.vni, packet.five_tuple()), (flow.vni, flow.tuple));
        }
    }

    #[test]
    fn entropy_port_varies_by_flow() {
        let flows = flows();
        let mut ports = std::collections::HashSet::new();
        for f in flows.iter().take(100) {
            let p = packet_for_flow(f);
            assert!(p.outer.udp_src_port >= 0xC000);
            ports.insert(p.outer.udp_src_port);
        }
        assert!(ports.len() > 20, "only {} distinct ports", ports.len());
    }

    #[test]
    fn schedule_is_deterministic_and_weighted() {
        let flows = flows();
        let a = schedule(&flows, 20_000, 11);
        let b = schedule(&flows, 20_000, 11);
        assert_eq!(a, b);
        // The heaviest flow must out-appear the median flow.
        let heaviest = flows
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.pps.partial_cmp(&y.pps).unwrap())
            .unwrap()
            .0;
        let hits = a.iter().filter(|i| **i == heaviest).count();
        assert!(hits > 20_000 / flows.len(), "heavy flow got {hits} slots");
    }
}
