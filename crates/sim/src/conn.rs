//! Seeded connection-level workloads for the stateful SNAT tier.
//!
//! The flow workloads in [`crate::workload`] describe steady-state rate
//! vectors; the SNAT/conntrack tier (crate `sailfish-snat`) needs the
//! *lifecycle* view instead: connections opening, exchanging packets in
//! both directions, closing or idling out, under the same 80/20 heavy-
//! tail the paper measures ("the traffic exactly follows the 80/20
//! rule", §4.2). This module generates deterministic event traces:
//!
//! - [`generate_connection_events`] — a seeded population of TCP/UDP
//!   connections with Zipf-distributed packet counts, two-way payload
//!   exchange, optional asymmetric return paths (download-heavy
//!   connections whose inbound leg dominates), and explicit FIN closes;
//! - [`connection_storm`] — a festival-open burst of NEW connections
//!   against one tenant, the workload side of
//!   [`crate::faults::FaultKind::ConnectionStorm`], shared by the chaos
//!   harness and the `snat` experiment so storm generation is not
//!   re-implemented ad hoc.
//!
//! Events name connections by their forward (private-side) 5-tuple; the
//! replay harness resolves inbound events to the public binding through
//! the tracker under test, so a trace replays identically against the
//! hybrid tier and the naive reference.

use core::net::{IpAddr, Ipv4Addr};

use sailfish_net::{FiveTuple, IpProtocol, Vni};
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

use crate::zipf::zipf_weights;

/// Coarse transport signal carried by one connection event — all the
/// conntrack state machine looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnSignal {
    /// TCP SYN (connection open).
    Syn,
    /// A payload-bearing segment/datagram.
    Payload,
    /// TCP FIN (half-close).
    Fin,
}

/// Which way the packet crosses the NAT boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnDirection {
    /// Private → Internet (translated on the way out).
    Outbound,
    /// Internet → public binding (matched back to the private side).
    Inbound,
}

/// One packet-level event in a connection trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnEvent {
    /// Virtual timestamp.
    pub at_ns: u64,
    /// Stable connection index within the trace.
    pub conn: u32,
    /// Owning tenant (VNI).
    pub tenant: Vni,
    /// Forward (private-side) 5-tuple of the connection.
    pub tuple: FiveTuple,
    /// Crossing direction.
    pub direction: ConnDirection,
    /// Transport signal.
    pub signal: ConnSignal,
}

/// Parameters for [`generate_connection_events`].
#[derive(Debug, Clone, Copy)]
pub struct ConnWorkloadConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Connections in the trace.
    pub connections: usize,
    /// Distinct tenants (VNIs) sharing the pool.
    pub tenants: usize,
    /// First tenant VNI; tenants are `base_vni..base_vni + tenants`.
    pub base_vni: u32,
    /// Zipf exponent for per-connection packet counts (≈0.8 gives the
    /// paper's 80/20 shape).
    pub zipf_exponent: f64,
    /// Packet budget of the heaviest connection.
    pub max_packets: u32,
    /// Share of UDP connections (idle-aged, no FIN).
    pub udp_share: f64,
    /// Share of connections whose return path dominates (inbound payload
    /// events outnumber outbound ones ~4:1 — downloads).
    pub asymmetric_share: f64,
    /// Share of TCP connections that close with FINs (the rest idle out).
    pub close_share: f64,
    /// Virtual span the trace covers.
    pub duration_ns: u64,
}

impl Default for ConnWorkloadConfig {
    fn default() -> Self {
        ConnWorkloadConfig {
            seed: 11,
            connections: 2_000,
            tenants: 8,
            base_vni: 1_000,
            zipf_exponent: 0.8,
            max_packets: 64,
            udp_share: 0.3,
            asymmetric_share: 0.25,
            close_share: 0.7,
            duration_ns: 1_000_000_000,
        }
    }
}

/// The private source address of connection `conn` under tenant index
/// `tenant_idx`: unique per connection, stable across runs.
fn private_src(tenant_idx: usize, conn: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(
        10,
        (tenant_idx as u8) & 0x3f,
        ((conn >> 8) & 0xff) as u8,
        (conn & 0xff) as u8,
    ))
}

/// Generates a deterministic connection-event trace, sorted by
/// `(at_ns, conn, sequence)`. The same config always yields the same
/// trace, byte for byte.
pub fn generate_connection_events(config: &ConnWorkloadConfig) -> Vec<ConnEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.connections.max(1);
    let weights = zipf_weights(n, config.zipf_exponent);
    // Detach Zipf rank from connection index so heavy connections are
    // scattered through the trace, not front-loaded.
    let mut ranks: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ranks);
    let top = weights
        .first()
        .copied()
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);

    let mut keyed: Vec<(u64, u32, u32, ConnEvent)> = Vec::new();
    for i in 0..n {
        let conn = i as u32;
        let tenant_idx = rng.gen_range(0..config.tenants.max(1));
        let tenant = Vni::from_const(config.base_vni + tenant_idx as u32);
        let udp = rng.gen_bool(config.udp_share.clamp(0.0, 1.0));
        let protocol = if udp {
            IpProtocol::Udp
        } else {
            IpProtocol::Tcp
        };
        let tuple = FiveTuple::new(
            private_src(tenant_idx, conn),
            IpAddr::V4(Ipv4Addr::new(
                93,
                rng.gen_range(1..255),
                rng.gen_range(1..255),
                rng.gen_range(1..255),
            )),
            protocol,
            rng.gen_range(1024..=u16::MAX),
            *rng.choose(&[80u16, 443, 53, 123]).unwrap_or(&443),
        );
        let rank = ranks.get(i).copied().unwrap_or(i);
        let weight = weights.get(rank).copied().unwrap_or(0.0);
        let packets = ((f64::from(config.max_packets) * weight / top).round() as u32).max(1);
        let asymmetric = rng.gen_bool(config.asymmetric_share.clamp(0.0, 1.0));
        let closes = !udp && rng.gen_bool(config.close_share.clamp(0.0, 1.0));

        let start = rng.gen_range(0..config.duration_ns.max(1) * 4 / 5);
        let gap = (config.duration_ns.max(1) / 5) / u64::from(packets + 2).max(1);
        let mut at = start;
        let mut seq = 0u32;
        let mut push = |at: u64, dir: ConnDirection, signal: ConnSignal, seq: &mut u32| {
            keyed.push((
                at,
                conn,
                *seq,
                ConnEvent {
                    at_ns: at,
                    conn,
                    tenant,
                    tuple,
                    direction: dir,
                    signal,
                },
            ));
            *seq += 1;
        };

        if !udp {
            push(at, ConnDirection::Outbound, ConnSignal::Syn, &mut seq);
            at += gap.max(1);
        }
        for p in 0..packets {
            // Asymmetric (download-heavy) connections answer each request
            // with a burst of inbound segments; symmetric ones alternate.
            let inbound = if asymmetric { p % 5 != 0 } else { p % 2 == 1 };
            let dir = if inbound {
                ConnDirection::Inbound
            } else {
                ConnDirection::Outbound
            };
            push(at, dir, ConnSignal::Payload, &mut seq);
            at += gap.max(1);
        }
        if closes {
            push(at, ConnDirection::Outbound, ConnSignal::Fin, &mut seq);
            at += gap.max(1);
            push(at, ConnDirection::Inbound, ConnSignal::Fin, &mut seq);
        }
    }
    keyed.sort_by_key(|(at, conn, seq, _)| (*at, *conn, *seq));
    keyed.into_iter().map(|(_, _, _, e)| e).collect()
}

/// A festival-open connection storm: `connections` NEW TCP opens against
/// a single `tenant`, packed into `spread_ns` starting at `start_ns`.
/// Every open is a fresh 5-tuple, so each one demands a port allocation —
/// the adversarial input for port-block exhaustion. Shared by the chaos
/// harness (via [`crate::faults::FaultKind::ConnectionStorm`]) and the
/// `snat` experiment.
pub fn connection_storm(
    seed: u64,
    tenant: Vni,
    connections: usize,
    start_ns: u64,
    spread_ns: u64,
) -> Vec<ConnEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = connections.max(1);
    let mut keyed: Vec<(u64, u32, u32, ConnEvent)> = Vec::with_capacity(n);
    for i in 0..n {
        let conn = i as u32;
        let tuple = FiveTuple::new(
            IpAddr::V4(Ipv4Addr::new(
                10,
                200,
                ((conn >> 8) & 0xff) as u8,
                (conn & 0xff) as u8,
            )),
            IpAddr::V4(Ipv4Addr::new(
                93,
                rng.gen_range(1..255),
                rng.gen_range(1..255),
                rng.gen_range(1..255),
            )),
            IpProtocol::Tcp,
            1024 + (conn % 60_000) as u16,
            443,
        );
        let at = start_ns + rng.gen_range(0..spread_ns.max(1));
        keyed.push((
            at,
            conn,
            0,
            ConnEvent {
                at_ns: at,
                conn,
                tenant,
                tuple,
                direction: ConnDirection::Outbound,
                signal: ConnSignal::Syn,
            },
        ));
    }
    keyed.sort_by_key(|(at, conn, seq, _)| (*at, *conn, *seq));
    keyed.into_iter().map(|(_, _, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic() {
        let config = ConnWorkloadConfig::default();
        let a = generate_connection_events(&config);
        let b = generate_connection_events(&config);
        assert_eq!(a, b);
        let c = generate_connection_events(&ConnWorkloadConfig { seed: 12, ..config });
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_ordered_and_tuples_unique_per_conn() {
        let events = generate_connection_events(&ConnWorkloadConfig {
            connections: 500,
            ..ConnWorkloadConfig::default()
        });
        for w in events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        let mut by_conn: std::collections::BTreeMap<u32, (Vni, FiveTuple)> =
            std::collections::BTreeMap::new();
        let mut tuples: BTreeSet<(u32, FiveTuple)> = BTreeSet::new();
        for e in &events {
            let entry = by_conn.entry(e.conn).or_insert((e.tenant, e.tuple));
            assert_eq!(*entry, (e.tenant, e.tuple), "conn changed identity");
            tuples.insert((e.tenant.value(), e.tuple));
        }
        // Distinct connections never share a (tenant, tuple) key.
        assert_eq!(tuples.len(), by_conn.len());
    }

    #[test]
    fn tcp_connections_open_with_syn_before_payload() {
        let events = generate_connection_events(&ConnWorkloadConfig {
            connections: 300,
            udp_share: 0.0,
            ..ConnWorkloadConfig::default()
        });
        let mut opened: BTreeSet<u32> = BTreeSet::new();
        for e in &events {
            match e.signal {
                ConnSignal::Syn => {
                    assert_eq!(e.direction, ConnDirection::Outbound);
                    opened.insert(e.conn);
                }
                _ => assert!(opened.contains(&e.conn), "payload before SYN: {e:?}"),
            }
        }
    }

    #[test]
    fn heavy_tail_produces_spread_of_packet_counts() {
        let events = generate_connection_events(&ConnWorkloadConfig {
            connections: 1_000,
            ..ConnWorkloadConfig::default()
        });
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for e in &events {
            *counts.entry(e.conn).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let min = counts.values().min().copied().unwrap_or(0);
        assert!(max >= 16 * min.max(1), "no heavy tail: max {max} min {min}");
    }

    #[test]
    fn storm_is_all_new_opens_against_one_tenant() {
        let tenant = Vni::from_const(2_000);
        let storm = connection_storm(5, tenant, 400, 1_000, 10_000);
        assert_eq!(storm.len(), 400);
        let mut tuples = BTreeSet::new();
        for e in &storm {
            assert_eq!(e.tenant, tenant);
            assert_eq!(e.signal, ConnSignal::Syn);
            assert_eq!(e.direction, ConnDirection::Outbound);
            assert!((1_000..11_000).contains(&e.at_ns));
            tuples.insert(e.tuple);
        }
        assert_eq!(tuples.len(), 400, "storm opens must be distinct flows");
        assert_eq!(storm, connection_storm(5, tenant, 400, 1_000, 10_000));
    }
}
