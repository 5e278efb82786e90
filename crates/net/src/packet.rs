//! The owned packet model forwarded by the gateway simulators.
//!
//! A [`GatewayPacket`] is the parsed form of a VXLAN-encapsulated packet as
//! it arrives at the cloud gateway (Fig 2): outer Ethernet/IP/UDP headers,
//! the VXLAN header carrying the VNI, and the inner Ethernet/IP/transport
//! headers of the tenant packet. The simulators forward this compact
//! representation on the fast path; [`GatewayPacket::emit`] writes real
//! wire bytes through the [`crate::wire`] views, and
//! [`GatewayPacket::parse`] reads them back: it validates through
//! [`crate::view::FrameView`], the crate's one frame validator, then reads
//! the remaining owned fields at the offsets the view validated. Tests
//! assert the round trip is lossless.

use core::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::{Error, FrameError, Result};
use crate::flow::{FiveTuple, IpProtocol};
use crate::mac::MacAddr;
use crate::view::FrameView;
use crate::vni::Vni;
use crate::wire::ethernet::{self, EtherType};
use crate::wire::{ipv4, ipv6, tcp, udp, vxlan};

/// Outer (underlay) headers of a VXLAN-encapsulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterHeaders {
    /// Underlay source MAC.
    pub src_mac: MacAddr,
    /// Underlay destination MAC (next hop).
    pub dst_mac: MacAddr,
    /// Underlay source IP (vSwitch or gateway address).
    pub src_ip: IpAddr,
    /// Underlay destination IP (gateway, then rewritten to the NC).
    pub dst_ip: IpAddr,
    /// Outer UDP source port; carries flow entropy for underlay ECMP.
    pub udp_src_port: u16,
}

/// Inner (tenant) headers of a VXLAN-encapsulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InnerHeaders {
    /// Tenant-side source MAC.
    pub src_mac: MacAddr,
    /// Tenant-side destination MAC.
    pub dst_mac: MacAddr,
    /// Inner source IP (the sending VM).
    pub src_ip: IpAddr,
    /// Inner destination IP (the destination VM); the lookup key of both
    /// major tables.
    pub dst_ip: IpAddr,
    /// Inner transport protocol.
    pub protocol: IpProtocol,
    /// Inner source port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Inner destination port (0 when the protocol has no ports).
    pub dst_port: u16,
    /// Length of the application payload in bytes (content is synthetic).
    pub payload_len: usize,
}

impl InnerHeaders {
    /// The tenant flow 5-tuple, used for RSS hashing and SNAT.
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple::new(
            self.src_ip,
            self.dst_ip,
            self.protocol,
            self.src_port,
            self.dst_port,
        )
    }
}

/// A parsed VXLAN-encapsulated packet, the unit of forwarding in Sailfish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayPacket {
    /// Underlay headers.
    pub outer: OuterHeaders,
    /// The VXLAN network identifier (VPC id).
    pub vni: Vni,
    /// Tenant headers.
    pub inner: InnerHeaders,
}

impl GatewayPacket {
    /// Length of the inner transport header that `emit` produces.
    fn inner_l4_len(&self) -> usize {
        match self.inner.protocol {
            IpProtocol::Udp => udp::HEADER_LEN,
            IpProtocol::Tcp => tcp::HEADER_LEN,
            _ => 0,
        }
    }

    fn ip_header_len(addr: IpAddr) -> usize {
        match addr {
            IpAddr::V4(_) => ipv4::HEADER_LEN,
            IpAddr::V6(_) => ipv6::HEADER_LEN,
        }
    }

    /// The total on-the-wire length of the emitted packet in bytes.
    pub fn wire_len(&self) -> usize {
        ethernet::HEADER_LEN
            + Self::ip_header_len(self.outer.src_ip)
            + udp::HEADER_LEN
            + vxlan::HEADER_LEN
            + self.inner_wire_len()
    }

    /// The wire length of the inner (decapsulated) frame.
    pub fn inner_wire_len(&self) -> usize {
        ethernet::HEADER_LEN
            + Self::ip_header_len(self.inner.src_ip)
            + self.inner_l4_len()
            + self.inner.payload_len
    }

    /// The tenant flow 5-tuple.
    pub fn five_tuple(&self) -> FiveTuple {
        self.inner.five_tuple()
    }

    /// Serializes the packet to wire bytes. Fails when the inner headers
    /// mix address families or the outer families mismatch.
    // Bounds proven: the buffer is allocated at exactly `wire_len()` and
    // every layer offset below is a component of that sum.
    #[allow(clippy::indexing_slicing)]
    pub fn emit(&self) -> Result<Vec<u8>> {
        let inner = AddrPair::of(self.inner.src_ip, self.inner.dst_ip)?;
        let outer = AddrPair::of(self.outer.src_ip, self.outer.dst_ip)?;

        let total = self.wire_len();
        let mut buf = vec![0u8; total];

        // Outer Ethernet.
        {
            let mut eth = ethernet::Frame::new_unchecked(&mut buf[..]);
            eth.set_src_mac(self.outer.src_mac);
            eth.set_dst_mac(self.outer.dst_mac);
            eth.set_ethertype(outer.ethertype());
        }

        // Outer IP.
        let outer_ip_start = ethernet::HEADER_LEN;
        let outer_udp_len = udp::HEADER_LEN + vxlan::HEADER_LEN + self.inner_wire_len();
        let outer_udp_start;
        match outer {
            AddrPair::V4(src, dst) => {
                outer_udp_start = outer_ip_start + ipv4::HEADER_LEN;
                let mut ip = ipv4::Packet::new_unchecked(&mut buf[outer_ip_start..]);
                ip.set_version_and_header_len();
                ip.set_total_len((ipv4::HEADER_LEN + outer_udp_len) as u16);
                ip.set_dont_fragment();
                ip.set_ttl(64);
                ip.set_protocol(IpProtocol::Udp);
                ip.set_src_addr(src);
                ip.set_dst_addr(dst);
                ip.fill_checksum();
            }
            AddrPair::V6(src, dst) => {
                outer_udp_start = outer_ip_start + ipv6::HEADER_LEN;
                let mut ip = ipv6::Packet::new_unchecked(&mut buf[outer_ip_start..]);
                ip.set_version();
                ip.set_payload_len(outer_udp_len as u16);
                ip.set_next_header(IpProtocol::Udp);
                ip.set_hop_limit(64);
                ip.set_src_addr(src);
                ip.set_dst_addr(dst);
            }
        }

        // Outer UDP (checksum left zero, as VXLAN senders commonly do over
        // IPv4; the v6 checksum is filled at the end once payload is known).
        {
            let mut u = udp::Datagram::new_unchecked(&mut buf[outer_udp_start..]);
            u.set_src_port(self.outer.udp_src_port);
            u.set_dst_port(vxlan::VXLAN_UDP_PORT);
            u.set_len(outer_udp_len as u16);
        }

        // VXLAN header.
        let vxlan_start = outer_udp_start + udp::HEADER_LEN;
        {
            let mut v = vxlan::Header::new_unchecked(&mut buf[vxlan_start..]);
            v.init();
            v.set_vni(self.vni);
        }

        // Inner Ethernet.
        let inner_eth_start = vxlan_start + vxlan::HEADER_LEN;
        {
            let mut eth = ethernet::Frame::new_unchecked(&mut buf[inner_eth_start..]);
            eth.set_src_mac(self.inner.src_mac);
            eth.set_dst_mac(self.inner.dst_mac);
            eth.set_ethertype(inner.ethertype());
        }

        // Inner IP.
        let inner_ip_start = inner_eth_start + ethernet::HEADER_LEN;
        let inner_l4_total = self.inner_l4_len() + self.inner.payload_len;
        let inner_l4_start;
        match inner {
            AddrPair::V4(src, dst) => {
                inner_l4_start = inner_ip_start + ipv4::HEADER_LEN;
                let mut ip = ipv4::Packet::new_unchecked(&mut buf[inner_ip_start..]);
                ip.set_version_and_header_len();
                ip.set_total_len((ipv4::HEADER_LEN + inner_l4_total) as u16);
                ip.set_dont_fragment();
                ip.set_ttl(64);
                ip.set_protocol(self.inner.protocol);
                ip.set_src_addr(src);
                ip.set_dst_addr(dst);
                ip.fill_checksum();
            }
            AddrPair::V6(src, dst) => {
                inner_l4_start = inner_ip_start + ipv6::HEADER_LEN;
                let mut ip = ipv6::Packet::new_unchecked(&mut buf[inner_ip_start..]);
                ip.set_version();
                ip.set_payload_len(inner_l4_total as u16);
                ip.set_next_header(self.inner.protocol);
                ip.set_hop_limit(64);
                ip.set_src_addr(src);
                ip.set_dst_addr(dst);
            }
        }

        // Inner transport header: ports occupy the first four bytes in both
        // UDP and TCP, which is all the gateway ever reads.
        match self.inner.protocol {
            IpProtocol::Udp => {
                let mut u = udp::Datagram::new_unchecked(&mut buf[inner_l4_start..]);
                u.set_src_port(self.inner.src_port);
                u.set_dst_port(self.inner.dst_port);
                u.set_len((udp::HEADER_LEN + self.inner.payload_len) as u16);
            }
            IpProtocol::Tcp => {
                let mut t = tcp::Segment::new_unchecked(&mut buf[inner_l4_start..]);
                t.set_src_port(self.inner.src_port);
                t.set_dst_port(self.inner.dst_port);
                t.set_basic_header_len();
                t.set_flags(tcp::Flags::ACK);
            }
            _ => {}
        }

        // Fill the mandatory outer UDP checksum for IPv6 underlays.
        if let AddrPair::V6(src, dst) = outer {
            let mut u = udp::Datagram::new_unchecked(&mut buf[outer_udp_start..]);
            u.fill_checksum_v6(src, dst);
        }

        Ok(buf)
    }

    /// Parses wire bytes into a `GatewayPacket`.
    ///
    /// Returns `Error::Unsupported` when the packet is not VXLAN-in-UDP
    /// (the gateway punts such traffic), and `Error::Truncated`/`Malformed`
    /// on inconsistent buffers. This is [`GatewayPacket::parse_classified`]
    /// with the layer information erased.
    pub fn parse(data: &[u8]) -> Result<GatewayPacket> {
        Self::parse_classified(data).map_err(Error::from)
    }

    /// Parses wire bytes into a `GatewayPacket`, reporting the layer that
    /// rejected a hostile frame.
    ///
    /// Validation is [`FrameView::parse`]'s — the owned packet accepts and
    /// rejects exactly the frames the batch hot path does. The fields the
    /// view does not carry (MACs, outer addresses, the inner payload
    /// length) are then read at the offsets it validated.
    pub fn parse_classified(data: &[u8]) -> core::result::Result<GatewayPacket, FrameError> {
        let view = FrameView::parse(data)?;
        // The outer addresses: source then destination, from byte 8 of an
        // IPv6 header or byte 12 of an IPv4 one.
        let (src_ip, dst_ip) = if view.outer_v6 {
            (read::<16>(data, 22).into(), read::<16>(data, 38).into())
        } else {
            (read::<4>(data, 26).into(), read::<4>(data, 30).into())
        };
        let inner_eth = usize::from(view.inner_eth);
        let tuple = view.five_tuple();
        Ok(GatewayPacket {
            outer: OuterHeaders {
                src_mac: MacAddr(read(data, 6)),
                dst_mac: MacAddr(read(data, 0)),
                src_ip,
                dst_ip,
                udp_src_port: view.outer_udp_src,
            },
            vni: view.vni,
            inner: InnerHeaders {
                src_mac: MacAddr(read(data, inner_eth + 6)),
                dst_mac: MacAddr(read(data, inner_eth)),
                src_ip: tuple.src_ip,
                dst_ip: tuple.dst_ip,
                protocol: tuple.protocol,
                src_port: tuple.src_port,
                dst_port: tuple.dst_port,
                payload_len: payload_len(data, &view),
            },
        })
    }
}

/// An IP header's source and destination addresses, of one family.
#[derive(Clone, Copy)]
pub(crate) enum AddrPair {
    V4(Ipv4Addr, Ipv4Addr),
    V6(Ipv6Addr, Ipv6Addr),
}

impl AddrPair {
    /// Pairs `src` with `dst`; mixed families have no wire form.
    fn of(src: IpAddr, dst: IpAddr) -> Result<AddrPair> {
        match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => Ok(AddrPair::V4(s, d)),
            (IpAddr::V6(s), IpAddr::V6(d)) => Ok(AddrPair::V6(s, d)),
            _ => Err(Error::Malformed),
        }
    }

    /// The Ethernet type of a header carrying these addresses.
    fn ethertype(self) -> EtherType {
        match self {
            AddrPair::V4(..) => EtherType::Ipv4,
            AddrPair::V6(..) => EtherType::Ipv6,
        }
    }
}

/// The `N` bytes at `at`. Callers read only inside layers
/// [`FrameView::parse`] validated, so the zero fallback is never taken.
fn read<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    data.get(at..at + N)
        .and_then(|b| b.try_into().ok())
        .unwrap_or([0; N])
}

/// The inner application payload length: the UDP length field less its
/// header, the TCP segment less its data offset, or the whole transport
/// segment for portless protocols.
fn payload_len(data: &[u8], view: &FrameView) -> usize {
    let (l4, l4_len) = (usize::from(view.inner_l4), usize::from(view.inner_l4_len));
    match IpProtocol::from(view.protocol) {
        IpProtocol::Udp => {
            usize::from(u16::from_be_bytes(read(data, l4 + 4))).saturating_sub(udp::HEADER_LEN)
        }
        IpProtocol::Tcp => {
            let [offset] = read(data, l4 + 12);
            l4_len.saturating_sub(usize::from(offset >> 4) * 4)
        }
        _ => l4_len,
    }
}

/// Convenience builder for gateway packets in tests, examples and workload
/// generators.
#[derive(Debug, Clone)]
pub struct GatewayPacketBuilder {
    packet: GatewayPacket,
}

impl GatewayPacketBuilder {
    /// Starts from a VNI and inner src/dst VM addresses; everything else
    /// takes workable defaults (UDP 10000→20000, 64-byte payload, underlay
    /// 10.255.0.0/16 addresses).
    pub fn new(vni: Vni, inner_src: IpAddr, inner_dst: IpAddr) -> Self {
        GatewayPacketBuilder {
            packet: GatewayPacket {
                outer: OuterHeaders {
                    src_mac: MacAddr::from_id(0xa),
                    dst_mac: MacAddr::from_id(0xb),
                    src_ip: Ipv4Addr::new(10, 255, 0, 1).into(),
                    dst_ip: Ipv4Addr::new(10, 255, 0, 2).into(),
                    udp_src_port: 49152,
                },
                vni,
                inner: InnerHeaders {
                    src_mac: MacAddr::from_id(0x1),
                    dst_mac: MacAddr::from_id(0x2),
                    src_ip: inner_src,
                    dst_ip: inner_dst,
                    protocol: IpProtocol::Udp,
                    src_port: 10000,
                    dst_port: 20000,
                    payload_len: 64,
                },
            },
        }
    }

    /// Sets the outer underlay addresses.
    pub fn outer_ips(mut self, src: IpAddr, dst: IpAddr) -> Self {
        self.packet.outer.src_ip = src;
        self.packet.outer.dst_ip = dst;
        self
    }

    /// Sets the inner transport protocol and ports. Ports are zeroed for
    /// portless protocols — they have no wire representation there.
    pub fn transport(mut self, protocol: IpProtocol, src_port: u16, dst_port: u16) -> Self {
        self.packet.inner.protocol = protocol;
        let has_ports = matches!(protocol, IpProtocol::Tcp | IpProtocol::Udp);
        self.packet.inner.src_port = if has_ports { src_port } else { 0 };
        self.packet.inner.dst_port = if has_ports { dst_port } else { 0 };
        self
    }

    /// Sets the application payload length.
    pub fn payload_len(mut self, len: usize) -> Self {
        self.packet.inner.payload_len = len;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> GatewayPacket {
        self.packet
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn sample(vni: u32, v6: bool) -> GatewayPacket {
        if v6 {
            GatewayPacketBuilder::new(
                Vni::from_const(vni),
                "2001:db8:a::1".parse().unwrap(),
                "2001:db8:b::2".parse().unwrap(),
            )
            .build()
        } else {
            GatewayPacketBuilder::new(
                Vni::from_const(vni),
                "192.168.10.2".parse().unwrap(),
                "192.168.30.5".parse().unwrap(),
            )
            .build()
        }
    }

    #[test]
    fn emit_parse_round_trip_v4() {
        let p = sample(100, false);
        let bytes = p.emit().unwrap();
        assert_eq!(bytes.len(), p.wire_len());
        let q = GatewayPacket::parse(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn emit_parse_round_trip_v6_inner() {
        let p = sample(7, true);
        let q = GatewayPacket::parse(&p.emit().unwrap()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn emit_parse_round_trip_v6_outer() {
        let mut p = sample(7, false);
        p.outer.src_ip = "fd00::1".parse().unwrap();
        p.outer.dst_ip = "fd00::2".parse().unwrap();
        let q = GatewayPacket::parse(&p.emit().unwrap()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn emit_parse_round_trip_tcp_inner() {
        let p = GatewayPacketBuilder::new(
            Vni::from_const(9),
            "192.168.1.1".parse().unwrap(),
            "192.168.1.2".parse().unwrap(),
        )
        .transport(IpProtocol::Tcp, 55555, 443)
        .payload_len(256)
        .build();
        let q = GatewayPacket::parse(&p.emit().unwrap()).unwrap();
        assert_eq!(p, q);
    }

    /// `parse_classified(emit(p)) == p` over every emittable shape —
    /// {v4, v6} outer × {v4, v6} inner × {UDP, TCP, ICMP} × payload
    /// lengths — with seeded addresses, MACs, ports and VNIs.
    #[test]
    fn emit_parse_round_trip_every_shape() {
        use sailfish_util::rand::rngs::StdRng;
        use sailfish_util::rand::{Rng, SeedableRng};

        fn addr(rng: &mut StdRng, v6: bool) -> IpAddr {
            if v6 {
                Ipv6Addr::from(rng.gen::<u128>()).into()
            } else {
                Ipv4Addr::from(rng.gen::<u32>()).into()
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut shapes = 0;
        for outer_v6 in [false, true] {
            for inner_v6 in [false, true] {
                for protocol in [IpProtocol::Udp, IpProtocol::Tcp, IpProtocol::Icmp] {
                    for payload_len in [0usize, 1, 17, 64, 1400, 9000] {
                        let vni = Vni::new(rng.gen_range(0..=Vni::MAX)).unwrap();
                        let (src, dst) = (addr(&mut rng, inner_v6), addr(&mut rng, inner_v6));
                        let mut p = GatewayPacketBuilder::new(vni, src, dst)
                            .outer_ips(addr(&mut rng, outer_v6), addr(&mut rng, outer_v6))
                            .transport(protocol, rng.gen(), rng.gen())
                            .payload_len(payload_len)
                            .build();
                        p.outer.udp_src_port = rng.gen();
                        p.outer.src_mac = MacAddr::from_id(rng.gen());
                        p.outer.dst_mac = MacAddr::from_id(rng.gen());
                        p.inner.src_mac = MacAddr::from_id(rng.gen());
                        p.inner.dst_mac = MacAddr::from_id(rng.gen());
                        let bytes = p.emit().unwrap();
                        assert_eq!(bytes.len(), p.wire_len());
                        assert_eq!(GatewayPacket::parse_classified(&bytes), Ok(p), "{p:?}");
                        shapes += 1;
                    }
                }
            }
        }
        assert_eq!(shapes, 2 * 2 * 3 * 6);
    }

    #[test]
    fn emit_rejects_mixed_families() {
        let mut p = sample(1, false);
        p.inner.dst_ip = "2001:db8::1".parse().unwrap();
        assert_eq!(p.emit().unwrap_err(), Error::Malformed);
        let mut p = sample(1, false);
        p.outer.dst_ip = "2001:db8::1".parse().unwrap();
        assert_eq!(p.emit().unwrap_err(), Error::Malformed);
    }

    #[test]
    fn parse_rejects_non_vxlan() {
        let p = sample(1, false);
        let mut bytes = p.emit().unwrap();
        // Change the outer UDP destination port away from 4789: offsets are
        // eth(14) + ipv4(20) + 2.
        bytes[14 + 20 + 2..14 + 20 + 4].copy_from_slice(&53u16.to_be_bytes());
        assert_eq!(
            GatewayPacket::parse(&bytes).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn parse_rejects_truncation_at_every_boundary() {
        let p = sample(3, false);
        let bytes = p.emit().unwrap();
        for cut in [4usize, 20, 40, 50, 60, bytes.len() - 1] {
            assert!(
                GatewayPacket::parse(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn five_tuple_matches_inner() {
        let p = sample(1, false);
        let t = p.five_tuple();
        assert_eq!(t.src_ip, p.inner.src_ip);
        assert_eq!(t.dst_port, p.inner.dst_port);
    }

    #[test]
    fn wire_len_small_packet_matches_paper_scale() {
        // A 64-byte-payload IPv4 packet encapsulated in VXLAN should be in
        // the paper's "< 256B" small-packet regime.
        let p = sample(1, false);
        assert!(p.wire_len() < 256, "wire len {}", p.wire_len());
    }
}
