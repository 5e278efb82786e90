//! Borrowed frame views: the gateway's one frame validator.
//!
//! [`FrameView::parse`] validates a VXLAN-in-UDP frame and extracts the
//! handful of fields the batch pipeline needs — layer offsets, the VNI,
//! and the inner 5-tuple material — without building the owned packet
//! model. The view borrows nothing and allocates nothing: it is a `Copy`
//! bundle of offsets and integers, so a batch of frames can be validated
//! into a preallocated lane with zero per-packet allocation.
//!
//! No other code validates a frame. The owned
//! [`crate::packet::GatewayPacket::parse_classified`] is this parse
//! followed by a read of the remaining fields at the offsets the view
//! validated, and the dataplane's header rewrite is keyed by the same
//! offsets — so the batch hot path, punt resolution, the differential
//! oracle and the software forwarder accept and reject exactly the same
//! frames, with the same typed [`FrameError`].
//!
//! Two paths sit behind `parse`, picked by the frame's shape:
//! [`FrameView::parse_fast`] takes the canonical v4-in-v4 frame every
//! conformant vSwitch emits, and the layered [`FrameView::parse_full`]
//! takes everything else (v6 underlay or overlay, IP options, nonzero
//! outer UDP checksums, hostile frames) and types every reject. A
//! property test (`net/tests/view_parity.rs`) pins that the fast path
//! accepts only frames the layered validator accepts, with an identical
//! view, across truncations and structure-aware mutants.

use core::net::IpAddr;

use crate::error::{Error, FrameError, FrameLayer};
use crate::flow::{FiveTuple, IpProtocol};
use crate::packet::AddrPair;
use crate::vni::Vni;
use crate::wire::ethernet::{self, EtherType};
use crate::wire::{ipv4, ipv6, tcp, udp, vxlan};

/// The exact-match flow identity used by the batch flow cache.
///
/// Injective with respect to `(Vni, FiveTuple)`: two frames produce the
/// same `FlowKey` iff their owned packets have the same
/// `(vni, five_tuple)`. IPv4 addresses are zero-extended into
/// the `u128` lanes and disambiguated from real IPv6 addresses by the
/// family bit packed into `meta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Inner source address bytes (v4 zero-extended).
    pub src: u128,
    /// Inner destination address bytes (v4 zero-extended).
    pub dst: u128,
    /// `src_port << 32 | dst_port << 16 | protocol << 8 | inner_v6`.
    pub meta: u64,
    /// The 24-bit VNI value.
    pub vni: u32,
}

impl FlowKey {
    /// Builds the key from a flow's owned `(vni, five_tuple)` identity.
    pub fn from_tuple(vni: Vni, tuple: &FiveTuple) -> FlowKey {
        let (src, dst, v6) = match (tuple.src_ip, tuple.dst_ip) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                (u128::from(u32::from(s)), u128::from(u32::from(d)), 0u64)
            }
            (s, d) => (addr_bits(s), addr_bits(d), 1u64),
        };
        FlowKey {
            src,
            dst,
            meta: u64::from(tuple.src_port) << 32
                | u64::from(tuple.dst_port) << 16
                | u64::from(tuple.protocol.number()) << 8
                | v6,
            vni: vni.value(),
        }
    }

    /// A fast 64-bit mix of the key for open-addressing indexes. Not
    /// Toeplitz — a cache index needs all 64 bits mixed, not RSS
    /// placement; determinism, not compatibility, is the requirement.
    /// [`crate::hash::MixState`] is the same recipe behind `BuildHasher`.
    #[inline]
    pub fn mix(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = (self.src as u64) ^ ((self.src >> 64) as u64).wrapping_mul(K);
        h = (h ^ (self.dst as u64)).wrapping_mul(K);
        h = (h ^ ((self.dst >> 64) as u64)).wrapping_mul(K);
        h = (h ^ self.meta).wrapping_mul(K);
        h = (h ^ u64::from(self.vni)).wrapping_mul(K);
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }
}

fn addr_bits(addr: IpAddr) -> u128 {
    match addr {
        IpAddr::V4(a) => u128::from(u32::from(a)),
        IpAddr::V6(a) => u128::from(a),
    }
}

/// A validated, borrowed view of one VXLAN-in-UDP frame: layer offsets
/// plus the fields the batch pipeline reads. All offsets index into the
/// original frame buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView {
    /// Whether the outer IP header is IPv6.
    pub outer_v6: bool,
    /// Whether the inner IP header is IPv6.
    pub inner_v6: bool,
    /// Offset of the outer UDP header.
    pub outer_udp: u16,
    /// Offset of the VXLAN header.
    pub vxlan: u16,
    /// Offset of the inner Ethernet header (end of the rewrite region).
    pub inner_eth: u16,
    /// Offset of the inner transport header.
    pub(crate) inner_l4: u16,
    /// Length of the inner transport segment, as the inner IP length
    /// field delimits it.
    pub(crate) inner_l4_len: u16,
    /// Outer UDP source port (underlay flow entropy).
    pub outer_udp_src: u16,
    /// The VXLAN network identifier.
    pub vni: Vni,
    /// Inner source address bytes (v4 zero-extended).
    pub inner_src: u128,
    /// Inner destination address bytes (v4 zero-extended).
    pub inner_dst: u128,
    /// Inner protocol number (canonical: equals `IpProtocol::number()`).
    pub protocol: u8,
    /// Inner transport source port (0 when portless).
    pub src_port: u16,
    /// Inner transport destination port (0 when portless).
    pub dst_port: u16,
}

impl FrameView {
    /// Validates `data` and extracts the view.
    ///
    /// Beyond the structural checks every wire view performs, rejects
    /// IPv4 fragments (outer and inner), IPv4 headers whose checksum does
    /// not verify, IPv6-underlay frames whose mandatory outer UDP
    /// checksum is absent or wrong, nonzero outer UDP checksums over IPv4
    /// that do not verify, non-VXLAN UDP ports and VXLAN headers with
    /// reserved flag bits set. The error names the layer that rejected
    /// the frame.
    #[inline]
    pub fn parse(data: &[u8]) -> Result<FrameView, FrameError> {
        if let Some(view) = Self::parse_fast(data) {
            return Ok(view);
        }
        Self::parse_full(data)
    }

    /// Canonical-frame fast path: a v4-in-v4 VXLAN frame with 20-byte IP
    /// headers, no fragments, zero outer-UDP checksum and exactly the
    /// VXLAN I flag — the shape every conformant vSwitch emits. Performs
    /// the full validation (both IPv4 header checksums included) with
    /// flat constant-offset reads; **any** deviation returns `None` and
    /// [`FrameView::parse`] asks the layered validator instead. Never
    /// accepts a frame [`FrameView::parse_full`] would reject, and
    /// extracts an identical view when it accepts — the truncation-sweep
    /// and fuzz parity suites pin both properties.
    //
    // Bounds proven: every constant index below is < 92, inside the
    // length-checked prefix array; the region checks (`total_len`,
    // `udp_len`, `inner_total`) additionally prove each read sits inside
    // its declared layer exactly as the layered parser requires.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn parse_fast(data: &[u8]) -> Option<FrameView> {
        // Minimum canonical stack: 14 (eth) + 20 (IPv4) + 8 (UDP) +
        // 8 (VXLAN) + 14 (eth) + 20 (IPv4) + 8 (UDP) = 92 bytes.
        let head: &[u8; 92] = data.get(..92)?.try_into().ok()?;
        let be16 = |hi: u8, lo: u8| u16::from_be_bytes([hi, lo]);
        // Fixed 20-byte header checksum verify: the one's-complement sum
        // of ten big-endian words folds to 0xffff exactly when
        // `checksum::verify` accepts the header. Two folds always finish
        // a ten-word sum (acc < 0xa_0000).
        let verify20 = |h: &[u8; 92], at: usize| {
            let mut acc = 0u32;
            let mut i = at;
            while i < at + 20 {
                acc += u32::from(u16::from_be_bytes([h[i], h[i + 1]]));
                i += 2;
            }
            let folded = (acc & 0xffff) + (acc >> 16);
            (folded & 0xffff) + (folded >> 16) == 0xffff
        };

        // Outer Ethernet: IPv4; outer IP: canonical header, whole frame
        // present, not a fragment, UDP payload, valid header checksum.
        if head[12] != 0x08 || head[13] != 0x00 || head[14] != 0x45 {
            return None;
        }
        let total_len = usize::from(be16(head[16], head[17]));
        if total_len < 20 || ethernet::HEADER_LEN + total_len > data.len() {
            return None;
        }
        if be16(head[20], head[21]) & 0x3fff != 0 || head[23] != 17 {
            return None;
        }
        if !verify20(head, 14) {
            return None;
        }
        // Outer UDP: VXLAN port, zero checksum (the v4 emit convention),
        // long enough for VXLAN + inner Ethernet + a 20-byte inner IPv4.
        if be16(head[36], head[37]) != vxlan::VXLAN_UDP_PORT {
            return None;
        }
        let udp_len = usize::from(be16(head[38], head[39]));
        if udp_len < 50 || udp_len + 20 > total_len {
            return None;
        }
        if head[40] != 0 || head[41] != 0 {
            return None;
        }
        // VXLAN: exactly the I (VNI-valid) flag.
        if head[42] != 0x08 {
            return None;
        }
        // Inner Ethernet: IPv4; inner IP: canonical header fitting the
        // VXLAN payload, not a fragment, valid checksum.
        if head[62] != 0x08 || head[63] != 0x00 || head[64] != 0x45 {
            return None;
        }
        let inner_total = usize::from(be16(head[66], head[67]));
        if inner_total < 20 || inner_total + 30 > udp_len {
            return None;
        }
        if be16(head[70], head[71]) & 0x3fff != 0 {
            return None;
        }
        if !verify20(head, 64) {
            return None;
        }
        let protocol = head[73];
        let (src_port, dst_port) = match protocol {
            17 => {
                // Inner UDP header present with a sane declared length.
                if inner_total < 28 {
                    return None;
                }
                let declared = usize::from(be16(head[88], head[89]));
                if declared < 8 || declared + 20 > inner_total {
                    return None;
                }
                (be16(head[84], head[85]), be16(head[86], head[87]))
            }
            6 => {
                // Inner TCP: canonical 20-byte header that fits.
                if inner_total < 40 || *data.get(96)? >> 4 != 5 {
                    return None;
                }
                (be16(head[84], head[85]), be16(head[86], head[87]))
            }
            _ => (0, 0),
        };
        Some(FrameView {
            outer_v6: false,
            inner_v6: false,
            outer_udp: 34,
            vxlan: 42,
            inner_eth: 50,
            inner_l4: 84,
            inner_l4_len: inner_total as u16 - 20,
            outer_udp_src: be16(head[34], head[35]),
            vni: Vni::from_be_bytes([head[46], head[47], head[48]]),
            inner_src: u128::from(u32::from_be_bytes([head[76], head[77], head[78], head[79]])),
            inner_dst: u128::from(u32::from_be_bytes([head[80], head[81], head[82], head[83]])),
            protocol,
            src_port,
            dst_port,
        })
    }

    /// The layered validator: handles every frame shape the fast path
    /// declines (v6 underlay/overlay, IP options, fragments, nonzero
    /// outer-UDP checksums, hostile frames) and produces the typed
    /// [`FrameError`] for rejects.
    pub fn parse_full(data: &[u8]) -> Result<FrameView, FrameError> {
        use FrameLayer as L;
        let eth =
            ethernet::Frame::new_checked(data).map_err(|e| FrameError::new(L::OuterEthernet, e))?;
        let (outer_addrs, ip_payload, ip_payload_off) = match eth.ethertype() {
            EtherType::Ipv4 => {
                let ip = ipv4::Packet::new_checked(eth.payload())
                    .map_err(|e| FrameError::new(L::OuterIpv4, e))?;
                if !ip.verify_checksum() {
                    return Err(FrameError::new(L::OuterIpv4, Error::Checksum));
                }
                if ip.is_fragment() {
                    return Err(FrameError::new(L::OuterIpv4, Error::Malformed));
                }
                if ip.protocol() != IpProtocol::Udp {
                    return Err(FrameError::new(L::OuterIpv4, Error::Unsupported));
                }
                let hl = ip.header_len();
                let tl = ip.total_len() as usize;
                let payload = eth
                    .payload()
                    .get(hl..tl)
                    .ok_or(FrameError::new(L::OuterIpv4, Error::Truncated))?;
                (
                    AddrPair::V4(ip.src_addr(), ip.dst_addr()),
                    payload,
                    ethernet::HEADER_LEN + hl,
                )
            }
            EtherType::Ipv6 => {
                let ip = ipv6::Packet::new_checked(eth.payload())
                    .map_err(|e| FrameError::new(L::OuterIpv6, e))?;
                if ip.next_header() != IpProtocol::Udp {
                    return Err(FrameError::new(L::OuterIpv6, Error::Unsupported));
                }
                let total = ipv6::HEADER_LEN + ip.payload_len() as usize;
                let payload = eth
                    .payload()
                    .get(ipv6::HEADER_LEN..total)
                    .ok_or(FrameError::new(L::OuterIpv6, Error::Truncated))?;
                (
                    AddrPair::V6(ip.src_addr(), ip.dst_addr()),
                    payload,
                    ethernet::HEADER_LEN + ipv6::HEADER_LEN,
                )
            }
            _ => return Err(FrameError::new(L::OuterEthernet, Error::Unsupported)),
        };

        let u =
            udp::Datagram::new_checked(ip_payload).map_err(|e| FrameError::new(L::OuterUdp, e))?;
        if u.dst_port() != vxlan::VXLAN_UDP_PORT {
            return Err(FrameError::new(L::OuterUdp, Error::Unsupported));
        }
        // Over IPv4 a zero outer UDP checksum means "not computed"; a
        // nonzero one must verify. Over IPv6 the checksum is mandatory.
        let (outer_v6, checksum_ok) = match outer_addrs {
            AddrPair::V4(s, d) => (false, u.verify_checksum_v4(s, d)),
            AddrPair::V6(s, d) => (true, u.verify_checksum_v6(s, d)),
        };
        if !checksum_ok {
            return Err(FrameError::new(L::OuterUdp, Error::Checksum));
        }
        let outer_udp_src = u.src_port();
        let udp_total = u.len() as usize;
        let vx_bytes = ip_payload
            .get(udp::HEADER_LEN..udp_total)
            .ok_or(FrameError::new(L::OuterUdp, Error::Truncated))?;
        let vx = vxlan::Header::new_checked(vx_bytes).map_err(|e| FrameError::new(L::Vxlan, e))?;
        if vx.has_unknown_flags() {
            return Err(FrameError::new(L::Vxlan, Error::Malformed));
        }
        let vni = vx.vni();

        let inner = vx.payload();
        let inner_eth_off = ip_payload_off + udp::HEADER_LEN + vxlan::HEADER_LEN;
        let ieth = ethernet::Frame::new_checked(inner)
            .map_err(|e| FrameError::new(L::InnerEthernet, e))?;
        let inner_ip_off = inner_eth_off + ethernet::HEADER_LEN;
        let (inner_v6, inner_src, inner_dst, protocol, l4, l4_off) = match ieth.ethertype() {
            EtherType::Ipv4 => {
                let ip = ipv4::Packet::new_checked(ieth.payload())
                    .map_err(|e| FrameError::new(L::InnerIpv4, e))?;
                if !ip.verify_checksum() {
                    return Err(FrameError::new(L::InnerIpv4, Error::Checksum));
                }
                if ip.is_fragment() {
                    return Err(FrameError::new(L::InnerIpv4, Error::Malformed));
                }
                let l4 = ieth
                    .payload()
                    .get(ip.header_len()..ip.total_len() as usize)
                    .ok_or(FrameError::new(L::InnerIpv4, Error::Truncated))?;
                (
                    false,
                    u128::from(u32::from(ip.src_addr())),
                    u128::from(u32::from(ip.dst_addr())),
                    ip.protocol().number(),
                    l4,
                    inner_ip_off + ip.header_len(),
                )
            }
            EtherType::Ipv6 => {
                let ip = ipv6::Packet::new_checked(ieth.payload())
                    .map_err(|e| FrameError::new(L::InnerIpv6, e))?;
                let total = ipv6::HEADER_LEN + ip.payload_len() as usize;
                let l4 = ieth
                    .payload()
                    .get(ipv6::HEADER_LEN..total)
                    .ok_or(FrameError::new(L::InnerIpv6, Error::Truncated))?;
                (
                    true,
                    u128::from(ip.src_addr()),
                    u128::from(ip.dst_addr()),
                    ip.next_header().number(),
                    l4,
                    inner_ip_off + ipv6::HEADER_LEN,
                )
            }
            _ => return Err(FrameError::new(L::InnerEthernet, Error::Unsupported)),
        };

        let (src_port, dst_port) = match IpProtocol::from(protocol) {
            IpProtocol::Udp => {
                let iu = udp::Datagram::new_checked(l4)
                    .map_err(|e| FrameError::new(L::InnerTransport, e))?;
                (iu.src_port(), iu.dst_port())
            }
            IpProtocol::Tcp => {
                let t = tcp::Segment::new_checked(l4)
                    .map_err(|e| FrameError::new(L::InnerTransport, e))?;
                (t.src_port(), t.dst_port())
            }
            _ => (0, 0),
        };

        Ok(FrameView {
            outer_v6,
            inner_v6,
            outer_udp: ip_payload_off as u16,
            vxlan: (ip_payload_off + udp::HEADER_LEN) as u16,
            inner_eth: inner_eth_off as u16,
            inner_l4: l4_off as u16,
            inner_l4_len: l4.len() as u16,
            outer_udp_src,
            vni,
            inner_src,
            inner_dst,
            protocol,
            src_port,
            dst_port,
        })
    }

    /// The cache key of this frame's flow. Equal for two frames iff
    /// their owned `(vni, five_tuple)` identities are equal.
    #[inline]
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            src: self.inner_src,
            dst: self.inner_dst,
            meta: u64::from(self.src_port) << 32
                | u64::from(self.dst_port) << 16
                | u64::from(self.protocol) << 8
                | u64::from(self.inner_v6),
            vni: self.vni.value(),
        }
    }

    /// Reconstructs the owned flow tuple (slow; test/miss-path use).
    #[inline]
    pub fn five_tuple(&self) -> FiveTuple {
        let (src, dst) = if self.inner_v6 {
            (
                IpAddr::V6(core::net::Ipv6Addr::from(self.inner_src)),
                IpAddr::V6(core::net::Ipv6Addr::from(self.inner_dst)),
            )
        } else {
            (
                IpAddr::V4(core::net::Ipv4Addr::from(self.inner_src as u32)),
                IpAddr::V4(core::net::Ipv4Addr::from(self.inner_dst as u32)),
            )
        };
        FiveTuple::new(
            src,
            dst,
            IpProtocol::from(self.protocol),
            self.src_port,
            self.dst_port,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{GatewayPacket, GatewayPacketBuilder};

    fn sample() -> Vec<u8> {
        GatewayPacketBuilder::new(
            Vni::from_const(321),
            "192.168.10.2".parse().unwrap(),
            "192.168.30.5".parse().unwrap(),
        )
        .transport(IpProtocol::Tcp, 40001, 443)
        .build()
        .emit()
        .unwrap()
    }

    #[test]
    fn view_matches_packet_model() {
        let bytes = sample();
        let p = GatewayPacket::parse(&bytes).unwrap();
        let v = FrameView::parse(&bytes).unwrap();
        assert_eq!(v.vni, p.vni);
        assert_eq!(v.outer_udp_src, p.outer.udp_src_port);
        assert_eq!(v.five_tuple(), p.five_tuple());
        assert_eq!(
            v.flow_key(),
            FlowKey::from_tuple(p.vni, &p.five_tuple()),
            "view key must equal the owned identity"
        );
        assert!(!v.outer_v6 && !v.inner_v6);
        assert_eq!(usize::from(v.inner_eth), 14 + 20 + 8 + 8);
    }

    /// The inner-L4 offsets the owned parse reads ride in the padding of
    /// the one-cache-line view: it must not grow.
    #[test]
    fn view_fits_one_cache_line() {
        assert_eq!(core::mem::size_of::<FrameView>(), 64);
    }

    #[test]
    fn flow_key_distinguishes_v4_from_mapped_v6() {
        let t4 = FiveTuple::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            IpProtocol::Udp,
            1,
            2,
        );
        let t6 = FiveTuple::new(
            "::10.0.0.1".parse().unwrap(),
            "::10.0.0.2".parse().unwrap(),
            IpProtocol::Udp,
            1,
            2,
        );
        let v = Vni::from_const(9);
        assert_ne!(FlowKey::from_tuple(v, &t4), FlowKey::from_tuple(v, &t6));
        assert_ne!(
            FlowKey::from_tuple(v, &t4),
            FlowKey::from_tuple(Vni::from_const(10), &t4)
        );
    }

    #[test]
    fn mix_spreads_sequential_flows() {
        let v = Vni::from_const(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let t = FiveTuple::new(
                core::net::Ipv4Addr::from(0x0a00_0000 | i).into(),
                "10.1.0.1".parse().unwrap(),
                IpProtocol::Udp,
                (i % 100) as u16,
                80,
            );
            seen.insert(FlowKey::from_tuple(v, &t).mix());
        }
        assert_eq!(seen.len(), 10_000, "mix collided on sequential keys");
    }
}
