//! The gateway's one header rewrite.
//!
//! After the table walk decides `ToNc { nc, vni }`, the wire frame is
//! rewritten the way the egress deparser does it (Fig 2): decrement the
//! outer TTL/hop limit, point the outer destination at the hosting NC, and
//! stamp the destination VPC's VNI into the VXLAN header. Over IPv4
//! underlays both IP header changes patch the header checksum
//! incrementally (RFC 1624 Eqn. 3, the `ipv4::Packet` setters); over
//! IPv6 the mandatory outer UDP checksum is refilled across the datagram.
//!
//! The rewrite validates nothing itself: it is keyed by the offsets
//! [`FrameView::parse`] validated (a crate-private `RewriteCtx`). [`apply`]
//! is that parse followed by the rewrite; the batch driver, which already
//! holds the view, rewrites its arena copy through `in_place`. Every byte
//! access is still bounds-checked, so a buffer shorter than its context
//! claims is left partly unwritten, never a panic.

use core::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use sailfish_net::view::FrameView;
use sailfish_net::wire::{ethernet, ipv4, ipv6, udp};
use sailfish_net::{Error, FrameError, FrameLayer, Vni};
use sailfish_tables::types::NcAddr;

/// Validates `frame` and rewrites it in place for delivery to `nc` under
/// `vni`.
///
/// Fails with the [`FrameError`] of [`FrameView::parse`] for a frame the
/// gateway would not accept, and with `Malformed` at the outer IPv4 layer
/// when a v6-homed NC meets an IPv4 underlay.
pub fn apply(frame: &mut [u8], nc: NcAddr, vni: Vni) -> Result<(), FrameError> {
    let view = FrameView::parse(frame)?;
    in_place(frame, RewriteCtx::of(&view), nc, vni)
}

/// The frame-local facts a rewrite is keyed by, taken from the view that
/// validated the frame: where the VXLAN header sits, where the rewrite
/// region ends (the inner Ethernet offset), and the underlay family.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RewriteCtx {
    vxlan: u16,
    inner_eth: u16,
    outer_v6: bool,
}

impl RewriteCtx {
    pub(crate) fn of(view: &FrameView) -> Self {
        RewriteCtx {
            vxlan: view.vxlan,
            inner_eth: view.inner_eth,
            outer_v6: view.outer_v6,
        }
    }

    /// The prefix of `frame` the rewrite reads and writes. Over IPv4 it
    /// ends at the inner Ethernet header, so a header-split emit never
    /// copies the tenant payload; over IPv6 it is the whole frame, whose
    /// outer UDP checksum covers the payload.
    pub(crate) fn region<'f>(&self, frame: &'f [u8]) -> &'f [u8] {
        if self.outer_v6 {
            frame
        } else {
            frame.get(..usize::from(self.inner_eth)).unwrap_or(frame)
        }
    }
}

/// Rewrites a view-validated frame — or its [`RewriteCtx::region`] — in
/// place for delivery to `nc` under `vni`. The only error is a v6-homed
/// NC under an IPv4 underlay; a v4-homed NC is reached over an IPv6
/// underlay through its v4-mapped address.
pub(crate) fn in_place(
    frame: &mut [u8],
    ctx: RewriteCtx,
    nc: NcAddr,
    vni: Vni,
) -> Result<(), FrameError> {
    let vxlan = usize::from(ctx.vxlan);
    if ctx.outer_v6 {
        let nc_v6 = match nc.ip {
            IpAddr::V6(a) => a,
            IpAddr::V4(a) => a.to_ipv6_mapped(),
        };
        v6(frame, vxlan, nc_v6, vni);
        return Ok(());
    }
    let IpAddr::V4(nc_v4) = nc.ip else {
        return Err(FrameError::new(FrameLayer::OuterIpv4, Error::Malformed));
    };
    v4(frame, vxlan, nc_v4, vni);
    Ok(())
}

/// The IPv4-underlay rewrite: TTL decrement (zero left alone) and
/// destination rewrite, each patching the header checksum incrementally,
/// then the VNI stamp. The outer UDP checksum stays zero over IPv4
/// underlays, the emit convention.
fn v4(frame: &mut [u8], vxlan: usize, nc_v4: Ipv4Addr, vni: Vni) {
    let header = ethernet::HEADER_LEN..ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    if let Some(ip) = frame.get_mut(header) {
        let mut ip = ipv4::Packet::new_unchecked(ip);
        ip.decrement_ttl();
        ip.rewrite_dst_addr(nc_v4);
    }
    stamp_vni(frame, vxlan, vni);
}

/// The IPv6-underlay rewrite: hop-limit decrement (zero left alone),
/// destination rewrite and VNI stamp, then the mandatory outer UDP
/// checksum refilled over the datagram its length field delimits.
fn v6(frame: &mut [u8], vxlan: usize, nc_v6: Ipv6Addr, vni: Vni) {
    let header = ethernet::HEADER_LEN..ethernet::HEADER_LEN + ipv6::HEADER_LEN;
    let Some(ip) = frame.get_mut(header) else {
        return;
    };
    let mut ip = ipv6::Packet::new_unchecked(ip);
    let hop = ip.hop_limit();
    if hop > 0 {
        ip.set_hop_limit(hop - 1);
    }
    ip.set_dst_addr(nc_v6);
    let src = ip.src_addr();
    stamp_vni(frame, vxlan, vni);
    let udp_bytes = vxlan
        .checked_sub(udp::HEADER_LEN)
        .and_then(|at| frame.get_mut(at..));
    if let Some(Ok(mut datagram)) = udp_bytes.map(udp::Datagram::new_checked) {
        datagram.fill_checksum_v6(src, nc_v6);
    }
}

/// Stamps `vni` into the VXLAN header at offset `vxlan`.
fn stamp_vni(frame: &mut [u8], vxlan: usize, vni: Vni) {
    if let Some(b) = frame.get_mut(vxlan + 4..vxlan + 7) {
        b.copy_from_slice(&vni.to_be_bytes());
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::GatewayPacket;

    fn nc(s: &str) -> NcAddr {
        NcAddr::new(s.parse().unwrap())
    }

    fn sample_v4() -> GatewayPacket {
        GatewayPacketBuilder::new(
            Vni::from_const(100),
            "192.168.10.2".parse().unwrap(),
            "192.168.30.5".parse().unwrap(),
        )
        .build()
    }

    fn sample_v6() -> GatewayPacket {
        let mut p = sample_v4();
        p.outer.src_ip = "fd00::1".parse().unwrap();
        p.outer.dst_ip = "fd00::2".parse().unwrap();
        p
    }

    #[test]
    fn v4_rewrite_round_trips_and_checksums() {
        let p = sample_v4();
        let mut frame = p.emit().unwrap();
        apply(&mut frame, nc("10.1.1.12"), Vni::from_const(200)).unwrap();

        // The outer IPv4 header checksum must still verify after the
        // incremental patches.
        let ip = ipv4::Packet::new_checked(&frame[ethernet::HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.ttl(), 63);
        assert_eq!(
            ip.dst_addr(),
            "10.1.1.12".parse::<core::net::Ipv4Addr>().unwrap()
        );

        let q = GatewayPacket::parse(&frame).unwrap();
        assert_eq!(q.outer.dst_ip, "10.1.1.12".parse::<IpAddr>().unwrap());
        assert_eq!(q.vni, Vni::from_const(200));
        // The inner tenant packet is untouched.
        assert_eq!(q.inner, p.inner);
    }

    #[test]
    fn v6_rewrite_refills_udp_checksum() {
        let mut frame = sample_v6().emit().unwrap();
        apply(&mut frame, nc("10.1.1.12"), Vni::from_const(300)).unwrap();

        let expected_dst: core::net::Ipv6Addr = "10.1.1.12"
            .parse::<core::net::Ipv4Addr>()
            .unwrap()
            .to_ipv6_mapped();
        let ip = ipv6::Packet::new_checked(&frame[ethernet::HEADER_LEN..]).unwrap();
        assert_eq!(ip.hop_limit(), 63);
        assert_eq!(ip.dst_addr(), expected_dst);
        let u =
            udp::Datagram::new_checked(&frame[ethernet::HEADER_LEN + ipv6::HEADER_LEN..]).unwrap();
        assert!(u.verify_checksum_v6(ip.src_addr(), expected_dst));

        let q = GatewayPacket::parse(&frame).unwrap();
        assert_eq!(q.vni, Vni::from_const(300));
        assert_eq!(q.outer.dst_ip, IpAddr::V6(expected_dst));
    }

    #[test]
    fn v4_frame_rejects_v6_nc() {
        let mut frame = sample_v4().emit().unwrap();
        assert_eq!(
            apply(&mut frame, nc("2001:db8::1"), Vni::from_const(1)),
            Err(FrameError::new(FrameLayer::OuterIpv4, Error::Malformed))
        );
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = sample_v4().emit().unwrap();
        let mut cut = frame[..40].to_vec();
        assert!(apply(&mut cut, nc("10.1.1.12"), Vni::from_const(1)).is_err());
    }

    /// Regression: the pre-hardening rewrite sliced `frame[vxlan_start..]`
    /// unconditionally and panicked whenever the buffer ended between the
    /// outer IP header and the VXLAN header. Every truncation point must
    /// now degrade to an error.
    #[test]
    fn v4_truncation_at_every_length_is_an_error_not_a_panic() {
        let frame = sample_v4().emit().unwrap();
        for cut in 0..frame.len() {
            let mut short = frame[..cut].to_vec();
            assert!(
                apply(&mut short, nc("10.1.1.12"), Vni::from_const(9)).is_err(),
                "cut at {cut} must fail, not panic or succeed"
            );
        }
    }

    #[test]
    fn v6_truncation_at_every_length_is_an_error_not_a_panic() {
        let frame = sample_v6().emit().unwrap();
        for cut in 0..frame.len() {
            let mut short = frame[..cut].to_vec();
            // Shorter buffers invalidate the IPv6 payload-length check, so
            // every cut must be rejected without panicking.
            assert!(
                apply(&mut short, nc("10.1.1.12"), Vni::from_const(9)).is_err(),
                "cut at {cut} must fail, not panic or succeed"
            );
        }
    }

    /// Regression: a hostile IHL that walks the UDP/VXLAN offsets past the
    /// buffer end used to panic in the slice math. The IP header itself is
    /// consistent (IHL == total length == buffer, checksum valid), so only
    /// the hardened UDP delimiting catches it.
    #[test]
    fn v4_hostile_ihl_overruns_are_rejected() {
        let mut frame = sample_v4().emit().unwrap();
        // Keep only the Ethernet header plus a 60-byte "IP header" so the
        // UDP region is empty.
        frame.truncate(ethernet::HEADER_LEN + 60);
        frame[ethernet::HEADER_LEN] = 0x4f; // version 4, IHL 15 (60 bytes)
        frame[ethernet::HEADER_LEN + 2..ethernet::HEADER_LEN + 4]
            .copy_from_slice(&60u16.to_be_bytes());
        ipv4::Packet::new_unchecked(&mut frame[ethernet::HEADER_LEN..]).fill_checksum();
        let got = apply(&mut frame, nc("10.1.1.12"), Vni::from_const(9));
        assert_eq!(
            got,
            Err(FrameError::new(FrameLayer::OuterUdp, Error::Truncated))
        );
    }

    /// A lying UDP length field (shorter than header + VXLAN) must be
    /// caught when delimiting the VXLAN region.
    #[test]
    fn v4_lying_udp_length_is_rejected() {
        let mut frame = sample_v4().emit().unwrap();
        let ihl = (frame[ethernet::HEADER_LEN] & 0x0f) as usize * 4;
        let udp_start = ethernet::HEADER_LEN + ihl;
        // Declare exactly the UDP header: VXLAN no longer fits.
        frame[udp_start + 4..udp_start + 6].copy_from_slice(&8u16.to_be_bytes());
        let got = apply(&mut frame, nc("10.1.1.12"), Vni::from_const(9));
        assert_eq!(
            got,
            Err(FrameError::new(FrameLayer::Vxlan, Error::Truncated))
        );
    }

    /// A zero TTL is left alone, and the destination patch alone still
    /// leaves a verifying header checksum.
    #[test]
    fn v4_zero_ttl_is_left_alone() {
        let mut frame = sample_v4().emit().unwrap();
        frame[ethernet::HEADER_LEN + 8] = 0;
        ipv4::Packet::new_unchecked(&mut frame[ethernet::HEADER_LEN..]).fill_checksum();
        apply(&mut frame, nc("10.1.1.12"), Vni::from_const(5)).unwrap();
        let ip = ipv4::Packet::new_checked(&frame[ethernet::HEADER_LEN..]).unwrap();
        assert_eq!(ip.ttl(), 0);
        assert!(ip.verify_checksum());
    }

    /// Rewriting only the v4 header-split region yields exactly the
    /// rewritten whole frame's prefix: nothing past the inner Ethernet
    /// header is touched.
    #[test]
    fn v4_region_rewrite_matches_whole_frame() {
        let frame = sample_v4().emit().unwrap();
        let ctx = RewriteCtx::of(&FrameView::parse(&frame).unwrap());
        let (nc, vni) = (nc("10.1.1.12"), Vni::from_const(77));
        let mut whole = frame.clone();
        in_place(&mut whole, ctx, nc, vni).unwrap();
        let mut region = ctx.region(&frame).to_vec();
        assert!(region.len() < frame.len());
        in_place(&mut region, ctx, nc, vni).unwrap();
        assert_eq!(region, whole[..region.len()]);
        assert_eq!(whole[region.len()..], frame[region.len()..]);
    }
}
