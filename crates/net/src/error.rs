//! Error type shared by the wire parsers and packet model.

use core::fmt;

/// Errors produced while parsing or emitting packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the header (or declared payload).
    Truncated,
    /// A length field is inconsistent with the buffer (e.g. IPv4 total
    /// length smaller than the header length).
    Malformed,
    /// An unsupported EtherType / next-header / port was encountered where a
    /// specific protocol was required (e.g. non-VXLAN UDP destination port).
    Unsupported,
    /// A checksum did not verify.
    Checksum,
    /// A field value is out of range (e.g. a VNI wider than 24 bits or a
    /// prefix length longer than the address).
    OutOfRange,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer too short for header"),
            Error::Malformed => write!(f, "inconsistent length or field encoding"),
            Error::Unsupported => write!(f, "unsupported protocol or field value"),
            Error::Checksum => write!(f, "checksum verification failed"),
            Error::OutOfRange => write!(f, "field value out of range"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used across `sailfish-net`.
pub type Result<T> = core::result::Result<T, Error>;

/// The protocol layer at which a hostile or inconsistent frame was
/// rejected. Paired with [`Error`] in [`FrameError`], this is the typed
/// drop reason the dataplane counts per layer — a parse failure is never
/// a panic and never a silent punt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameLayer {
    /// Outer (underlay) Ethernet header.
    OuterEthernet,
    /// Outer IPv4 header.
    OuterIpv4,
    /// Outer IPv6 header.
    OuterIpv6,
    /// Outer UDP header (the VXLAN transport).
    OuterUdp,
    /// VXLAN header.
    Vxlan,
    /// Inner (tenant) Ethernet header.
    InnerEthernet,
    /// Inner IPv4 header.
    InnerIpv4,
    /// Inner IPv6 header.
    InnerIpv6,
    /// Inner transport (TCP/UDP) header.
    InnerTransport,
}

impl FrameLayer {
    /// Stable label for counters and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FrameLayer::OuterEthernet => "outer_ethernet",
            FrameLayer::OuterIpv4 => "outer_ipv4",
            FrameLayer::OuterIpv6 => "outer_ipv6",
            FrameLayer::OuterUdp => "outer_udp",
            FrameLayer::Vxlan => "vxlan",
            FrameLayer::InnerEthernet => "inner_ethernet",
            FrameLayer::InnerIpv4 => "inner_ipv4",
            FrameLayer::InnerIpv6 => "inner_ipv6",
            FrameLayer::InnerTransport => "inner_transport",
        }
    }
}

/// A typed frame-parse failure: which layer rejected the frame and why.
///
/// Produced by [`crate::view::FrameView::parse`] — the one frame
/// validator, which [`crate::packet::GatewayPacket::parse_classified`] and
/// the dataplane's rewrite also run — so hostile bytes degrade to a
/// counted drop-with-reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// The layer that rejected the frame.
    pub layer: FrameLayer,
    /// The underlying parse error.
    pub kind: Error,
}

impl FrameError {
    /// Creates a frame error.
    pub fn new(layer: FrameLayer, kind: Error) -> Self {
        FrameError { layer, kind }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.layer.label())
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for Error {
    fn from(e: FrameError) -> Error {
        e.kind
    }
}
