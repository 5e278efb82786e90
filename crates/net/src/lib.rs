//! # sailfish-net
//!
//! Wire formats and the packet model for the Sailfish cloud-gateway
//! reproduction.
//!
//! The crate follows the smoltcp idiom for packet handling: every protocol
//! header gets a zero-copy *view* type (`wire::ethernet::Frame`,
//! `wire::ipv4::Packet`, ...) wrapping a byte buffer, with `new_checked`
//! constructors that validate lengths before any accessor can panic, typed
//! getters, and setters available when the underlying buffer is mutable.
//!
//! On top of the raw views, [`packet::GatewayPacket`] provides the owned,
//! parsed representation the gateway simulators actually forward: a
//! VXLAN-encapsulated packet with outer IP/UDP headers, the VXLAN header
//! (VNI) and the inner Ethernet/IP headers. `GatewayPacket` serializes to
//! real bytes via [`packet::GatewayPacket::emit`] and parses back via
//! [`packet::GatewayPacket::parse`], so the fast-path representation is
//! continuously cross-checked against the wire representation in tests.
//!
//! Other building blocks:
//!
//! - [`vni::Vni`]: 24-bit VXLAN network identifier (the VPC id),
//! - [`prefix`]: masked IPv4/IPv6 prefixes with containment tests,
//! - [`view::FrameView`]: a borrowed, allocation-free validation of a
//!   full VXLAN frame for the batch hot path, error-identical to
//!   `GatewayPacket::parse_classified`,
//! - [`flow::FiveTuple`]: the flow key used by RSS and SNAT,
//! - [`rss`]: the Toeplitz hash used by NICs for receive-side scaling,
//! - [`hash`]: the fixed-key hasher of the control-plane-provisioned
//!   tables (VNI directory, per-VNI index, digest planes),
//! - [`checksum`]: Internet checksum helpers shared by the wire types.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod error;
pub mod flow;
pub mod hash;
pub mod mac;
// The wire and packet hot paths parse hostile bytes; panicking slice math
// is a lint error there (escalated to deny by CI's `-D warnings`). Impl
// blocks whose bounds are proven by `new_checked` carry explicit
// allow-lists — everything else must use fallible `get` access.
#[warn(clippy::indexing_slicing)]
pub mod packet;
pub mod prefix;
pub mod rss;
// `view` is the borrowed zero-copy parser the batch pipeline trusts with
// hostile bytes — its slicing lint is `deny`: not even a local `allow` at
// a call site may reintroduce panicking indexing without a module-level
// bounds proof.
#[deny(clippy::indexing_slicing)]
pub mod view;
pub mod vni;
#[warn(clippy::indexing_slicing)]
pub mod wire;

pub use error::{Error, FrameError, FrameLayer, Result};
pub use flow::{FiveTuple, IpProtocol};
pub use mac::MacAddr;
pub use packet::GatewayPacket;
pub use prefix::{IpPrefix, Ipv4Prefix, Ipv6Prefix};
pub use view::{FlowKey, FrameView};
pub use vni::Vni;
