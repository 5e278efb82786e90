//! Masked IP prefixes.
//!
//! The VXLAN routing table performs longest-prefix match on
//! `(VNI, inner destination IP)` (Fig 2). These types provide canonical
//! (host-bits-zeroed) prefixes with containment and refinement tests used by
//! the LPM, TCAM and ALPM table implementations.

use core::cmp::Ordering;
use core::fmt;
use core::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use core::str::FromStr;

use crate::error::Error;

/// An IPv4 prefix in canonical form (host bits zero).
// `len` is the prefix length in bits, not a container size.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Ipv4Prefix {
    /// Builds a prefix, zeroing host bits; fails when `len > 32`.
    pub const fn new(addr: Ipv4Addr, len: u8) -> Result<Self, Error> {
        if len > 32 {
            return Err(Error::OutOfRange);
        }
        Ok(Ipv4Prefix {
            addr: Ipv4Addr::from_bits(addr.to_bits() & mask_v4(len)),
            len,
        })
    }

    /// The all-encompassing `0.0.0.0/0` prefix.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix {
        addr: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// The (masked) network address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this prefix covers a full host address.
    pub fn is_host(&self) -> bool {
        self.len == 32
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask_v4(self.len) == u32::from(self.addr)
    }

    /// Whether `other` is equal to or strictly inside this prefix.
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The network address as a `u32` (big-endian semantics).
    pub fn bits(&self) -> u32 {
        u32::from(self.addr)
    }

    /// The bit mask corresponding to the prefix length.
    pub fn mask(&self) -> u32 {
        mask_v4(self.len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let (addr, len) = split_prefix(s)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| Error::Malformed)?;
        Ipv4Prefix::new(addr, len)
    }
}

/// An IPv6 prefix in canonical form (host bits zero).
// `len` is the prefix length in bits, not a container size.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Prefix {
    addr: Ipv6Addr,
    len: u8,
}

impl Ipv6Prefix {
    /// Builds a prefix, zeroing host bits; fails when `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self, Error> {
        if len > 128 {
            return Err(Error::OutOfRange);
        }
        let masked = u128::from(addr) & mask_v6(len);
        Ok(Ipv6Prefix {
            addr: Ipv6Addr::from(masked),
            len,
        })
    }

    /// The all-encompassing `::/0` prefix.
    pub const DEFAULT: Ipv6Prefix = Ipv6Prefix {
        addr: Ipv6Addr::UNSPECIFIED,
        len: 0,
    };

    /// The (masked) network address.
    pub fn addr(&self) -> Ipv6Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this prefix covers a full host address.
    pub fn is_host(&self) -> bool {
        self.len == 128
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & mask_v6(self.len) == u128::from(self.addr)
    }

    /// Whether `other` is equal to or strictly inside this prefix.
    pub fn covers(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The network address as a `u128` (big-endian semantics).
    pub fn bits(&self) -> u128 {
        u128::from(self.addr)
    }

    /// The bit mask corresponding to the prefix length.
    pub fn mask(&self) -> u128 {
        mask_v6(self.len)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let (addr, len) = split_prefix(s)?;
        let addr: Ipv6Addr = addr.parse().map_err(|_| Error::Malformed)?;
        Ipv6Prefix::new(addr, len)
    }
}

/// Either an IPv4 or IPv6 prefix.
///
/// Sailfish pools IPv4 and IPv6 entries into the same physical tables
/// (§4.4 "IPv4/IPv6 table pooling"); this enum is the logical-layer view of
/// such dual-stack keys.
// `len` is the prefix length in bits, not a container size.
#[allow(clippy::len_without_is_empty)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpPrefix {
    /// IPv4 prefix.
    V4(Ipv4Prefix),
    /// IPv6 prefix.
    V6(Ipv6Prefix),
}

impl IpPrefix {
    /// Builds a prefix from an address and a length within the address
    /// family's bounds.
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, Error> {
        match addr {
            IpAddr::V4(a) => Ipv4Prefix::new(a, len).map(IpPrefix::V4),
            IpAddr::V6(a) => Ipv6Prefix::new(a, len).map(IpPrefix::V6),
        }
    }

    /// A host route for `addr` (a full-length prefix has no host bits
    /// to zero).
    pub fn host(addr: IpAddr) -> Self {
        match addr {
            IpAddr::V4(addr) => IpPrefix::V4(Ipv4Prefix { addr, len: 32 }),
            IpAddr::V6(addr) => IpPrefix::V6(Ipv6Prefix { addr, len: 128 }),
        }
    }

    /// The (masked) network address.
    pub fn addr(&self) -> IpAddr {
        match self {
            IpPrefix::V4(p) => IpAddr::V4(p.addr()),
            IpPrefix::V6(p) => IpAddr::V6(p.addr()),
        }
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        match self {
            IpPrefix::V4(p) => p.len(),
            IpPrefix::V6(p) => p.len(),
        }
    }

    /// Returns whether the prefix covers a full host address.
    pub fn is_host(&self) -> bool {
        match self {
            IpPrefix::V4(p) => p.is_host(),
            IpPrefix::V6(p) => p.is_host(),
        }
    }

    /// Whether the prefix is IPv4.
    pub fn is_v4(&self) -> bool {
        matches!(self, IpPrefix::V4(_))
    }

    /// Whether `addr` falls inside this prefix. Addresses of the other
    /// family never match.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self, addr) {
            (IpPrefix::V4(p), IpAddr::V4(a)) => p.contains(a),
            (IpPrefix::V6(p), IpAddr::V6(a)) => p.contains(a),
            _ => false,
        }
    }

    /// The prefix expanded to 128-bit key space.
    ///
    /// This is the §4.4 pooling transform for LPM tables: "the IPv4 key can
    /// be expanded to a 128-bit to align with the IPv6 key in the same
    /// table". IPv4 prefixes are placed in a reserved `::ffff:0:0/96`-style
    /// plane so pooled IPv4 and IPv6 entries can never alias.
    pub fn pooled_bits(&self) -> (u128, u8) {
        match self {
            IpPrefix::V4(p) => {
                let base: u128 = 0xffff << 32;
                (base | p.bits() as u128, 96 + p.len())
            }
            IpPrefix::V6(p) => (p.bits(), p.len()),
        }
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpPrefix::V4(p) => p.fmt(f),
            IpPrefix::V6(p) => p.fmt(f),
        }
    }
}

impl FromStr for IpPrefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        if s.contains(':') {
            s.parse::<Ipv6Prefix>().map(IpPrefix::V6)
        } else {
            s.parse::<Ipv4Prefix>().map(IpPrefix::V4)
        }
    }
}

/// Orders prefixes by descending length (more specific first), which is the
/// priority order a TCAM must preserve for correct LPM emulation.
pub fn lpm_priority(a: &IpPrefix, b: &IpPrefix) -> Ordering {
    b.len().cmp(&a.len())
}

const fn mask_v4(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

fn mask_v6(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

fn split_prefix(s: &str) -> Result<(&str, u8), Error> {
    let (addr, len) = s.split_once('/').ok_or(Error::Malformed)?;
    let len = len.parse::<u8>().map_err(|_| Error::Malformed)?;
    Ok((addr, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn v6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let p = v4("192.168.10.77/24");
        assert_eq!(p.addr(), Ipv4Addr::new(192, 168, 10, 0));
        assert_eq!(p.to_string(), "192.168.10.0/24");
    }

    #[test]
    fn v4_contains() {
        let p = v4("192.168.10.0/24");
        assert!(p.contains(Ipv4Addr::new(192, 168, 10, 3)));
        assert!(!p.contains(Ipv4Addr::new(192, 168, 11, 3)));
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn v4_covers() {
        assert!(v4("10.0.0.0/8").covers(&v4("10.1.0.0/16")));
        assert!(v4("10.0.0.0/8").covers(&v4("10.0.0.0/8")));
        assert!(!v4("10.1.0.0/16").covers(&v4("10.0.0.0/8")));
        assert!(!v4("10.0.0.0/8").covers(&v4("11.0.0.0/16")));
    }

    #[test]
    fn v6_contains_and_covers() {
        let p = v6("2001:db8::/32");
        assert!(p.contains("2001:db8::1".parse().unwrap()));
        assert!(!p.contains("2001:db9::1".parse().unwrap()));
        assert!(p.covers(&v6("2001:db8:1::/48")));
        assert!(!v6("2001:db8:1::/48").covers(&p));
    }

    #[test]
    fn length_bounds() {
        assert!(Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 33).is_err());
        assert!(Ipv6Prefix::new(Ipv6Addr::UNSPECIFIED, 129).is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn ip_prefix_family_separation() {
        let p: IpPrefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.contains("10.1.2.3".parse().unwrap()));
        assert!(!p.contains("2001:db8::1".parse::<IpAddr>().unwrap()));
    }

    #[test]
    fn pooled_bits_are_disjoint() {
        // A pooled IPv4 prefix must never cover a genuine IPv6 address:
        // the ::ffff:0:0/96 plane is reserved for mapped IPv4.
        let (bits4, len4) = IpPrefix::from_str("0.0.0.0/0").unwrap().pooled_bits();
        assert_eq!(len4, 96);
        assert_eq!(bits4, 0xffff << 32);
        let (bits6, len6) = IpPrefix::from_str("::/0").unwrap().pooled_bits();
        assert_eq!((bits6, len6), (0, 0));
        // Host routes land at 128 bits in both families.
        let host4 = IpPrefix::host("1.2.3.4".parse().unwrap());
        assert_eq!(host4.pooled_bits().1, 128);
        let host6 = IpPrefix::host("2001:db8::1".parse().unwrap());
        assert_eq!(host6.pooled_bits().1, 128);
    }

    #[test]
    fn lpm_priority_orders_specific_first() {
        let a: IpPrefix = "10.0.0.0/8".parse().unwrap();
        let b: IpPrefix = "10.1.0.0/16".parse().unwrap();
        let mut v = [a, b];
        v.sort_by(lpm_priority);
        assert_eq!(v[0].len(), 16);
    }
}
