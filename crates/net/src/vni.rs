//! VXLAN network identifiers.
//!
//! In the paper a VNI identifies a VPC: "a VXLAN segment precisely
//! implements a VPC for isolation" (§2.1). The VNI is the leading component
//! of both major forwarding-table keys (Table 2).

use core::fmt;

use crate::error::Error;

/// A 24-bit VXLAN network identifier, i.e. the VPC id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vni(u32);

impl Vni {
    /// Number of bits in a VNI on the wire.
    pub const BITS: u32 = 24;
    /// Largest representable VNI.
    pub const MAX: u32 = (1 << Self::BITS) - 1;

    /// Builds a VNI, failing if the value does not fit in 24 bits.
    pub fn new(value: u32) -> Result<Self, Error> {
        if value > Self::MAX {
            Err(Error::OutOfRange)
        } else {
            Ok(Vni(value))
        }
    }

    /// Builds a VNI from a value known to fit (panics otherwise). Intended
    /// for literals in tests and examples.
    pub fn from_const(value: u32) -> Self {
        Self::new(value).expect("VNI literal wider than 24 bits")
    }

    /// Reads a VNI from its three big-endian wire bytes (always in
    /// range).
    pub const fn from_be_bytes(bytes: [u8; 3]) -> Self {
        Vni((bytes[0] as u32) << 16 | (bytes[1] as u32) << 8 | bytes[2] as u32)
    }

    /// The three big-endian wire bytes of the VNI.
    pub const fn to_be_bytes(&self) -> [u8; 3] {
        [(self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }

    /// Returns the numeric value.
    pub const fn value(&self) -> u32 {
        self.0
    }

    /// Parity of the VNI, used by inter-pipeline table splitting (§4.4,
    /// "we can split entries according to the parity of VNI").
    pub const fn parity(&self) -> u8 {
        (self.0 & 1) as u8
    }
}

impl fmt::Display for Vni {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vni-{}", self.0)
    }
}

impl TryFrom<u32> for Vni {
    type Error = Error;

    fn try_from(value: u32) -> Result<Self, Error> {
        Vni::new(value)
    }
}

impl From<Vni> for u32 {
    fn from(vni: Vni) -> u32 {
        vni.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds() {
        assert!(Vni::new(0).is_ok());
        assert!(Vni::new(Vni::MAX).is_ok());
        assert_eq!(Vni::new(Vni::MAX + 1), Err(Error::OutOfRange));
    }

    #[test]
    fn parity() {
        assert_eq!(Vni::from_const(4).parity(), 0);
        assert_eq!(Vni::from_const(5).parity(), 1);
    }

    #[test]
    fn wire_bytes_round_trip() {
        let vni = Vni::from_const(0x12_3456);
        assert_eq!(vni.to_be_bytes(), [0x12, 0x34, 0x56]);
        assert_eq!(Vni::from_be_bytes(vni.to_be_bytes()), vni);
    }

    #[test]
    fn conversions() {
        let vni = Vni::try_from(42u32).unwrap();
        assert_eq!(u32::from(vni), 42);
        assert_eq!(vni.to_string(), "vni-42");
    }
}
