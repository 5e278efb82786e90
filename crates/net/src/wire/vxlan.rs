//! VXLAN header view (RFC 7348).
//!
//! "Mainstream public cloud vendors rely on overlay network protocols (such
//! as VXLAN) to achieve network multiplexing and resource isolation" (§2.1).
//! The 24-bit VNI in this header is the VPC identifier that prefixes every
//! key in the two major forwarding tables.

use crate::error::{Error, Result};
use crate::vni::Vni;

/// Length of a VXLAN header.
pub const HEADER_LEN: usize = 8;

/// The IANA-assigned UDP destination port for VXLAN.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// Flag bit marking the VNI field as valid.
pub const FLAG_VNI_VALID: u8 = 0x08;

/// A view of a VXLAN header.
#[derive(Debug, Clone)]
pub struct Header<T: AsRef<[u8]>> {
    buffer: T,
}

// Bounds proven: `new_checked` validates the 8-byte header; fixed
// offsets never exceed it. `new_unchecked` callers own the proof.
#[allow(clippy::indexing_slicing)]
impl<T: AsRef<[u8]>> Header<T> {
    /// Wraps a buffer without validating it.
    pub const fn new_unchecked(buffer: T) -> Self {
        Header { buffer }
    }

    /// Wraps a buffer after validating length and the I (VNI-valid) flag.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let header = Header { buffer };
        if !header.vni_valid() {
            return Err(Error::Malformed);
        }
        Ok(header)
    }

    /// Consumes the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Returns the flags byte.
    pub fn flags(&self) -> u8 {
        self.buffer.as_ref()[0]
    }

    /// Whether the I flag (VNI valid) is set.
    pub fn vni_valid(&self) -> bool {
        self.flags() & FLAG_VNI_VALID != 0
    }

    /// Whether any flag bit other than I is set. RFC 7348 tells receivers
    /// to ignore reserved bits, but the hardened gateway parse treats them
    /// as hostile (no conformant vSwitch in this deployment emits them).
    pub fn has_unknown_flags(&self) -> bool {
        self.flags() & !FLAG_VNI_VALID != 0
    }

    /// The VXLAN network identifier.
    pub fn vni(&self) -> Vni {
        let d = self.buffer.as_ref();
        Vni::from_be_bytes([d[4], d[5], d[6]])
    }

    /// Encapsulated payload (the inner Ethernet frame).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

// Bounds proven: setters touch only fixed offsets inside the 8-byte
// header of emit-sized buffers.
#[allow(clippy::indexing_slicing)]
impl<T: AsRef<[u8]> + AsMut<[u8]>> Header<T> {
    /// Writes the standard flags byte (I bit set) and zeroes the reserved
    /// fields.
    pub fn init(&mut self) {
        let d = self.buffer.as_mut();
        d[0] = FLAG_VNI_VALID;
        d[1] = 0;
        d[2] = 0;
        d[3] = 0;
        d[7] = 0;
    }

    /// Sets the VNI.
    pub fn set_vni(&mut self, vni: Vni) {
        self.buffer.as_mut()[4..7].copy_from_slice(&vni.to_be_bytes());
    }

    /// Mutable encapsulated payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = [0u8; HEADER_LEN + 4];
        let mut h = Header::new_unchecked(&mut buf[..]);
        h.init();
        h.set_vni(Vni::from_const(0x123456));
        h.payload_mut().copy_from_slice(b"abcd");
        let h = Header::new_checked(&buf[..]).unwrap();
        assert!(h.vni_valid());
        assert_eq!(h.vni(), Vni::from_const(0x123456));
        assert_eq!(h.payload(), b"abcd");
    }

    #[test]
    fn checked_rejects_short_or_flagless() {
        assert_eq!(
            Header::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
        // Missing I flag.
        assert_eq!(
            Header::new_checked(&[0u8; 8][..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn max_vni() {
        let mut buf = [0u8; HEADER_LEN];
        let mut h = Header::new_unchecked(&mut buf[..]);
        h.init();
        h.set_vni(Vni::from_const(Vni::MAX));
        assert_eq!(Header::new_unchecked(&buf[..]).vni().value(), Vni::MAX);
    }
}
