//! Toeplitz receive-side-scaling hash.
//!
//! XGW-x86 distributes packets to CPU cores with "flow-based hashing ...
//! via the RSS (receiver side scaling) technology" (§2.3). This module
//! implements the Microsoft RSS Toeplitz hash exactly as NICs do, so the
//! software-gateway model inherits the real placement behaviour — including
//! the property that a heavy-hitter flow lands on exactly one core.

use core::net::IpAddr;

use crate::flow::FiveTuple;

/// The de-facto standard RSS key published in the Microsoft RSS
/// specification and shipped as the default by many NIC drivers.
pub const MICROSOFT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// The longest input a 40-byte key can hash: each input bit selects a
/// 32-bit key window, and the last full window starts at bit 36 × 8 − 1.
/// An IPv6 4-tuple is exactly this long.
const MAX_INPUT: usize = 36;

/// Per-position contribution tables: `windows[i][b]` is the XOR of the
/// key windows selected by the set bits of byte value `b` at input
/// position `i`, so a hash is one load and one XOR per input byte.
type Windows = [[u32; 256]; MAX_INPUT];

const fn windows_of(key: &[u8; 40]) -> Windows {
    let mut table = [[0u32; 256]; MAX_INPUT];
    let mut i = 0;
    while i < MAX_INPUT {
        // The eight windows opening inside key byte `i` all sit in the
        // 40 bits of key bytes `i..i + 5`.
        let bits = (key[i] as u64) << 32
            | (key[i + 1] as u64) << 24
            | (key[i + 2] as u64) << 16
            | (key[i + 3] as u64) << 8
            | key[i + 4] as u64;
        let mut byte = 1usize;
        while byte < 256 {
            // Everything but the lowest set bit is already filled in.
            let low = byte & byte.wrapping_neg();
            let window = (bits >> (1 + low.trailing_zeros())) as u32;
            table[i][byte] = table[i][byte ^ low] ^ window;
            byte += 1;
        }
        i += 1;
    }
    table
}

/// The default key's tables, shared by every [`Toeplitz::default`].
static MICROSOFT_WINDOWS: Windows = windows_of(&MICROSOFT_KEY);

/// A Toeplitz hasher parameterized by a 40-byte secret key.
///
/// A 40-byte key supports inputs up to 36 bytes (IPv6 5-tuples), matching
/// real NIC constraints.
#[derive(Debug, Clone)]
pub struct Toeplitz {
    windows: KeyWindows,
}

/// The default key borrows the one static table set — a default hasher
/// costs nothing to build, clone or embed (ECMP groups and workers hold
/// one each) — and a custom key owns its 36 KiB.
#[derive(Debug, Clone)]
enum KeyWindows {
    Microsoft,
    Custom(Box<Windows>),
}

impl Default for Toeplitz {
    fn default() -> Self {
        Toeplitz {
            windows: KeyWindows::Microsoft,
        }
    }
}

impl Toeplitz {
    /// Builds a hasher with a custom key.
    pub fn new(key: [u8; 40]) -> Self {
        Toeplitz {
            windows: KeyWindows::Custom(Box::new(windows_of(&key))),
        }
    }

    /// Hashes an input byte string: for each set bit of the input (MSB
    /// first), XORs in the 32-bit window of the key starting at that bit
    /// position.
    ///
    /// Only the first 36 bytes (the IPv6 4-tuple size) take part: past
    /// them the key has no full window left to select, so longer inputs
    /// hash as their 36-byte prefix.
    pub fn hash_bytes(&self, input: &[u8]) -> u32 {
        let windows = match &self.windows {
            KeyWindows::Microsoft => &MICROSOFT_WINDOWS,
            KeyWindows::Custom(windows) => &**windows,
        };
        windows
            .iter()
            .zip(input)
            .fold(0, |hash, (position, &byte)| {
                hash ^ position[usize::from(byte)]
            })
    }

    /// Hashes a 5-tuple the way a dual-stack NIC does: source address,
    /// destination address, then source and destination ports, all in
    /// network byte order. (RSS does not hash the protocol field.)
    pub fn hash_tuple(&self, t: &FiveTuple) -> u32 {
        let mut buf = [0u8; 36];
        let len = match (t.src_ip, t.dst_ip) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                buf[..4].copy_from_slice(&s.octets());
                buf[4..8].copy_from_slice(&d.octets());
                8
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                buf[..16].copy_from_slice(&s.octets());
                buf[16..32].copy_from_slice(&d.octets());
                32
            }
            // Mixed-family tuples cannot appear on the wire; hash the IPv4
            // side mapped into IPv6 space so the function stays total.
            (s, d) => {
                let s6 = match s {
                    IpAddr::V4(a) => a.to_ipv6_mapped(),
                    IpAddr::V6(a) => a,
                };
                let d6 = match d {
                    IpAddr::V4(a) => a.to_ipv6_mapped(),
                    IpAddr::V6(a) => a,
                };
                buf[..16].copy_from_slice(&s6.octets());
                buf[16..32].copy_from_slice(&d6.octets());
                32
            }
        };
        buf[len..len + 2].copy_from_slice(&t.src_port.to_be_bytes());
        buf[len + 2..len + 4].copy_from_slice(&t.dst_port.to_be_bytes());
        self.hash_bytes(&buf[..len + 4])
    }

    /// Maps a flow to one of `queues` RX queues, as the NIC indirection
    /// table does (low-order hash bits modulo the table size).
    pub fn queue_for(&self, t: &FiveTuple, queues: usize) -> usize {
        assert!(queues > 0, "queue count must be positive");
        self.hash_tuple(t) as usize % queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::IpProtocol;

    // Published test vectors from the Microsoft RSS specification
    // ("with ports" column).
    #[test]
    fn microsoft_ipv4_test_vectors() {
        let t = Toeplitz::default();
        let cases: [(FiveTuple, u32); 2] = [
            (
                FiveTuple::new(
                    "66.9.149.187".parse().unwrap(),
                    "161.142.100.80".parse().unwrap(),
                    IpProtocol::Tcp,
                    2794,
                    1766,
                ),
                0x51ccc178,
            ),
            (
                FiveTuple::new(
                    "199.92.111.2".parse().unwrap(),
                    "65.69.140.83".parse().unwrap(),
                    IpProtocol::Tcp,
                    14230,
                    4739,
                ),
                0xc626b0ea,
            ),
        ];
        for (tuple, want) in cases {
            assert_eq!(t.hash_tuple(&tuple), want, "tuple {tuple}");
        }
    }

    #[test]
    fn microsoft_ipv6_test_vector() {
        let t = Toeplitz::default();
        let tuple = FiveTuple::new(
            "3ffe:2501:200:1fff::7".parse().unwrap(),
            "3ffe:2501:200:3::1".parse().unwrap(),
            IpProtocol::Tcp,
            2794,
            1766,
        );
        assert_eq!(t.hash_tuple(&tuple), 0x40207d3d);
    }

    #[test]
    fn deterministic_queue_assignment() {
        let t = Toeplitz::default();
        let tuple = FiveTuple::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            IpProtocol::Udp,
            1111,
            2222,
        );
        let q = t.queue_for(&tuple, 32);
        assert!(q < 32);
        assert_eq!(q, t.queue_for(&tuple, 32));
    }

    #[test]
    fn mixed_family_tuple_hashes_without_panicking() {
        let t = Toeplitz::default();
        let tuple = FiveTuple::new(
            "10.0.0.1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            IpProtocol::Udp,
            1,
            2,
        );
        let _ = t.hash_tuple(&tuple);
    }

    #[test]
    #[should_panic(expected = "queue count")]
    fn zero_queues_panics() {
        let t = Toeplitz::default();
        let tuple = FiveTuple::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            IpProtocol::Udp,
            1,
            2,
        );
        t.queue_for(&tuple, 0);
    }

    /// The specification's bit-serial form, kept as the oracle for the
    /// table form: shift a 64-bit register through the key one input bit
    /// at a time.
    fn hash_bit_serial(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut window = u64::from_be_bytes(key[..8].try_into().unwrap());
        let mut next_key_byte = 8;
        let mut result = 0u32;
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= (window >> 32) as u32;
                }
                window <<= 1;
            }
            if next_key_byte < key.len() {
                window |= u64::from(key[next_key_byte]);
                next_key_byte += 1;
            }
        }
        result
    }

    #[test]
    fn table_form_matches_bit_serial_oracle_for_every_length() {
        use sailfish_util::rand::Rng;
        sailfish_util::check::run("toeplitz_table_vs_bit_serial", 64, |rng| {
            let mut key = [0u8; 40];
            key.iter_mut().for_each(|b| *b = rng.gen());
            let hasher = Toeplitz::new(key);
            for len in 0..=MAX_INPUT {
                let input: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                assert_eq!(
                    hasher.hash_bytes(&input),
                    hash_bit_serial(&key, &input),
                    "len {len}"
                );
            }
        });
        let input: Vec<u8> = (0..MAX_INPUT as u8).collect();
        assert_eq!(
            Toeplitz::default().hash_bytes(&input),
            hash_bit_serial(&MICROSOFT_KEY, &input)
        );
    }

    #[test]
    fn oversized_input_hashes_as_its_36_byte_prefix() {
        let t = Toeplitz::default();
        let mut input = [0xa5u8; 64];
        let prefix = t.hash_bytes(&input[..MAX_INPUT]);
        assert_eq!(t.hash_bytes(&input[..37]), prefix);
        input[40] ^= 0xff;
        assert_eq!(t.hash_bytes(&input), prefix);
        input[35] ^= 1;
        assert_ne!(t.hash_bytes(&input), prefix);
    }
}
