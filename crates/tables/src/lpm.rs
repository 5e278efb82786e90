//! Longest-prefix match as exact matches, one per prefix length.
//!
//! [`Lpm128`] is the reference *software* LPM over a 128-bit, MSB-aligned
//! key space: the semantics that the hardware structure
//! [`crate::alpm::AlpmTable`] is property-tested against, one table per
//! family plane beside the table under test.
//!
//! The store is one hash map from prefix to value and the list of prefix
//! lengths present, longest first. A lookup masks the address to each
//! present length in turn and returns the first exact hit — the
//! definition of LPM, and nothing of ALPM's carving or buckets, so it
//! stays an independent oracle for it. The logical
//! [`crate::vxlan_route::VxlanRoutingTable`] (also the XGW-x86 routing
//! table) keeps the same definition over one flat map for every VNI
//! rather than an `Lpm128` per VNI and family: at region scale, ≈25k VNIs
//! each owning two maps cost ≈110 B and half an allocation per route.
//!
//! IPv4 keys are mapped into the 128-bit space by the caller (either
//! MSB-aligned per-family or via the pooled `::ffff:0:0/96` plane, see
//! `sailfish_net::prefix::IpPrefix::pooled_bits`).

use sailfish_net::hash::MixMap;

use crate::error::{Error, Result};

/// A prefix in the 128-bit MSB-aligned key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key128 {
    /// Address bits; bit 127 (MSB) is the first bit of the prefix.
    pub value: u128,
    /// Prefix length, `0..=128`.
    pub len: u8,
}

impl Key128 {
    /// Builds a key, canonicalizing (zeroing) host bits.
    pub fn new(value: u128, len: u8) -> Result<Self> {
        if len > 128 {
            return Err(Error::InvalidKey);
        }
        Ok(Key128 {
            value: value & Self::mask(len),
            len,
        })
    }

    /// The bit mask selecting the first `len` bits (all of them past 128).
    pub fn mask(len: u8) -> u128 {
        u128::MAX
            .checked_shl(128 - u32::from(len.min(128)))
            .unwrap_or(0)
    }

    /// Whether `addr` falls under this prefix.
    pub fn contains(&self, addr: u128) -> bool {
        addr & Self::mask(self.len) == self.value
    }

    /// Whether `other` is equal to or more specific than this prefix.
    pub fn covers(&self, other: &Key128) -> bool {
        other.len >= self.len && self.contains(other.value)
    }

    /// The bit of `addr` at position `pos` (0 = MSB).
    pub fn bit(addr: u128, pos: u8) -> usize {
        (addr >> (127 - pos as u32) & 1) as usize
    }
}

/// A longest-prefix-match table over 128-bit prefixes.
#[derive(Debug)]
pub struct Lpm128<T> {
    entries: MixMap<Key128, T>,
    /// `(prefix length, entries of that length)`, longest first; no
    /// length with zero entries.
    lengths: Vec<(u8, usize)>,
}

impl<T> Default for Lpm128<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// `key` with its host bits cleared; only the first `len` bits name a
/// prefix.
fn canonical(key: Key128) -> Key128 {
    Key128 {
        value: key.value & Key128::mask(key.len),
        len: key.len,
    }
}

impl<T> Lpm128<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Lpm128 {
            entries: MixMap::default(),
            lengths: Vec::new(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `len` sits in the longest-first `lengths`.
    fn length_slot(&self, len: u8) -> core::result::Result<usize, usize> {
        self.lengths.binary_search_by(|&(l, _)| len.cmp(&l))
    }

    /// Inserts a prefix, returning the previous value if the prefix was
    /// already present.
    pub fn insert(&mut self, key: Key128, data: T) -> Option<T> {
        let key = canonical(key);
        let old = self.entries.insert(key, data);
        if old.is_none() {
            match self.length_slot(key.len) {
                Ok(i) => self.lengths[i].1 += 1,
                Err(i) => self.lengths.insert(i, (key.len, 1)),
            }
        }
        old
    }

    /// Removes a prefix, returning its value.
    pub fn remove(&mut self, key: Key128) -> Option<T> {
        let key = canonical(key);
        let removed = self.entries.remove(&key)?;
        if let Ok(i) = self.length_slot(key.len) {
            self.lengths[i].1 -= 1;
            if self.lengths[i].1 == 0 {
                self.lengths.remove(i);
            }
        }
        Some(removed)
    }

    /// Returns the value stored exactly at `key`.
    pub fn get_exact(&self, key: Key128) -> Option<&T> {
        self.entries.get(&canonical(key))
    }

    /// Longest-prefix lookup of a full 128-bit address.
    pub fn lookup(&self, addr: u128) -> Option<(Key128, &T)> {
        self.lengths.iter().find_map(|&(len, _)| {
            let key = Key128 {
                value: addr & Key128::mask(len),
                len,
            };
            self.entries.get(&key).map(|data| (key, data))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(value: u128, len: u8) -> Key128 {
        Key128::new(value << (128 - len.max(1) as u32).min(127), len).unwrap()
    }

    /// Key where `value` is already MSB-aligned.
    fn ka(value: u128, len: u8) -> Key128 {
        Key128::new(value, len).unwrap()
    }

    #[test]
    fn key_canonicalizes() {
        let key = Key128::new(u128::MAX, 8).unwrap();
        assert_eq!(key.value, 0xff << 120);
        assert!(Key128::new(0, 129).is_err());
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = Lpm128::new();
        let a = ka(0xab << 120, 8);
        let b = ka(0xabcd << 112, 16);
        assert_eq!(t.insert(a, "a"), None);
        assert_eq!(t.insert(b, "b"), None);
        assert_eq!(t.len(), 2);

        // A /16 address under both picks the longer prefix.
        let addr = 0xabcd_1234u128 << 96;
        assert_eq!(t.lookup(addr).unwrap().1, &"b");
        // An address only under the /8 picks it.
        let addr = 0xab00_0000u128 << 96 | 1 << 95;
        assert_eq!(t.lookup(addr).unwrap().1, &"a");
        // An unrelated address misses.
        assert!(t.lookup(0x11u128 << 120).is_none());

        assert_eq!(t.remove(b), Some("b"));
        assert_eq!(t.lookup(0xabcd_0000u128 << 96).unwrap().1, &"a");
        assert_eq!(t.remove(b), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn default_route() {
        let mut t = Lpm128::new();
        t.insert(ka(0, 0), "default");
        assert_eq!(t.lookup(u128::MAX).unwrap().1, &"default");
        assert_eq!(t.lookup(0).unwrap().1, &"default");
    }

    #[test]
    fn replace_returns_old() {
        let mut t = Lpm128::new();
        let key = ka(5 << 100, 28);
        assert_eq!(t.insert(key, 1), None);
        assert_eq!(t.insert(key, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_exact(key), Some(&2));
    }

    #[test]
    fn host_bits_of_a_hand_built_key_are_ignored() {
        let mut t = Lpm128::new();
        let sloppy = Key128 {
            value: 0xab << 120 | 1,
            len: 8,
        };
        t.insert(sloppy, "a");
        assert_eq!(t.get_exact(ka(0xab << 120, 8)), Some(&"a"));
        assert_eq!(t.lookup(0xab << 120).unwrap(), (ka(0xab << 120, 8), &"a"));
        assert_eq!(t.remove(sloppy), Some("a"));
        assert!(t.is_empty());
    }

    #[test]
    fn host_route_at_128_bits() {
        let mut t = Lpm128::new();
        let host = ka(42, 128);
        t.insert(host, "host");
        assert_eq!(t.lookup(42).unwrap(), (host, &"host"));
        assert!(t.lookup(43).is_none());
    }

    #[test]
    fn remove_prunes_empty_branches() {
        let mut t = Lpm128::new();
        let deep = ka(7, 128);
        t.insert(deep, "x");
        t.remove(deep);
        assert!(t.is_empty());
        // Removing the last prefix of its length leaves nothing behind
        // for a lookup to probe: inserting and looking up still works.
        t.insert(ka(0, 0), "d");
        assert_eq!(t.lookup(7).unwrap().1, &"d");
    }

    // Differential test against a naive scan, over every prefix length,
    // with replaces and removes interleaved with the inserts.
    #[test]
    fn matches_naive_scan_on_random_input() {
        use sailfish_util::rand::rngs::StdRng;
        use sailfish_util::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5a11_f154);
        // Addresses share their top bits so prefixes of every length
        // overlap; the low half is random so long prefixes rarely collide.
        let addr =
            |rng: &mut StdRng| rng.gen_range(0..4u128) << 120 | rng.gen_range(0..1u128 << 64);
        let mut t = Lpm128::new();
        let mut entries: Vec<(Key128, u32)> = Vec::new();
        let mut lengths_seen = [false; 129];
        for i in 0..3000u32 {
            let key = match rng.gen_range(0..10) {
                // Revisit a resident prefix: remove it or replace its value.
                0..=2 if !entries.is_empty() => entries[rng.gen_range(0..entries.len())].0,
                _ => Key128::new(addr(&mut rng), rng.gen_range(0..=128)).unwrap(),
            };
            lengths_seen[usize::from(key.len)] = true;
            let resident = entries.iter().position(|(k, _)| *k == key);
            match resident {
                Some(r) if rng.gen_bool(0.5) => {
                    let (_, v) = entries.swap_remove(r);
                    assert_eq!(t.remove(key), Some(v));
                }
                Some(r) => {
                    let old = std::mem::replace(&mut entries[r].1, i);
                    assert_eq!(t.insert(key, i), Some(old));
                }
                None => {
                    assert_eq!(t.insert(key, i), None);
                    entries.push((key, i));
                }
            }
            assert_eq!(t.len(), entries.len());
            // One probe exactly on a resident prefix, one anywhere.
            for a in [
                entries
                    .get(i as usize % entries.len().max(1))
                    .map_or(0, |e| e.0.value),
                addr(&mut rng),
            ] {
                let got = t.lookup(a).map(|(k, v)| (k, *v));
                let want = entries
                    .iter()
                    .filter(|(k, _)| k.contains(a))
                    .max_by_key(|(k, _)| k.len)
                    .copied();
                assert_eq!(got, want, "addr {a:#034x}");
            }
        }
        assert!(lengths_seen.iter().all(|&seen| seen));
        for (k, v) in &entries {
            assert_eq!(t.get_exact(*k), Some(v));
        }
    }

    #[test]
    fn helper_k_is_sane() {
        // Guard the test helper itself.
        assert_eq!(k(0xab, 8).len, 8);
    }
}
