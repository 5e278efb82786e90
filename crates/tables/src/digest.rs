//! Key-digest compression for wide exact-match keys.
//!
//! "If the key of table entries is too long, we try to compress it to a
//! shorter hash digest to save memory space... The compression from
//! 128-bit to 32-bit for IPv4/IPv6 table pooling will cause two kinds of
//! conflicts. The first is between compressed IPv6 and original IPv4,
//! which can easily be distinguished by using an additional label in the
//! table entry. The second is between two compressed IPv6 keys, which can
//! be resolved with an extra small table to hold the conflicting entries
//! containing the complete 128-bit key" (§4.4).
//!
//! [`DigestExactTable`] implements exactly this scheme over
//! [`crate::types::VmKey`]s: IPv4 keys keep their original 32 address
//! bits; IPv6 addresses are hashed to 32 bits; a one-bit family label
//! disambiguates the two planes; and colliding IPv6 keys overflow into a
//! full-width conflict table that is always probed first ("we will first
//! search the conflicting table with the 128-bit key, and then the
//! IPv4/IPv6 table with the 32-bit compressed key").

use std::collections::hash_map::Entry;

use sailfish_net::hash::MixMap;

use crate::error::{Error, Result};
use crate::types::VmKey;

/// The compressed slot key: family label, VNI, and 32 bits of address (raw
/// for IPv4, a hash digest for IPv6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlotKey {
    v6: bool,
    vni: u32,
    addr32: u32,
}

/// Statistics of the digest table, consumed by the memory model and the
/// Fig 17 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestStats {
    /// Entries resident in the compressed main table (1 word each).
    pub main_entries: usize,
    /// Entries displaced into the full-width conflict table.
    pub conflict_entries: usize,
}

/// Where a traced lookup resolved, mirroring the two-probe hardware
/// sequence (conflict table first, then the compressed main table). The
/// dataplane executor uses this to attribute per-table hit counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestLookup {
    /// Found in the compressed main table (digest matched and the stored
    /// full-width key confirmed).
    HitMain,
    /// Found in the full-width conflict table (the key's digest collides
    /// with another resident key).
    HitConflict,
    /// Not present in either table.
    Miss,
}

/// An exact-match table with 128→32-bit key compression.
///
/// Both planes hash with the fixed-key [`sailfish_net::hash::MixState`]:
/// the controller provisions every key, and the scheme being modelled is
/// itself an unkeyed hash backed by a conflict table.
#[derive(Debug, Clone)]
pub struct DigestExactTable<V> {
    /// Compressed main table; stores the full key alongside the value so
    /// the model can audit that conflicts were in fact displaced (hardware
    /// stores only the digest — correctness is by construction).
    main: MixMap<SlotKey, (VmKey, V)>,
    /// Full-width conflict table, probed first on lookup.
    conflict: MixMap<VmKey, V>,
}

impl<V> Default for DigestExactTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The 128→32 digest function: an xor-fold of a 64-bit FNV-1a hash. Any
/// well-mixed function works; FNV keeps the model dependency-free and
/// deterministic across runs.
pub fn digest32(vni: u32, addr: u128) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in vni.to_be_bytes() {
        feed(b);
    }
    for b in addr.to_be_bytes() {
        feed(b);
    }
    // FNV's tail bytes avalanche poorly for sequential keys; finish with
    // the murmur3 fmix64 so nearby addresses decorrelate fully.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    (h >> 32) as u32 ^ h as u32
}

impl<V> DigestExactTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        DigestExactTable {
            main: MixMap::default(),
            conflict: MixMap::default(),
        }
    }

    /// Makes room for `additional` more entries, so a bulk load does not
    /// re-hash the main table as it grows.
    pub fn reserve(&mut self, additional: usize) {
        self.main.reserve(additional);
    }

    fn slot_key(key: &VmKey) -> SlotKey {
        let (vni, addr) = key.canonical_bits();
        match key.ip {
            core::net::IpAddr::V4(_) => SlotKey {
                v6: false,
                vni,
                addr32: addr as u32,
            },
            core::net::IpAddr::V6(_) => SlotKey {
                v6: true,
                vni,
                addr32: digest32(vni, addr),
            },
        }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.main.len() + self.conflict.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Layout statistics.
    pub fn stats(&self) -> DigestStats {
        DigestStats {
            main_entries: self.main.len(),
            conflict_entries: self.conflict.len(),
        }
    }

    /// Inserts an entry. A digest collision with a *different* key lands in
    /// the conflict table; inserting the same key twice is an error.
    pub fn insert(&mut self, key: VmKey, value: V) -> Result<()> {
        if self.conflict.contains_key(&key) {
            return Err(Error::Duplicate);
        }
        // One probe of the (far larger than cache) main plane decides
        // all three outcomes.
        match self.main.entry(Self::slot_key(&key)) {
            Entry::Occupied(slot) if slot.get().0 == key => Err(Error::Duplicate),
            Entry::Occupied(_) => {
                // Digest collision between distinct keys: displace the new
                // entry to the conflict table.
                self.conflict.insert(key, value);
                Ok(())
            }
            Entry::Vacant(slot) => {
                slot.insert((key, value));
                Ok(())
            }
        }
    }

    /// Looks up a key: conflict table first, then the compressed table.
    pub fn get(&self, key: &VmKey) -> Option<&V> {
        if let Some(v) = self.conflict.get(key) {
            return Some(v);
        }
        let slot = Self::slot_key(key);
        match self.main.get(&slot) {
            Some((stored, v)) if stored == key => Some(v),
            // A hardware digest table would return this colliding slot's
            // value; the model reports the miss instead, which is sound
            // because insertion displaced every colliding key into the
            // conflict table — if `key` were present it would have been
            // found there.
            _ => None,
        }
    }

    /// Looks up a key and reports *which* table resolved it, for hit/miss
    /// accounting in the behavioral dataplane.
    //
    // Always inlined, with `VmNcTable::lookup_traced`: the key is a
    // 21-byte `VmKey` around a 17-byte `IpAddr`, which an out-of-line
    // call passes through memory — written in pieces, read back in wider
    // loads the store buffer cannot forward. Such a load waits for its
    // stores to retire, i.e. for every *older* cache miss, so a run of
    // independent probes (the batch miss path's warm stage) executed one
    // miss at a time: 260 ns a lookup over independent region-scale keys
    // out of line, 85 ns inlined.
    #[inline(always)]
    pub fn get_traced(&self, key: &VmKey) -> (Option<&V>, DigestLookup) {
        if let Some(v) = self.conflict.get(key) {
            return (Some(v), DigestLookup::HitConflict);
        }
        let slot = Self::slot_key(key);
        match self.main.get(&slot) {
            Some((stored, v)) if stored == key => (Some(v), DigestLookup::HitMain),
            _ => (None, DigestLookup::Miss),
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &VmKey) -> Option<V> {
        if let Some(v) = self.conflict.remove(key) {
            return Some(v);
        }
        let slot = Self::slot_key(key);
        match self.main.get(&slot) {
            Some((stored, _)) if stored == key => self.main.remove(&slot).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&VmKey, &V)> {
        self.main
            .values()
            .map(|(k, v)| (k, v))
            .chain(self.conflict.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::net::{IpAddr, Ipv6Addr};
    use sailfish_net::Vni;

    fn v4key(vni: u32, ip: &str) -> VmKey {
        VmKey::new(Vni::from_const(vni), ip.parse().unwrap())
    }

    fn v6key(vni: u32, addr: u128) -> VmKey {
        VmKey::new(Vni::from_const(vni), IpAddr::V6(Ipv6Addr::from(addr)))
    }

    #[test]
    fn basic_insert_get_remove() {
        let mut t = DigestExactTable::new();
        t.insert(v4key(1, "10.0.0.1"), "a").unwrap();
        t.insert(v6key(1, 0xdead), "b").unwrap();
        assert_eq!(t.get(&v4key(1, "10.0.0.1")), Some(&"a"));
        assert_eq!(t.get(&v6key(1, 0xdead)), Some(&"b"));
        assert_eq!(t.get(&v6key(1, 0xbeef)), None);
        assert_eq!(t.remove(&v4key(1, "10.0.0.1")), Some("a"));
        assert_eq!(t.remove(&v4key(1, "10.0.0.1")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut t = DigestExactTable::new();
        t.insert(v4key(1, "10.0.0.1"), 1).unwrap();
        assert_eq!(t.insert(v4key(1, "10.0.0.1"), 2), Err(Error::Duplicate));
    }

    #[test]
    fn v4_and_v6_planes_do_not_alias() {
        // An IPv6 key whose digest happens to equal an IPv4 address value
        // must coexist: the family label separates them. Find such a pair
        // by construction: pick a v6 key, then use its digest as the v4
        // address.
        let mut t = DigestExactTable::new();
        let k6 = v6key(7, 0x1234_5678_9abc_def0);
        let (vni, addr) = k6.canonical_bits();
        let d = digest32(vni, addr);
        let v4 = VmKey::new(Vni::from_const(7), IpAddr::V4(core::net::Ipv4Addr::from(d)));
        t.insert(k6, "six").unwrap();
        t.insert(v4, "four").unwrap();
        assert_eq!(t.get(&k6), Some(&"six"));
        assert_eq!(t.get(&v4), Some(&"four"));
        assert_eq!(t.stats().conflict_entries, 0, "label must disambiguate");
    }

    #[test]
    fn v6_digest_collisions_go_to_conflict_table() {
        // Brute-force a digest collision among random-ish v6 addresses.
        // With a 32-bit digest, ~2^16 keys give good collision odds; to
        // keep the test fast we instead synthesize a collision by scanning
        // a modest window and skipping the test body if none found.
        let mut seen: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
        let mut pair = None;
        for i in 0..600_000u128 {
            let d = digest32(1, i);
            if let Some(prev) = seen.insert(d, i) {
                pair = Some((prev, i));
                break;
            }
        }
        // Expected collisions in 600k draws from 2^32 ≈ 42; absence would
        // indicate a broken digest.
        let (a, b) = pair.expect("birthday paradox: a collision exists in 600k keys");
        assert_ne!(a, b);
        let mut t = DigestExactTable::new();
        t.insert(v6key(1, a), "first").unwrap();
        t.insert(v6key(1, b), "second").unwrap();
        assert_eq!(t.stats().main_entries, 1);
        assert_eq!(t.stats().conflict_entries, 1);
        // Both resolve correctly despite sharing a digest.
        assert_eq!(t.get(&v6key(1, a)), Some(&"first"));
        assert_eq!(t.get(&v6key(1, b)), Some(&"second"));
        // Removing the main entry keeps the conflicting one reachable.
        assert_eq!(t.remove(&v6key(1, a)), Some("first"));
        assert_eq!(t.get(&v6key(1, b)), Some(&"second"));
    }

    #[test]
    fn conflict_rate_is_tiny_at_scale() {
        // "According to our experience, the 128-to-32 compression by
        // hashing will generate very limited conflicts" — check the model
        // agrees at 100k entries: expected collisions ≈ n²/2³³ ≈ 1.2.
        let mut t = DigestExactTable::new();
        for i in 0..100_000u128 {
            t.insert(v6key(2, 0x2001_0db8 << 96 | i), i).unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.main_entries + stats.conflict_entries, 100_000);
        assert!(
            stats.conflict_entries < 50,
            "conflicts {} should be tiny",
            stats.conflict_entries
        );
    }

    #[test]
    fn traced_lookup_reports_resolving_table() {
        let mut seen: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
        let mut pair = None;
        for i in 0..600_000u128 {
            let d = digest32(1, i);
            if let Some(prev) = seen.insert(d, i) {
                pair = Some((prev, i));
                break;
            }
        }
        let (a, b) = pair.expect("birthday paradox: a collision exists in 600k keys");
        let mut t = DigestExactTable::new();
        t.insert(v6key(1, a), "main").unwrap();
        t.insert(v6key(1, b), "conflict").unwrap();
        assert_eq!(
            t.get_traced(&v6key(1, a)),
            (Some(&"main"), DigestLookup::HitMain)
        );
        assert_eq!(
            t.get_traced(&v6key(1, b)),
            (Some(&"conflict"), DigestLookup::HitConflict)
        );
        assert_eq!(t.get_traced(&v6key(2, a)), (None, DigestLookup::Miss));
    }

    /// Worst bucket load over mean load for both views hashbrown takes of
    /// a hash: the low `bits` bits (bucket index) and the top seven (tag).
    fn skew(hashes: &[u64], bits: u32) -> (f64, f64) {
        let worst = |index: &dyn Fn(u64) -> usize, buckets: usize| {
            let mut load = vec![0usize; buckets];
            for &h in hashes {
                load[index(h)] += 1;
            }
            let mean = hashes.len() as f64 / buckets as f64;
            load.into_iter().max().unwrap_or(0) as f64 / mean
        };
        (
            worst(&|h| (h & ((1 << bits) - 1)) as usize, 1 << bits),
            worst(&|h| (h >> 57) as usize, 128),
        )
    }

    /// The fixed-key hasher on the key shapes the region tables actually
    /// hold. Every cluster's per-VNI index and the directory see VNIs
    /// that are all congruent modulo the cluster count (`home = anchor %
    /// clusters`); the main plane sees sequential host addresses inside
    /// one subnet, one address under tens of thousands of VNIs, and v6
    /// slots whose `addr32` is already a digest. With ≈100 keys per
    /// low-bit bucket and ≈200–800 per tag a uniform hash stays under
    /// 1.6× the mean (this one measures ≤ 1.4×); the bare multiply
    /// without the finalizer reaches 4× on the first shape.
    #[test]
    fn fixed_key_hasher_spreads_region_key_shapes() {
        use core::hash::BuildHasher;
        use sailfish_net::hash::MixState;
        const LIMIT: f64 = 1.6;
        let slot = |key: VmKey| MixState.hash_one(DigestExactTable::<()>::slot_key(&key));
        let v4 = |vni: u32, addr: u32| {
            VmKey::new(
                Vni::from_const(vni),
                IpAddr::V4(core::net::Ipv4Addr::from(addr)),
            )
        };
        let congruent: Vec<u64> = (0..25_000u32)
            .map(|i| MixState.hash_one(Vni::from_const(3 + 4 * i)))
            .collect();
        let sequential_hosts: Vec<u64> = (0..100_000u32)
            .map(|i| slot(v4(7001, 0x0a00_0000 | i)))
            .collect();
        let one_address_many_vnis: Vec<u64> = (0..25_000u32)
            .map(|i| slot(v4(1 + 4 * i, 0xc0a8_0a02)))
            .collect();
        let digests: Vec<u64> = (0..100_000u128)
            .map(|i| slot(v6key(9, 0x2001_0db8 << 96 | i)))
            .collect();
        for (name, hashes, bits) in [
            ("congruent VNIs", &congruent, 8),
            ("sequential hosts", &sequential_hosts, 10),
            ("one address, many VNIs", &one_address_many_vnis, 8),
            ("digest slots", &digests, 10),
        ] {
            let (low, tag) = skew(hashes, bits);
            assert!(low < LIMIT, "{name}: low-{bits}-bit skew {low:.2}");
            assert!(tag < LIMIT, "{name}: top-7-bit tag skew {tag:.2}");
        }
    }

    #[test]
    fn vni_participates_in_digest() {
        assert_ne!(digest32(1, 42), digest32(2, 42));
    }
}
