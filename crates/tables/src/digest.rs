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
//!
//! # What hardware stores, what the model stores
//!
//! A hardware main-table entry is the **tag** — family label, VNI and 32
//! address bits, one SRAM word — and the value. The model's slot carries
//! the tag, the value, and the *full key* as well, so that it can audit
//! what hardware gets by construction: a lookup whose tag matches a slot
//! holding a different key reports a miss (hardware would return that
//! slot's value), which is sound because every key that shares a
//! resident tag was displaced into the conflict table when it was
//! inserted. [`DigestStats`] counts entries per plane; the memory model
//! prices a main entry at one word whatever the slot holds here.
//!
//! # Layout
//!
//! The main plane is one open-addressed array of slots — 56 bytes for
//! the VM-NC table's values, an empty slot being a niche of the entry —
//! at a load of at most 2/3. A tag's *home* is its fixed-key hash
//! ([`sailfish_net::hash::MixState`]; the controller provisions every
//! key, and the scheme being modelled is itself an unkeyed hash backed by
//! a conflict table) scaled to the array length, so homes rise with the
//! hash at every length. Entries sit at or after their home, in hash
//! order along each run of occupied slots (the array is circular: a run
//! reaching the end continues at slot 0). That order makes the array a
//! function of the resident key set and the array length alone — two
//! tables holding the same keys at the same length are slot-for-slot
//! equal however they were filled — and lets a probe stop at the first
//! resident that sorts after its tag instead of at the next empty slot.
//!
//! The load is a trade between the lookup and memory, settled by memory.
//! A miss-path probe is one of many independent lookups the core
//! overlaps, and what breaks the overlap is a walk of unpredictable
//! length: at 2/3 a key sits one slot from home on average and 400k
//! independent region-scale lookups take 72–85 ns each, at 3/5 66–70, at
//! 1/2 (half a slot on average, two keys in three at home) 48–57 — what
//! the hash map this array replaced took. But at 2/3 the region's four
//! planes are the 36 MiB the hash maps held, and at 1/2 they are 47: on
//! the `churn` benchmark, which keeps several epochs live, that read as
//! 10% more resident memory (4% at 4/7, 3% at 3/5, under 1% at 2/3)
//! against a 5% bound, for a probe that is one step of a ≈ 500 ns walk.
//! Neither a side lane of one-byte fingerprints scanned eight at a time
//! (the hash map's own trick: 65–80 ns at 2/3) nor comparing the first
//! three slots without branching (92–100) bought the difference back.
//!
//! # Bulk and incremental
//!
//! [`DigestExactTable::from_run`] builds a table from a run of entries
//! in one go: every key is hashed once, the run is counting-sorted by
//! home (stably) and the slots are streamed out front to back, each
//! written once. [`DigestExactTable::insert`] places one entry into the
//! array as it stands, shifting the rest of its run up by one;
//! [`DigestExactTable::remove`] shifts it back. When an insert would
//! pass the load limit the array is re-laid with twice the room. All of
//! them go through the same placement step, so they cannot disagree
//! about where an entry belongs.
//!
//! # First come, first kept
//!
//! Of the keys sharing one tag, the first to arrive takes the main slot
//! and every later one goes to the conflict table — in `insert` by
//! arrival, in `from_run` by position in the run (the sort is stable and
//! equal tags share a home). Removing the main entry does not promote a
//! displaced one; the next key to arrive with that tag takes the slot.

use core::hash::BuildHasher;
use core::net::IpAddr;

use sailfish_net::hash::{MixMap, MixState};

use crate::error::{Error, Result};
use crate::types::VmKey;

/// What a hardware main-table entry matches on, in one word: the family
/// label, 32 bits of address (raw for IPv4, [`digest32`] for IPv6) and
/// the 24-bit VNI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tag(u64);

impl Tag {
    fn of(key: &VmKey) -> Tag {
        let (vni, addr) = key.canonical_bits();
        let (v6, addr32) = match key.ip {
            IpAddr::V4(_) => (0, addr as u32),
            IpAddr::V6(_) => (1, digest32(vni, addr)),
        };
        Tag(v6 | u64::from(addr32) << 1 | u64::from(vni) << 33)
    }

    /// The hash entries are ordered by. One multiply-mix round and an
    /// avalanche of a single word: a bijection, so distinct tags never
    /// tie.
    fn spread(self) -> u64 {
        MixState.hash_one(self)
    }
}

/// The slot a hash belongs in, in an array of `cap`: the hash scaled
/// down, so a larger hash never has a smaller home.
fn home(spread: u64, cap: usize) -> usize {
    ((u128::from(spread) * cap as u128) >> 64) as usize
}

/// The smallest array that holds `entries` at a load of at most 2/3 —
/// and so always has an empty slot for a probe to stop at.
fn capacity_for(entries: usize) -> usize {
    entries + entries.div_ceil(2)
}

/// One main-plane slot.
#[derive(Debug, Clone, PartialEq)]
struct Slot<V> {
    tag: Tag,
    /// The full key, kept so the model can confirm a tag match
    /// (hardware stores only the tag).
    key: VmKey,
    value: V,
}

/// Where a tag belongs in the main plane.
enum Place {
    /// The slot holding it.
    Held(usize),
    /// Not resident; it would go in this slot.
    Vacant(usize),
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
/// Two tables are equal when their main planes are slot-for-slot equal
/// and their conflict tables hold the same entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestExactTable<V> {
    /// Compressed main table: `cap` slots once built, fewer only while a
    /// bulk build or a re-lay is streaming them out.
    slots: Vec<Option<Slot<V>>>,
    /// The array length homes are computed for.
    cap: usize,
    /// Occupied main slots.
    occupied: usize,
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
        Self::laid_out_for(0)
    }

    /// An empty main plane about to be streamed out at `cap` slots.
    fn laid_out_for(cap: usize) -> Self {
        DigestExactTable {
            slots: Vec::with_capacity(cap),
            cap,
            occupied: 0,
            conflict: MixMap::default(),
        }
    }

    /// Builds a table from a run of entries, equal to inserting them in
    /// order into a table with room reserved for them. A key appearing
    /// twice is an error.
    pub fn from_run(run: &[(VmKey, V)]) -> Result<Self>
    where
        V: Clone,
    {
        let cap = capacity_for(run.len());
        let tags: Vec<Tag> = run.iter().map(|(key, _)| Tag::of(key)).collect();
        let home_of = |tag: &Tag| home(tag.spread(), cap);

        // Stable counting sort of the run's indices by home slot.
        let mut next = vec![0usize; cap];
        for tag in &tags {
            if let Some(n) = next.get_mut(home_of(tag)) {
                *n += 1;
            }
        }
        let mut seen = 0;
        for n in &mut next {
            let here = *n;
            *n = seen;
            seen += here;
        }
        let mut by_home = vec![0usize; run.len()];
        for (i, tag) in tags.iter().enumerate() {
            if let Some(n) = next.get_mut(home_of(tag)) {
                if let Some(place) = by_home.get_mut(*n) {
                    *place = i;
                }
                *n += 1;
            }
        }

        // Rising homes make every placement land at or just behind the
        // array's growing end: the slots go out front to back.
        let mut table = Self::laid_out_for(cap);
        for i in by_home {
            if let (Some((key, value)), Some(&tag)) = (run.get(i), tags.get(i)) {
                table.admit(Slot {
                    tag,
                    key: *key,
                    value: value.clone(),
                })?;
            }
        }
        table.slots.resize_with(cap, || None);
        Ok(table)
    }

    /// Makes room for `additional` more entries, so a run of inserts does
    /// not re-lay the main table as it grows.
    pub fn reserve(&mut self, additional: usize) {
        let want = capacity_for(self.occupied + additional);
        if want > self.cap {
            self.relay(want);
        }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.occupied + self.conflict.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Layout statistics.
    pub fn stats(&self) -> DigestStats {
        DigestStats {
            main_entries: self.occupied,
            conflict_entries: self.conflict.len(),
        }
    }

    /// Inserts an entry. A digest collision with a *different* key lands in
    /// the conflict table; inserting the same key twice is an error.
    pub fn insert(&mut self, key: VmKey, value: V) -> Result<()> {
        self.admit(Slot {
            tag: Tag::of(&key),
            key,
            value,
        })
    }

    /// Looks up a key: conflict table first, then the compressed table.
    pub fn get(&self, key: &VmKey) -> Option<&V> {
        self.get_traced(key).0
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
        match self.resident(Tag::of(key)) {
            Some(slot) if slot.key == *key => (Some(&slot.value), DigestLookup::HitMain),
            // A hardware digest table would return a colliding slot's
            // value; the model reports the miss instead, which is sound
            // because insertion displaced every colliding key into the
            // conflict table — if `key` were present it would have been
            // found there.
            _ => (None, DigestLookup::Miss),
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &VmKey) -> Option<V> {
        if let Some(v) = self.conflict.remove(key) {
            return Some(v);
        }
        let Place::Held(at) = self.locate(Tag::of(key)) else {
            return None;
        };
        let cell = self.slots.get_mut(at)?;
        if cell.as_ref()?.key != *key {
            return None;
        }
        let removed = cell.take()?;
        self.occupied -= 1;
        // Close the gap: every entry behind it that is away from its
        // home moves one slot back, up to the end of the run.
        let mut gap = at;
        loop {
            let behind = self.after(gap);
            match self.slots.get(behind) {
                Some(Some(slot)) if home(slot.tag.spread(), self.cap) != behind => {
                    self.slots.swap(gap, behind);
                    gap = behind;
                }
                _ => break,
            }
        }
        Some(removed.value)
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&VmKey, &V)> {
        self.slots
            .iter()
            .flatten()
            .map(|slot| (&slot.key, &slot.value))
            .chain(self.conflict.iter())
    }

    /// Checks the layout; returns a description of the first violation.
    /// Used by the property tests: the main plane is full-length and at
    /// most 2/3 full, every entry carries its key's tag and is reachable
    /// from its home without crossing an empty slot, every run is in hash
    /// order (so no tag is resident twice), no key is in both planes, and
    /// [`DigestExactTable::len`] is the occupied slots plus the conflict
    /// entries.
    pub fn audit(&self) -> core::result::Result<(), String> {
        if self.slots.len() != self.cap {
            return Err(format!("{} slots built of {}", self.slots.len(), self.cap));
        }
        let occupied = self.slots.iter().flatten().count();
        if occupied != self.occupied {
            return Err(format!(
                "{occupied} occupied slots, counted {}",
                self.occupied
            ));
        }
        if capacity_for(occupied) > self.cap {
            return Err(format!("load {occupied}/{} above 2/3", self.cap));
        }
        // Distance from home and hash of the previous slot's entry.
        let mut before = self
            .slots
            .last()
            .and_then(|last| Some(self.standing(self.slots.len() - 1, last.as_ref()?)));
        for (at, cell) in self.slots.iter().enumerate() {
            let Some(slot) = cell else {
                before = None;
                continue;
            };
            if slot.tag != Tag::of(&slot.key) {
                return Err(format!("slot {at}: tag is not {}'s", slot.key));
            }
            let (away, spread) = self.standing(at, slot);
            // Reachable: one step further from home than the slot before
            // at most, which an empty slot before never allows.
            let reach = before.map_or(0, |(away, _)| away + 1);
            if away > reach {
                return Err(format!("slot {at}: {} cut off from its home", slot.key));
            }
            if away == reach && before.is_some_and(|(_, prior)| prior >= spread) {
                return Err(format!("slot {at}: {} out of hash order", slot.key));
            }
            before = Some((away, spread));
        }
        for key in self.conflict.keys() {
            if self.resident(Tag::of(key)).is_some_and(|s| s.key == *key) {
                return Err(format!("{key} is in both planes"));
            }
        }
        Ok(())
    }

    /// How far the entry in slot `at` is from its home, and its hash.
    fn standing(&self, at: usize, slot: &Slot<V>) -> (usize, u64) {
        let spread = slot.tag.spread();
        let from = home(spread, self.cap);
        let away = if at >= from {
            at - from
        } else {
            at + self.cap - from
        };
        (away, spread)
    }

    /// The slot after `at`, around the end.
    fn after(&self, at: usize) -> usize {
        if at + 1 < self.cap {
            at + 1
        } else {
            0
        }
    }

    /// The main-plane entry carrying `tag`.
    #[inline(always)]
    fn resident(&self, tag: Tag) -> Option<&Slot<V>> {
        match self.locate(tag) {
            Place::Held(at) => self.slots.get(at)?.as_ref(),
            Place::Vacant(_) => None,
        }
    }

    /// The one walk every operation takes: from the tag's home along the
    /// run, past the residents that sort before it — those further from
    /// their own home than the walk is from the tag's, or as far and with
    /// a smaller hash. It ends on the tag, or on the first slot that is
    /// empty, not built yet, or held by a resident that sorts after.
    #[inline(always)]
    fn locate(&self, tag: Tag) -> Place {
        let spread = tag.spread();
        let mut at = home(spread, self.cap);
        let mut away = 0usize;
        while let Some(Some(slot)) = self.slots.get(at) {
            if slot.tag == tag {
                return Place::Held(at);
            }
            let (their_away, theirs) = self.standing(at, slot);
            if their_away < away || (their_away == away && theirs > spread) {
                break;
            }
            at = self.after(at);
            away += 1;
        }
        Place::Vacant(at)
    }

    /// Puts `slot` at `at` (where [`DigestExactTable::locate`] said it
    /// goes), moving the rest of the run up by one into the first empty
    /// slot — which, past the built part of the array, is a push.
    fn place(&mut self, mut at: usize, slot: Slot<V>) {
        let mut carried = Some(slot);
        while carried.is_some() && at < self.cap {
            match self.slots.get_mut(at) {
                Some(cell) => core::mem::swap(cell, &mut carried),
                None => {
                    self.slots.resize_with(at, || None);
                    self.slots.push(carried.take());
                }
            }
            at = self.after(at);
        }
        self.occupied += 1;
    }

    /// Insert, for one entry or one of a run: refuse a key already held,
    /// displace one whose tag is, place the rest.
    fn admit(&mut self, slot: Slot<V>) -> Result<()> {
        if self.conflict.contains_key(&slot.key) {
            return Err(Error::Duplicate);
        }
        match self.locate(slot.tag) {
            Place::Held(at) => {
                let held = self.slots.get(at).and_then(Option::as_ref);
                if held.is_some_and(|h| h.key == slot.key) {
                    return Err(Error::Duplicate);
                }
                // Digest collision between distinct keys: the newcomer
                // goes to the conflict table.
                self.conflict.insert(slot.key, slot.value);
            }
            Place::Vacant(at) if capacity_for(self.occupied + 1) <= self.cap => {
                self.place(at, slot)
            }
            Place::Vacant(_) => {
                self.relay(capacity_for(2 * (self.occupied + 1)));
                let (Place::Held(at) | Place::Vacant(at)) = self.locate(slot.tag);
                self.place(at, slot);
            }
        }
        Ok(())
    }

    /// Re-lays the main plane at `cap` slots: the entries, taken in hash
    /// order, stream into a fresh array exactly as a bulk build's do.
    fn relay(&mut self, cap: usize) {
        let old = core::mem::replace(&mut self.slots, Vec::with_capacity(cap));
        // The array's own order is hash order but for the entries that
        // wrapped around its end to the front: they are the largest.
        let wrapped = old
            .iter()
            .enumerate()
            .take_while(|(at, cell)| {
                cell.as_ref()
                    .is_some_and(|slot| home(slot.tag.spread(), self.cap) > *at)
            })
            .count();
        let mut entries: Vec<Slot<V>> = old.into_iter().flatten().collect();
        entries.rotate_left(wrapped);
        self.cap = cap;
        self.occupied = 0;
        for slot in entries {
            let (Place::Held(at) | Place::Vacant(at)) = self.locate(slot.tag);
            self.place(at, slot);
        }
        self.slots.resize_with(cap, || None);
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
                *load.get_mut(index(h)).unwrap() += 1;
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
    /// hold. Every cluster's per-VNI index and the directory (hash maps)
    /// see VNIs that are all congruent modulo the cluster count (`home =
    /// anchor % clusters`): with ≈100 keys per low-bit bucket and ≈200
    /// per tag a uniform hash stays under 1.6× the mean, where the bare
    /// multiply without the finalizer reaches 4×. The main plane (a slot
    /// array at load 2/3, homes scaled from the whole hash) sees
    /// sequential host addresses inside one subnet, one address under
    /// tens of thousands of VNIs, and v6 tags whose address bits are
    /// already a digest: a uniform hash keeps the longest walk from a
    /// home in the low tens of slots at these sizes, a clustered one
    /// runs to hundreds.
    #[test]
    fn fixed_key_hasher_spreads_region_key_shapes() {
        use sailfish_net::hash::MixState;
        const LIMIT: f64 = 1.6;
        let congruent: Vec<u64> = (0..25_000u32)
            .map(|i| MixState.hash_one(Vni::from_const(3 + 4 * i)))
            .collect();
        let (low, tag) = skew(&congruent, 8);
        assert!(low < LIMIT, "congruent VNIs: low-8-bit skew {low:.2}");
        assert!(tag < LIMIT, "congruent VNIs: top-7-bit tag skew {tag:.2}");

        let v4 = |vni: u32, addr: u32| {
            VmKey::new(
                Vni::from_const(vni),
                IpAddr::V4(core::net::Ipv4Addr::from(addr)),
            )
        };
        let sequential_hosts: Vec<VmKey> =
            (0..100_000u32).map(|i| v4(7001, 0x0a00_0000 | i)).collect();
        let one_address_many_vnis: Vec<VmKey> =
            (0..25_000u32).map(|i| v4(1 + 4 * i, 0xc0a8_0a02)).collect();
        let digests: Vec<VmKey> = (0..100_000u128)
            .map(|i| v6key(9, 0x2001_0db8 << 96 | i))
            .collect();
        for (name, keys) in [
            ("sequential hosts", sequential_hosts),
            ("one address, many VNIs", one_address_many_vnis),
            ("digest tags", digests),
        ] {
            let run: Vec<(VmKey, ())> = keys.into_iter().map(|k| (k, ())).collect();
            let table = DigestExactTable::from_run(&run).unwrap();
            table.audit().unwrap();
            let longest = table
                .slots
                .iter()
                .enumerate()
                .filter_map(|(at, cell)| Some(table.standing(at, cell.as_ref()?).0))
                .max()
                .unwrap_or(0);
            assert!(longest <= 40, "{name}: longest walk {longest} slots");
        }
    }

    #[test]
    fn vm_nc_slot_is_56_bytes() {
        use crate::types::NcAddr;
        assert_eq!(core::mem::size_of::<Option<Slot<NcAddr>>>(), 56);
    }

    /// A run of mixed keys in the region's shape, `n` long.
    fn mixed_run(n: u32) -> Vec<(VmKey, u32)> {
        (0..n)
            .map(|i| {
                let key = if i % 4 == 0 {
                    v6key(1 + i % 50, 0x2001_0db8 << 96 | u128::from(i))
                } else {
                    VmKey::new(
                        Vni::from_const(1 + i % 50),
                        IpAddr::V4(core::net::Ipv4Addr::from(0x0a00_0000 | (i / 50))),
                    )
                };
                (key, i)
            })
            .collect()
    }

    #[test]
    fn bulk_build_equals_reserved_inserts_slot_for_slot() {
        for n in [0, 1, 2, 3, 7, 100, 5_000] {
            let run = mixed_run(n);
            let bulk = DigestExactTable::from_run(&run).unwrap();
            bulk.audit().unwrap();
            let mut one_by_one = DigestExactTable::new();
            one_by_one.reserve(run.len());
            // Any order: the layout is a function of the key set.
            for (key, value) in run.iter().rev() {
                one_by_one.insert(*key, *value).unwrap();
            }
            one_by_one.audit().unwrap();
            assert_eq!(bulk, one_by_one, "{n} entries");
            for (key, value) in &run {
                assert_eq!(bulk.get(key), Some(value));
            }
        }
    }

    #[test]
    fn bulk_build_rejects_a_repeated_key() {
        let mut run = mixed_run(10);
        run.extend_from_within(3..4);
        assert_eq!(DigestExactTable::from_run(&run), Err(Error::Duplicate));
    }

    #[test]
    fn growth_and_removal_keep_the_layout_canonical() {
        let run = mixed_run(3_000);
        let mut t = DigestExactTable::new();
        for (key, value) in &run {
            t.insert(*key, *value).unwrap();
        }
        t.audit().unwrap();
        // Remove two thirds, in an order unrelated to the layout.
        for (key, value) in run.iter().filter(|(_, v)| v % 3 != 0) {
            assert_eq!(t.remove(key), Some(*value));
        }
        t.audit().unwrap();
        let kept: Vec<(VmKey, u32)> = run.iter().filter(|(_, v)| v % 3 == 0).copied().collect();
        assert_eq!(t.len(), kept.len());
        for (key, value) in &kept {
            assert_eq!(t.get(key), Some(value));
        }
        // What is left is laid out as if nothing else had ever been
        // there, at the length the array grew to.
        let mut fresh = DigestExactTable::new();
        fresh.relay(t.cap);
        for (key, value) in &kept {
            fresh.insert(*key, *value).unwrap();
        }
        assert_eq!(t, fresh);
    }

    #[test]
    fn vni_participates_in_digest() {
        assert_ne!(digest32(1, 42), digest32(2, 42));
    }
}
