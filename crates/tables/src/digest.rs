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
//! address bits, one SRAM word — and the value. The model's slot is the
//! tag, the value and, for an IPv6 key, the index of its 128 address bits
//! in a side array (an IPv4 tag already is the whole key), so that it can
//! audit what hardware gets by construction: a lookup whose tag matches a
//! slot holding other address bits reports a miss (hardware would return
//! that slot's value), which is sound because every key that shares a
//! resident tag was displaced into the conflict table when it was
//! inserted. [`DigestStats`] counts entries per plane; the memory model
//! prices a main entry at one word whatever the slot holds here.
//!
//! # Layout
//!
//! The main plane is one open-addressed array of slots — 16 bytes for
//! the VM-NC table's 4-byte [`NcId`](crate::types::NcId) values, an empty
//! slot being a niche of the entry — at a load of at most 2/3, beside the
//! side array of IPv6 address bits, 16 bytes per IPv6 key in the plane.
//! A tag's *home* is its fixed-key hash
//! ([`sailfish_net::hash::MixState`]; the controller provisions every
//! key, and the scheme being modelled is itself an unkeyed hash backed by
//! a conflict table) scaled to the array length, so homes rise with the
//! hash at every length. Entries sit at or after their home, in hash
//! order along each run of occupied slots (the array is circular: a run
//! reaching the end continues at slot 0). That order makes the slots a
//! function of the resident key set and the array length alone — two
//! tables holding the same keys at the same length hold the same entry in
//! every slot however they were filled (where the side array keeps an
//! IPv6 key's bits follows the fill order) — and lets a probe stop at the
//! first resident that sorts after its tag instead of at the next empty
//! slot.
//!
//! The load is a trade between the lookup and memory, settled by memory.
//! A miss-path probe is one of many independent lookups the core
//! overlaps, and what breaks the overlap is a walk of unpredictable
//! length: at 2/3 a key sits one slot from home on average and 400k
//! independent region-scale lookups took 72–85 ns each, at 3/5 66–70, at
//! 1/2 (half a slot on average, two keys in three at home) 48–57 — what
//! the hash map this array replaced took. But with the 56-byte slots of
//! the time the region's four planes were the 36 MiB the hash maps held
//! at 2/3 and 47 at 1/2: on the `churn` benchmark, which keeps several
//! epochs live, that read as 10% more resident memory (4% at 4/7, 3% at
//! 3/5, under 1% at 2/3) against a 5% bound, for a probe that is one
//! step of a ≈ 500 ns walk. Neither a side lane of one-byte fingerprints
//! scanned eight at a time (the hash map's own trick: 65–80 ns at 2/3)
//! nor comparing the first three slots without branching (92–100) bought
//! the difference back. At 16 bytes a slot the four planes are 12.3 MiB
//! at 2/3, side arrays included, and would be 15.8 at 1/2.
//!
//! # Bulk and incremental
//!
//! [`DigestExactTable::from_run`] builds a table from a run of entries
//! in one go: the run is counting-sorted by home (stably, each entry
//! carrying its tag) and the slots are streamed out front to back, each
//! written once, with every IPv6 key's address bits appended to a side
//! array sized for them up front. [`DigestExactTable::insert`] places one
//! entry into the array as it stands, shifting the rest of its run up by
//! one. When an insert would pass the load limit the array is re-laid
//! with twice the room; the side array is untouched, since slots name
//! their address bits by index. Both go through the same placement step,
//! so they cannot disagree about where an entry belongs. Entries are
//! never removed: an install replaces a whole table.
//!
//! # First come, first kept
//!
//! Of the keys sharing one tag, the first to arrive takes the main slot
//! and every later one goes to the conflict table — in `insert` by
//! arrival, in `from_run` by position in the run (the sort is stable and
//! equal tags share a home).

use core::hash::BuildHasher;
use core::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use core::num::NonZeroU64;

use sailfish_net::hash::{MixMap, MixState};
use sailfish_net::Vni;

use crate::error::{Error, Result};
use crate::types::VmKey;

/// What a hardware main-table entry matches on, in one word: the family
/// label, 32 bits of address (raw for IPv4, [`digest32`] for IPv6) and
/// the 24-bit VNI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tag(u64);

/// Bit 63, set in every stored tag: no tag uses it (the VNI ends at bit
/// 56), so a stored tag is never 0 and an empty slot is a niche.
const STORED: NonZeroU64 = NonZeroU64::MIN.saturating_add((1 << 63) - 1);

impl Tag {
    fn of(key: &VmKey) -> Tag {
        let (vni, addr) = key.canonical_bits();
        let (v6, addr32) = match key.ip {
            IpAddr::V4(_) => (0, addr as u32),
            IpAddr::V6(_) => (1, digest32(vni, addr)),
        };
        Tag(v6 | u64::from(addr32) << 1 | u64::from(vni) << 33)
    }

    /// Whether the tag's family label is IPv6: its address bits are a
    /// digest, and the key's own 128 live in the side array.
    fn is_v6(self) -> bool {
        self.0 & 1 == 1
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

/// One main-plane slot: the tag, the value and, for an IPv6 key, where
/// its address bits sit in [`DigestExactTable::wide`]. With a 4-byte
/// value a slot is 16 bytes.
#[derive(Debug, Clone)]
struct Slot<V> {
    /// The tag, with [`STORED`] set.
    word: NonZeroU64,
    value: V,
    /// An IPv6 key's index in the side array; 0 for an IPv4 key.
    wide: u32,
}

impl<V> Slot<V> {
    fn new(tag: Tag, value: V, wide: u32) -> Self {
        Slot {
            word: STORED | tag.0,
            value,
            wide,
        }
    }

    fn tag(&self) -> Tag {
        Tag(self.word.get() & !STORED.get())
    }
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
#[derive(Debug, Clone)]
pub struct DigestExactTable<V> {
    /// Compressed main table: `cap` slots once built, fewer only while a
    /// bulk build or a re-lay is streaming them out.
    slots: Vec<Option<Slot<V>>>,
    /// The 128 address bits of each IPv6 key in the main table, whose tag
    /// holds only their digest; its slot names them by index.
    wide: Vec<Ipv6Addr>,
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

/// Two tables are equal when every main slot holds the same entry — tag,
/// key and value — and their conflict tables hold the same entries. Where
/// the side array keeps an IPv6 key's address bits depends on the order
/// the keys came in, and is not compared.
impl<V: PartialEq> PartialEq for DigestExactTable<V> {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &Slot<V>, b: &Slot<V>| {
            a.word == b.word && a.value == b.value && self.key_of(a) == other.key_of(b)
        };
        self.cap == other.cap
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|pair| match pair {
                (Some(a), Some(b)) => same(a, b),
                (a, b) => a.is_none() && b.is_none(),
            })
            && self.conflict == other.conflict
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
            wide: Vec::new(),
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
        // Run positions are kept as 4-byte indices.
        if u32::try_from(run.len()).is_err() {
            return Err(Error::CapacityExceeded);
        }
        let cap = capacity_for(run.len());

        // Stable counting sort of the run by home slot. Each entry's tag
        // is worked out once to count it and once to file it, so no
        // array of tags outlives the count.
        let mut next = vec![0u32; cap];
        let mut v6 = 0;
        for (key, _) in run {
            if let Some(n) = next.get_mut(home(Tag::of(key).spread(), cap)) {
                *n += 1;
            }
            v6 += usize::from(key.ip.is_ipv6());
        }
        let mut seen = 0;
        for n in &mut next {
            let here = *n;
            *n = seen;
            seen += here;
        }
        let mut by_home = vec![(Tag(0), 0u32); run.len()];
        for (i, (key, _)) in (0u32..).zip(run) {
            let tag = Tag::of(key);
            if let Some(n) = next.get_mut(home(tag.spread(), cap)) {
                if let Some(place) = by_home.get_mut(*n as usize) {
                    *place = (tag, i);
                }
                *n += 1;
            }
        }
        drop(next);

        // Rising homes make every placement land at or just behind the
        // array's growing end: the slots go out front to back.
        let mut table = Self::laid_out_for(cap);
        table.wide.reserve_exact(v6);
        for (tag, i) in by_home {
            if let Some((key, value)) = run.get(i as usize) {
                table.admit(key, tag, value.clone())?;
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
        self.admit(&key, Tag::of(&key), value)
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
            Some(slot) if self.holds(slot, key) => (Some(&slot.value), DigestLookup::HitMain),
            // A hardware digest table would return a colliding slot's
            // value; the model reports the miss instead, which is sound
            // because insertion displaced every colliding key into the
            // conflict table — if `key` were present it would have been
            // found there.
            _ => (None, DigestLookup::Miss),
        }
    }

    /// Iterates over all entries. A main-plane key is rebuilt from its
    /// slot, so keys come out owned.
    pub fn iter(&self) -> impl Iterator<Item = (VmKey, &V)> {
        self.slots
            .iter()
            .flatten()
            .filter_map(|slot| Some((self.key_of(slot)?, &slot.value)))
            .chain(self.conflict.iter().map(|(key, value)| (*key, value)))
    }

    /// Checks the layout; returns a description of the first violation.
    /// Used by the property tests: the main plane is full-length and at
    /// most 2/3 full, every entry's tag is that of the key it rebuilds,
    /// every IPv6 entry names address bits of its own and every address
    /// in the side array is named, every entry is reachable from its home
    /// without crossing an empty slot, every run is in hash order (so no
    /// tag is resident twice), no key is in both planes, and
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
        let mut named = vec![false; self.wide.len()];
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
            let Some(key) = self.key_of(slot) else {
                return Err(format!("slot {at}: address bits past the side array"));
            };
            if slot.tag() != Tag::of(&key) {
                return Err(format!("slot {at}: tag and address bits are not {key}'s"));
            }
            if slot.tag().is_v6() {
                match named.get_mut(slot.wide as usize) {
                    Some(seen) if !*seen => *seen = true,
                    _ => return Err(format!("slot {at}: {key}'s address bits are shared")),
                }
            }
            let (away, spread) = self.standing(at, slot);
            // Reachable: one step further from home than the slot before
            // at most, which an empty slot before never allows.
            let reach = before.map_or(0, |(away, _)| away + 1);
            if away > reach {
                return Err(format!("slot {at}: {key} cut off from its home"));
            }
            if away == reach && before.is_some_and(|(_, prior)| prior >= spread) {
                return Err(format!("slot {at}: {key} out of hash order"));
            }
            before = Some((away, spread));
        }
        if let Some(unnamed) = named.iter().position(|seen| !seen) {
            return Err(format!("side-array address {unnamed} is no slot's"));
        }
        for key in self.conflict.keys() {
            if self
                .resident(Tag::of(key))
                .is_some_and(|s| self.holds(s, key))
            {
                return Err(format!("{key} is in both planes"));
            }
        }
        Ok(())
    }

    /// The key `slot` holds: an IPv4 tag spells it whole, an IPv6 one
    /// with the address bits the slot names. `None` only if the slot
    /// names bits past the side array, which the audit rules out.
    fn key_of(&self, slot: &Slot<V>) -> Option<VmKey> {
        let tag = slot.tag();
        let [_, hi, mid, lo] = ((tag.0 >> 33) as u32).to_be_bytes();
        let ip = if tag.is_v6() {
            IpAddr::V6(*self.wide.get(slot.wide as usize)?)
        } else {
            IpAddr::V4(Ipv4Addr::from((tag.0 >> 1) as u32))
        };
        Some(VmKey::new(Vni::from_be_bytes([hi, mid, lo]), ip))
    }

    /// Whether `slot`, found by `key`'s tag, holds `key`: the tags agree,
    /// which settles an IPv4 key; an IPv6 key's address bits decide.
    #[inline(always)]
    fn holds(&self, slot: &Slot<V>, key: &VmKey) -> bool {
        match key.ip {
            IpAddr::V4(_) => true,
            IpAddr::V6(addr) => self.wide.get(slot.wide as usize) == Some(&addr),
        }
    }

    /// How far the entry in slot `at` is from its home, and its hash.
    fn standing(&self, at: usize, slot: &Slot<V>) -> (usize, u64) {
        let spread = slot.tag().spread();
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
        let word = STORED | tag.0;
        let mut at = home(spread, self.cap);
        let mut away = 0usize;
        while let Some(Some(slot)) = self.slots.get(at) {
            if slot.word == word {
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
    /// displace one whose tag (`Tag::of(key)`) is, place the rest — an
    /// IPv6 key with its address bits appended to the side array.
    fn admit(&mut self, key: &VmKey, tag: Tag, value: V) -> Result<()> {
        if self.conflict.contains_key(key) {
            return Err(Error::Duplicate);
        }
        let at = match self.locate(tag) {
            Place::Held(at) => {
                let held = self.slots.get(at).and_then(Option::as_ref);
                if held.is_some_and(|h| self.holds(h, key)) {
                    return Err(Error::Duplicate);
                }
                // Digest collision between distinct keys: the newcomer
                // goes to the conflict table.
                self.conflict.insert(*key, value);
                return Ok(());
            }
            Place::Vacant(at) if capacity_for(self.occupied + 1) <= self.cap => at,
            Place::Vacant(_) => {
                self.relay(capacity_for(2 * (self.occupied + 1)));
                let (Place::Held(at) | Place::Vacant(at)) = self.locate(tag);
                at
            }
        };
        let wide = match key.ip {
            IpAddr::V4(_) => 0,
            IpAddr::V6(addr) => {
                let index = u32::try_from(self.wide.len()).map_err(|_| Error::CapacityExceeded)?;
                self.wide.push(addr);
                index
            }
        };
        self.place(at, Slot::new(tag, value, wide));
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
                    .is_some_and(|slot| home(slot.tag().spread(), self.cap) > *at)
            })
            .count();
        let mut entries: Vec<Slot<V>> = old.into_iter().flatten().collect();
        entries.rotate_left(wrapped);
        self.cap = cap;
        self.occupied = 0;
        for slot in entries {
            let (Place::Held(at) | Place::Vacant(at)) = self.locate(slot.tag());
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
    fn basic_insert_get() {
        let mut t = DigestExactTable::new();
        t.insert(v4key(1, "10.0.0.1"), "a").unwrap();
        t.insert(v6key(1, 0xdead), "b").unwrap();
        assert_eq!(t.get(&v4key(1, "10.0.0.1")), Some(&"a"));
        assert_eq!(t.get(&v6key(1, 0xdead)), Some(&"b"));
        assert_eq!(t.get(&v6key(1, 0xbeef)), None);
        assert_eq!(t.get(&v4key(2, "10.0.0.1")), None);
        assert_eq!(t.len(), 2);
        t.audit().unwrap();
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
        t.audit().unwrap();
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
    fn vm_nc_slot_is_16_bytes() {
        use crate::types::NcId;
        assert_eq!(core::mem::size_of::<Option<Slot<NcId>>>(), 16);
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
    fn growth_keeps_the_layout_canonical() {
        let run = mixed_run(3_000);
        let mut t = DigestExactTable::new();
        for (key, value) in &run {
            t.insert(*key, *value).unwrap();
        }
        t.audit().unwrap();
        for (key, value) in &run {
            assert_eq!(t.get(key), Some(value));
        }
        // The array re-laid itself several times on the way; what it
        // holds is laid out as if it had been that long from the start,
        // whatever order the keys come in.
        let mut fresh = DigestExactTable::new();
        fresh.relay(t.cap);
        for (key, value) in run.iter().rev() {
            fresh.insert(*key, *value).unwrap();
        }
        fresh.audit().unwrap();
        assert_eq!(t, fresh);
    }

    #[test]
    fn vni_participates_in_digest() {
        assert_ne!(digest32(1, 42), digest32(2, 42));
    }
}
