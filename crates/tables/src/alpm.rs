//! Algorithmic longest-prefix match (ALPM).
//!
//! "We implement algorithmic LPM (ALPM) to flexibly reduce the TCAM usage
//! at the cost of slightly reduced lookup efficiency and more SRAM usage.
//! The entire routing table is partitioned into two levels with the first
//! level stored in TCAM, indexing the second level stored in SRAM" (§4.4,
//! Fig 16).
//!
//! This implementation partitions the prefix trie into subtrees of at most
//! `bucket_capacity` entries. Each partition is represented by:
//!
//! - a **covering prefix** (its *root*) installed in the first-level TCAM
//!   (one TCAM entry per partition instead of one per route — the source
//!   of the 389% → 11% TCAM reduction in Fig 17), and
//! - an SRAM **bucket** holding the partition's entries, plus a
//!   **default** — the longest prefix *outside* the partition that covers
//!   its range, replicated into the bucket so lookups never need a second
//!   TCAM probe.
//!
//! # Layout
//!
//! The table is two flat arrays and nothing else:
//!
//! - `roots`, sorted by `(value, len)`. In that order a root precedes
//!   every root it covers and those form the contiguous run right after
//!   it, so the deepest root covering an address is the address's
//!   predecessor or one of the predecessor's ancestors: one binary search
//!   plus a walk up `parent` links (a backwards scan when the table has a
//!   handful of roots, which is what a per-VNI table usually is).
//! - `slots`, every bucket back to back in root order; bucket `i` runs
//!   from `roots[i].start` to `roots[i + 1].start`.
//!
//! The buckets *are* the route store — there is no second copy of the
//! routes to rebuild from or to check against. Every route lives in the
//! bucket of the deepest root covering it; [`AlpmTable::audit`] checks
//! that, and the property tests check lookups against an independently
//! maintained [`crate::lpm::Lpm128`].
//!
//! An insert or remove moves the slots behind it (one `memmove`) and, when
//! it adds or retires a root, re-links the parents: both are linear in the
//! table, and tables are per-VNI and small (DESIGN.md §3).

use crate::error::{Error, Result};
use crate::lpm::Key128;

/// Tables with at most this many roots find a root by scanning them
/// backwards instead of binary-searching: the scan touches the same two
/// or three cache lines the search would and has no dependent branches.
const LINEAR_ROOTS: usize = 8;

/// Configuration of the ALPM partitioning.
#[derive(Debug, Clone, Copy)]
pub struct AlpmConfig {
    /// Maximum number of entries per SRAM partition (the paper's "depth of
    /// the first level" trade-off knob).
    pub bucket_capacity: usize,
}

impl Default for AlpmConfig {
    fn default() -> Self {
        // 24 entries/partition reproduces the paper's ~11% TCAM occupancy
        // at the calibrated route count with the measured ~0.6 bucket
        // fill (see DESIGN.md §3).
        AlpmConfig {
            bucket_capacity: 24,
        }
    }
}

/// One first-level entry: a partition root and where its bucket starts.
#[derive(Debug, Clone)]
struct Root<T> {
    key: Key128,
    /// First slot of this partition's bucket; it ends where the next
    /// root's begins.
    start: usize,
    /// The deepest root strictly covering this one (always at a smaller
    /// index).
    parent: Option<usize>,
    /// Longest prefix outside the partition covering its whole range,
    /// replicated here so a bucket miss resolves without re-probing.
    default: Option<(Key128, T)>,
}

/// The order `roots` is kept in, and the order a bucket is put in before
/// it is carved.
fn order(key: &Key128) -> (u128, u8) {
    (key.value, key.len)
}

/// [`Key128::contains`] for the bucket scan, the one loop a lookup spends
/// its time in: the first `len` bits agree exactly when the xor has that
/// many leading zeros, which needs no mask and no `len == 0` case. Only
/// equivalent for canonical keys (host bits zero) — `insert` admits no
/// other.
fn matches(key: &Key128, addr: u128) -> bool {
    (key.value ^ addr).leading_zeros() >= u32::from(key.len)
}

/// Statistics describing the compressed layout, consumed by the
/// `sailfish-asic` cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlpmStats {
    /// Number of first-level TCAM entries (= partitions).
    pub tcam_entries: usize,
    /// Number of SRAM bucket slots holding real entries.
    pub bucket_entries: usize,
    /// Number of replicated default entries (one per partition at most).
    pub default_entries: usize,
    /// Total bucket slots allocated (partitions × capacity).
    pub allocated_slots: usize,
    /// Average bucket fill in `[0, 1]`.
    pub avg_fill: f64,
}

/// A two-level ALPM table over the 128-bit MSB-aligned key space.
#[derive(Debug)]
pub struct AlpmTable<T: Clone> {
    config: AlpmConfig,
    /// First level ("TCAM"): partition roots sorted by [`order`].
    roots: Vec<Root<T>>,
    /// Second level ("SRAM"): the buckets, back to back in root order.
    slots: Vec<(Key128, T)>,
}

impl<T: Clone> Default for AlpmTable<T> {
    fn default() -> Self {
        Self::new(AlpmConfig::default())
    }
}

impl<T: Clone> AlpmTable<T> {
    /// Creates an empty table.
    pub fn new(config: AlpmConfig) -> Self {
        assert!(config.bucket_capacity >= 1, "bucket capacity must be >= 1");
        AlpmTable {
            config,
            roots: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of routes stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Makes room for `additional` more routes, so a run of inserts does
    /// not regrow the bucket array under them.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
    }

    /// Inserts a route; replacing an existing identical prefix returns the
    /// old value.
    pub fn insert(&mut self, key: Key128, value: T) -> Result<Option<T>> {
        if Key128::new(key.value, key.len) != Ok(key) {
            return Err(Error::InvalidKey);
        }
        match self.deepest_root(key.value, key.len) {
            Some(i) => {
                let bucket = self.bucket_range(i);
                let stored = self
                    .slots
                    .get_mut(bucket.clone())
                    .and_then(|b| b.iter_mut().find(|(k, _)| *k == key));
                if let Some((_, v)) = stored {
                    let old = core::mem::replace(v, value);
                    // The replaced prefix may also serve as a default.
                    self.refresh_defaults_covered_by(key);
                    return Ok(Some(old));
                }
                self.slots.insert(bucket.end, (key, value));
                self.roots.iter_mut().skip(i + 1).for_each(|r| r.start += 1);
                if bucket.len() >= self.config.bucket_capacity {
                    self.split(i);
                }
            }
            None => {
                // No covering partition: the entry becomes its own
                // partition root.
                let at = self.add_partition(key, core::iter::once((key, value)));
                self.relink_parents();
                self.refresh_default(at);
            }
        }
        self.refresh_defaults_covered_by(key);
        self.maybe_rebuild();
        Ok(None)
    }

    /// Re-carves the whole table from scratch, minimizing first-level TCAM
    /// entries. Incremental inserts can fragment the partitioning (each
    /// uncovered entry starts as its own partition); the table triggers
    /// this automatically once fragmentation exceeds 1.5× the ideal
    /// partition count — the same strategy hardware ALPM drivers use.
    pub fn rebuild(&mut self) {
        self.slots.sort_unstable_by_key(|(k, _)| order(k));
        self.roots.clear();
        let roots = &mut self.roots;
        let mut start = 0;
        carve(
            self.config.bucket_capacity,
            Key128 { value: 0, len: 0 },
            &self.slots,
            &mut |key, entries| {
                roots.push(Root {
                    key,
                    start,
                    parent: None,
                    default: None,
                });
                start += entries;
            },
        );
        self.relink_parents();
        (0..self.roots.len()).for_each(|i| self.refresh_default(i));
    }

    fn maybe_rebuild(&mut self) {
        let ideal = self.len().div_ceil(self.config.bucket_capacity);
        if self.roots.len() > ideal + ideal / 2 + 4 {
            self.rebuild();
        }
    }

    /// Removes a route, returning its value.
    pub fn remove(&mut self, key: Key128) -> Option<T> {
        let i = self.deepest_root(key.value, key.len)?;
        let bucket = self.bucket_range(i);
        let at = self
            .slots
            .get(bucket.clone())?
            .iter()
            .position(|(k, _)| *k == key)?;
        let (_, removed) = self.slots.remove(bucket.start + at);
        self.roots.iter_mut().skip(i + 1).for_each(|r| r.start -= 1);
        if bucket.len() == 1 {
            self.roots.remove(i);
            self.relink_parents();
        }
        self.refresh_defaults_covered_by(key);
        Some(removed)
    }

    /// Longest-prefix lookup through the compressed path: the first-level
    /// search ([`AlpmTable::deepest_root`]) then the second-level match
    /// ([`AlpmTable::match_in`]). The two are public so a caller with many
    /// independent lookups in hand can run each level across all of them.
    pub fn lookup(&self, addr: u128) -> Option<(Key128, &T)> {
        self.match_in(self.deepest_root(addr, 128)?, addr)
    }

    /// Second level ("SRAM"): the longest entry of partition `root`'s
    /// bucket matching `addr`, else the partition's replicated default.
    /// `root` is what [`AlpmTable::deepest_root`] returned for `addr`.
    pub fn match_in(&self, root: usize, addr: u128) -> Option<(Key128, &T)> {
        self.bucket(root)
            .iter()
            .filter(|(k, _)| matches(k, addr))
            .max_by_key(|(k, _)| k.len)
            .map(|(k, v)| (*k, v))
            .or_else(|| {
                let (k, v) = self.roots.get(root)?.default.as_ref()?;
                Some((*k, v))
            })
    }

    /// Layout statistics for the memory model.
    pub fn stats(&self) -> AlpmStats {
        let tcam_entries = self.roots.len();
        let bucket_entries = self.slots.len();
        let allocated_slots = tcam_entries * self.config.bucket_capacity;
        AlpmStats {
            tcam_entries,
            bucket_entries,
            default_entries: self.roots.iter().filter(|r| r.default.is_some()).count(),
            allocated_slots,
            avg_fill: if allocated_slots == 0 {
                0.0
            } else {
                bucket_entries as f64 / allocated_slots as f64
            },
        }
    }

    /// Checks internal invariants; returns a description of the first
    /// violation. Used by property tests and the controller's consistency
    /// checker. Parents and defaults are re-derived here the slow way (a
    /// scan of every root, of every stored route), not through the links
    /// the table maintains.
    pub fn audit(&self) -> core::result::Result<(), String> {
        let mut seen = 0usize;
        let mut prev: Option<&Root<T>> = None;
        for (i, root) in self.roots.iter().enumerate() {
            if prev.is_some_and(|p| order(&p.key) >= order(&root.key)) {
                return Err(format!("root {:?} out of order", root.key));
            }
            prev = Some(root);
            if root.start != seen {
                return Err(format!("bucket of {:?} starts off its run", root.key));
            }
            let bucket = self.bucket(i);
            if bucket.is_empty() {
                return Err(format!("partition {:?} is empty", root.key));
            }
            if bucket.len() > self.config.bucket_capacity {
                return Err(format!("partition {} overflows", root.key.value));
            }
            for (n, (k, _)) in bucket.iter().enumerate() {
                if !root.key.covers(k) {
                    return Err(format!("entry {k:?} outside its partition root"));
                }
                if self.deepest_root(k.value, k.len) != Some(i) {
                    return Err(format!("entry {k:?} not under its deepest root"));
                }
                if bucket.iter().take(n).any(|(other, _)| other == k) {
                    return Err(format!("entry {k:?} stored twice"));
                }
            }
            let parent = self
                .roots
                .iter()
                .take(i)
                .rposition(|r| r.key.covers(&root.key));
            if parent != root.parent {
                return Err(format!("bad parent link for root {:?}", root.key));
            }
            let default = self
                .slots
                .iter()
                .filter(|(k, _)| k.len < root.key.len && k.contains(root.key.value))
                .max_by_key(|(k, _)| k.len)
                .map(|(k, _)| *k);
            if default != root.default.as_ref().map(|(k, _)| *k) {
                return Err(format!(
                    "bad default {:?} for root {:?}, want {default:?}",
                    root.default.as_ref().map(|(k, _)| *k),
                    root.key
                ));
            }
            seen += bucket.len();
        }
        if seen != self.slots.len() {
            return Err(format!(
                "bucket entries {seen} != stored routes {}",
                self.slots.len()
            ));
        }
        Ok(())
    }

    /// The slots of partition `i`.
    fn bucket_range(&self, i: usize) -> core::ops::Range<usize> {
        let end = self.slots.len();
        let start = self.roots.get(i).map_or(end, |r| r.start);
        start..self.roots.get(i + 1).map_or(end, |r| r.start)
    }

    fn bucket(&self, i: usize) -> &[(Key128, T)] {
        self.slots.get(self.bucket_range(i)).unwrap_or(&[])
    }

    /// First level ("TCAM"): the deepest root covering the prefix
    /// `value/len` — the owner of a route with that key, or with
    /// `len == 128` of an address.
    ///
    /// Every root covering the prefix sorts at or before it, shallowest
    /// first, and every root between the deepest of them and the prefix is
    /// a descendant of that deepest one. So the last root at or before the
    /// prefix is the answer or lies below it, and walking up from there
    /// the first root that covers the prefix is the deepest that does.
    pub fn deepest_root(&self, value: u128, len: u8) -> Option<usize> {
        let covers = |r: &Root<T>| r.key.len <= len && matches(&r.key, value);
        if self.roots.len() <= LINEAR_ROOTS {
            return self.roots.iter().rposition(covers);
        }
        let mut i = self
            .roots
            .partition_point(|r| order(&r.key) <= (value, len))
            .checked_sub(1)?;
        loop {
            let root = self.roots.get(i)?;
            if covers(root) {
                return Some(i);
            }
            i = root.parent?;
        }
    }

    /// The longest stored prefix strictly shorter than root `i` covering
    /// its range.
    ///
    /// Such a prefix covers the root, so its own deepest covering root is
    /// one of the root's ancestors, and it is shorter than every ancestor
    /// below that one (or the deeper ancestor would own it). The ancestors'
    /// buckets therefore hold the candidates in disjoint, descending
    /// length bands: the first ancestor, deepest first, with a covering
    /// entry wins.
    fn compute_default(&self, i: usize) -> Option<(Key128, T)> {
        let root = self.roots.get(i)?;
        let mut up = root.parent;
        while let Some(a) = up {
            let best = self
                .bucket(a)
                .iter()
                .filter(|(k, _)| k.len < root.key.len && k.contains(root.key.value))
                .max_by_key(|(k, _)| k.len);
            if let Some((k, v)) = best {
                return Some((*k, v.clone()));
            }
            up = self.roots.get(a)?.parent;
        }
        None
    }

    fn refresh_default(&mut self, i: usize) {
        let default = self.compute_default(i);
        if let Some(root) = self.roots.get_mut(i) {
            root.default = default;
        }
    }

    /// Re-derives the default of every partition whose root is strictly
    /// covered by `changed` (an inserted, replaced or removed prefix):
    /// the run of roots right after `changed`'s place in the order.
    fn refresh_defaults_covered_by(&mut self, changed: Key128) {
        let mut i = self
            .roots
            .partition_point(|r| order(&r.key) <= order(&changed));
        while self
            .roots
            .get(i)
            .is_some_and(|r| changed.contains(r.key.value))
        {
            self.refresh_default(i);
            i += 1;
        }
    }

    /// Re-derives every root's parent link after the root set changed.
    /// A root's parent is the nearest root before it that covers it, and
    /// that one is on the previous root's ancestor chain (or is the
    /// previous root): one pass, linear in the roots.
    fn relink_parents(&mut self) {
        for i in 0..self.roots.len() {
            let (before, rest) = self.roots.split_at_mut(i);
            let Some(root) = rest.first_mut() else {
                return;
            };
            let mut up = i.checked_sub(1);
            while let Some(r) = up.and_then(|j| before.get(j)) {
                if r.key.covers(&root.key) {
                    break;
                }
                up = r.parent;
            }
            root.parent = up;
        }
    }

    /// Installs a partition at its place in the root order, returning
    /// the root's index. Parent links are stale until re-linked.
    fn add_partition(&mut self, key: Key128, entries: impl Iterator<Item = (Key128, T)>) -> usize {
        let at = self.roots.partition_point(|r| order(&r.key) < order(&key));
        let start = self.roots.get(at).map_or(self.slots.len(), |r| r.start);
        let before = self.slots.len();
        self.slots.splice(start..start, entries);
        let added = self.slots.len() - before;
        self.roots
            .iter_mut()
            .skip(at)
            .for_each(|r| r.start += added);
        self.roots.insert(
            at,
            Root {
                key,
                start,
                parent: None,
                default: None,
            },
        );
        at
    }

    /// Splits an overflowing partition by re-carving its bucket. Roots
    /// already nested under it sort between the pieces, so each piece is
    /// installed at its own place rather than over the old bucket.
    fn split(&mut self, i: usize) {
        let range = self.bucket_range(i);
        let root = self.roots.remove(i).key;
        let mut run: Vec<(Key128, T)> = self.slots.drain(range).collect();
        self.roots
            .iter_mut()
            .skip(i)
            .for_each(|r| r.start -= run.len());
        run.sort_unstable_by_key(|(k, _)| order(k));
        let (mut taken, mut last) = (0, i);
        carve(
            self.config.bucket_capacity,
            root,
            &run,
            &mut |key, entries| {
                let piece = run.iter().skip(taken).take(entries).cloned();
                last = self.add_partition(key, piece);
                taken += entries;
            },
        );
        self.relink_parents();
        // The first piece lands where the old root was or after it.
        (i..=last).for_each(|j| self.refresh_default(j));
    }
}

/// Recursively carves `run` — entries all covered by `root`, sorted by
/// [`order`] — into subtrees of at most `cap` entries, reporting each
/// piece's root and entry count in root order. Sorted input makes every
/// piece the contiguous sub-run after the previous one, so carving is
/// index arithmetic: it moves and allocates nothing.
fn carve<T>(cap: usize, root: Key128, run: &[(Key128, T)], emit: &mut impl FnMut(Key128, usize)) {
    if run.is_empty() {
        return;
    }
    if run.len() <= cap || root.len == 128 {
        emit(root, run.len());
        return;
    }
    // The entry equal to the root (it sorts first) cannot descend; it
    // becomes a tiny partition of its own and serves the children as
    // their (re-derived) default.
    let below = match run.split_first() {
        Some(((k, _), below)) if k.len == root.len => {
            emit(root, 1);
            below
        }
        _ => run,
    };
    let zeros = below.partition_point(|(k, _)| Key128::bit(k.value, root.len) == 0);
    let (left, right) = below.split_at(zeros);
    let left_root = Key128 {
        value: root.value,
        len: root.len + 1,
    };
    let right_root = Key128 {
        value: root.value | 1 << (127 - root.len as u32),
        len: root.len + 1,
    };
    carve(cap, left_root, left, emit);
    carve(cap, right_root, right, emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::Lpm128;

    fn key(value: u128, len: u8) -> Key128 {
        Key128::new(value, len).unwrap()
    }

    #[test]
    fn single_entry() {
        let mut t = AlpmTable::default();
        t.insert(key(0xab << 120, 8), "a").unwrap();
        assert_eq!(t.lookup(0xab11u128 << 112).unwrap().1, &"a");
        assert!(t.lookup(0xcc << 120).is_none());
        t.audit().unwrap();
        assert_eq!(t.stats().tcam_entries, 1);
    }

    #[test]
    fn split_reduces_tcam_below_entries() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 4 });
        // 64 host-like routes under one /8.
        for i in 0..64u128 {
            t.insert(key(0xab << 120 | i << 64, 64), i).unwrap();
        }
        t.audit().unwrap();
        let stats = t.stats();
        assert_eq!(stats.bucket_entries, 64);
        assert!(stats.tcam_entries >= 16, "{stats:?}");
        assert!(stats.tcam_entries < 64, "{stats:?}");
        for i in 0..64u128 {
            let addr = 0xab << 120 | i << 64 | 42;
            assert_eq!(*t.lookup(addr).unwrap().1, i);
        }
    }

    #[test]
    fn default_replication_covers_bucket_misses() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 2 });
        // A short covering route plus enough long routes to force splits.
        t.insert(key(0xab << 120, 8), 999u128).unwrap();
        for i in 0..8u128 {
            t.insert(key(0xab << 120 | i << 100, 28), i).unwrap();
        }
        t.audit().unwrap();
        // An address inside the /8 but in none of the /28s must fall back
        // to the /8 via a replicated default.
        let addr = 0xab << 120 | 0xff << 100;
        assert_eq!(*t.lookup(addr).unwrap().1, 999);
        assert_eq!(t.lookup(addr).unwrap().0.len, 8);
    }

    #[test]
    fn remove_restores_consistency() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 2 });
        t.insert(key(0xab << 120, 8), 0u32).unwrap();
        for i in 0..8u128 {
            t.insert(key(0xab << 120 | i << 100, 28), 1).unwrap();
        }
        // Remove the covering /8; fallback inside empty ranges disappears.
        assert_eq!(t.remove(key(0xab << 120, 8)), Some(0));
        t.audit().unwrap();
        let addr = 0xab << 120 | 0xff << 100;
        assert!(t.lookup(addr).is_none());
        // Removing a missing key is a no-op.
        assert_eq!(t.remove(key(0xab << 120, 8)), None);
    }

    #[test]
    fn value_replacement_updates_defaults() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 1 });
        t.insert(key(0xab << 120, 8), 1u32).unwrap();
        t.insert(key(0xab << 120 | 1 << 100, 28), 2).unwrap();
        t.insert(key(0xab << 120 | 2 << 100, 28), 3).unwrap();
        // Replace the /8's value; bucket-miss fallbacks must see it.
        assert_eq!(t.insert(key(0xab << 120, 8), 10).unwrap(), Some(1));
        t.audit().unwrap();
        let addr = 0xab << 120 | 0xff << 100;
        assert_eq!(*t.lookup(addr).unwrap().1, 10);
    }

    #[test]
    fn default_route_len_zero() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 1 });
        t.insert(key(0, 0), "default").unwrap();
        t.insert(key(0xab << 120, 8), "ab").unwrap();
        t.insert(key(0xac << 120, 8), "ac").unwrap();
        t.audit().unwrap();
        assert_eq!(*t.lookup(0xff << 120).unwrap().1, "default");
        assert_eq!(*t.lookup(0xab << 120 | 1).unwrap().1, "ab");
    }

    /// A default that lives two ancestors up: the nearer ancestor's bucket
    /// holds nothing covering the root, so the scan must go on.
    #[test]
    fn default_found_past_an_ancestor_without_one() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 1 });
        t.insert(key(0xab << 120, 8), "outer").unwrap();
        // Root 0xab40/10 holds only this /16, which does not cover the
        // /24 below: the /24's default is the /8, two roots up.
        t.insert(key(0xab40 << 112, 16), "middle").unwrap();
        t.insert(key(0xab41 << 112, 16), "sibling").unwrap();
        t.insert(key(0xab4180 << 104, 24), "inner").unwrap();
        t.insert(key(0xab4280 << 104, 24), "far").unwrap();
        t.audit().unwrap();
        assert_eq!(*t.lookup(0xab4280u128 << 104).unwrap().1, "far");
        assert_eq!(*t.lookup(0xab42ffu128 << 104).unwrap().1, "outer");
        assert_eq!(*t.lookup(0xab41ffu128 << 104).unwrap().1, "sibling");
    }

    /// More roots than [`LINEAR_ROOTS`], nested: the predecessor of an
    /// address is a root that ends before it, and the owner is found up
    /// the parent links.
    #[test]
    fn predecessor_search_hops_to_the_covering_ancestor() {
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 1 });
        t.insert(key(0x10 << 120, 4), 0u32).unwrap();
        for i in 0..16u128 {
            t.insert(key(0x10 << 120 | i << 112, 16), 1 + i as u32)
                .unwrap();
        }
        t.audit().unwrap();
        assert!(t.stats().tcam_entries > LINEAR_ROOTS);
        // Inside the /4, past every /16.
        let (k, v) = t.lookup(0x1f << 120).unwrap();
        assert_eq!((k.len, *v), (4, 0));
        let (k, v) = t.lookup(0x1003u128 << 112 | 9).unwrap();
        assert_eq!((k.len, *v), (16, 4));
        assert!(t.lookup(0x20 << 120).is_none());
    }

    #[test]
    fn randomized_equivalence_with_independent_trie() {
        use sailfish_util::rand::rngs::StdRng;
        use sailfish_util::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa1b2);
        let mut t = AlpmTable::new(AlpmConfig { bucket_capacity: 3 });
        let mut trie = Lpm128::new();
        let mut keys: Vec<Key128> = Vec::new();
        for step in 0..800u32 {
            let remove = !keys.is_empty() && rng.gen_bool(0.3);
            if remove {
                let idx = rng.gen_range(0..keys.len());
                let k = keys.swap_remove(idx);
                assert_eq!(t.remove(k), trie.remove(k));
            } else {
                let len = rng.gen_range(0..=24u8);
                let value = rng.gen_range(0..1u128 << 20) << 104;
                let k = Key128::new(value, len).unwrap();
                let old = t.insert(k, step).unwrap();
                assert_eq!(old, trie.insert(k, step));
                if old.is_none() {
                    keys.push(k);
                }
            }
            assert_eq!(t.len(), trie.len());
            if step % 50 == 0 {
                t.audit().unwrap();
            }
        }
        t.audit().unwrap();
        let mut rng = StdRng::seed_from_u64(0xc3d4);
        for _ in 0..3000 {
            let addr = rng.gen_range(0..1u128 << 24) << 104 | rng.gen_range(0..1u128 << 64);
            assert_eq!(
                t.lookup(addr).map(|(k, v)| (k.len, *v)),
                trie.lookup(addr).map(|(k, v)| (k.len, *v)),
                "addr {addr:#034x}"
            );
        }
    }

    #[test]
    fn non_canonical_keys_rejected() {
        let mut t = AlpmTable::new(AlpmConfig::default());
        let host_bits = Key128 {
            value: 0xab << 120 | 1,
            len: 8,
        };
        assert_eq!(t.insert(host_bits, 1u32), Err(Error::InvalidKey));
        let too_long = Key128 { value: 0, len: 129 };
        assert_eq!(t.insert(too_long, 1), Err(Error::InvalidKey));
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket capacity")]
    fn zero_capacity_rejected() {
        let _ = AlpmTable::<u32>::new(AlpmConfig { bucket_capacity: 0 });
    }
}
