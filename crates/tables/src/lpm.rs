//! Binary-trie longest-prefix-match table.
//!
//! [`Lpm128`] is the authoritative *software* LPM over a 128-bit,
//! MSB-aligned key space. It serves three roles:
//!
//! 1. the reference semantics that the hardware structure
//!    [`crate::alpm::AlpmTable`] is property-tested against,
//! 2. the backing store of the logical
//!    [`crate::vxlan_route::VxlanRoutingTable`],
//! 3. the XGW-x86 routing table (x86 has "huge memory space", §4.1, so the
//!    software gateway uses this directly).
//!
//! IPv4 keys are mapped into the 128-bit space by the caller (either
//! MSB-aligned per-family or via the pooled `::ffff:0:0/96` plane, see
//! `sailfish_net::prefix::IpPrefix::pooled_bits`).

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

    /// The bit mask selecting the first `len` bits.
    pub fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
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

#[derive(Debug)]
struct Node<T> {
    children: [Option<Box<Node<T>>>; 2],
    data: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            children: [None, None],
            data: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.data.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A binary trie mapping 128-bit prefixes to values.
#[derive(Debug)]
pub struct Lpm128<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for Lpm128<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Lpm128<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Lpm128 {
            root: Node::new(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a prefix, returning the previous value if the prefix was
    /// already present.
    pub fn insert(&mut self, key: Key128, data: T) -> Option<T> {
        let mut node = &mut self.root;
        for pos in 0..key.len {
            let bit = Key128::bit(key.value, pos);
            node = node.children[bit].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.data.replace(data);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a prefix, returning its value.
    pub fn remove(&mut self, key: Key128) -> Option<T> {
        fn rec<T>(node: &mut Node<T>, key: &Key128, pos: u8) -> Option<T> {
            if pos == key.len {
                return node.data.take();
            }
            let bit = Key128::bit(key.value, pos);
            let child = node.children[bit].as_mut()?;
            let removed = rec(child, key, pos + 1);
            if removed.is_some() && child.is_empty() {
                node.children[bit] = None;
            }
            removed
        }
        let removed = rec(&mut self.root, &key, 0);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Returns the value stored exactly at `key`.
    pub fn get_exact(&self, key: Key128) -> Option<&T> {
        let mut node = &self.root;
        for pos in 0..key.len {
            let bit = Key128::bit(key.value, pos);
            node = node.children[bit].as_deref()?;
        }
        node.data.as_ref()
    }

    /// Longest-prefix lookup of a full 128-bit address.
    pub fn lookup(&self, addr: u128) -> Option<(Key128, &T)> {
        self.lookup_max_len(addr, 128)
    }

    /// Longest-prefix lookup considering only prefixes with
    /// `len <= max_len`. Used by ALPM to compute partition defaults (the
    /// best route *outside* a partition rooted at `max_len + 1` or deeper).
    pub fn lookup_max_len(&self, addr: u128, max_len: u8) -> Option<(Key128, &T)> {
        let mut node = &self.root;
        let mut best: Option<(u8, &T)> = None;
        if let Some(data) = node.data.as_ref() {
            best = Some((0, data));
        }
        for pos in 0..max_len.min(128) {
            let bit = Key128::bit(addr, pos);
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(data) = node.data.as_ref() {
                        best = Some((pos + 1, data));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, data)| (Key128::new(addr, len).expect("len bounded by 128"), data))
    }

    /// Iterates over all `(key, value)` pairs in lexicographic order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            stack: vec![(&self.root, 0u128, 0u8)],
        }
    }

    /// Collects all prefixes covered by `cover` (including an entry equal
    /// to it). Used when splitting ALPM partitions.
    pub fn entries_under(&self, cover: Key128) -> Vec<(Key128, &T)> {
        // Walk down to the covering node first.
        let mut node = &self.root;
        for pos in 0..cover.len {
            let bit = Key128::bit(cover.value, pos);
            match node.children[bit].as_deref() {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        let mut stack = vec![(node, cover.value, cover.len)];
        while let Some((n, value, len)) = stack.pop() {
            if let Some(data) = n.data.as_ref() {
                out.push((Key128 { value, len }, data));
            }
            for (bit, child) in n.children.iter().enumerate() {
                if let Some(child) = child.as_deref() {
                    debug_assert!(len < 128);
                    let value = value | (bit as u128) << (127 - len as u32);
                    stack.push((child, value, len + 1));
                }
            }
        }
        out
    }
}

/// Iterator over `(Key128, &T)` pairs.
pub struct Iter<'a, T> {
    stack: Vec<(&'a Node<T>, u128, u8)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Key128, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, value, len)) = self.stack.pop() {
            // Push children right-then-left so pops are in order.
            for bit in [1usize, 0] {
                if let Some(child) = node.children[bit].as_deref() {
                    let value = value | (bit as u128) << (127 - len as u32);
                    self.stack.push((child, value, len + 1));
                }
            }
            if let Some(data) = node.data.as_ref() {
                return Some((Key128 { value, len }, data));
            }
        }
        None
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
    fn lookup_max_len_excludes_longer() {
        let mut t = Lpm128::new();
        t.insert(ka(0xab << 120, 8), "short");
        t.insert(ka(0xabcd << 112, 16), "long");
        let addr = 0xabcdu128 << 112;
        assert_eq!(t.lookup_max_len(addr, 15).unwrap().1, &"short");
        assert_eq!(t.lookup_max_len(addr, 16).unwrap().1, &"long");
        assert_eq!(t.lookup_max_len(addr, 7), None);
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
    fn iter_yields_everything_in_order() {
        let mut t = Lpm128::new();
        let keys = [ka(0, 0), ka(0xab << 120, 8), ka(0xab << 120, 9), ka(1, 128)];
        for (i, key) in keys.iter().enumerate() {
            t.insert(*key, i);
        }
        let collected: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(collected.len(), keys.len());
        for key in keys {
            assert!(collected.contains(&key));
        }
    }

    #[test]
    fn entries_under_selects_subtree() {
        let mut t = Lpm128::new();
        t.insert(ka(0xab << 120, 8), "a");
        t.insert(ka(0xabcd << 112, 16), "b");
        t.insert(ka(0xac << 120, 8), "c");
        let under = t.entries_under(ka(0xab << 120, 8));
        assert_eq!(under.len(), 2);
        let under = t.entries_under(ka(0xac << 120, 8));
        assert_eq!(under.len(), 1);
        let under = t.entries_under(ka(0, 0));
        assert_eq!(under.len(), 3);
        // No node at all under a foreign prefix.
        assert!(t.entries_under(ka(0xff << 120, 8)).is_empty());
    }

    #[test]
    fn remove_prunes_empty_branches() {
        let mut t = Lpm128::new();
        let deep = ka(7, 128);
        t.insert(deep, "x");
        t.remove(deep);
        assert!(t.is_empty());
        // The root must have been pruned back to a leaf: inserting and
        // looking up still works.
        t.insert(ka(0, 0), "d");
        assert_eq!(t.lookup(7).unwrap().1, &"d");
    }

    // Differential test against a naive scan.
    #[test]
    fn matches_naive_scan_on_random_input() {
        use sailfish_util::rand::rngs::StdRng;
        use sailfish_util::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5a11_f154);
        let mut t = Lpm128::new();
        let mut entries: Vec<(Key128, u32)> = Vec::new();
        for i in 0..500u32 {
            // Cluster prefixes in a small space to force overlaps.
            let len = rng.gen_range(0..=16) + 112;
            let value = (rng.gen_range(0..64u128)) << 112 | rng.gen_range(0..1u128 << 64);
            let key = Key128::new(value, len as u8).unwrap();
            if t.insert(key, i).is_none() {
                entries.push((key, i));
            } else {
                entries.retain(|(k, _)| *k != key);
                entries.push((key, i));
            }
        }
        for _ in 0..2000 {
            let addr = (rng.gen_range(0..64u128)) << 112 | rng.gen_range(0..1u128 << 64);
            let got = t.lookup(addr).map(|(k, v)| (k.len, *v));
            let want = entries
                .iter()
                .filter(|(k, _)| k.contains(addr))
                .max_by_key(|(k, _)| k.len)
                .map(|(k, v)| (k.len, *v));
            assert_eq!(got, want, "addr {addr:#034x}");
        }
    }

    #[test]
    fn helper_k_is_sane() {
        // Guard the test helper itself.
        assert_eq!(k(0xab, 8).len, 8);
    }
}
