//! A fixed-key hasher for control-plane-provisioned tables.
//!
//! The VNI directory, the per-VNI route-table index and the VM-NC
//! conflict plane are `HashMap`s whose keys the controller installs, and
//! the VM-NC main plane is a slot array addressed by the same hash of its
//! `(family, VNI, 32-bit address)` tags; every table miss probes two or
//! three of them. `std`'s default SipHash-1-3 is keyed per process
//! to survive attacker-chosen keys; these tables have none (the paper's
//! digest plane is itself an unkeyed hash with a conflict table behind
//! it, §4.4), so they pay ≈20 ns a probe for protection they cannot use,
//! and iterate in a different order every run.
//!
//! [`MixState`] is the replacement: the multiply-mix of
//! [`crate::view::FlowKey::mix`] behind the `Hasher` interface. Same
//! rationale — determinism, not compatibility — and the same finalizer,
//! because hashbrown reads a hash from both ends (the low bits pick the
//! bucket group and the top seven are the in-group tag) and the slot
//! array scales the whole word, and a bare multiply leaves the low bits
//! of a product depending only on the low bits of the key.
//!
//! **Do not** reach for it where a key comes off the wire (flow tuples,
//! SNAT sessions): an unkeyed hash lets a sender aim every flow at one
//! bucket. Those maps keep the default hasher.

use core::hash::{BuildHasher, Hasher};
use std::collections::HashMap;

/// 2^64 / φ, the multiplier [`crate::view::FlowKey::mix`] uses.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A `HashMap` hashed by [`MixState`].
pub type MixMap<K, V> = HashMap<K, V, MixState>;

/// Builds [`MixHasher`]s; stateless, so two maps holding the same keys
/// inserted in the same order iterate in the same order, in every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixState;

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher(0)
    }
}

/// One multiply-mix round per word written, an avalanche on `finish`.
/// The fixed-width writes the provisioned keys use (`bool`, `u32`, `u64`,
/// enum discriminants and length prefixes) take one round each; everything
/// else goes through `write`.
#[derive(Debug, Clone, Copy)]
pub struct MixHasher(u64);

impl MixHasher {
    #[inline]
    fn round(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.round(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            for (dst, src) in w.iter_mut().zip(rest) {
                *dst = *src;
            }
            // The length goes in with the tail so `[0]` and `[0, 0]`
            // differ.
            self.round(u64::from_le_bytes(w) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.round(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.round(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.round(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.round(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        MixState.hash_one(value)
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        assert_ne!(hash_of(&[0u8][..]), hash_of(&[0u8, 0][..]));
        assert_ne!(hash_of(&[1u8, 2][..]), hash_of(&[2u8, 1][..]));
        let long = [7u8; 19];
        assert_eq!(hash_of(&long[..]), hash_of(&long.to_vec()[..]));
        assert_ne!(hash_of(&long[..18]), hash_of(&long[..]));
    }

    #[test]
    fn word_order_matters() {
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        assert_ne!(hash_of(&(0u32, 5u32)), hash_of(&(5u32, 0u32)));
    }
}
