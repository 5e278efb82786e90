//! Property-based tests for the core table structures, on the in-tree
//! seeded harness (`sailfish_util::check`).
//!
//! Strategy: every compressed/hardware-shaped structure must be
//! observationally equivalent to a trivially-correct reference model under
//! arbitrary interleavings of inserts, removes and lookups.

use sailfish_util::check;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::Rng;

use core::net::IpAddr;

use sailfish_net::{IpPrefix, Vni};
use sailfish_tables::alpm::{AlpmConfig, AlpmTable};
use sailfish_tables::digest::DigestExactTable;
use sailfish_tables::lpm::{Key128, Lpm128};
use sailfish_tables::pooled::{plane_addr, PooledAlpm, PooledPrefixMap};
use sailfish_tables::tcam::{Tcam, TcamEntry};
use sailfish_tables::types::VmKey;

/// Small key space so prefixes overlap aggressively. Spreads 4 value
/// bits across the top 12 bits.
fn arb_key(rng: &mut StdRng) -> Key128 {
    let v = rng.gen_range(0u128..16);
    let len = rng.gen_range(0u8..=12);
    Key128::new(v << 116, len).unwrap()
}

fn arb_addr(rng: &mut StdRng) -> u128 {
    let hi = rng.gen_range(0u128..16);
    hi << 116 | u128::from(rng.gen::<u64>())
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Key128, u32),
    Remove(Key128),
    Lookup(u128),
}

fn arb_op(rng: &mut StdRng) -> Op {
    match check::one_of(rng, 3) {
        0 => Op::Insert(arb_key(rng), rng.gen::<u32>()),
        1 => Op::Remove(arb_key(rng)),
        _ => Op::Lookup(arb_addr(rng)),
    }
}

/// The trie agrees with a naive scan under arbitrary operations.
#[test]
fn lpm_matches_naive() {
    check::run("lpm_matches_naive", 256, |rng| {
        let ops = check::vec_of(rng, 1..120, arb_op);
        let mut trie = Lpm128::new();
        let mut naive: Vec<(Key128, u32)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let old = trie.insert(k, v);
                    let pos = naive.iter().position(|(nk, _)| *nk == k);
                    assert_eq!(old, pos.map(|i| naive.remove(i).1));
                    naive.push((k, v));
                }
                Op::Remove(k) => {
                    let old = trie.remove(k);
                    let pos = naive.iter().position(|(nk, _)| *nk == k);
                    assert_eq!(old, pos.map(|i| naive.remove(i).1));
                }
                Op::Lookup(addr) => {
                    let got = trie.lookup(addr).map(|(k, v)| (k.len, *v));
                    let want = naive
                        .iter()
                        .filter(|(k, _)| k.contains(addr))
                        .max_by_key(|(k, _)| k.len)
                        .map(|(k, v)| (k.len, *v));
                    assert_eq!(got, want);
                }
            }
            assert_eq!(trie.len(), naive.len());
        }
    });
}

/// ALPM agrees with an independently maintained trie *and* a naive scan
/// — return values, size and lookups — and keeps its structural
/// invariants after every single operation, for every bucket capacity.
/// Lookups go through the two public levels (`deepest_root`, then
/// `match_in`) the batch miss path runs separately, and must equal their
/// composition `lookup`.
#[test]
fn alpm_equivalent_and_sound() {
    check::run("alpm_equivalent_and_sound", 256, |rng| {
        let cap = rng.gen_range(1usize..=6);
        let ops = check::vec_of(rng, 1..100, arb_op);
        let probes: Vec<u128> = (0..20).map(|_| arb_addr(rng)).collect();
        let mut t = AlpmTable::new(AlpmConfig {
            bucket_capacity: cap,
        });
        let mut trie = Lpm128::new();
        let mut naive: Vec<(Key128, u32)> = Vec::new();
        let check_lookup =
            |t: &AlpmTable<u32>, trie: &Lpm128<u32>, naive: &[(Key128, u32)], addr| {
                let got = t
                    .deepest_root(addr, 128)
                    .and_then(|root| t.match_in(root, addr))
                    .map(|(k, v)| (k.len, *v));
                assert_eq!(got, t.lookup(addr).map(|(k, v)| (k.len, *v)));
                assert_eq!(got, trie.lookup(addr).map(|(k, v)| (k.len, *v)));
                let scan = naive
                    .iter()
                    .filter(|(k, _)| k.contains(addr))
                    .max_by_key(|(k, _)| k.len)
                    .map(|(k, v)| (k.len, *v));
                assert_eq!(got, scan);
            };
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let old = t.insert(k, v).unwrap();
                    assert_eq!(old, trie.insert(k, v));
                    naive.retain(|(nk, _)| *nk != k);
                    naive.push((k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(t.remove(k), trie.remove(k));
                    naive.retain(|(nk, _)| *nk != k);
                }
                Op::Lookup(addr) => check_lookup(&t, &trie, &naive, addr),
            }
            assert_eq!(t.len(), naive.len());
            assert!(t.audit().is_ok(), "cap {cap}: {:?}", t.audit());
        }
        for addr in probes {
            check_lookup(&t, &trie, &naive, addr);
        }
        // Compression bound: first-level TCAM entries never exceed total
        // routes (each partition holds >= 1 entry).
        assert!(t.stats().tcam_entries <= t.len().max(1));
        // A from-scratch re-carve keeps every answer.
        t.rebuild();
        assert!(t.audit().is_ok(), "rebuilt: {:?}", t.audit());
        for (k, _) in &naive {
            check_lookup(&t, &trie, &naive, k.value);
        }
    });
}

/// The dual-stack table walked level by level — family plane, first
/// level, second level — agrees with the trie-backed pooled map and with
/// its own `lookup`, and an address never matches the other family.
#[test]
fn pooled_alpm_levels_match_pooled_trie() {
    check::run("pooled_alpm_levels_match_pooled_trie", 128, |rng| {
        let arb_prefix = |rng: &mut StdRng| -> IpPrefix {
            if rng.gen_bool(0.5) {
                let addr = core::net::Ipv4Addr::from(rng.gen_range(0..1u32 << 12) << 20);
                IpPrefix::new(addr.into(), rng.gen_range(0..=12)).unwrap()
            } else {
                let addr = core::net::Ipv6Addr::from(rng.gen_range(0..1u128 << 12) << 116);
                IpPrefix::new(addr.into(), rng.gen_range(0..=12)).unwrap()
            }
        };
        let mut alpm = PooledAlpm::new(AlpmConfig {
            bucket_capacity: rng.gen_range(1usize..=6),
        });
        let mut map = PooledPrefixMap::new();
        for i in 0..rng.gen_range(1..120u32) {
            let prefix = arb_prefix(rng);
            assert_eq!(alpm.insert(prefix, i).unwrap(), map.insert(prefix, i));
        }
        for _ in 0..40 {
            let addr: IpAddr = if rng.gen_bool(0.5) {
                core::net::Ipv4Addr::from(rng.gen::<u32>()).into()
            } else {
                core::net::Ipv6Addr::from(rng.gen::<u128>()).into()
            };
            let plane = alpm.plane(addr.is_ipv4());
            let bits = plane_addr(addr);
            let got = plane
                .deepest_root(bits, 128)
                .and_then(|root| plane.match_in(root, bits))
                .map(|(k, v)| (k.len, *v));
            assert_eq!(got, alpm.lookup(addr).map(|(l, v)| (l, *v)), "{addr}");
            assert_eq!(got, map.lookup(addr).map(|(l, v)| (l, *v)), "{addr}");
        }
    });
}

/// The TCAM in LPM configuration agrees with the trie.
#[test]
fn tcam_lpm_matches_trie() {
    check::run("tcam_lpm_matches_trie", 256, |rng| {
        let keys = check::vec_of(rng, 1..60, |r| (arb_key(r), r.gen::<u32>()));
        let probes: Vec<u128> = (0..30).map(|_| arb_addr(rng)).collect();
        let mut tcam = Tcam::new(None);
        let mut trie = Lpm128::new();
        for (k, v) in keys {
            // First-wins: skip duplicate prefixes so both structures hold
            // identical entry sets.
            if trie.get_exact(k).is_none() {
                trie.insert(k, v);
                tcam.insert(TcamEntry::from_prefix(k.value, k.len).unwrap(), v)
                    .unwrap();
            }
        }
        for addr in probes {
            let got = tcam.lookup(addr).map(|(e, v)| (e.priority, *v));
            let want = trie.lookup(addr).map(|(k, v)| (u32::from(k.len), *v));
            assert_eq!(got, want);
        }
    });
}

/// The digest table behaves exactly like a hash map on VmKeys.
#[test]
fn digest_table_matches_hashmap() {
    check::run("digest_table_matches_hashmap", 256, |rng| {
        let keys = check::vec_of(rng, 1..200, |r| {
            (
                r.gen_range(0u32..64),
                r.gen_range(0u128..1024),
                r.gen::<bool>(),
            )
        });
        let mut digest = DigestExactTable::new();
        let mut seen = std::collections::HashSet::new();
        for (i, (vni, addr, v6)) in keys.iter().enumerate() {
            let ip = if *v6 {
                core::net::IpAddr::V6(core::net::Ipv6Addr::from(*addr))
            } else {
                core::net::IpAddr::V4(core::net::Ipv4Addr::from(*addr as u32))
            };
            let key = VmKey::new(Vni::from_const(*vni), ip);
            let inserted = digest.insert(key, i).is_ok();
            // Digest table rejects duplicates; membership must agree with
            // a plain set.
            assert_eq!(inserted, seen.insert(key));
        }
        // Lookups agree with first-insert-wins semantics.
        let mut first_wins = std::collections::HashMap::new();
        for (i, (vni, addr, v6)) in keys.iter().enumerate() {
            let ip = if *v6 {
                core::net::IpAddr::V6(core::net::Ipv6Addr::from(*addr))
            } else {
                core::net::IpAddr::V4(core::net::Ipv4Addr::from(*addr as u32))
            };
            let key = VmKey::new(Vni::from_const(*vni), ip);
            first_wins.entry(key).or_insert(i);
        }
        for (key, want) in &first_wins {
            assert_eq!(digest.get(key), Some(want));
        }
        assert_eq!(digest.len(), first_wins.len());
    });
}
