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
use sailfish_tables::digest::{digest32, DigestExactTable, DigestLookup, DigestStats};
use sailfish_tables::error::Error;
use sailfish_tables::lpm::{Key128, Lpm128};
use sailfish_tables::pooled::{plane_addr, plane_key, PooledAlpm};
use sailfish_tables::types::{IdcId, RouteTarget, VmKey, VxlanRouteKey};
use sailfish_tables::vxlan_route::{Resolution, VxlanRoutingTable, MAX_PEER_HOPS};

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

/// The LPM reference agrees with a naive scan under arbitrary operations.
#[test]
fn lpm_matches_naive() {
    check::run("lpm_matches_naive", 256, |rng| {
        let ops = check::vec_of(rng, 1..120, arb_op);
        let mut lpm = Lpm128::new();
        let mut naive: Vec<(Key128, u32)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let old = lpm.insert(k, v);
                    let pos = naive.iter().position(|(nk, _)| *nk == k);
                    assert_eq!(old, pos.map(|i| naive.remove(i).1));
                    naive.push((k, v));
                }
                Op::Remove(k) => {
                    let old = lpm.remove(k);
                    let pos = naive.iter().position(|(nk, _)| *nk == k);
                    assert_eq!(old, pos.map(|i| naive.remove(i).1));
                }
                Op::Lookup(addr) => {
                    let got = lpm.lookup(addr).map(|(k, v)| (k.len, *v));
                    let want = naive
                        .iter()
                        .filter(|(k, _)| k.contains(addr))
                        .max_by_key(|(k, _)| k.len)
                        .map(|(k, v)| (k.len, *v));
                    assert_eq!(got, want);
                }
            }
            assert_eq!(lpm.len(), naive.len());
        }
    });
}

/// ALPM agrees with the independent `Lpm128` reference *and* a naive scan
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
        let mut lpm = Lpm128::new();
        let mut naive: Vec<(Key128, u32)> = Vec::new();
        let check_lookup =
            |t: &AlpmTable<u32>, lpm: &Lpm128<u32>, naive: &[(Key128, u32)], addr| {
                let got = t
                    .deepest_root(addr, 128)
                    .and_then(|root| t.match_in(root, addr))
                    .map(|(k, v)| (k.len, *v));
                assert_eq!(got, t.lookup(addr).map(|(k, v)| (k.len, *v)));
                assert_eq!(got, lpm.lookup(addr).map(|(k, v)| (k.len, *v)));
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
                    assert_eq!(old, lpm.insert(k, v));
                    naive.retain(|(nk, _)| *nk != k);
                    naive.push((k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(t.remove(k), lpm.remove(k));
                    naive.retain(|(nk, _)| *nk != k);
                }
                Op::Lookup(addr) => check_lookup(&t, &lpm, &naive, addr),
            }
            assert_eq!(t.len(), naive.len());
            assert!(t.audit().is_ok(), "cap {cap}: {:?}", t.audit());
        }
        for addr in probes {
            check_lookup(&t, &lpm, &naive, addr);
        }
        // Compression bound: first-level TCAM entries never exceed total
        // routes (each partition holds >= 1 entry).
        assert!(t.stats().tcam_entries <= t.len().max(1));
        // A from-scratch re-carve keeps every answer.
        t.rebuild();
        assert!(t.audit().is_ok(), "rebuilt: {:?}", t.audit());
        for (k, _) in &naive {
            check_lookup(&t, &lpm, &naive, k.value);
        }
    });
}

/// The dual-stack table walked level by level — family plane, first
/// level, second level — agrees with two `Lpm128`s, one per family plane,
/// and with its own `lookup`, and an address never matches the other family.
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
        let mut planes = [Lpm128::new(), Lpm128::new()];
        for i in 0..rng.gen_range(1..120u32) {
            let prefix = arb_prefix(rng);
            let plane = &mut planes[usize::from(prefix.is_v4())];
            assert_eq!(
                alpm.insert(prefix, i).unwrap(),
                plane.insert(plane_key(&prefix), i)
            );
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
            let want = planes[usize::from(addr.is_ipv4())]
                .lookup(bits)
                .map(|(k, v)| (k.len, *v));
            assert_eq!(got, want, "{addr}");
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

/// The key pool of the digest differential: a few hundred ordinary keys
/// of both families, v6 pairs whose digests *do* collide (found the way
/// the unit tests find them: the first repeats among 600k digests), and
/// for each colliding pair the v4 key whose address is that digest —
/// same 32 address bits, other family label.
fn digest_key_pool() -> &'static [VmKey] {
    static POOL: std::sync::OnceLock<Vec<VmKey>> = std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let v4 = |vni: u32, addr: u32| {
            VmKey::new(
                Vni::from_const(vni),
                IpAddr::V4(core::net::Ipv4Addr::from(addr)),
            )
        };
        let v6 = |vni: u32, addr: u128| {
            VmKey::new(
                Vni::from_const(vni),
                IpAddr::V6(core::net::Ipv6Addr::from(addr)),
            )
        };
        let mut pool = Vec::new();
        for i in 0..120u32 {
            pool.push(v4(1 + i % 5, 0x0a00_0000 | (i / 5)));
            pool.push(v6(1 + i % 5, 0x2001_0db8 << 96 | u128::from(i / 5)));
        }
        let mut seen = std::collections::HashMap::new();
        let mut pairs = 0;
        for addr in 0..600_000u128 {
            let digest = digest32(1, addr);
            if let Some(first) = seen.insert(digest, addr) {
                pool.extend([v6(1, first), v6(1, addr), v4(1, digest)]);
                pairs += 1;
                if pairs == 8 {
                    break;
                }
            }
        }
        assert!(pairs >= 4, "birthday paradox: ~42 collisions in 600k keys");
        pool
    })
}

/// Whether two keys compete for one main-table entry, worked out from the
/// paper's description rather than the table's tag: same VNI, same
/// family, same 32 address bits (raw for v4, the digest for v6).
fn same_compressed_key(a: &VmKey, b: &VmKey) -> bool {
    let bits = |k: &VmKey| match k.ip {
        IpAddr::V4(ip) => (false, u32::from(ip)),
        IpAddr::V6(ip) => (true, digest32(k.vni.value(), u128::from(ip))),
    };
    a.vni == b.vni && bits(a) == bits(b)
}

/// The trivially-correct model: a list scanned end to end, each entry
/// remembering which plane first-come-first-kept put it in.
#[derive(Default)]
struct NaiveDigest {
    entries: Vec<(VmKey, u32, DigestLookup)>,
}

impl NaiveDigest {
    fn insert(&mut self, key: VmKey, value: u32) -> Result<(), Error> {
        if self.entries.iter().any(|(k, _, _)| *k == key) {
            return Err(Error::Duplicate);
        }
        let taken = self
            .entries
            .iter()
            .any(|(k, _, plane)| *plane == DigestLookup::HitMain && same_compressed_key(k, &key));
        let plane = if taken {
            DigestLookup::HitConflict
        } else {
            DigestLookup::HitMain
        };
        self.entries.push((key, value, plane));
        Ok(())
    }

    fn remove(&mut self, key: &VmKey) -> Option<u32> {
        let at = self.entries.iter().position(|(k, _, _)| k == key)?;
        Some(self.entries.remove(at).1)
    }

    fn get_traced(&self, key: &VmKey) -> (Option<&u32>, DigestLookup) {
        match self.entries.iter().find(|(k, _, _)| k == key) {
            Some((_, value, plane)) => (Some(value), *plane),
            None => (None, DigestLookup::Miss),
        }
    }

    fn stats(&self) -> DigestStats {
        let main = self
            .entries
            .iter()
            .filter(|(_, _, plane)| *plane == DigestLookup::HitMain)
            .count();
        DigestStats {
            main_entries: main,
            conflict_entries: self.entries.len() - main,
        }
    }
}

/// The flat digest plane against the naive scan, op for op: a bulk build
/// from a run (which must equal, slot for slot, a table with room
/// reserved and the same run inserted one by one), then interleaved
/// inserts, removes and traced lookups over a pool dense in collisions
/// and v4/v6 aliases, starting from tables of capacity 0, 1 and 2 as
/// well, and growing through several array lengths. Return values,
/// `len`, `stats()` and the plane every probe resolved in must agree,
/// and the layout audit must pass, after every single operation.
#[test]
fn digest_table_agrees_with_naive_scan_op_for_op() {
    let pool = digest_key_pool();
    check::run(
        "digest_table_agrees_with_naive_scan_op_for_op",
        192,
        |rng| {
            let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
            // A run without repeats, up to a third of the pool.
            let mut run: Vec<(VmKey, u32)> = Vec::new();
            for _ in 0..rng.gen_range(0..pool.len() / 3) {
                let key = pick(rng);
                if run.iter().all(|(k, _)| *k != key) {
                    run.push((key, rng.gen()));
                }
            }
            let mut table = DigestExactTable::from_run(&run).unwrap();
            let mut naive = NaiveDigest::default();
            let mut one_by_one = DigestExactTable::new();
            one_by_one.reserve(run.len());
            for (key, value) in &run {
                naive.insert(*key, *value).unwrap();
                one_by_one.insert(*key, *value).unwrap();
            }
            assert_eq!(table, one_by_one, "bulk vs inserted, slot for slot");
            if run.is_empty() {
                // The smallest arrays there are.
                table.reserve(rng.gen_range(0..=2));
            }

            let agree = |table: &DigestExactTable<u32>, naive: &NaiveDigest| {
                assert!(table.audit().is_ok(), "{:?}", table.audit());
                assert_eq!(table.len(), naive.entries.len());
                assert_eq!(table.is_empty(), naive.entries.is_empty());
                assert_eq!(table.stats(), naive.stats());
            };
            agree(&table, &naive);
            for _ in 0..rng.gen_range(1..400) {
                let key = pick(rng);
                match check::one_of(rng, 4) {
                    0 | 1 => {
                        let value = rng.gen();
                        assert_eq!(table.insert(key, value), naive.insert(key, value));
                    }
                    2 => assert_eq!(table.remove(&key), naive.remove(&key)),
                    _ => {
                        assert_eq!(table.get_traced(&key), naive.get_traced(&key));
                        assert_eq!(table.get(&key), naive.get_traced(&key).0);
                    }
                }
                agree(&table, &naive);
            }
            for key in pool {
                assert_eq!(table.get_traced(key), naive.get_traced(key), "{key}");
            }
            let mut listed: Vec<(VmKey, u32)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let mut expected: Vec<(VmKey, u32)> =
                naive.entries.iter().map(|(k, v, _)| (*k, *v)).collect();
            let order = |(k, _): &(VmKey, u32)| (k.vni, k.ip);
            listed.sort_by_key(order);
            expected.sort_by_key(order);
            assert_eq!(listed, expected);
        },
    );
}

/// A repeated key anywhere in a run fails the bulk build, as the second
/// `insert` would have.
#[test]
fn digest_bulk_build_rejects_repeats() {
    let pool = digest_key_pool();
    check::run("digest_bulk_build_rejects_repeats", 64, |rng| {
        let len = rng.gen_range(2..80);
        let mut run: Vec<(VmKey, u32)> = pool.iter().take(len).map(|k| (*k, 0)).collect();
        let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
        if from != to {
            run[to].0 = run[from].0;
            assert_eq!(DigestExactTable::from_run(&run), Err(Error::Duplicate));
        }
    });
}

/// The flat logical routing table against a naive scan, step for step:
/// seeded sequences of inserts, replaces and removes over four VNIs, both
/// families and every prefix length (0–32 for v4, 0–128 for v6), then a
/// drain of whatever is left. v4 and v6 prefixes are drawn from one
/// 128-bit plane address, so a v4 prefix and the v6 prefix with the same
/// leading bits are both resident: a table that let the family go out of
/// its key or its length walk would answer one for the other. After every
/// step `lookup` (on a resident prefix and on arbitrary v4 and v6
/// addresses), `resolve`, `len`, `len_for_vni`, `family_counts` and
/// `vnis` must agree; a VNI disappears with its last route.
#[test]
fn vxlan_routing_table_agrees_with_naive_scan() {
    let vnis: Vec<Vni> = (1..=4).map(Vni::from_const).collect();
    // A plane address: two leading bits from a small pool so short
    // prefixes overlap, the rest random.
    let plane = |rng: &mut StdRng| rng.gen_range(0..4u128) << 126 | rng.gen::<u128>() >> 2;
    let as_addr = |bits: u128, v4: bool| -> IpAddr {
        if v4 {
            core::net::Ipv4Addr::from((bits >> 96) as u32).into()
        } else {
            core::net::Ipv6Addr::from(bits).into()
        }
    };
    let naive_lookup = |naive: &[(VxlanRouteKey, RouteTarget)], vni: Vni, addr: IpAddr| {
        naive
            .iter()
            .filter(|(k, _)| k.vni == vni && k.prefix.contains(addr))
            .max_by_key(|(k, _)| k.prefix.len())
            .map(|(_, t)| *t)
    };
    let naive_resolve = |naive: &[(VxlanRouteKey, RouteTarget)], vni: Vni, addr: IpAddr| {
        let mut current = vni;
        for hops in 0..=MAX_PEER_HOPS {
            match naive_lookup(naive, current, addr) {
                None => return Err(Error::NotFound),
                Some(RouteTarget::Peer(next)) => current = next,
                Some(target) => {
                    return Ok(Resolution {
                        final_vni: current,
                        target,
                        hops,
                    })
                }
            }
        }
        Err(Error::RoutingLoop)
    };
    let mut lengths_seen = [[false; 129]; 2];
    check::run("vxlan_routing_table_agrees_with_naive_scan", 64, |rng| {
        // Most addresses come from a few per case, so prefixes of one
        // address at many lengths nest and probes hit the long ones.
        let pool: Vec<u128> = (0..6).map(|_| plane(rng)).collect();
        let pick = |rng: &mut StdRng| match check::one_of(rng, 8) {
            0 => plane(rng),
            _ => pool[rng.gen_range(0..pool.len())],
        };
        let mut table = VxlanRoutingTable::new();
        let mut naive: Vec<(VxlanRouteKey, RouteTarget)> = Vec::new();
        let agree = |table: &VxlanRoutingTable,
                     naive: &[(VxlanRouteKey, RouteTarget)],
                     rng: &mut StdRng| {
            assert_eq!(table.len(), naive.len());
            assert_eq!(table.is_empty(), naive.is_empty());
            let v4 = naive.iter().filter(|(k, _)| k.prefix.is_v4()).count();
            assert_eq!(table.family_counts(), (v4, naive.len() - v4));
            let mut present: Vec<Vni> = naive.iter().map(|(k, _)| k.vni).collect();
            present.sort();
            present.dedup();
            assert_eq!(table.vnis(), present);
            for &vni in &vnis {
                let n = naive.iter().filter(|(k, _)| k.vni == vni).count();
                assert_eq!(table.len_for_vni(vni), n, "{vni}");
            }
            let resident = naive
                .get(rng.gen_range(0..naive.len().max(1)))
                .map(|(k, _)| k.prefix.addr());
            let bits = pick(rng);
            for addr in resident
                .into_iter()
                .chain([as_addr(bits, true), as_addr(bits, false)])
            {
                for &vni in &vnis {
                    assert_eq!(
                        table.lookup(vni, addr),
                        naive_lookup(naive, vni, addr),
                        "{vni} {addr}"
                    );
                    assert_eq!(
                        table.resolve(vni, addr),
                        naive_resolve(naive, vni, addr),
                        "{vni} {addr}"
                    );
                }
            }
        };
        for i in 0..rng.gen_range(1..300u32) {
            let key = match check::one_of(rng, 4) {
                // Revisit a resident route: replace or remove it.
                0 if !naive.is_empty() => naive[rng.gen_range(0..naive.len())].0,
                _ => {
                    let v4 = rng.gen_bool(0.5);
                    let len = rng.gen_range(0..=if v4 { 32 } else { 128 });
                    let addr = as_addr(pick(rng), v4);
                    let vni = vnis[rng.gen_range(0..vnis.len())];
                    VxlanRouteKey::new(vni, IpPrefix::new(addr, len).unwrap())
                }
            };
            lengths_seen[usize::from(key.prefix.is_v4())][usize::from(key.prefix.len())] = true;
            let resident = naive.iter().position(|(k, _)| *k == key);
            match resident {
                Some(r) if rng.gen_bool(0.5) => {
                    let (_, old) = naive.swap_remove(r);
                    assert_eq!(table.remove(&key), Some(old), "{key:?}");
                    assert_eq!(table.remove(&key), None, "{key:?}");
                }
                resident => {
                    // Peers among the four VNIs and one unknown one, so
                    // chains, loops and dead ends all occur.
                    let target = match check::one_of(rng, 3) {
                        0 => RouteTarget::Peer(Vni::from_const(rng.gen_range(1..=5))),
                        1 => RouteTarget::Local,
                        _ => RouteTarget::Idc(IdcId(i)),
                    };
                    let old = match resident {
                        Some(r) => Some(core::mem::replace(&mut naive[r].1, target)),
                        None => {
                            naive.push((key, target));
                            None
                        }
                    };
                    assert_eq!(table.insert(key, target), old, "{key:?}");
                }
            }
            agree(&table, &naive, rng);
        }
        while !naive.is_empty() {
            let (key, old) = naive.swap_remove(rng.gen_range(0..naive.len()));
            assert_eq!(table.remove(&key), Some(old), "{key:?}");
            agree(&table, &naive, rng);
        }
        assert!(table.vnis().is_empty());
    });
    for (family, max) in [(1, 32), (0, 128)] {
        assert!(
            lengths_seen[family][..=max].iter().all(|&seen| seen),
            "a {} length never drawn",
            if family == 1 { "v4" } else { "v6" }
        );
    }
}
