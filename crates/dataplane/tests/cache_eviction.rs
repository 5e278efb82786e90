//! Seeded property tests for the S3-FIFO evicting flow cache.
//!
//! Three properties the batch hot path depends on:
//!
//! 1. **Residency is bounded**: no operation sequence pushes `len()`
//!    past `capacity()`.
//! 2. **Hit/miss accounting is exact**: every `get` bumps exactly one of
//!    the two counters, agreeing with the side-effect-free `peek`, and a
//!    hit returns the most recently inserted outcome for that key.
//! 3. **Scan resistance is strict**: a hot 80/20 working set that was
//!    touched during probation survives a scan of arbitrarily many
//!    one-hit-wonder flows — every hot key must still be resident.
//!
//! Capacities of one and two take the eviction loop's corner branches
//! (probation at its one-entry target, an empty main queue) on almost
//! every insert, so they get their own cases; a zero capacity is clamped
//! to one.
//!
//! All properties run under `sailfish_util::check` so failures replay
//! from a printed seed.

use std::collections::HashMap;

use sailfish_dataplane::cache::{FlowCache, FlowOutcome};
use sailfish_net::view::FlowKey;
use sailfish_tables::types::{Reason, Verdict};
use sailfish_util::check;
use sailfish_util::rand::Rng;

/// A synthetic flow key from a dense id (distinct ids → distinct keys).
fn key(id: u64) -> FlowKey {
    FlowKey {
        src: u128::from(id) << 32 | 0x0a00_0001,
        dst: 0x0a00_0002,
        meta: (id % 50_000) << 16 | 17 << 8,
        vni: (id % 1000) as u32,
    }
}

fn outcome(id: u64) -> FlowOutcome {
    FlowOutcome {
        action: if id.is_multiple_of(2) {
            Verdict::Punt(Reason::SnatRequired)
        } else {
            Verdict::Drop(Reason::AclDeny)
        },
        slot: (id % 64) as u32,
        digest: id.wrapping_mul(0x9e37_79b9),
    }
}

#[test]
fn residency_never_exceeds_capacity() {
    check::run("cache_capacity_bounded", 64, |rng| {
        let capacity = rng.gen_range(1..300usize);
        let mut cache = FlowCache::new(capacity);
        let key_space = rng.gen_range(1..2000u64);
        for _ in 0..rng.gen_range(10..3000usize) {
            let id = rng.gen_range(0..key_space);
            match check::one_of(rng, 10) {
                0 => {
                    cache.clear();
                }
                1..=3 => {
                    let _ = cache.get(&key(id));
                }
                _ => cache.insert(key(id), outcome(id)),
            }
            assert!(
                cache.len() <= cache.capacity(),
                "len {} exceeded capacity {}",
                cache.len(),
                cache.capacity()
            );
        }
    });
}

#[test]
fn hit_miss_counters_stay_exact() {
    check::run("cache_hit_miss_exact", 48, |rng| {
        let capacity = rng.gen_range(4..200usize);
        let mut cache = FlowCache::new(capacity);
        // Last-written outcome per key: a hit must return this value.
        let mut last_written: HashMap<FlowKey, FlowOutcome> = HashMap::new();
        let key_space = rng.gen_range(1..1000u64);
        for op in 0..rng.gen_range(10..2000usize) {
            let id = rng.gen_range(0..key_space);
            let k = key(id);
            if rng.gen_bool(0.5) {
                let o = outcome(id ^ op as u64);
                cache.insert(k, o);
                last_written.insert(k, o);
                assert_eq!(
                    cache.peek(&k),
                    Some(o),
                    "insert must leave the key resident"
                );
            } else {
                let expected = cache.peek(&k);
                let (hits, misses) = (cache.hits(), cache.misses());
                let got = cache.get(&k);
                assert_eq!(got, expected, "get disagrees with peek");
                match got {
                    Some(v) => {
                        assert_eq!(cache.hits(), hits + 1, "hit not counted");
                        assert_eq!(cache.misses(), misses, "miss overcounted");
                        assert_eq!(Some(&v), last_written.get(&k), "stale outcome");
                    }
                    None => {
                        assert_eq!(cache.misses(), misses + 1, "miss not counted");
                        assert_eq!(cache.hits(), hits, "hit overcounted");
                    }
                }
            }
        }
    });
}

#[test]
fn scan_cannot_evict_hot_working_set() {
    check::run("cache_scan_resistance", 32, |rng| {
        let capacity = rng.gen_range(50..400usize);
        let small_target = (capacity / 10).max(1);
        let mut cache = FlowCache::new(capacity);

        // Hot 20%: inserted, then touched during probation so eviction
        // pressure promotes them instead of dropping them.
        let hot: Vec<u64> = (0..(capacity / 5) as u64).collect();
        for &id in &hot {
            cache.insert(key(id), outcome(id));
        }
        for &id in &hot {
            for _ in 0..rng.gen_range(1..4usize) {
                assert!(cache.get(&key(id)).is_some(), "hot key lost pre-scan");
            }
        }
        // Freq-0 padding keeps the probationary queue at its target so
        // scan evictions always drain `small`, never `main`.
        for id in 1_000_000..(1_000_000 + small_target as u64 + 2) {
            cache.insert(key(id), outcome(id));
        }

        // The scan: far more one-hit flows than the cache can hold,
        // interleaved with occasional hot-set traffic (the "80/20" mix).
        let scan_len = capacity * rng.gen_range(3..10usize);
        for i in 0..scan_len as u64 {
            cache.insert(key(2_000_000 + i), outcome(i));
            if rng.gen_bool(0.2) {
                let id = hot[rng.gen_range(0..hot.len())];
                assert!(
                    cache.get(&key(id)).is_some(),
                    "hot key evicted mid-scan after {i} scan inserts"
                );
            }
        }

        for &id in &hot {
            assert!(
                cache.peek(&key(id)).is_some(),
                "hot key {id} evicted by the scan (capacity {capacity})"
            );
        }
        assert!(cache.len() <= cache.capacity());
    });
}

#[test]
fn capacities_one_and_two_evict_without_losing_the_new_key() {
    check::run("cache_tiny_capacity", 32, |rng| {
        for capacity in [1usize, 2] {
            let mut cache = FlowCache::new(capacity);
            let key_space = rng.gen_range(1..8u64);
            for _ in 0..rng.gen_range(10..500usize) {
                let id = rng.gen_range(0..key_space);
                if rng.gen_bool(0.4) {
                    let _ = cache.get(&key(id));
                } else {
                    cache.insert(key(id), outcome(id));
                    assert_eq!(
                        cache.peek(&key(id)),
                        Some(outcome(id)),
                        "capacity {capacity}: the inserted key is not resident"
                    );
                }
                assert!(cache.len() <= capacity, "capacity {capacity} overfilled");
            }
        }
    });
}

#[test]
fn capacity_two_keeps_a_hot_key_through_a_scan() {
    let mut cache = FlowCache::new(2);
    cache.insert(key(0), outcome(0));
    assert!(cache.get(&key(0)).is_some());
    // Fresh one-hit keys only ever recycle the one-entry probation queue
    // once the re-hit key has been promoted to main.
    for id in 1..200 {
        cache.insert(key(id), outcome(id));
        assert_eq!(cache.peek(&key(0)), Some(outcome(0)), "after {id} inserts");
        assert_eq!(cache.peek(&key(id)), Some(outcome(id)));
    }
    assert_eq!(cache.len(), 2);
}

#[test]
fn capacity_one_holds_exactly_the_last_insert() {
    // Zero is clamped to one, not rejected.
    for requested in [0usize, 1] {
        let mut cache = FlowCache::new(requested);
        assert_eq!(cache.capacity(), 1);
        cache.insert(key(0), outcome(0));
        // A re-hit entry gets its second chance in main and is still
        // evicted: there is no room for it beside the new key.
        assert!(cache.get(&key(0)).is_some());
        for id in 1..50 {
            cache.insert(key(id), outcome(id));
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.peek(&key(id)), Some(outcome(id)));
            assert!(cache.peek(&key(id - 1)).is_none());
        }
    }
}
