//! Micro-benchmarks of the table structures: the compressed
//! (ALPM/digest) paths versus their uncompressed references, quantifying
//! the paper's "slightly reduced lookup efficiency" trade (§4.4).
//!
//! Runs on the in-tree `sailfish_util::bench` harness; tune sample
//! counts with `SAILFISH_BENCH_SAMPLES` / `SAILFISH_BENCH_TARGET_MS`
//! and export JSON with `SAILFISH_BENCH_JSON=<path>`.

use sailfish_util::bench::Harness;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

use sailfish_dataplane::{DataplaneConfig, EpochState};
use sailfish_net::rss::Toeplitz;
use sailfish_net::{FiveTuple, IpProtocol, Vni};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::alpm::{AlpmConfig, AlpmTable};
use sailfish_tables::digest::DigestExactTable;
use sailfish_tables::lpm::{Key128, Lpm128};
use sailfish_tables::types::VmKey;
use sailfish_xgw_h::tables::HwRoutingTable;

const ROUTES: usize = 20_000;

fn route_set() -> Vec<(Key128, u32)> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..ROUTES as u32)
        .map(|i| {
            let len = 96 + rng.gen_range(0..=24u8);
            let value = rng.gen_range(0..1u128 << 20) << 104 | u128::from(i) << 40;
            (Key128::new(value, len).unwrap(), i)
        })
        .collect()
}

fn probes() -> Vec<u128> {
    let mut rng = StdRng::seed_from_u64(2);
    (0..1024)
        .map(|_| rng.gen_range(0..1u128 << 20) << 104 | rng.gen::<u64>() as u128)
        .collect()
}

fn bench_lpm_lookup(h: &mut Harness) {
    let mut group = h.group("lpm_lookup_20k_routes");
    let routes = route_set();
    let probes = probes();
    group.throughput_elements(probes.len() as u64);

    let mut trie = Lpm128::new();
    for (k, v) in &routes {
        trie.insert(*k, *v);
    }
    group.bench_function("trie_reference", |b| {
        b.iter(|| {
            for p in &probes {
                std::hint::black_box(trie.lookup(*p));
            }
        })
    });

    let mut alpm = AlpmTable::new(AlpmConfig::default());
    for (k, v) in &routes {
        alpm.insert(*k, *v).unwrap();
    }
    group.bench_function("alpm_compressed", |b| {
        b.iter(|| {
            for p in &probes {
                std::hint::black_box(alpm.lookup(*p));
            }
        })
    });
    group.finish();
}

fn bench_alpm_insert(h: &mut Harness) {
    let routes = route_set();
    let mut group = h.group("alpm");
    group.bench_function("bulk_insert_20k", |b| {
        b.iter(|| {
            let mut alpm = AlpmTable::new(AlpmConfig::default());
            for (k, v) in &routes {
                alpm.insert(*k, *v).unwrap();
            }
            std::hint::black_box(alpm.stats())
        })
    });
    group.finish();
}

fn region_routes(topology: &Topology) -> HwRoutingTable {
    let mut table = HwRoutingTable::new(AlpmConfig::default());
    for (key, target) in &topology.routes {
        table.insert(*key, *target).unwrap();
    }
    table
}

/// The hardware routing table as the dataplane holds it: one small ALPM
/// per VNI, every route of `TopologyConfig::region_scale()`. `build` and
/// `drop` are the two halves of what an epoch install pays per cluster
/// set; `lookup_per_vni` is the miss path's `tables.route_lookup_ns`.
fn bench_hw_routing_region(h: &mut Harness) {
    let topology = Topology::generate(TopologyConfig::region_scale());
    let mut group = h.group("hw_routing_region");

    let table = region_routes(&topology);
    let mut rng = StdRng::seed_from_u64(3);
    let probes: Vec<_> = (0..1024)
        .map(|_| {
            let vm = &topology.vms[rng.gen_range(0..topology.vms.len())];
            (vm.vni, vm.ip)
        })
        .collect();
    group.throughput_elements(probes.len() as u64);
    group.bench_function("lookup_per_vni", |b| {
        b.iter(|| {
            for (vni, ip) in &probes {
                std::hint::black_box(table.lookup(*vni, *ip));
            }
        })
    });
    drop(table);

    group.throughput_elements(topology.routes.len() as u64);
    // The built table outlives the timed call (it is parked in `built`)
    // and the previous one is freed by the untimed set-up.
    let built = std::cell::RefCell::new(None);
    group.bench_function("build", |b| {
        b.iter_batched(
            || drop(built.borrow_mut().take()),
            |()| *built.borrow_mut() = Some(region_routes(&topology)),
        )
    });
    drop(built);
    group.bench_function("drop", |b| {
        b.iter_batched(|| region_routes(&topology), drop)
    });
    group.finish();
}

fn bench_digest_lookup(h: &mut Harness) {
    let mut group = h.group("vm_nc_lookup_100k");
    let mut table = DigestExactTable::new();
    let keys: Vec<VmKey> = (0..100_000u32)
        .map(|i| {
            VmKey::new(
                Vni::from_const(i % 1024),
                core::net::IpAddr::V6(core::net::Ipv6Addr::from(
                    0x2001_0db8u128 << 96 | u128::from(i),
                )),
            )
        })
        .collect();
    for (i, k) in keys.iter().enumerate() {
        table.insert(*k, i).unwrap();
    }
    group.throughput_elements(1024);
    group.bench_function("digest_compressed", |b| {
        b.iter(|| {
            for k in keys.iter().step_by(97).take(1024) {
                std::hint::black_box(table.get(k));
            }
        })
    });
    group.finish();
}

/// 462k keys in the region's shape — sequential hosts under 25k VNIs, a
/// quarter of them v6 and digest-compressed.
fn region_shaped_keys() -> Vec<(VmKey, usize)> {
    (0..462_000u32)
        .map(|i| {
            let host = i / 25_000;
            let ip = if i % 4 == 0 {
                core::net::IpAddr::V6(core::net::Ipv6Addr::from(
                    0x2001_0db8u128 << 96 | u128::from(host),
                ))
            } else {
                core::net::IpAddr::V4(core::net::Ipv4Addr::from(0x0a00_0000 | host))
            };
            (VmKey::new(Vni::from_const(1 + i % 25_000), ip), i as usize)
        })
        .collect()
}

/// What filling the VM-NC plane costs, both ways: `bulk_462k` is what a
/// region install pays (one `from_run`: hash, counting sort, slots
/// streamed out once); `insert_462k` is the incremental path the
/// controller's per-device installs still take, into a pre-sized table.
/// `lookup_region_independent` is the 400k-probe loop the slot layout
/// was sized with: every probe a different key, nothing to reuse.
fn bench_digest_fill(h: &mut Harness) {
    let run = region_shaped_keys();
    let mut group = h.group("digest");
    group.throughput_elements(run.len() as u64);
    group.bench_function("bulk_462k", |b| {
        b.iter(|| std::hint::black_box(DigestExactTable::from_run(&run).unwrap().stats()))
    });
    group.bench_function("insert_462k", |b| {
        b.iter(|| {
            let mut table = DigestExactTable::new();
            table.reserve(run.len());
            for (k, v) in &run {
                table.insert(*k, *v).unwrap();
            }
            std::hint::black_box(table.stats())
        })
    });

    let table = DigestExactTable::from_run(&run).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let probes: Vec<VmKey> = (0..400_000)
        .map(|_| run[rng.gen_range(0..run.len())].0)
        .collect();
    group.throughput_elements(probes.len() as u64);
    group.bench_function("lookup_region_independent", |b| {
        b.iter(|| {
            for key in &probes {
                std::hint::black_box(table.get_traced(key));
            }
        })
    });
    group.finish();
}

/// One region epoch, the way an install pays for it: `build_region` with
/// the previous state still live (its tables are what the workers read
/// meanwhile), `drop_region` the retired state's free.
fn bench_epoch_region(h: &mut Harness) {
    let topology = Topology::generate(TopologyConfig::region_scale());
    let config = DataplaneConfig::default();
    let mut group = h.group("epoch");
    // The state a build replaces is parked in `retired` and freed by the
    // untimed set-up of the next call.
    let live = std::cell::RefCell::new(None);
    let retired = std::cell::RefCell::new(None);
    group.bench_function("build_region", |b| {
        b.iter_batched(
            || drop(retired.borrow_mut().take()),
            |()| {
                let staged = EpochState::build(&topology, &config, 1);
                *retired.borrow_mut() = live.replace(Some(staged));
            },
        )
    });
    drop((live, retired));
    group.bench_function("drop_region", |b| {
        b.iter_batched(|| EpochState::build(&topology, &config, 1), drop)
    });
    group.finish();
}

/// The steering hash of a flow-cache miss (ECMP device pick, dual-owner
/// pick, DPU placement): 12 input bytes for a v4 tuple, 36 for v6.
fn bench_toeplitz(h: &mut Harness) {
    let hasher = Toeplitz::default();
    let tuples = |v6: bool| -> Vec<FiveTuple> {
        (0..1024u32)
            .map(|i| {
                let (src, dst): (core::net::IpAddr, core::net::IpAddr) = if v6 {
                    (
                        core::net::Ipv6Addr::from(0x2001_0db8u128 << 96 | u128::from(i)).into(),
                        core::net::Ipv6Addr::from(0x2001_0db9u128 << 96 | u128::from(i * 7)).into(),
                    )
                } else {
                    (
                        core::net::Ipv4Addr::from(0x0a00_0000 | i).into(),
                        core::net::Ipv4Addr::from(0x0a80_0000 | (i * 7)).into(),
                    )
                };
                FiveTuple::new(src, dst, IpProtocol::Tcp, 1024 + i as u16, 443)
            })
            .collect()
    };
    let mut group = h.group("toeplitz");
    group.throughput_elements(1024);
    for (name, set) in [
        ("hash_tuple_v4", tuples(false)),
        ("hash_tuple_v6", tuples(true)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for t in &set {
                    std::hint::black_box(hasher.hash_tuple(t));
                }
            })
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::from_env("tables");
    bench_lpm_lookup(&mut h);
    bench_alpm_insert(&mut h);
    bench_hw_routing_region(&mut h);
    bench_digest_lookup(&mut h);
    bench_digest_fill(&mut h);
    bench_epoch_region(&mut h);
    bench_toeplitz(&mut h);
    h.finish();
}
