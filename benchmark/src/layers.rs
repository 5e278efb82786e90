//! The outside-in per-layer ledger of the traced run.
//!
//! Nothing here edits or instruments `crates/`: every number is taken by
//! calling one layer's *public* function from outside, in block spans of
//! at least [`MIN_BLOCK`] consecutive calls so the two clock reads
//! around a block cost well under 1% of it. The inputs of each block are
//! the workload's own: frames in schedule order, the flow keys that
//! missed, the packets that punted. When a steady pass offers a layer
//! fewer than `MIN_BLOCK` inputs (a warm `hot_path` has no misses at
//! all), the miss-side layers replay the *cold* pass's inputs instead —
//! every flow's first packet — and punt-side inputs are cycled; the
//! reconciliation still multiplies by the steady pass's counts, so a
//! layer the steady pass never calls contributes nothing to it.

use std::collections::BTreeSet;
use std::time::Instant;

use sailfish_cluster::cluster::{HwCluster, SwCluster};
use sailfish_cluster::controller::{ClusterCapacity, Controller};
use sailfish_cluster::lb::VniDirectory;
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_cluster::reshard::ReshardPlan;
use sailfish_cluster::worldcheck::verify_reshard;
use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::cache::{CachedAction, FlowCache, FlowOutcome};
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{engine, rewrite, EpochState, RunReport, TableCounters, WorldView};
use sailfish_net::rss::Toeplitz;
use sailfish_net::{FiveTuple, FlowKey, FrameView, GatewayPacket, Vni};
use sailfish_sim::Topology;
use sailfish_tables::types::NcAddr;
use sailfish_xgw_h::HwDecision;

use crate::alloc::thread_net_bytes;
use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::workload::{Class, Setup, CHURN};

/// Fewest consecutive calls a block span may time.
pub const MIN_BLOCK: usize = 1024;
/// Calls per block span; a pass is cut into spans of this many calls.
const BLOCK: usize = 2048;

/// Cost of one layer from its block spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCost {
    /// Calls timed.
    pub calls: u64,
    /// Wall ns per call: the median over blocks of block ns ÷ block
    /// calls, so a burst of outside interference that lands on a few
    /// blocks does not set the layer's cost (0 with no calls).
    pub ns: f64,
}

/// Times `f` over `inputs` in block spans named `name` under `parent`.
/// Inputs shorter than [`MIN_BLOCK`] are cycled up to it; an empty input
/// set times nothing and costs 0.
fn block<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<SpanId>,
    inputs: &[T],
    mut f: impl FnMut(&T),
) -> BlockCost {
    if inputs.is_empty() {
        return BlockCost::default();
    }
    let mut calls = 0u64;
    let mut per_call: Vec<f64> = Vec::new();
    let rounds = MIN_BLOCK.div_ceil(inputs.len()).max(1);
    // A trailing chunk shorter than MIN_BLOCK joins its predecessor.
    let mut chunks: Vec<&[T]> = inputs.chunks(BLOCK).collect();
    if chunks.len() > 1 && chunks.last().is_some_and(|c| c.len() < MIN_BLOCK) {
        chunks.pop();
        let cut = (chunks.len() - 1) * BLOCK;
        chunks.pop();
        chunks.push(inputs.get(cut..).unwrap_or(inputs));
    }
    for chunk in chunks {
        let span = rec.begin(name, parent, 0);
        let t = Instant::now();
        for _ in 0..rounds {
            for item in chunk {
                f(item);
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        rec.end(span);
        per_call.push(ns / (chunk.len() * rounds) as f64);
        calls += (chunk.len() * rounds) as u64;
    }
    BlockCost {
        calls,
        ns: stats::median(&per_call),
    }
}

/// Per-layer costs of one replay pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `FrameView::parse`.
    pub view_parse: BlockCost,
    /// `GatewayPacket::parse_classified`.
    pub owned_parse: BlockCost,
    /// `FlowCache::get`, key resident.
    pub cache_hit: BlockCost,
    /// `FlowCache::get`, key absent.
    pub cache_miss: BlockCost,
    /// `FlowCache::insert` of an absent key (evicting when full).
    pub cache_insert: BlockCost,
    /// `VniDirectory::cluster_for` + `EcmpGroup::pick`.
    pub directory_ecmp: BlockCost,
    /// `engine::walk`.
    pub walk: BlockCost,
    /// `HwRoutingTable::lookup`.
    pub route_lookup: BlockCost,
    /// `VmNcTable::lookup_traced`.
    pub vm_lookup: BlockCost,
    /// `rewrite::apply` on a scratch copy.
    pub rewrite: BlockCost,
    /// `Toeplitz::hash_tuple` + `TierMap::place`.
    pub tier_place: BlockCost,
    /// `SnatOffload::lookup`.
    pub snat_lookup: BlockCost,
    /// `SoftwareForwarder::process`.
    pub x86_process: BlockCost,
    /// `Dataplane::pin`.
    pub pin: BlockCost,
    /// LPM lookups per `engine::walk` over the replayed walks.
    pub route_lookups_per_walk: f64,
    /// Share of VM-NC lookups the conflict plane resolved.
    pub vm_conflict_share: f64,
    /// Whether miss-side inputs came from the steady pass (`true`) or,
    /// lacking `MIN_BLOCK` of them, from the cold pass (`false`).
    pub steady_miss_inputs: bool,
}

/// What the gateway does with a flow, walked once per flow (untimed).
#[derive(Clone, Copy)]
enum Fate {
    ToNc(NcAddr, Vni),
    OtherHw,
    Punt,
}

/// Replays one pass layer by layer under a `replay` root span.
pub fn replay(setup: &Setup, rec: &mut Recorder) -> Replay {
    let root = rec.begin("replay", None, 0);
    let mut out = Replay::default();
    let state = setup.dp.pin();
    let seq = setup.sequence();

    // --- net: the borrowed-view parser over the whole pass --------------
    out.view_parse = block(rec, "net.view_parse", root, &seq, |frame| {
        std::hint::black_box(FrameView::parse(frame).is_ok());
    });

    // Per-flow facts, computed once and untimed: view, cache key, owned
    // packet, owning cluster and what a walk decides.
    let views: Vec<Option<FrameView>> = setup
        .frames
        .iter()
        .map(|f| FrameView::parse(f).ok())
        .collect();
    let key_of = |flow: u32| -> Option<FlowKey> {
        views
            .get(flow as usize)
            .copied()
            .flatten()
            .map(|v| v.flow_key())
    };
    let mut scratch_counters = TableCounters::default();
    let facts: Vec<Option<(GatewayPacket, usize, Fate)>> = setup
        .frames
        .iter()
        .zip(&setup.counts)
        .map(|(frame, &count)| {
            if count == 0 {
                return None;
            }
            let packet = GatewayPacket::parse_classified(frame).ok()?;
            let cluster = state.directory.cluster_for(packet.vni)?;
            let tables = &state.clusters.get(cluster)?.tables;
            let fate = match engine::walk(tables, &packet, &mut scratch_counters) {
                HwDecision::ToNc { packet: out, nc } => Fate::ToNc(nc, out.vni),
                HwDecision::PuntToX86 { .. } => Fate::Punt,
                _ => Fate::OtherHw,
            };
            Some((packet, cluster, fate))
        })
        .collect();

    // --- cache: a replica FlowCache driven by the pass's key sequence --
    let capacity = (setup.config.cache_shards * setup.config.cache_shard_capacity).max(1);
    let mut cache = FlowCache::new(capacity);
    let outcome = FlowOutcome {
        action: CachedAction::DropAcl,
        slot: FlowOutcome::NO_SLOT,
        digest: 0,
    };
    let mut steady_misses: Vec<u32> = Vec::new();
    let mut steady_hits: Vec<u32> = Vec::new();
    // Two warming passes bring the replica to the executor's steady
    // state; the third records which packets hit and which missed.
    for pass in 0..3 {
        for &flow in &setup.sched {
            let Some(key) = key_of(flow) else { continue };
            let hit = cache.get(&key).is_some();
            if !hit {
                cache.insert(key, outcome);
            }
            if pass == 2 {
                if hit {
                    steady_hits.push(flow);
                } else {
                    steady_misses.push(flow);
                }
            }
        }
    }
    out.steady_miss_inputs = steady_misses.len() >= MIN_BLOCK;
    // Miss-side inputs: the steady pass's misses, or every flow's first
    // packet (the cold pass's misses) when the steady pass has too few.
    let miss_flows: Vec<u32> = if out.steady_miss_inputs {
        steady_misses
    } else {
        let mut seen = BTreeSet::new();
        setup
            .sched
            .iter()
            .copied()
            .filter(|f| seen.insert(*f))
            .collect()
    };

    let hit_keys: Vec<FlowKey> = steady_hits
        .iter()
        .filter_map(|f| key_of(*f))
        .filter(|k| cache.peek(k).is_some())
        .collect();
    out.cache_hit = block(rec, "cache.hit", root, &hit_keys, |key| {
        std::hint::black_box(cache.get(key));
    });
    if !out.steady_miss_inputs {
        cache.clear();
    }
    let miss_keys: Vec<FlowKey> = miss_flows.iter().filter_map(|f| key_of(*f)).collect();
    let absent: Vec<FlowKey> = miss_keys
        .iter()
        .copied()
        .filter(|k| cache.peek(k).is_none())
        .collect();
    out.cache_miss = block(rec, "cache.miss", root, &absent, |key| {
        std::hint::black_box(cache.get(key));
    });
    // Cycling a short input would re-insert resident keys (an in-place
    // update, not an insert), so this block never cycles.
    if miss_keys.len() >= MIN_BLOCK {
        out.cache_insert = block(rec, "cache.insert_evict", root, &miss_keys, |key| {
            cache.insert(*key, outcome);
        });
    }
    drop(cache);

    // --- miss path: directory/ECMP, owned parse, walk, tables ----------
    let miss_views: Vec<FrameView> = miss_flows
        .iter()
        .filter_map(|f| views.get(*f as usize).copied().flatten())
        .collect();
    out.directory_ecmp = block(rec, "cluster.directory_ecmp", root, &miss_views, |view| {
        let tuple: FiveTuple = view.five_tuple();
        let device = state
            .directory
            .cluster_for(view.vni)
            .and_then(|i| state.clusters.get(i))
            .and_then(|c| c.ecmp.pick(&tuple).ok());
        std::hint::black_box(device);
    });

    let punt_flows: Vec<u32> = setup
        .sched
        .iter()
        .copied()
        .filter(|f| matches!(facts.get(*f as usize), Some(Some((_, _, Fate::Punt)))))
        .collect();
    let owned_inputs: Vec<&[u8]> = miss_flows
        .iter()
        .chain(&punt_flows)
        .filter_map(|f| setup.frames.get(*f))
        .collect();
    out.owned_parse = block(rec, "net.owned_parse", root, &owned_inputs, |frame| {
        std::hint::black_box(GatewayPacket::parse_classified(frame).is_ok());
    });

    let walk_inputs: Vec<(GatewayPacket, usize)> = miss_flows
        .iter()
        .filter_map(|f| facts.get(*f as usize).copied().flatten())
        .map(|(packet, cluster, _)| (packet, cluster))
        .collect();
    let mut walk_counters = TableCounters::default();
    out.walk = block(
        rec,
        "engine.walk",
        root,
        &walk_inputs,
        |(packet, cluster)| {
            if let Some(c) = state.clusters.get(*cluster) {
                std::hint::black_box(engine::walk(&c.tables, packet, &mut walk_counters));
            }
        },
    );
    out.route_lookups_per_walk = walk_counters.route_lookups as f64 / out.walk.calls.max(1) as f64;
    let vm_probes =
        walk_counters.vm_hit_main + walk_counters.vm_hit_conflict + walk_counters.vm_miss;
    out.vm_conflict_share = walk_counters.vm_hit_conflict as f64 / vm_probes.max(1) as f64;

    out.route_lookup = block(
        rec,
        "tables.route_lookup",
        root,
        &walk_inputs,
        |(packet, cluster)| {
            if let Some(c) = state.clusters.get(*cluster) {
                std::hint::black_box(c.tables.routes.lookup(packet.vni, packet.inner.dst_ip));
            }
        },
    );
    let vm_inputs: Vec<(usize, Vni, core::net::IpAddr)> = miss_flows
        .iter()
        .filter_map(|f| facts.get(*f as usize).copied().flatten())
        .filter_map(|(packet, cluster, fate)| match fate {
            Fate::ToNc(_, vni) => Some((cluster, vni, packet.inner.dst_ip)),
            _ => None,
        })
        .collect();
    out.vm_lookup = block(
        rec,
        "tables.vm_lookup",
        root,
        &vm_inputs,
        |(cluster, vni, ip)| {
            if let Some(c) = state.clusters.get(*cluster) {
                std::hint::black_box(c.tables.vm_nc.lookup_traced(*vni, *ip));
            }
        },
    );

    // --- rewrite: the generic rewriter on a scratch copy, whole pass ---
    let rewrite_inputs: Vec<(&[u8], NcAddr, Vni)> = setup
        .sched
        .iter()
        .filter_map(|f| {
            let frame = setup.frames.get(*f)?;
            match facts.get(*f as usize).copied().flatten()? {
                (_, _, Fate::ToNc(nc, vni)) => Some((frame, nc, vni)),
                _ => None,
            }
        })
        .collect();
    let mut scratch: Vec<u8> = Vec::with_capacity(2048);
    out.rewrite = block(
        rec,
        "rewrite.apply",
        root,
        &rewrite_inputs,
        |(frame, nc, vni)| {
            scratch.clear();
            scratch.extend_from_slice(frame);
            std::hint::black_box(rewrite::apply(&mut scratch, *nc, *vni).is_ok());
        },
    );

    // --- punt path: tier placement, SNAT offload, the x86 forwarder ----
    let punt_views: Vec<FrameView> = punt_flows
        .iter()
        .filter_map(|f| views.get(*f as usize).copied().flatten())
        .collect();
    if let Some(map) = state.tier.as_deref() {
        let hasher = Toeplitz::default();
        out.tier_place = block(rec, "tier.place", root, &punt_views, |view| {
            let hash = hasher.hash_tuple(&view.five_tuple());
            std::hint::black_box(map.place(view.vni.value(), hash));
        });
    }
    if let Some(offload) = state.snat.as_deref() {
        let snat_views: Vec<FrameView> = setup
            .sched
            .iter()
            .filter(|f| setup.classes.get(**f as usize) == Some(&Class::Internet))
            .filter_map(|f| views.get(*f as usize).copied().flatten())
            .collect();
        out.snat_lookup = block(rec, "snat.offload_lookup", root, &snat_views, |view| {
            std::hint::black_box(offload.lookup(view.vni, &view.five_tuple()));
        });
    }
    let punt_packets: Vec<GatewayPacket> = punt_flows
        .iter()
        .filter_map(|f| facts.get(*f as usize).copied().flatten())
        .map(|(packet, _, _)| packet)
        .collect();
    let mut forwarder = software_forwarder(&setup.topology);
    let mut now_ns = 0u64;
    out.x86_process = block(rec, "x86.process", root, &punt_packets, |packet| {
        now_ns += 1_600;
        std::hint::black_box(forwarder.process(packet, now_ns));
    });

    // --- epoch: the RCU pin the worker takes once per batch ------------
    let pins: Vec<()> = vec![(); 1 << 16];
    out.pin = block(rec, "epoch.pin", root, &pins, |()| {
        std::hint::black_box(setup.dp.pin().epoch);
    });

    rec.end(root);
    out
}

/// Σ(layer ns × the pass's own counts) per packet, against the measured
/// pass. No tolerance is asserted: the gap *is* the finding.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reconciliation {
    /// Measured median pass ns/packet (traced window).
    pub measured_ns_per_pkt: f64,
    /// Attributed ns/packet.
    pub attributed_ns_per_pkt: f64,
    /// measured − attributed: private code (`patch_v4`, slot lanes,
    /// lookahead, breaker admission, report assembly) lands here.
    pub unattributed_ns_per_pkt: f64,
}

/// The reconciliation sum over one pass's report.
pub fn reconcile(
    layers: &Replay,
    pass: &RunReport,
    batch_size: usize,
    measured_ns_per_pkt: f64,
) -> Reconciliation {
    let c = &pass.counters;
    let punts = (pass.fallback_packets + pass.dpu_packets) as f64;
    let tiered = layers.tier_place.calls > 0;
    let batches = (pass.packets as f64 / batch_size.max(1) as f64).ceil();
    let n = |v: u64| v as f64;
    let total = n(c.parsed) * layers.view_parse.ns
        // `try_spill_dpu` re-parses the view of every punt it places.
        + if tiered { punts * layers.view_parse.ns } else { 0.0 }
        + n(c.cache_hits) * layers.cache_hit.ns
        // A miss probes twice (parse lane, then the miss loop's
        // re-probe) before it walks and inserts.
        + n(c.cache_misses)
            * (2.0 * layers.cache_miss.ns
                + layers.cache_insert.ns
                + layers.directory_ecmp.ns
                + layers.owned_parse.ns
                + layers.walk.ns)
        // Generated frames ride a v4 underlay, which the batch path
        // rewrites with the private `patch_v4`; `rewrite::apply` is
        // called for v6 underlays only — none here.
        + punts * layers.tier_place.ns
        + n(c.punt_snat) * layers.snat_lookup.ns
        // `finish`: the owned re-parse and the software forwarder.
        + punts * (layers.owned_parse.ns + layers.x86_process.ns)
        + batches * layers.pin.ns;
    let attributed = total / n(pass.packets).max(1.0);
    Reconciliation {
        measured_ns_per_pkt,
        attributed_ns_per_pkt: attributed,
        unattributed_ns_per_pkt: measured_ns_per_pkt - attributed,
    }
}

/// `batch.mpps_2w`: aggregate rate of a 2-worker executor, diagnostic
/// only (two threads on two shared vCPUs do not repeat within 10%).
pub fn two_worker_mpps(setup: &mut Setup, seconds: f64) -> f64 {
    let seq = setup.frames.sequence(&setup.sched);
    let mut batch = BatchExecutor::new(&setup.dp, 2);
    batch.run(&setup.dp, &seq, &mut setup.fallback);
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        std::hint::black_box(batch.run(&setup.dp, &seq, &mut setup.fallback).packets);
        passes += 1;
    }
    passes as f64 * seq.len() as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e6
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let rest = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `epoch.state_mb`: heap bytes one more live `EpochState` holds, MiB —
/// what every install adds to the resident set until the old epoch's
/// last pin drops. Counted at the allocator rather than as an RSS
/// delta: by the time it is measured the heap has freed regions to
/// reuse, and RSS would not move.
pub fn epoch_state_mib(setup: &Setup) -> f64 {
    let before = thread_net_bytes();
    let state = EpochState::build_with_world(
        &setup.topology,
        &setup.config,
        setup.dp.next_epoch(),
        &WorldView::healthy(),
    );
    let held = thread_net_bytes() - before;
    std::hint::black_box(state.epoch);
    drop(state);
    held.max(0) as f64 / (1024.0 * 1024.0)
}

/// The control-plane rows no live install path calls yet, measured at
/// `churn` scale so they are ready as parents the day one does.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterLedger {
    /// `Controller::plan_split`, ms.
    pub plan_split_ms: f64,
    /// `Controller::install` into fresh clusters, ms.
    pub install_ms: f64,
    /// `worldcheck::verify_reshard` of a re-shard plan, ms.
    pub verify_reshard_ms: f64,
}

/// Times the planner, a full controller install and the re-shard
/// verifier on a `churn`-scale topology of its own (the default topology
/// under `--smoke`), whatever the workload.
pub fn cluster_ledger(seed: u64, smoke: bool) -> Result<ClusterLedger, String> {
    let topology = &Topology::generate(CHURN.topology_config(seed, smoke));
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut out = ClusterLedger::default();
    // Capacities at half (current) and 40% (target) of the region, so
    // the split needs a few clusters and the re-shard has real moves.
    let share = |pct: usize| ClusterCapacity {
        max_routes: topology.routes.len() * pct / 100 + 1,
        max_vms: topology.vms.len() * pct / 100 + 1,
    };
    let t = Instant::now();
    let plan = Controller::plan_split(topology, share(50), 64).map_err(|e| e.to_string())?;
    out.plan_split_ms = ms(t);

    let rc = RegionConfig::default();
    let mut hw = Vec::new();
    for id in 0..plan.clusters_needed().max(1) {
        hw.push(
            HwCluster::new(
                id,
                rc.devices_per_cluster,
                rc.ecmp_max,
                rc.alpm,
                rc.punt_rate_bps as u64,
            )
            .map_err(|e| e.to_string())?,
        );
    }
    let mut sw = SwCluster::new(rc.sw_nodes, rc.ecmp_max, rc.x86.clone(), rc.snat.clone())
        .map_err(|e| e.to_string())?;
    let mut directory = VniDirectory::new();
    let t = Instant::now();
    Controller::new()
        .install(topology, &plan, &mut hw, &mut sw, &mut directory)
        .map_err(|e| e.to_string())?;
    out.install_ms = ms(t);
    drop((hw, sw));

    let target = Controller::plan_split(topology, share(40), 64).map_err(|e| e.to_string())?;
    let region = Region::build(
        topology,
        RegionConfig {
            capacity: share(50),
            with_backup: false,
            spare_clusters: target
                .clusters_needed()
                .saturating_sub(plan.clusters_needed()),
            ..RegionConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let moves = ReshardPlan::plan(
        topology,
        &region.plan,
        &target,
        ClusterCapacity::default(),
        &BTreeSet::new(),
    )
    .map_err(|e| e.to_string())?;
    let t = Instant::now();
    std::hint::black_box(
        verify_reshard(&region, &moves.moves, "benchmark")
            .diagnostics
            .len(),
    );
    out.verify_reshard_ms = ms(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cost(ns: f64) -> BlockCost {
        BlockCost { calls: 1, ns }
    }

    #[test]
    fn block_cycles_short_inputs_and_skips_empty_ones() {
        let mut rec = Recorder::with_capacity(16);
        let mut calls = 0u64;
        let c = block(&mut rec, "x", None, &[1u8, 2, 3], |_| calls += 1);
        assert_eq!(c.calls, calls);
        assert!(calls as usize >= MIN_BLOCK && (calls as usize) < MIN_BLOCK + 3);
        assert_eq!(rec.spans().len(), 1);
        let none = block(&mut rec, "y", None, &[] as &[u8], |_| unreachable!());
        assert_eq!(none, BlockCost::default());
        // A short tail joins the previous block instead of standing alone.
        let many = vec![0u8; BLOCK + 5];
        let c = block(&mut rec, "z", None, &many, |_| {});
        assert_eq!(c.calls as usize, BLOCK + 5);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn reconciliation_sums_layer_cost_times_pass_counts() {
        let layers = Replay {
            view_parse: cost(10.0),
            cache_hit: cost(5.0),
            cache_miss: cost(7.0),
            cache_insert: cost(20.0),
            directory_ecmp: cost(3.0),
            owned_parse: cost(30.0),
            walk: cost(100.0),
            x86_process: cost(200.0),
            pin: cost(16.0),
            ..Replay::default()
        };
        let pass = RunReport {
            packets: 100,
            counters: TableCounters {
                parsed: 100,
                cache_hits: 90,
                cache_misses: 10,
                ..TableCounters::default()
            },
            decision_digest: 0,
            epoch_digests: BTreeMap::new(),
            virtual_ns: 0,
            fallback_packets: 2,
            dpu_packets: 0,
            workers: 1,
            device_packets: Vec::new(),
            breaker: Default::default(),
            dpu_breaker: Default::default(),
        };
        // parse 1000 + hits 450 + misses 10×(14+20+3+30+100)=1670
        // + finish 2×230=460 + pins ceil(100/32)=4×16=64 → 3644 / 100.
        let r = reconcile(&layers, &pass, 32, 50.0);
        assert!((r.attributed_ns_per_pkt - 36.44).abs() < 1e-9);
        assert!((r.unattributed_ns_per_pkt - 13.56).abs() < 1e-9);
    }
}
