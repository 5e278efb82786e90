//! The zero-allocation batch driver — the dataplane's only driver.
//!
//! [`BatchExecutor`] feeds frames to the forwarding core the crate docs
//! list (table walk, steering, disposition) and is what
//! [`crate::executor::Dataplane::run_single`] and
//! [`crate::executor::Dataplane::run_multi`] run. What is specific to it
//! is *how frames reach the core*: per-stage loops over contiguous lanes
//! instead of one function call per packet, in the style of capsule-like
//! batch operators:
//!
//! 1. **Parse + probe lane**: every frame is validated through the
//!    borrowed [`FrameView`] (no owned packet build, no allocation) and
//!    its [`sailfish_net::FlowKey`] immediately probes the evicting
//!    S3-FIFO [`FlowCache`] while the parsed fields are still in
//!    registers. Hits record a [`FlowOutcome`] (action + ECMP slot +
//!    precomputed decision digest) in the status lane; hostile frames
//!    drop into the error lane as typed `FrameError`s, counted per kind
//!    *and* per layer, and never branch the later loops. Only probe
//!    misses park their view in the pending lane.
//! 2. **Miss stage** (empty once the cache is warm), a short software
//!    pipeline over the batch's pending lane. A miss is a chain of
//!    *dependent* memory levels — directory bucket → per-VNI table handle
//!    and VM-NC slot → ALPM roots → ALPM bucket — each a likely DRAM miss
//!    at region scale, and walking one frame to completion before the
//!    next starts pays them back to back. So `warm_misses` first runs the
//!    whole lane through the levels *one level per loop*, a group of
//!    frames at a time, carrying each frame's handle forward in a stack
//!    lane: the loads of one level are independent across frames and
//!    overlap, the way XGW-H keeps many packets in flight through a
//!    fixed-depth pipeline. That pass calls the same level functions
//!    `HwRoutingTable::lookup` is composed of and throws every result
//!    away — it counts, charges, caches and allocates nothing. The
//!    **miss loop** proper then runs in lane order over warm lines: each
//!    frame re-probes (an earlier miss in the same batch may have
//!    inserted the flow), is steered, and walks the tables keyed by the
//!    `(vni, five_tuple)` its view already parsed — no owned
//!    `GatewayPacket` is built on this path — recording the outcome for
//!    the rest of the flow and the walk's virtual cost in the frame's
//!    slot. Only a frame's *first* hop is warmed: a peer chain's later
//!    hops depend on the route the first one matches.
//! 3. **Apply loop** (original frame order, so punts queue — and the
//!    stateful software tier serves them — in arrival order): charge the
//!    frame's parse and walk to the virtual clock, bump attribution
//!    counters, rewrite `ToNc` frames into the batch's slab arena through
//!    [`crate::rewrite`], the one header rewrite, keyed by the offsets the
//!    frame's view validated in stage 1 — a v4 underlay copies only the
//!    header region and takes the incremental-checksum patch, v6 copies
//!    the whole frame and refills its UDP checksum — and hand everything
//!    the hardware does not forward to the shared core, queueing punts
//!    *by frame index*: the software tier serves them in
//!    [`BatchExecutor::finish`], off the hot path.
//!
//! The epoch is pinned **once per batch**.
//!
//! # Determinism contract
//!
//! Stages 1 and 2 only *record* what a frame costs; stage 3 charges it
//! to the virtual clock at the frame's own position (error frames
//! included), before the frame reaches a breaker. So every punt
//! admission, x86 and DPU alike, reads the clock that processing the same
//! batches frame by frame would read.
//!
//! That makes runs **batch-size invariant**: on the same frames, with a
//! cold cache, a flow population inside its capacity and meters that do
//! not shed, any `batch_size` yields the same `RunReport` field for field
//! except `virtual_ns`, which moves by exactly [`cost::BATCH_OVERHEAD_NS`]
//! per batch (`tests/batch_equivalence.rs` pins it under a DPU tier, a
//! SNAT offload, a dual-ownership window and hostile frames). The
//! decision digest is also independent of the worker count and of a warm
//! cache, which shifts only the hit/miss split — decisions are per-flow
//! facts, not cache artifacts.
//!
//! # Allocation contract
//!
//! After construction plus one warm-up run, [`BatchExecutor::execute`]
//! performs **zero heap allocation**: lanes, arena, cache, punt queue
//! and partition buffers all retain capacity across runs. The benchmark's
//! traced passes enforce 0 allocations/packet with a counting allocator.

use sailfish_net::view::FrameView;
use sailfish_net::{FrameError, Vni};
use sailfish_tables::alpm::AlpmTable;
use sailfish_tables::pooled::plane_addr;
use sailfish_tables::types::{Reason, RouteTarget, Verdict};
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_x86::SoftwareForwarder;

use crate::cache::{FlowCache, FlowOutcome};
use crate::engine::cost;
use crate::epoch::EpochState;
use crate::executor::{worker_for, Dataplane, RunReport};
use crate::ladder::{self, snat_offloaded, Ladder};
use crate::rewrite::{self, RewriteCtx};

/// How many slots ahead the parse lane warms the next frames' header
/// cache lines (see the stage-1 loop).
const PARSE_LOOKAHEAD: usize = 2;

/// How many pending misses `warm_misses` carries through the walk's
/// memory levels together: enough independent loads in flight to cover a
/// DRAM miss, few enough that the first frame's lines are still in L1
/// when the miss loop reaches it.
const WARM_GROUP: usize = 16;

/// Where a frame stands after the per-batch stage loops.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// Rejected by the parse lane (already counted); skipped by every
    /// later loop.
    Error,
    /// Flow-cache hit: replay the recorded outcome.
    Hit(FlowOutcome, RewriteCtx),
    /// Probation: a probe miss awaiting the miss loop.
    Pending,
    /// Miss resolved by the full walk this batch, with the walk's
    /// virtual cost (charged in the apply loop).
    Walked(FlowOutcome, RewriteCtx, u64),
    /// The VNI directory has no cluster: default-route to software.
    DirectoryMiss,
    /// A SNAT punt served on-chip by a promoted exact-match entry in
    /// the pinned epoch's offload snapshot: no handoff, no breaker, no
    /// fallback. `from_cache` keeps the hit/miss counter split.
    SnatOffloaded {
        /// ECMP device slot for attribution (`FlowOutcome::NO_SLOT` if
        /// the cluster had no live device).
        slot: u32,
        /// Whether the flow was resolved by the probe lane.
        from_cache: bool,
        /// Virtual cost of the walk this batch ran for it (0 on a hit).
        walk_ns: u64,
    },
}

impl SlotState {
    /// Virtual cost of the table walk the miss loop ran for this frame.
    fn walk_ns(&self) -> u64 {
        match *self {
            SlotState::Walked(_, _, ns) | SlotState::SnatOffloaded { walk_ns: ns, .. } => ns,
            _ => 0,
        }
    }
}

/// Reusable per-worker state: the disposition core plus this driver's
/// cache, lanes and arena. A queued punt is the global frame index,
/// served at resolution time in `finish`.
struct BatchWorker {
    cache: FlowCache,
    ladder: Ladder,
    /// Miss lane: `(position in batch, view)` for probe misses only —
    /// empty once the cache is warm.
    pending: Vec<(u32, FrameView)>,
    /// Status lane (per batch).
    slots: Vec<SlotState>,
    /// Slab arena receiving rewritten output frames, recycled per batch.
    arena: Vec<u8>,
}

impl BatchWorker {
    fn new(dp: &Dataplane) -> Self {
        let config = dp.config();
        let batch = config.batch_size.max(1);
        BatchWorker {
            cache: FlowCache::new(config.cache_shards * config.cache_shard_capacity),
            ladder: Ladder::new(config),
            pending: Vec::with_capacity(batch),
            slots: Vec::with_capacity(batch),
            arena: Vec::new(),
        }
    }
}

/// The batch-pipeline executor over a [`Dataplane`]'s epoch-versioned
/// tables. Owns all reusable worker state; see the module docs for the
/// stage structure and the determinism/allocation contracts.
pub struct BatchExecutor {
    workers: Vec<BatchWorker>,
    /// Frame indices per worker, rebuilt (allocation-free once warm)
    /// every run.
    partitions: Vec<Vec<u32>>,
}

impl BatchExecutor {
    /// Builds an executor with `workers` independent pipelines (1 for
    /// the deterministic golden mode). Each worker gets its own evicting
    /// flow cache of `cache_shards * cache_shard_capacity` flows.
    pub fn new(dp: &Dataplane, workers: usize) -> Self {
        let workers = workers.max(1);
        BatchExecutor {
            workers: (0..workers).map(|_| BatchWorker::new(dp)).collect(),
            partitions: (0..workers).map(|_| Vec::new()).collect(),
        }
    }

    /// Drops all cached flows (keeps allocations) — for cold-start runs.
    pub fn reset_caches(&mut self) {
        for worker in &mut self.workers {
            worker.cache.clear();
        }
    }

    /// Sum of resident flows across worker caches.
    pub fn cached_flows(&self) -> usize {
        self.workers.iter().map(|w| w.cache.len()).sum()
    }

    /// Runs the batch pipeline over `frames`. This is the measured,
    /// allocation-gated hot path: after one warm-up run it does not
    /// touch the heap. Punt resolution and report assembly live in
    /// [`BatchExecutor::finish`].
    pub fn execute(&mut self, dp: &Dataplane, frames: &[&[u8]]) {
        for (worker, part) in self.workers.iter_mut().zip(&mut self.partitions) {
            worker.ladder.reset(dp.config());
            part.clear();
        }
        let worker_count = self.workers.len();
        if worker_count == 1 {
            if let (Some(worker), Some(part)) =
                (self.workers.first_mut(), self.partitions.first_mut())
            {
                part.extend(0..frames.len() as u32);
                run_worker(dp, worker, frames, part);
            }
            return;
        }
        for (i, frame) in frames.iter().enumerate() {
            if let Some(part) = self.partitions.get_mut(worker_for(frame, worker_count)) {
                part.push(i as u32);
            }
        }
        std::thread::scope(|scope| {
            for (worker, part) in self.workers.iter_mut().zip(&self.partitions) {
                scope.spawn(move || run_worker(dp, worker, frames, part));
            }
        });
    }

    /// Resolves queued punts through `fallback` (serially, after the
    /// slowest pipeline, outside the measured hot path) and assembles the
    /// run report. Allocation is permitted here.
    pub fn finish(&mut self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        ladder::resolve(self.workers.iter().map(|w| &w.ladder), frames, fallback)
    }

    /// Convenience: [`BatchExecutor::execute`] + [`BatchExecutor::finish`].
    pub fn run(
        &mut self,
        dp: &Dataplane,
        frames: &[&[u8]],
        fallback: &mut SoftwareForwarder,
    ) -> RunReport {
        self.execute(dp, frames);
        self.finish(frames, fallback)
    }
}

/// Files a probe hit in the status lane: the recorded outcome, unless
/// the pinned epoch serves the flow's SNAT punt on-chip. While a
/// dual-ownership window is live (`dual_live`, checked once per batch)
/// the hit is re-steered, so `dual_owner_packets` and device attribution
/// follow the pinned epoch's owner pick, not the epoch that cached the
/// flow; with no window live the cached slot is used untouched.
#[inline]
fn file_hit(
    state: &EpochState,
    ladder: &mut Ladder,
    dual_live: bool,
    mut outcome: FlowOutcome,
    view: &FrameView,
) -> SlotState {
    if dual_live {
        if let Some(steer) = ladder.steer(state, view.vni, &view.five_tuple()) {
            outcome.slot = steer.slot;
        }
    }
    if snat_offloaded(state, outcome.action, view.vni, || view.five_tuple()) {
        SlotState::SnatOffloaded {
            slot: outcome.slot,
            from_cache: true,
            walk_ns: 0,
        }
    } else {
        SlotState::Hit(outcome, RewriteCtx::of(view))
    }
}

/// Runs one worker's share of the frames, batch by batch.
fn run_worker(dp: &Dataplane, worker: &mut BatchWorker, frames: &[&[u8]], indices: &[u32]) {
    for batch in indices.chunks(dp.config().batch_size.max(1)) {
        // One pin per batch: every frame sees a single epoch even while
        // installs publish concurrently.
        let state = dp.pin();
        let dual_live = state.directory.dual_len() > 0;
        worker.ladder.clock_ns += cost::BATCH_OVERHEAD_NS;
        worker.slots.clear();
        worker.pending.clear();
        worker.arena.clear();

        // Stage 1 — fused parse + probe lane. Hostile frames drop to the
        // error lane as typed, per-layer-counted FrameErrors; hits are
        // decided while the parsed fields are still in registers; only
        // misses park a view in the pending lane.
        let mut warmed = 0u64;
        for (pos, &idx) in batch.iter().enumerate() {
            // Software lookahead: touch a frame a few slots ahead so its
            // header lines are in flight while this frame parses — the
            // parse chain is otherwise bound on the first random-access
            // touch of each frame buffer.
            if let Some(f) = batch
                .get(pos + PARSE_LOOKAHEAD)
                .and_then(|a| frames.get(*a as usize))
            {
                warmed = warmed
                    .wrapping_add(u64::from(f.first().copied().unwrap_or(0)))
                    .wrapping_add(u64::from(f.get(64).copied().unwrap_or(0)));
            }
            let Some(frame) = frames.get(idx as usize) else {
                worker.slots.push(SlotState::Error);
                continue;
            };
            match FrameView::parse(frame) {
                Ok(view) => {
                    worker.ladder.counters.parsed += 1;
                    if let Some(outcome) = worker.cache.get(&view.flow_key()) {
                        worker.slots.push(file_hit(
                            &state,
                            &mut worker.ladder,
                            dual_live,
                            outcome,
                            &view,
                        ));
                    } else {
                        worker.pending.push((pos as u32, view));
                        worker.slots.push(SlotState::Pending);
                    }
                }
                Err(e) => {
                    worker.ladder.counters.record_frame_error(e);
                    worker.slots.push(SlotState::Error);
                }
            }
        }
        std::hint::black_box(warmed);

        // Stage 2 — miss stage: warm the lane level by level, then the
        // in-order miss loop, the only place the full table walk runs.
        // Empty once the cache is warm. A walk's cost is recorded in its
        // slot, not charged: the apply loop charges it in frame order.
        let pending = std::mem::take(&mut worker.pending);
        if !pending.is_empty() {
            warm_misses(&state, &pending);
        }
        for &(pos, ref view) in &pending {
            let Some(slot) = worker.slots.get_mut(pos as usize) else {
                continue;
            };
            // Re-probe: an earlier miss in this same batch may have
            // inserted the flow already (the probe in stage 1 ran before
            // any insert). A batch of one would hit here, so every batch
            // must, or the hit/miss split would depend on the batch size.
            if let Some(outcome) = worker.cache.get(&view.flow_key()) {
                *slot = file_hit(&state, &mut worker.ladder, dual_live, outcome, view);
                continue;
            }
            // Steering and the walk are keyed by what the view parsed:
            // no owned packet model on the miss path.
            let tuple = view.five_tuple();
            let Some(steer) = worker.ladder.steer(&state, view.vni, &tuple) else {
                *slot = SlotState::DirectoryMiss;
                continue;
            };
            let (action, walk_ns) = worker.ladder.walk(&steer.cluster.tables, view.vni, &tuple);
            let outcome = FlowOutcome {
                action,
                slot: steer.slot,
                digest: action.digest(),
            };
            worker.cache.insert(view.flow_key(), outcome);
            // The offload check comes after the cache insert, so later
            // hits in this batch re-take the offload branch themselves.
            *slot = if snat_offloaded(&state, action, view.vni, || tuple) {
                SlotState::SnatOffloaded {
                    slot: steer.slot,
                    from_cache: false,
                    walk_ns,
                }
            } else {
                SlotState::Walked(outcome, RewriteCtx::of(view), walk_ns)
            };
        }
        worker.pending = pending;

        // Stage 3 — apply loop, in original frame order so the punt
        // queue (and therefore stateful fallback processing) follows
        // arrival order. Each frame's parse and walk are charged here,
        // at its own position, so a breaker admission reads the clock
        // frame-by-frame processing would.
        let mut batch_digest = 0u64;
        for (pos, &idx) in batch.iter().enumerate() {
            let Some(slot) = worker.slots.get(pos) else {
                continue;
            };
            worker.ladder.clock_ns += cost::PARSE_NS + slot.walk_ns();
            let Some(frame) = frames.get(idx as usize) else {
                continue;
            };
            let (outcome, ctx, from_cache) = match slot {
                SlotState::Hit(outcome, ctx) => {
                    worker.ladder.cache_hit();
                    (*outcome, *ctx, true)
                }
                SlotState::Walked(outcome, ctx, _) => (*outcome, *ctx, false),
                SlotState::DirectoryMiss => (
                    FlowOutcome {
                        action: Verdict::Punt(Reason::NoRoute),
                        slot: FlowOutcome::NO_SLOT,
                        digest: 0,
                    },
                    RewriteCtx::default(),
                    true,
                ),
                &SlotState::SnatOffloaded {
                    slot, from_cache, ..
                } => {
                    if from_cache {
                        worker.ladder.cache_hit();
                    }
                    worker.ladder.attribute(slot);
                    let served = worker.ladder.serve_snat_offload(from_cache);
                    batch_digest = batch_digest.wrapping_add(served.digest());
                    continue;
                }
                SlotState::Error | SlotState::Pending => continue,
            };
            worker.ladder.attribute(outcome.slot);
            batch_digest = batch_digest.wrapping_add(apply_outcome(
                &state, worker, idx, frame, outcome, ctx, from_cache,
            ));
        }
        worker.ladder.note_batch(state.epoch, batch_digest);
    }
}

/// Runs a batch's pending misses through the memory levels of the walk's
/// first hop, one level per loop over a [`WARM_GROUP`] of frames, so the
/// (likely DRAM) loads of a level overlap across frames instead of
/// queueing behind one frame's dependent chain. Each level is the piece
/// of [`sailfish_xgw_h::tables::HwRoutingTable::lookup`] it warms, called
/// on the pinned epoch and discarded: nothing is counted, charged, cached
/// or allocated, so the miss loop that follows observes only warmer
/// lines. Out of line because, inlined, its register pressure costs the
/// parse and apply loops of `run_worker` on batches that never miss.
#[inline(never)]
fn warm_misses(state: &EpochState, pending: &[(u32, FrameView)]) {
    use std::hint::black_box;
    for group in pending.chunks(WARM_GROUP) {
        // Level 1 — directory bucket: the serving cluster's tables. (In
        // a dual-ownership window some flows are served by the second
        // owner; warming the primary's is still only a hint.)
        let mut tables: [Option<&HardwareTables>; WARM_GROUP] = [None; WARM_GROUP];
        for (lane, (_, view)) in tables.iter_mut().zip(group) {
            *lane = state
                .directory
                .cluster_for(view.vni)
                .and_then(|c| state.clusters.get(c))
                .map(|c| &c.tables);
        }
        // Level 2 — the per-VNI index bucket holding the table handle,
        // and the VM-NC slot, which needs nothing but `(vni, dst)`.
        let mut planes: [Option<(&AlpmTable<RouteTarget>, u128)>; WARM_GROUP] = [None; WARM_GROUP];
        for ((lane, tables), (_, view)) in planes.iter_mut().zip(tables).zip(group) {
            let Some(tables) = tables else { continue };
            let dst = view.five_tuple().dst_ip;
            black_box(tables.vm_nc.lookup_traced(view.vni, dst));
            *lane = tables
                .routes
                .table(view.vni)
                .map(|table| (table.plane(dst.is_ipv4()), plane_addr(dst)));
        }
        // Level 3 — ALPM first level: the roots array.
        let mut roots: [Option<usize>; WARM_GROUP] = [None; WARM_GROUP];
        for (lane, plane) in roots.iter_mut().zip(planes) {
            *lane = plane.and_then(|(plane, addr)| plane.deepest_root(addr, 128));
        }
        // Level 4 — ALPM second level: the owning root's bucket.
        for (root, plane) in roots.into_iter().zip(planes) {
            if let (Some(root), Some((plane, addr))) = (root, plane) {
                black_box(plane.match_in(root, addr));
            }
        }
    }
}

/// Applies one frame's outcome. Forwards stay here — the arena rewrite
/// is this driver's, and their digest was precomputed when the flow was
/// cached; drops and punts are the ladder's. Returns the decided
/// digest contribution (0 for punts and errors — punts resolve at the
/// software tier).
fn apply_outcome(
    state: &EpochState,
    worker: &mut BatchWorker,
    idx: u32,
    frame: &[u8],
    outcome: FlowOutcome,
    ctx: RewriteCtx,
    from_cache: bool,
) -> u64 {
    match outcome.action {
        Verdict::ToNc { nc, vni } => {
            if let Err(e) = rewrite_into_arena(worker, frame, ctx, nc, vni) {
                worker.ladder.counters.record_frame_error(e);
                return 0;
            }
            worker.ladder.clock_ns += cost::REWRITE_NS;
            worker.ladder.counters.hw_forwarded += 1;
            outcome.digest
        }
        Verdict::ToRegion { .. } | Verdict::ToIdc { .. } => {
            worker.ladder.counters.hw_forwarded += 1;
            outcome.digest
        }
        action => worker
            .ladder
            // Punt-classified frames passed the view parser in stage 1,
            // so this re-parse cannot fail; it runs only on the (cold)
            // punt lane and stays allocation-free like every view parse.
            .dispose(state, action, from_cache, frame.len(), idx, || {
                let view = FrameView::parse(frame).ok()?;
                Some((view.vni, view.five_tuple()))
            })
            .map_or(0, |decided| decided.digest()),
    }
}

/// Copies the frame's rewrite region ([`RewriteCtx::region`]) into the
/// batch's slab arena and rewrites it there in place. Over a v4 underlay
/// only the headers land in the arena — the tenant payload is never
/// copied, exactly like a scatter-gather TX ring pairing a rewritten
/// header segment with the original payload buffer. The arena retains
/// capacity across batches, so this is heap-free once warm.
fn rewrite_into_arena(
    worker: &mut BatchWorker,
    frame: &[u8],
    ctx: RewriteCtx,
    nc: sailfish_tables::types::NcAddr,
    vni: Vni,
) -> Result<(), FrameError> {
    let start = worker.arena.len();
    worker.arena.extend_from_slice(ctx.region(frame));
    let Some(out) = worker.arena.get_mut(start..) else {
        return Ok(());
    };
    rewrite::in_place(out, ctx, nc, vni)
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::executor::{software_forwarder, DataplaneConfig};
    use crate::traffic::packet_for_flow;
    use sailfish_net::wire::{ethernet, ipv4};
    use sailfish_net::GatewayPacket;
    use sailfish_sim::{Topology, TopologyConfig, WorkloadConfig};

    /// Forwards the two frames `frames` makes from the packet of a flow
    /// the tables send to an NC, and returns the arena's bytes as hex.
    fn arena_after_forward(frames: impl FnOnce(GatewayPacket) -> [Vec<u8>; 2]) -> String {
        let topology = Topology::generate(TopologyConfig::default());
        let flows = sailfish_sim::workload::generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 64,
                internet_share: 0.0,
                ..WorkloadConfig::default()
            },
        );
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let mut fallback = software_forwarder(&topology);
        let packet = flows
            .iter()
            .map(packet_for_flow)
            .find(|p| {
                matches!(
                    dp.decide_one(&p.emit().unwrap(), &mut fallback, 0),
                    Some(Verdict::ToNc { .. })
                )
            })
            .expect("a flow forwards to an NC");
        let [a, b] = frames(packet);
        let mut exec = BatchExecutor::new(&dp, 1);
        let report = exec.run(&dp, &[&a, &b], &mut fallback);
        assert_eq!(report.counters.hw_forwarded, 2);
        exec.workers[0]
            .arena
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Golden bytes of a v4-underlay forward: the arena holds only each
    /// frame's header region (through the VXLAN header), with the TTL
    /// decremented, the destination set to the NC and the header checksum
    /// patched incrementally. The second frame arrives with TTL 0, which
    /// the rewrite leaves at 0.
    #[test]
    fn v4_underlay_forward_matches_golden_bytes() {
        const GOLDEN: &str = concat!(
            "02000000000b02000000000a08004500056a000040003f111ede0aff00010ac0",
            "01e6dfae12b505560000080000000003f30002000000000b02000000000a0800",
            "4500056a0000400000115dde0aff00010ac001e6dfae12b50556000008000000",
            "0003f300",
        );
        let hex = arena_after_forward(|packet| {
            let frame = packet.emit().unwrap();
            let mut ttl_zero = frame.clone();
            ttl_zero[ethernet::HEADER_LEN + 8] = 0;
            ipv4::Packet::new_unchecked(&mut ttl_zero[ethernet::HEADER_LEN..]).fill_checksum();
            [frame, ttl_zero]
        });
        assert_eq!(hex, GOLDEN);
    }

    /// Golden bytes of a v6-underlay forward: the arena holds each whole
    /// rewritten frame (hop limit decremented, destination set to the NC's
    /// v4-mapped address, VNI stamped, outer UDP checksum refilled). The
    /// second frame arrives with hop limit 0, which the rewrite leaves at
    /// 0.
    #[test]
    fn v6_underlay_forward_matches_golden_bytes() {
        const GOLDEN: &str = concat!(
            "02000000000b02000000000a86dd600000000056113f20010db800ff00000000",
            "00000000000100000000000000000000ffff0ac001e6dfae12b5005664010800",
            "00000003f3000200000000020200000000010800450000380000400040062663",
            "0a10000d0a100031f6d61f900000000000000000501000000000000000000000",
            "00000000000000000000000002000000000b02000000000a86dd600000000056",
            "110020010db800ff0000000000000000000100000000000000000000ffff0ac0",
            "01e6dfae12b500566401080000000003f3000200000000020200000000010800",
            "4500003800004000400626630a10000d0a100031f6d61f900000000000000000",
            "501000000000000000000000000000000000000000000000",
        );
        let hex = arena_after_forward(|mut packet| {
            packet.outer.src_ip = "2001:db8:ff::1".parse().unwrap();
            packet.outer.dst_ip = "2001:db8:ff::2".parse().unwrap();
            packet.inner.payload_len = 16;
            let frame = packet.emit().unwrap();
            let mut hop_zero = frame.clone();
            hop_zero[ethernet::HEADER_LEN + 7] = 0;
            [frame, hop_zero]
        });
        assert_eq!(hex, GOLDEN);
    }
}
