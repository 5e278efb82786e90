//! The zero-allocation batch driver.
//!
//! [`BatchExecutor`] drives the same forwarding core as the
//! frame-at-a-time [`crate::executor::Dataplane`] driver: the table walk,
//! steering and disposition are the single definitions the crate docs
//! list, not copies. What is specific to this driver is *how frames reach
//! the core*: per-stage loops over contiguous lanes instead of one
//! function call per packet, in the style of capsule-like batch operators:
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
//!    the rest of the flow. Only a frame's *first* hop is warmed: a peer
//!    chain's later hops depend on the route the first one matches.
//! 3. **Apply loop** (original frame order, so punts queue — and the
//!    stateful software tier serves them — in arrival order): bump
//!    attribution counters, charge the virtual clock, rewrite `ToNc`
//!    frames into the batch's slab arena — a v4 underlay takes the
//!    incremental-checksum patch (`patch_v4`, byte-identical to
//!    `rewrite::apply` on a validated frame), v6 takes the generic path
//!    — and hand everything the hardware does not forward to the shared
//!    core, queueing punts *by frame index*: the owned punt parse happens
//!    in [`BatchExecutor::finish`], off the hot path.
//!
//! The epoch is pinned **once per batch**, so epoch digests match the
//! frame-at-a-time driver's entry for entry.
//!
//! # Determinism contract
//!
//! On the same frame sequence, with a cold cache, and a flow population
//! inside both caches' capacity, a `BatchExecutor` run reproduces
//! [`crate::executor::Dataplane::run_single`]'s `RunReport` field for
//! field — decision digest, epoch digests, counters, device attribution,
//! breaker stats, per-tier punt volumes and virtual time — because both
//! feed one core the same events (`tests/batch_equivalence.rs` pins it,
//! including under a DPU tier, a published SNAT offload and a live
//! dual-ownership window). With a *warm* cache the hit/miss split shifts
//! (by design) but the decision digest is still identical — decisions
//! are per-flow facts, not cache artifacts. Two scoped divergences
//! remain, both driver-shaped: under cache-eviction pressure the
//! hit/miss counters may differ from the no-evict sharded cache, and
//! under a *tight* punt meter mid-batch admission timestamps differ
//! (stage-ordered clock), which the default generous meter never
//! exercises.
//!
//! # Allocation contract
//!
//! After construction plus one warm-up run, [`BatchExecutor::execute`]
//! performs **zero heap allocation**: lanes, arena, cache, punt queue
//! and partition buffers all retain capacity across runs. The wall-clock
//! bench enforces 0 allocations/packet in its steady-state loop with a
//! counting allocator.

use core::net::{IpAddr, Ipv4Addr};

use sailfish_net::checksum;
use sailfish_net::view::FrameView;
use sailfish_net::wire::ethernet;
use sailfish_net::{Error, FrameError, FrameLayer, GatewayPacket, Vni};
use sailfish_tables::alpm::AlpmTable;
use sailfish_tables::pooled::plane_addr;
use sailfish_tables::types::RouteTarget;
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_x86::SoftwareForwarder;

use crate::cache::{CachedAction, FlowCache, FlowOutcome};
use crate::engine::cost;
use crate::epoch::EpochState;
use crate::executor::{worker_for, Dataplane, RunReport};
use crate::ladder::{self, snat_offloaded, Ladder};
use crate::rewrite;

/// How many slots ahead the parse lane warms the next frames' header
/// cache lines (see the stage-1 loop).
const PARSE_LOOKAHEAD: usize = 2;

/// How many pending misses `warm_misses` carries through the walk's
/// memory levels together: enough independent loads in flight to cover a
/// DRAM miss, few enough that the first frame's lines are still in L1
/// when the miss loop reaches it.
const WARM_GROUP: usize = 16;

/// Frame-local facts the apply loop needs for an in-arena rewrite:
/// where the VXLAN header sits, where the rewrite region ends (the inner
/// Ethernet offset), and which underlay family delimits it.
#[derive(Debug, Clone, Copy, Default)]
struct RewriteCtx {
    vxlan: u16,
    inner_eth: u16,
    outer_v6: bool,
}

impl RewriteCtx {
    fn of(view: &FrameView) -> Self {
        RewriteCtx {
            vxlan: view.vxlan,
            inner_eth: view.inner_eth,
            outer_v6: view.outer_v6,
        }
    }
}

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
    /// Miss resolved by the full walk this batch.
    Walked(FlowOutcome, RewriteCtx),
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
    },
}

/// Reusable per-worker state: the shared disposition core plus this
/// driver's cache, lanes and arena. A queued punt is the global frame
/// index; the owned parse happens at resolution time in `finish`.
struct BatchWorker {
    cache: FlowCache,
    ladder: Ladder<u32>,
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
            cache: FlowCache::new((config.cache_shards * config.cache_shard_capacity).max(1)),
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
    /// flow cache sized like the sharded cache's total capacity.
    pub fn new(dp: &Dataplane, workers: usize) -> Self {
        let workers = workers.max(1);
        BatchExecutor {
            workers: (0..workers).map(|_| BatchWorker::new(dp)).collect(),
            partitions: (0..workers).map(|_| Vec::new()).collect(),
        }
    }

    /// Pipeline workers in this executor.
    pub fn workers(&self) -> usize {
        self.workers.len()
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
    /// slowest pipeline — the owned punt parse happens here, outside the
    /// measured hot path) and assembles the run report. Allocation is
    /// permitted here.
    pub fn finish(&mut self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        ladder::resolve(
            self.workers.iter().map(|w| &w.ladder),
            frames.len() as u64,
            fallback,
            // Guaranteed parseable: only view-validated frames punt.
            |&idx| {
                let frame = frames.get(idx as usize)?;
                GatewayPacket::parse_classified(frame).ok()
            },
        )
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
    ladder: &mut Ladder<u32>,
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
        worker.ladder.clock_ns += cost::PARSE_NS * batch.len() as u64;

        // Stage 2 — miss stage: warm the lane level by level, then the
        // in-order miss loop, the only place the full table walk runs.
        // Empty once the cache is warm.
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
            // any insert). Frame-at-a-time processing hits here, so the
            // batch must too for the hit/miss split to match.
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
            let action = worker.ladder.walk(&steer.cluster.tables, view.vni, &tuple);
            let outcome = FlowOutcome {
                action,
                slot: steer.slot,
                digest: action.decision().map_or(0, |d| d.digest()),
            };
            worker.cache.insert(view.flow_key(), outcome);
            // The offload check comes after the cache insert, so later
            // hits in this batch re-take the offload branch themselves.
            *slot = if snat_offloaded(&state, action, view.vni, || tuple) {
                SlotState::SnatOffloaded {
                    slot: steer.slot,
                    from_cache: false,
                }
            } else {
                SlotState::Walked(outcome, RewriteCtx::of(view))
            };
        }
        worker.pending = pending;

        // Stage 3 — apply loop, in original frame order so the punt
        // queue (and therefore stateful fallback processing) follows
        // arrival order.
        let mut batch_digest = 0u64;
        for (pos, &idx) in batch.iter().enumerate() {
            let Some(frame) = frames.get(idx as usize) else {
                continue;
            };
            let (outcome, ctx, from_cache) = match worker.slots.get(pos) {
                Some(SlotState::Hit(outcome, ctx)) => {
                    worker.ladder.cache_hit();
                    (*outcome, *ctx, true)
                }
                Some(SlotState::Walked(outcome, ctx)) => (*outcome, *ctx, false),
                Some(SlotState::DirectoryMiss) => (
                    FlowOutcome {
                        action: CachedAction::PuntNoRoute,
                        slot: FlowOutcome::NO_SLOT,
                        digest: 0,
                    },
                    RewriteCtx::default(),
                    true,
                ),
                Some(&SlotState::SnatOffloaded { slot, from_cache }) => {
                    if from_cache {
                        worker.ladder.cache_hit();
                    }
                    worker.ladder.attribute(slot);
                    let served = worker.ladder.serve_snat_offload(from_cache);
                    batch_digest = batch_digest.wrapping_add(served.digest());
                    continue;
                }
                _ => continue,
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
/// cached; drops and punts are the shared core's. Returns the decided
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
        CachedAction::ToNc { nc, vni } => {
            if let Err(e) = rewrite_into_arena(worker, frame, ctx, nc, vni) {
                worker.ladder.counters.record_frame_error(e);
                return 0;
            }
            worker.ladder.clock_ns += cost::REWRITE_NS;
            worker.ladder.counters.hw_forwarded += 1;
            outcome.digest
        }
        CachedAction::ToRegion { .. } | CachedAction::ToIdc { .. } => {
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

/// Copies the frame into the batch's slab arena and rewrites it there in
/// place — TTL decrement, destination rewrite, VNI stamp. A v4 underlay
/// takes [`patch_v4`]; a v6 underlay takes the generic `rewrite::apply`
/// path (UDP checksum refill included). The only post-parse error — a
/// v6-homed NC under a v4 underlay — matches `rewrite::apply`'s exactly.
/// The arena retains capacity across batches, so this is heap-free once
/// warm.
fn rewrite_into_arena(
    worker: &mut BatchWorker,
    frame: &[u8],
    ctx: RewriteCtx,
    nc: sailfish_tables::types::NcAddr,
    vni: Vni,
) -> Result<(), FrameError> {
    let start = worker.arena.len();
    if ctx.outer_v6 {
        // The generic path revalidates layer delimiters, so it needs the
        // whole datagram in the arena.
        worker.arena.extend_from_slice(frame);
        let Some(out) = worker.arena.get_mut(start..) else {
            return Ok(());
        };
        return rewrite::apply(out, nc, vni);
    }
    let IpAddr::V4(nc_v4) = nc.ip else {
        // A v6-homed NC cannot terminate a v4 underlay frame — the same
        // typed reject `rewrite::apply` produces.
        return Err(FrameError::new(FrameLayer::OuterIpv4, Error::Malformed));
    };
    // Header-split emit: only the rewrite region (everything before the
    // inner Ethernet header) lands in the arena — the tenant payload is
    // never copied, exactly like a scatter-gather TX ring pairing a
    // rewritten header segment with the original payload buffer. Every
    // byte the v4 patch touches (TTL, checksum, dst, VNI) sits below
    // `inner_eth` by construction of the view.
    worker
        .arena
        .extend_from_slice(frame.get(..usize::from(ctx.inner_eth)).unwrap_or(frame));
    let Some(out) = worker.arena.get_mut(start..) else {
        return Ok(());
    };
    patch_v4(out, usize::from(ctx.vxlan), nc_v4, vni);
    Ok(())
}

/// In-place v4 rewrite of a frame that already passed [`FrameView`]
/// validation: TTL decrement and destination rewrite with RFC 1624
/// incremental checksum patches, then the VNI stamp at the validated
/// VXLAN offset. Byte-identical to `rewrite::apply` on the same frame
/// (the unit tests pin this), minus the per-layer revalidation the view
/// already performed.
fn patch_v4(frame: &mut [u8], vxlan: usize, nc_v4: Ipv4Addr, vni: Vni) {
    let Some(ip) = frame.get_mut(ethernet::HEADER_LEN..) else {
        return;
    };
    // TTL decrement; a zero TTL is left untouched, like `decrement_ttl`.
    if let (Some(&ttl), Some(&proto)) = (ip.get(8), ip.get(9)) {
        if ttl > 0 {
            let old_word = u16::from_be_bytes([ttl, proto]);
            let new_word = u16::from_be_bytes([ttl - 1, proto]);
            if let Some(b) = ip.get_mut(8) {
                *b = ttl - 1;
            }
            patch_ip_sum(ip, |sum| {
                checksum::incremental_update(sum, old_word, new_word)
            });
        }
    }
    // Destination rewrite with the slice form of the same patch.
    if let Some(dst) = ip.get_mut(16..20) {
        let mut old = [0u8; 4];
        old.copy_from_slice(dst);
        dst.copy_from_slice(&nc_v4.octets());
        patch_ip_sum(ip, |sum| {
            checksum::incremental_update_slice(sum, &old, &nc_v4.octets())
        });
    }
    // VNI stamp into the VXLAN header the view delimited.
    let v = vni.value();
    if let Some(b) = frame.get_mut(vxlan + 4..vxlan + 7) {
        b.copy_from_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
    }
}

/// Applies `patch` to the IPv4 header checksum field in place.
fn patch_ip_sum(ip: &mut [u8], patch: impl FnOnce(u16) -> u16) {
    if let Some(cs) = ip
        .get_mut(10..12)
        .and_then(|b| <&mut [u8; 2]>::try_from(b).ok())
    {
        *cs = patch(u16::from_be_bytes(*cs)).to_be_bytes();
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_tables::types::NcAddr;

    /// The arena fast patch must be byte-identical to `rewrite::apply`
    /// on every view-validated v4 frame, including the TTL=0 no-op.
    #[test]
    fn patch_v4_matches_generic_rewrite_bytes() {
        for ttl_zero in [false, true] {
            let packet = GatewayPacketBuilder::new(
                Vni::from_const(7001),
                "192.168.4.2".parse().unwrap(),
                "192.168.9.9".parse().unwrap(),
            )
            .build();
            let mut frame = packet.emit().unwrap();
            if ttl_zero {
                // Zero the outer TTL and re-fill the header checksum so
                // the frame still parses.
                frame[ethernet::HEADER_LEN + 8] = 0;
                let mut ip = sailfish_net::wire::ipv4::Packet::new_unchecked(
                    &mut frame[ethernet::HEADER_LEN..],
                );
                ip.fill_checksum();
            }
            let view = FrameView::parse(&frame).expect("emitted frame parses");
            let nc = NcAddr {
                ip: "10.77.1.3".parse().unwrap(),
            };
            let vni = Vni::from_const(4242);

            let mut generic = frame.clone();
            rewrite::apply(&mut generic, nc, vni).unwrap();

            let mut patched = frame.clone();
            let IpAddr::V4(v4) = nc.ip else {
                unreachable!()
            };
            patch_v4(&mut patched, usize::from(view.vxlan), v4, vni);

            assert_eq!(generic, patched, "ttl_zero={ttl_zero}");
            // And the patched checksum still verifies.
            let ip =
                sailfish_net::wire::ipv4::Packet::new_checked(&patched[ethernet::HEADER_LEN..])
                    .unwrap();
            assert!(ip.verify_checksum());
        }
    }
}
