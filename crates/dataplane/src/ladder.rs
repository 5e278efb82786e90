//! The per-worker disposition core both executors drive.
//!
//! Sailfish's XGW-H runs one program and degrades what it cannot serve
//! to the software tiers behind one protective limiter (§4.2). A
//! [`Ladder`] is that one place: it owns a worker's stage counters,
//! virtual clock, device attribution, decision digests and the
//! degradation ladder itself — optional DPU middle tier, then x86, each
//! rung behind its own [`PuntBreaker`] — and holds the only definitions
//! of what happens to a packet once its flow's [`CachedAction`] is known:
//!
//! - [`Ladder::walk`] turns a cache miss into an action (the counted
//!   hardware walk, priced on the clock as it runs);
//! - [`snat_offloaded`] / [`Ladder::serve_snat_offload`] intercept SNAT
//!   punts the pinned epoch serves on-chip;
//! - [`Ladder::dispose`] counts the action and, for punts, places it on
//!   the ladder;
//! - [`resolve`] merges the workers and serves the queued punts through
//!   the software forwarder into a [`RunReport`].
//!
//! The executors are *drivers* over this core. They differ only in how
//! they parse, cache and rewrite, and in what they queue for a punt (`T`:
//! the owned packet for the scalar driver, a frame index for the batch
//! driver, which defers the owned parse to resolution).

use sailfish_net::rss::Toeplitz;
use sailfish_net::{FiveTuple, GatewayPacket, Vni};
use sailfish_tables::meter::Meter;
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_h::{PuntReason, WalkEvent, WalkSink, Walked};
use sailfish_xgw_x86::SoftwareForwarder;

use crate::breaker::{Admission, PuntBreaker};
use crate::cache::{CachedAction, FlowOutcome};
use crate::counters::TableCounters;
use crate::engine::cost;
use crate::epoch::{EpochState, Steer};
use crate::executor::{DataplaneConfig, RunReport};
use crate::oracle::{DropClass, PathDecision};
use crate::tier::TierDecision;

impl From<Walked> for CachedAction {
    fn from(walked: Walked) -> Self {
        match walked {
            Walked::ToNc { nc, vni } => CachedAction::ToNc { nc, vni },
            Walked::ToRegion { region, vni } => CachedAction::ToRegion { region, vni },
            Walked::ToIdc { idc, vni } => CachedAction::ToIdc { idc, vni },
            Walked::Punt(PuntReason::SnatRequired) => CachedAction::PuntSnat,
            Walked::Punt(PuntReason::NoHwRoute) => CachedAction::PuntNoRoute,
            Walked::Punt(PuntReason::NoVmMapping) => CachedAction::PuntNoVm,
            Walked::DropAcl => CachedAction::DropAcl,
            Walked::DropLoop => CachedAction::DropLoop,
        }
    }
}

impl CachedAction {
    /// The final decision replaying this action yields on the hardware
    /// tier; `None` for punts, which a software tier decides.
    pub fn decision(self) -> Option<PathDecision> {
        match self {
            CachedAction::ToNc { nc, vni } => Some(PathDecision::ToNc { nc, vni }),
            CachedAction::ToRegion { region, vni } => Some(PathDecision::ToRegion { region, vni }),
            CachedAction::ToIdc { idc, vni } => Some(PathDecision::ToIdc { idc, vni }),
            CachedAction::DropAcl => Some(PathDecision::Drop(DropClass::Acl)),
            CachedAction::DropLoop => Some(PathDecision::Drop(DropClass::RoutingLoop)),
            CachedAction::PuntSnat | CachedAction::PuntNoRoute | CachedAction::PuntNoVm => None,
        }
    }
}

/// Whether the pinned epoch serves this SNAT punt on-chip: it carries a
/// promoted exact-match entry for the flow, so the translation happens
/// in hardware and the punt (handoff, breaker, fallback) never does.
/// `tuple` is only evaluated for SNAT punts under a published offload.
#[inline]
pub(crate) fn snat_offloaded(
    state: &EpochState,
    action: CachedAction,
    vni: Vni,
    tuple: impl FnOnce() -> FiveTuple,
) -> bool {
    action == CachedAction::PuntSnat
        && state
            .snat
            .as_deref()
            .is_some_and(|offload| offload.lookup(vni, &tuple()).is_some())
}

/// The software tier serving a queued punt: `Some((node, process_ns))`
/// for a DPU spill, `None` for x86. Captured at placement time so
/// resolution needs no epoch access.
type ServedBy = Option<(u16, u64)>;

/// One worker's accounting and degradation ladder; see the module docs.
pub(crate) struct Ladder<T> {
    pub(crate) counters: TableCounters,
    pub(crate) clock_ns: u64,
    devices_per_cluster: usize,
    device_packets: Vec<u64>,
    owner_hash: Toeplitz,
    breaker: PuntBreaker,
    /// `None` without a configured tier (the two-rung ladder).
    dpu_breaker: Option<PuntBreaker>,
    /// Admitted punts in decision order.
    punted: Vec<(T, ServedBy)>,
    digest: u64,
    /// `(epoch, digest)` accumulated batch by batch; a linear scan over
    /// the handful of live epochs keeps the hot path allocation-free.
    epoch_digests: Vec<(u64, u64)>,
}

fn breakers(config: &DataplaneConfig) -> (PuntBreaker, Option<PuntBreaker>) {
    (
        PuntBreaker::new(
            Meter::new(config.punt_rate_bps, config.punt_burst_bytes),
            config.breaker.clone(),
        ),
        config.tier.as_ref().map(|t| {
            PuntBreaker::named(
                "dpu",
                Meter::new(t.dpu_rate_bps, t.dpu_burst_bytes),
                t.dpu_breaker.clone(),
            )
        }),
    )
}

impl<T: Copy> Ladder<T> {
    pub(crate) fn new(config: &DataplaneConfig) -> Self {
        let (breaker, dpu_breaker) = breakers(config);
        Ladder {
            counters: TableCounters::default(),
            clock_ns: 0,
            devices_per_cluster: config.devices_per_cluster,
            device_packets: vec![0; config.clusters * config.devices_per_cluster],
            owner_hash: Toeplitz::default(),
            breaker,
            dpu_breaker,
            punted: Vec::new(),
            digest: 0,
            epoch_digests: Vec::with_capacity(4),
        }
    }

    /// Clears per-run accounting and re-arms the breakers; keeps every
    /// allocation.
    pub(crate) fn reset(&mut self, config: &DataplaneConfig) {
        self.counters = TableCounters::default();
        self.clock_ns = 0;
        self.device_packets.fill(0);
        (self.breaker, self.dpu_breaker) = breakers(config);
        self.punted.clear();
        self.digest = 0;
        self.epoch_digests.clear();
    }

    /// Steers one flow inside the pinned epoch ([`EpochState::steer`])
    /// with this worker's owner hash and counters.
    pub(crate) fn steer<'s>(
        &mut self,
        state: &'s EpochState,
        vni: Vni,
        tuple: &FiveTuple,
    ) -> Option<Steer<'s>> {
        state.steer(
            &self.owner_hash,
            vni,
            tuple,
            self.devices_per_cluster,
            &mut self.counters,
        )
    }

    /// Attributes one packet to its ECMP device slot.
    pub(crate) fn attribute(&mut self, slot: u32) {
        if slot != FlowOutcome::NO_SLOT {
            if let Some(count) = self.device_packets.get_mut(slot as usize) {
                *count += 1;
            }
        }
    }

    /// Accounts one flow-cache hit.
    pub(crate) fn cache_hit(&mut self) {
        self.counters.cache_hits += 1;
        self.clock_ns += cost::CACHE_HIT_NS;
    }

    /// Accounts one flow-cache miss: the full table walk, counted per
    /// stage and priced on the virtual clock as it runs.
    pub(crate) fn walk(
        &mut self,
        tables: &HardwareTables,
        vni: Vni,
        tuple: &FiveTuple,
    ) -> CachedAction {
        self.counters.cache_misses += 1;
        tables.walk(vni, tuple, self).into()
    }

    /// Accounts a SNAT punt the epoch's offload served on-chip (see
    /// [`snat_offloaded`]). The decision is `ToInternet`, whose digest
    /// deliberately excludes the binding — an offloaded decision compares
    /// equal to the one the software fallback would have produced, so
    /// offload placement can never change a run's decision digest.
    ///
    /// `punt_snat` stays a *classification* lane (the walk bumps it on a
    /// miss, a replay bumps it here), so `punt_snat - snat_translations`
    /// is the software-served SNAT load.
    pub(crate) fn serve_snat_offload(&mut self, from_cache: bool) -> PathDecision {
        if from_cache {
            self.counters.punt_snat += 1;
        }
        self.counters.snat_translations += 1;
        self.counters.hw_forwarded += 1;
        self.clock_ns += cost::REWRITE_NS;
        PathDecision::ToInternet
    }

    /// Counts `action` and routes what the hardware does not forward.
    /// Forwards land in `hw_forwarded` (a `ToNc` caller has already
    /// rewritten the frame and charged the rewrite). Drops and punts
    /// replayed from the cache bump the classification lane the walk
    /// bumped on the flow's first packet, so stage totals stay exact.
    /// Punts then take the ladder: the DPU middle tier first, x86
    /// admission for whatever it cannot serve.
    ///
    /// Returns the decision when one is final on the hardware tier;
    /// `None` when `token` was queued for a software tier. `flow` is
    /// only evaluated when the epoch runs a DPU tier.
    pub(crate) fn dispose(
        &mut self,
        state: &EpochState,
        action: CachedAction,
        from_cache: bool,
        frame_len: usize,
        token: T,
        flow: impl FnOnce() -> Option<(Vni, FiveTuple)>,
    ) -> Option<PathDecision> {
        let lane = match action {
            CachedAction::ToNc { .. }
            | CachedAction::ToRegion { .. }
            | CachedAction::ToIdc { .. } => {
                self.counters.hw_forwarded += 1;
                return action.decision();
            }
            CachedAction::DropAcl => &mut self.counters.acl_denied,
            CachedAction::DropLoop => &mut self.counters.loop_drops,
            CachedAction::PuntSnat => &mut self.counters.punt_snat,
            CachedAction::PuntNoRoute => &mut self.counters.punt_no_route,
            CachedAction::PuntNoVm => &mut self.counters.punt_no_vm,
        };
        if from_cache {
            *lane += 1;
        }
        if let Some(dropped) = action.decision() {
            return Some(dropped);
        }
        if self.try_spill_dpu(state, frame_len, token, flow) {
            return None;
        }
        match self.breaker.admit(self.clock_ns, frame_len) {
            Admission::Admitted => {
                self.clock_ns += cost::PUNT_HANDOFF_NS;
                self.punted.push((token, None));
                None
            }
            Admission::ShedMeter => {
                // The handoff was attempted and the meter refused.
                self.clock_ns += cost::PUNT_HANDOFF_NS;
                self.counters.punt_rate_limited += 1;
                Some(PathDecision::Drop(DropClass::PuntRateLimited))
            }
            Admission::ShedOpen => {
                // Open breaker: fail fast on-chip, no handoff cost.
                self.counters.punt_breaker_open += 1;
                Some(PathDecision::Drop(DropClass::PuntRateLimited))
            }
        }
    }

    /// Tries to place a punt on the DPU middle tier. `false` means it
    /// falls through to x86 admission: no tier is configured, the pool
    /// owns no live node for the flow, or the tier's meter/breaker shed
    /// it (a *re-route*, not a drop: the shed counters record the event
    /// and x86 still serves the packet).
    fn try_spill_dpu(
        &mut self,
        state: &EpochState,
        frame_len: usize,
        token: T,
        flow: impl FnOnce() -> Option<(Vni, FiveTuple)>,
    ) -> bool {
        let (Some(map), Some(dpu_breaker)) = (state.tier.as_deref(), self.dpu_breaker.as_mut())
        else {
            return false;
        };
        let Some((vni, tuple)) = flow() else {
            return false;
        };
        let TierDecision::SpillDpu {
            node,
            process_ns,
            rehomed,
        } = map.place(vni.value(), self.owner_hash.hash_tuple(&tuple))
        else {
            return false; // pool fully dead: degrade to x86
        };
        match dpu_breaker.admit(self.clock_ns, map.byte_cost(frame_len)) {
            Admission::Admitted => {
                self.clock_ns += cost::PUNT_HANDOFF_NS;
                self.counters.dpu_spilled += 1;
                if rehomed {
                    self.counters.dpu_rehomed += 1;
                }
                self.punted.push((token, Some((node, process_ns))));
                true
            }
            Admission::ShedMeter => {
                self.counters.dpu_shed_meter += 1;
                false
            }
            Admission::ShedOpen => {
                self.counters.dpu_breaker_open += 1;
                false
            }
        }
    }

    /// Folds one batch's hardware decision digest into the run digest
    /// and the digest of the epoch the batch had pinned.
    pub(crate) fn note_batch(&mut self, epoch: u64, batch_digest: u64) {
        self.digest = self.digest.wrapping_add(batch_digest);
        for slot in &mut self.epoch_digests {
            if slot.0 == epoch {
                slot.1 = slot.1.wrapping_add(batch_digest);
                return;
            }
        }
        self.epoch_digests.push((epoch, batch_digest));
    }
}

/// The executors' walk sink: every table interaction is counted *and*
/// priced on the worker's virtual clock.
impl<T> WalkSink for Ladder<T> {
    fn on(&mut self, event: WalkEvent) {
        self.clock_ns += cost::of(event);
        self.counters.on(event);
    }
}

/// Merges the workers of one run and serves their queued punts, in
/// worker then decision order, into the run report.
///
/// The software tiers serve punts serially after the slowest pipeline. A
/// DPU spill resolves through the *same* forwarder as an x86 punt (both
/// run the full software table set), just at the owning DPU node's
/// per-packet latency instead of the x86 cost — which is exactly why
/// tier placement can never change a run's decision digest. `packet_of`
/// recovers the owned packet from a queued token.
pub(crate) fn resolve<'a, T: 'a>(
    workers: impl Iterator<Item = &'a Ladder<T>> + Clone,
    packets: u64,
    fallback: &mut SoftwareForwarder,
    packet_of: impl Fn(&T) -> Option<GatewayPacket>,
) -> RunReport {
    let mut report = RunReport {
        packets,
        device_packets: vec![0; workers.clone().next().map_or(0, |w| w.device_packets.len())],
        ..RunReport::default()
    };
    for worker in workers.clone() {
        report.workers += 1;
        report.counters.merge(&worker.counters);
        report.decision_digest = report.decision_digest.wrapping_add(worker.digest);
        for &(epoch, digest) in &worker.epoch_digests {
            let slot = report.epoch_digests.entry(epoch).or_insert(0);
            *slot = slot.wrapping_add(digest);
        }
        report.virtual_ns = report.virtual_ns.max(worker.clock_ns);
        for (acc, d) in report.device_packets.iter_mut().zip(&worker.device_packets) {
            *acc += d;
        }
        report.breaker.merge(&worker.breaker.stats());
        if let Some(dpu) = &worker.dpu_breaker {
            report.dpu_breaker.merge(&dpu.stats());
        }
    }

    for (token, served_by) in workers.flat_map(|w| &w.punted) {
        let Some(packet) = packet_of(token) else {
            continue;
        };
        let (served, process_ns, forwarded, dropped) = match served_by {
            Some((_node, process_ns)) => (
                &mut report.dpu_packets,
                *process_ns,
                &mut report.counters.dpu_forwarded,
                &mut report.counters.dpu_dropped,
            ),
            None => (
                &mut report.fallback_packets,
                cost::X86_PROCESS_NS,
                &mut report.counters.fallback_forwarded,
                &mut report.counters.fallback_dropped,
            ),
        };
        *served += 1;
        report.virtual_ns += process_ns;
        let decision = PathDecision::from_software(&fallback.process(&packet, report.virtual_ns));
        if matches!(decision, PathDecision::Drop(_)) {
            *dropped += 1;
        } else {
            *forwarded += 1;
        }
        report.decision_digest = report.decision_digest.wrapping_add(decision.digest());
    }
    report
}
