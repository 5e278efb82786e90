//! Epoch-consistent table state for live updates.
//!
//! Control-plane installs must never tear the dataplane's view: a packet
//! that starts its walk against epoch `N` tables must finish against
//! epoch `N` tables, for *every* table it touches (directory, routes,
//! VM/NC, ECMP membership). The executor gets that guarantee RCU-style:
//!
//! - the full region table state lives in an immutable [`EpochState`]
//!   behind an [`EpochCell`];
//! - workers **pin** the current state once per batch ([`EpochCell::pin`])
//!   and walk only the pinned snapshot;
//! - installs **stage** a complete replacement state off to the side
//!   ([`EpochState::build_with_world`]) and **publish** it with a single
//!   atomic pointer swap ([`EpochCell::publish`]).
//!
//! Readers therefore observe entirely-old or entirely-new tables, never a
//! mix. Every cluster carries the epoch it was built under
//! ([`ClusterTables::epoch_tag`]); the executor cross-checks the tag
//! against the pinned epoch on every packet and counts any disagreement
//! as an `epoch_violations` torn-state event (zero in a correct build —
//! the counter exists so tests can prove it).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use sailfish_cluster::lb::{pick_owner, EcmpGroup, VniDirectory};
use sailfish_net::hash::MixMap;
use sailfish_net::rss::Toeplitz;
use sailfish_net::{FiveTuple, IpPrefix, Vni};
use sailfish_sim::topology::{VmRecord, Vpc};
use sailfish_sim::Topology;
use sailfish_tables::types::{NcAddr, RouteTarget, VmKey};
use sailfish_xgw_h::tables::HardwareTables;

use crate::cache::FlowOutcome;
use crate::counters::TableCounters;
use crate::executor::DataplaneConfig;

/// One hardware cluster inside an epoch: shared tables plus the device
/// ECMP group, stamped with the epoch they were built under.
#[derive(Debug)]
pub struct ClusterTables {
    /// The epoch this cluster's tables belong to. Always equals the
    /// owning [`EpochState::epoch`]; the executor verifies it per packet.
    pub epoch_tag: u64,
    /// The cluster's verified table set.
    pub tables: HardwareTables,
    /// ECMP group over the cluster's live devices.
    pub ecmp: EcmpGroup,
}

/// Where the upstream fabric delivers one flow inside an epoch: the
/// cluster whose tables serve it and the device ECMP attributes it to.
#[derive(Debug, Clone, Copy)]
pub struct Steer<'a> {
    /// The serving cluster.
    pub cluster: &'a ClusterTables,
    /// Flattened device slot (`cluster * devices_per_cluster + device`),
    /// or [`FlowOutcome::NO_SLOT`] when the cluster has no live device.
    pub slot: u32,
}

/// Dataplane-visible phase of a live make-before-break VNI migration.
///
/// Mirrors the pre-terminal phases of `sailfish_cluster::reshard`'s move
/// state machine: the control plane publishes one epoch per transition
/// and the packet path changes ownership only at `Commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MovePhase {
    /// Destination tables are staged and verified; traffic still flows
    /// to the source only.
    Announce,
    /// Both owners hold the tables; per-flow hashing may direct a packet
    /// to either — no black hole regardless of which one serves it.
    Dual,
    /// Directory retargeted to the destination; source tables linger so
    /// in-flight batches pinned to the prior epoch stay served.
    Commit,
    /// Source tables freed; the destination is the only owner.
    Drain,
}

/// One in-flight VNI-group migration, keyed in [`WorldView::moves`] by
/// the peer group's **anchor** VNI (min of the pair, the same grouping
/// the directory build uses). Every VNI in the group moves together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMove {
    /// Current owner the group is moving away from.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Where the make-before-break sequence currently stands.
    pub phase: MovePhase,
}

/// Which parts of the region are degraded when (re)building table state.
///
/// The chaos harness translates fault injections into a `WorldView` and
/// rebuilds the epoch from it; recovery publishes a healthy view again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldView {
    /// Devices removed from their cluster's ECMP group
    /// (`(cluster, device)`): node death or a degraded port.
    pub dead_devices: BTreeSet<(usize, usize)>,
    /// Clusters whose tables are lost (corruption detected, entries
    /// quarantined): traffic punts to x86 until reinstall.
    pub wiped_clusters: BTreeSet<usize>,
    /// Clusters withdrawn from the VNI directory entirely (cluster-wide
    /// failure): their VNIs lose hardware service and default-route to
    /// the software tier.
    pub unassigned_clusters: BTreeSet<usize>,
    /// Live migrations keyed by peer-group anchor VNI. Empty when no
    /// re-shard is in flight — the common case, and byte-identical to
    /// the pre-elasticity world.
    pub moves: BTreeMap<Vni, LiveMove>,
    /// DPU middle-tier nodes removed from the spill ring (node death):
    /// their flows re-home to ring successors; ignored when the region
    /// runs without a DPU tier.
    pub dead_dpus: BTreeSet<u16>,
    /// Whether the DPU pool is saturated: placement is unchanged but the
    /// tier's admission meter charges an inflated byte cost, shedding
    /// overload to x86 instead of queueing it.
    pub dpu_saturated: bool,
}

impl WorldView {
    /// A fully healthy region.
    pub fn healthy() -> Self {
        WorldView::default()
    }

    /// Whether any degradation is present.
    pub fn is_degraded(&self) -> bool {
        !self.dead_devices.is_empty()
            || !self.wiped_clusters.is_empty()
            || !self.unassigned_clusters.is_empty()
            || !self.dead_dpus.is_empty()
            || self.dpu_saturated
    }
}

/// A complete, immutable region table state for one epoch.
#[derive(Debug)]
pub struct EpochState {
    /// Monotonically increasing version of the table state.
    pub epoch: u64,
    /// VNI → cluster horizontal split.
    pub directory: VniDirectory,
    /// Per-cluster tables and ECMP membership.
    pub clusters: Vec<ClusterTables>,
    /// The SNAT tier's promoted hot-flow snapshot for this epoch, if
    /// the region runs a stateful SNAT service. `None` punts every SNAT
    /// packet to x86. Sealed with its own epoch tag so a rebalance can
    /// only ship inside the epoch it was computed for.
    pub snat: Option<Arc<sailfish_snat::SnatOffload>>,
    /// The DPU middle tier's placement map for this epoch, if the region
    /// runs the three-tier ladder. `None` keeps the historical binary
    /// punt (every miss degrades straight to x86). Built from the same
    /// [`WorldView`] as the tables and stamped with the same epoch so
    /// placement can never tear against the table swap.
    pub tier: Option<Arc<crate::tier::TierMap>>,
}

impl EpochState {
    /// Builds a healthy region state from a topology: VNIs are assigned
    /// to clusters so peered VPCs co-locate (their chains must resolve
    /// without leaving the cluster), routes follow their VNI's cluster,
    /// and every `hw_vm_stride`-th VM mapping is withheld from the chip.
    pub fn build(topology: &Topology, config: &DataplaneConfig, epoch: u64) -> Self {
        Self::build_with_world(topology, config, epoch, &WorldView::healthy())
    }

    /// Builds a region state under a degraded [`WorldView`]. This is the
    /// staging half of an install: the state is assembled off to the side
    /// and only becomes visible via [`EpochCell::publish`].
    ///
    /// The build is staged so that every table is built once, from one
    /// contiguous run, while it is the only thing in cache:
    ///
    /// 1. **Place** — one pass over the VPCs decides which cluster serves
    ///    each and which second cluster holds its tables during a live
    ///    move, filling the directory and a member list per cluster.
    /// 2. **Group** — the routes are bucketed by owning VPC (a stable
    ///    counting sort, so each per-VNI table receives its routes in
    ///    topology order and its ALPM carves exactly as route-by-route
    ///    insertion would); a VPC's VMs are already contiguous
    ///    ([`sailfish_sim::topology::Vpc::vm_range`]).
    /// 3. **Fill** — cluster by cluster, VPC by VPC: one
    ///    [`sailfish_xgw_h::tables::HwRoutingTable::install_vni`] per
    ///    VPC, then the cluster's whole VM run in one
    ///    [`HardwareTables::load_vms`].
    ///
    /// It never panics on a degenerate input. With no clusters, or no
    /// devices in them, nothing is placed: the directory stays empty,
    /// [`EpochState::steer`] finds no cluster and every VNI default-routes
    /// to the software tier. Devices beyond `ecmp_max` stay out of their
    /// cluster's group. A VM run the table refuses (a VM listed twice)
    /// leaves that cluster without on-chip VM mappings — its packets punt
    /// to x86, none black-holes.
    pub fn build_with_world(
        topology: &Topology,
        config: &DataplaneConfig,
        epoch: u64,
        world: &WorldView,
    ) -> Self {
        let mut directory = VniDirectory::new();
        let owners = place_vpcs(topology, config, world, &mut directory);

        // What each cluster is about to receive: its VPCs, in topology
        // order.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); config.clusters];
        for (i, owner) in owners.iter().enumerate() {
            let Some((primary, extra)) = *owner else {
                continue;
            };
            for c in std::iter::once(primary).chain(extra) {
                // An owner outside the cluster set has no tables: x86
                // serves it.
                if let Some(vpcs) = members.get_mut(c) {
                    vpcs.push(i);
                }
            }
        }
        let routes = RouteRuns::group(topology);

        // One run buffer for every cluster, with room for any of them
        // (untouched room costs nothing).
        let mut vm_run: Vec<(VmKey, NcAddr)> = Vec::with_capacity(topology.vms.len());
        let stride = config.hw_vm_stride.max(1);
        let clusters: Vec<ClusterTables> = members
            .into_iter()
            .enumerate()
            .map(|(c, vpcs)| {
                let mut ecmp = EcmpGroup::new(config.ecmp_max);
                for d in 0..config.devices_per_cluster {
                    if world.dead_devices.contains(&(c, d)) {
                        continue;
                    }
                    if ecmp.add(d).is_err() {
                        break; // the group is at its cap
                    }
                }
                let mut tables = HardwareTables::default();
                if !world.wiped_clusters.contains(&c) {
                    tables.routes.reserve_vnis(vpcs.len());
                    vm_run.clear();
                    for i in vpcs {
                        let Some(vpc) = topology.vpcs.get(i) else {
                            continue;
                        };
                        // Prefixes are canonical by type; nothing here
                        // can be refused.
                        let _ = tables.routes.install_vni(vpc.vni, routes.of(i));
                        vm_run.extend(
                            on_chip_vms(topology, vpc, stride)
                                .map(|vm| (VmKey::new(vm.vni, vm.ip), vm.nc)),
                        );
                    }
                    // A refused run (a VM listed twice) leaves the plane
                    // empty: the cluster's VM lookups miss and punt.
                    let _ = tables.load_vms(&vm_run);
                }
                ClusterTables {
                    epoch_tag: epoch,
                    tables,
                    ecmp,
                }
            })
            .collect();

        let tier = config
            .tier
            .as_ref()
            .map(|t| Arc::new(crate::tier::TierMap::build(t, epoch, world)));

        EpochState {
            epoch,
            directory,
            clusters,
            snat: None,
            tier,
        }
    }

    /// Steers one flow: VNI directory → dual-window owner pick → cluster
    /// → epoch-tag check → ECMP device. `None` means the upstream
    /// balancer has no hardware assignment for the VNI (or the directory
    /// points past the cluster set): the packet default-routes to the
    /// software tier.
    ///
    /// During a dual-ownership migration window either owner serves the
    /// VNI; flow-hash parity decides per flow — the same split the
    /// region model uses — so no flow black-holes mid-move. Packets the
    /// secondary serves are counted in `dual_owner_packets`. A cluster
    /// stamped with a different epoch than the directory that routed
    /// here is torn state: it must never happen, and `epoch_violations`
    /// lets tests prove it doesn't.
    pub fn steer(
        &self,
        owner_hash: &Toeplitz,
        vni: Vni,
        tuple: &FiveTuple,
        devices_per_cluster: usize,
        counters: &mut TableCounters,
    ) -> Option<Steer<'_>> {
        let primary = self.directory.cluster_for(vni)?;
        let idx = match self.directory.dual_of(vni) {
            Some(secondary) => {
                let owner = pick_owner(owner_hash, tuple, primary, secondary);
                if owner != primary {
                    counters.dual_owner_packets += 1;
                }
                owner
            }
            None => primary,
        };
        let cluster = self.clusters.get(idx)?;
        if cluster.epoch_tag != self.epoch {
            counters.epoch_violations += 1;
        }
        let slot = cluster
            .ecmp
            .pick(tuple)
            .map_or(FlowOutcome::NO_SLOT, |device| {
                (idx * devices_per_cluster + device) as u32
            });
        Some(Steer { cluster, slot })
    }

    /// Attaches a sealed SNAT offload snapshot to this (staged, not yet
    /// published) state. Panics if the snapshot was sealed for a
    /// different epoch — the control plane must recompute a rebalance
    /// rather than smuggle a stale promotion set forward.
    pub fn with_snat(mut self, offload: sailfish_snat::SnatOffload) -> Self {
        assert_eq!(
            offload.epoch_tag, self.epoch,
            "SNAT offload sealed for epoch {} cannot ship in epoch {}",
            offload.epoch_tag, self.epoch
        );
        self.snat = Some(Arc::new(offload));
        self
    }

    /// Attaches a sealed tier placement map to this (staged, not yet
    /// published) state. Panics on an epoch-tag mismatch, mirroring
    /// [`EpochState::with_snat`]: a placement map computed for another
    /// epoch must be rebuilt, never smuggled forward.
    pub fn with_tier(mut self, map: crate::tier::TierMap) -> Self {
        assert_eq!(
            map.epoch_tag, self.epoch,
            "tier map sealed for epoch {} cannot ship in epoch {}",
            map.epoch_tag, self.epoch
        );
        self.tier = Some(Arc::new(map));
        self
    }

    /// Whether every cluster's epoch tag — and the SNAT snapshot's and
    /// tier map's, when attached — matches the state's epoch: the
    /// torn-state self-check installs run before publishing.
    pub fn tags_consistent(&self) -> bool {
        self.clusters.iter().all(|c| c.epoch_tag == self.epoch)
            && self.snat.as_ref().is_none_or(|s| s.epoch_tag == self.epoch)
            && self.tier.as_ref().is_none_or(|t| t.epoch_tag == self.epoch)
    }
}

/// Stage one of a build: the `(primary owner, second table holder)` of
/// every VPC, `None` where the VPC has no hardware service, with the
/// directory filled to match. VNIs are assigned so peered VPCs co-locate
/// (their chains must resolve without leaving the cluster). During a
/// live move both owners carry the group's tables so either can serve a
/// flow; outside a move the pair is just `(home, None)`.
fn place_vpcs(
    topology: &Topology,
    config: &DataplaneConfig,
    world: &WorldView,
    directory: &mut VniDirectory,
) -> Vec<Option<(usize, Option<usize>)>> {
    let place = |vpc: &Vpc| {
        if config.devices_per_cluster == 0 {
            return None; // nothing could serve it
        }
        let anchor = match vpc.peer {
            Some(peer) => vpc.vni.min(peer),
            None => vpc.vni,
        };
        // No clusters, no home.
        let home = (anchor.value() as usize).checked_rem(config.clusters)?;
        let (primary, dual, extra) = match world.moves.get(&anchor) {
            Some(mv) => match mv.phase {
                MovePhase::Announce => (mv.from, None, Some(mv.to)),
                MovePhase::Dual => (mv.from, Some(mv.to), Some(mv.to)),
                MovePhase::Commit => (mv.to, None, Some(mv.from)),
                MovePhase::Drain => (mv.to, None, None),
            },
            None => (home, None, None),
        };
        if world.unassigned_clusters.contains(&primary) {
            return None; // the VNI falls back to the software tier
        }
        directory.assign(vpc.vni, primary);
        if let Some(s) = dual {
            if s != primary && !world.unassigned_clusters.contains(&s) {
                directory.begin_dual(vpc.vni, s);
            }
        }
        let extra = extra.filter(|c| *c != primary && !world.unassigned_clusters.contains(c));
        Some((primary, extra))
    };
    topology.vpcs.iter().map(place).collect()
}

/// The VM mappings of one VPC that go on-chip: every one but each
/// `stride`-th of the region's, which stays on x86.
fn on_chip_vms<'a>(
    topology: &'a Topology,
    vpc: &Vpc,
    stride: usize,
) -> impl Iterator<Item = &'a VmRecord> {
    let (start, end) = vpc.vm_range;
    let vms = topology.vms.get(start..end).unwrap_or(&[]);
    (start..)
        .zip(vms)
        .filter(move |(i, _)| i % stride != 0)
        .map(|(_, vm)| vm)
}

/// Stage two of a build: the topology's routes bucketed by owning VPC,
/// each bucket in topology order.
struct RouteRuns {
    /// `starts[v]..starts[v + 1]` is VPC `v`'s stretch of `runs`; the
    /// stretch after the last VPC's holds the routes of unknown VNIs.
    starts: Vec<usize>,
    runs: Vec<(IpPrefix, RouteTarget)>,
}

impl RouteRuns {
    fn group(topology: &Topology) -> Self {
        let unknown = topology.vpcs.len();
        let mut index: MixMap<Vni, usize> = MixMap::default();
        index.reserve(unknown);
        for (i, vpc) in topology.vpcs.iter().enumerate() {
            index.insert(vpc.vni, i);
        }
        // A VPC's routes mostly arrive back to back: remember the last
        // answer and probe the index once per stretch.
        let mut last = None;
        let vpc_of: Vec<usize> = topology
            .routes
            .iter()
            .map(|(key, _)| match last {
                Some((vni, vpc)) if vni == key.vni => vpc,
                _ => {
                    let vpc = index.get(&key.vni).copied().unwrap_or(unknown);
                    last = Some((key.vni, vpc));
                    vpc
                }
            })
            .collect();

        // Stable counting sort.
        let mut starts = vec![0usize; unknown + 2];
        for vpc in &vpc_of {
            if let Some(n) = starts.get_mut(vpc + 1) {
                *n += 1;
            }
        }
        let mut seen = 0;
        for n in &mut starts {
            seen += *n;
            *n = seen;
        }
        let mut next = starts.clone();
        let mut order = vec![0usize; vpc_of.len()];
        for (route, vpc) in vpc_of.into_iter().enumerate() {
            if let Some(n) = next.get_mut(vpc) {
                if let Some(slot) = order.get_mut(*n) {
                    *slot = route;
                }
                *n += 1;
            }
        }
        let runs = order
            .into_iter()
            .filter_map(|route| topology.routes.get(route))
            .map(|(key, target)| (key.prefix, *target))
            .collect();
        RouteRuns { starts, runs }
    }

    /// VPC `vpc`'s routes, as its routing table takes them.
    fn of(&self, vpc: usize) -> &[(IpPrefix, RouteTarget)] {
        match (self.starts.get(vpc), self.starts.get(vpc + 1)) {
            (Some(&from), Some(&to)) => self.runs.get(from..to).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// The swap point between the control plane and the packet workers.
///
/// Deterministic single-worker runs and scoped multi-worker runs share
/// the same mechanism: `pin` takes a read lock just long enough to clone
/// the `Arc`, `publish` takes the write lock just long enough to replace
/// it. A pinned snapshot stays alive (and entirely consistent) for as
/// long as any batch still holds the `Arc`, even after newer epochs
/// publish — classic RCU grace-period behavior without unsafe code.
#[derive(Debug)]
pub struct EpochCell {
    current: RwLock<Arc<EpochState>>,
    swaps: AtomicU64,
}

impl EpochCell {
    /// Creates the cell with its initial state.
    pub fn new(state: EpochState) -> Self {
        EpochCell {
            current: RwLock::new(Arc::new(state)),
            swaps: AtomicU64::new(0),
        }
    }

    /// Pins the current epoch state. Callers hold the returned `Arc` for
    /// the duration of a batch so every packet in it sees one epoch.
    pub fn pin(&self) -> Arc<EpochState> {
        Arc::clone(&self.current.read().expect("epoch lock poisoned"))
    }

    /// Atomically publishes a staged state, returning its epoch.
    ///
    /// Panics if the staged epoch does not advance past the published one
    /// or the staged state is internally torn — both are control-plane
    /// bugs that must never reach the workers.
    pub fn publish(&self, state: EpochState) -> u64 {
        assert!(state.tags_consistent(), "staged state has torn epoch tags");
        let epoch = state.epoch;
        let staged = Arc::new(state);
        let retired = {
            let mut cur = self.current.write().expect("epoch lock poisoned");
            assert!(
                epoch > cur.epoch,
                "epoch must advance: staged {epoch} vs published {}",
                cur.epoch
            );
            std::mem::replace(&mut *cur, staged)
        };
        self.swaps.fetch_add(1, Ordering::Relaxed);
        // With no batch still pinning it this is the last reference, and
        // freeing a region's tables takes tens of milliseconds: that must
        // happen after the guard is gone, or every `pin` waits for it.
        drop(retired);
        epoch
    }

    /// How many publishes have happened.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::TopologyConfig;

    fn topology() -> Topology {
        Topology::generate(TopologyConfig::default())
    }

    #[test]
    fn healthy_build_tags_every_cluster() {
        let state = EpochState::build(&topology(), &DataplaneConfig::default(), 3);
        assert_eq!(state.epoch, 3);
        assert!(state.tags_consistent());
        assert_eq!(state.clusters.len(), DataplaneConfig::default().clusters);
    }

    /// The directory and the per-VNI index hash with a fixed key, and a
    /// digest plane's slot order is a function of its key set, so two
    /// builds of one topology are the same tables in the same iteration
    /// order (`Debug` prints a map in that order) — something the
    /// per-map random SipHash keys never gave.
    #[test]
    fn two_builds_of_one_topology_iterate_alike() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let a = EpochState::build(&topo, &config, 1);
        let b = EpochState::build(&topo, &config, 1);
        assert_eq!(format!("{:?}", a.directory), format!("{:?}", b.directory));
        for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
            assert!(!ca.tables.routes.is_empty() && !ca.tables.vm_nc.is_empty());
            assert_eq!(
                format!("{:?}", ca.tables.routes),
                format!("{:?}", cb.tables.routes)
            );
            assert!(ca.tables.vm_nc.iter().eq(cb.tables.vm_nc.iter()));
        }
    }

    #[test]
    fn publish_swaps_and_enforces_monotonic_epochs() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let cell = EpochCell::new(EpochState::build(&topo, &config, 0));
        assert_eq!(cell.pin().epoch, 0);
        assert_eq!(cell.swaps(), 0);
        let pinned = cell.pin();
        cell.publish(EpochState::build(&topo, &config, 1));
        // The old pin stays alive and untouched after the swap.
        assert_eq!(pinned.epoch, 0);
        assert_eq!(cell.pin().epoch, 1);
        assert_eq!(cell.swaps(), 1);
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn publish_rejects_stale_epochs() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let cell = EpochCell::new(EpochState::build(&topo, &config, 5));
        cell.publish(EpochState::build(&topo, &config, 5));
    }

    #[test]
    fn live_moves_dual_own_tables_and_retarget_at_commit() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let healthy = EpochState::build(&topo, &config, 0);

        // Pick a peer group that actually owns routes so the table
        // movement is observable.
        let routed_vni = topo
            .routes
            .iter()
            .map(|(k, _)| k.vni)
            .next()
            .expect("default topology has routes");
        let vpc = topo
            .vpcs
            .iter()
            .find(|v| v.vni == routed_vni)
            .expect("routed VNI has a VPC");
        let anchor = match vpc.peer {
            Some(peer) => vpc.vni.min(peer),
            None => vpc.vni,
        };
        let from = anchor.value() as usize % config.clusters;
        let to = (from + 1) % config.clusters;
        let group: Vec<Vni> = topo
            .vpcs
            .iter()
            .filter(|v| {
                let a = match v.peer {
                    Some(peer) => v.vni.min(peer),
                    None => v.vni,
                };
                a == anchor
            })
            .map(|v| v.vni)
            .collect();
        let moved_routes = topo
            .routes
            .iter()
            .filter(|(k, _)| group.contains(&k.vni))
            .count();
        assert!(moved_routes > 0);
        let healthy_from = healthy.clusters.get(from).unwrap().tables.routes.len();
        let healthy_to = healthy.clusters.get(to).unwrap().tables.routes.len();

        let staged = |phase: MovePhase, epoch: u64| {
            let mut world = WorldView::healthy();
            world.moves.insert(anchor, LiveMove { from, to, phase });
            EpochState::build_with_world(&topo, &config, epoch, &world)
        };

        // Announce: traffic stays on the source; destination pre-staged.
        let announce = staged(MovePhase::Announce, 1);
        for vni in &group {
            assert_eq!(announce.directory.cluster_for(*vni), Some(from));
            assert_eq!(announce.directory.dual_of(*vni), None);
        }
        let a_to = announce.clusters.get(to).unwrap().tables.routes.len();
        assert_eq!(a_to, healthy_to + moved_routes);
        let a_from = announce.clusters.get(from).unwrap().tables.routes.len();
        assert_eq!(a_from, healthy_from);

        // Dual: either owner may serve; both hold the tables.
        let dual = staged(MovePhase::Dual, 2);
        for vni in &group {
            assert_eq!(dual.directory.cluster_for(*vni), Some(from));
            assert_eq!(dual.directory.dual_of(*vni), Some(to));
        }
        assert_eq!(
            dual.clusters.get(to).unwrap().tables.routes.len(),
            healthy_to + moved_routes
        );

        // Commit: directory retargets; source tables linger for pinned
        // batches on the prior epoch.
        let commit = staged(MovePhase::Commit, 3);
        for vni in &group {
            assert_eq!(commit.directory.cluster_for(*vni), Some(to));
            assert_eq!(commit.directory.dual_of(*vni), None);
        }
        assert_eq!(
            commit.clusters.get(from).unwrap().tables.routes.len(),
            healthy_from
        );

        // Drain: the source frees the group's entries.
        let drain = staged(MovePhase::Drain, 4);
        for vni in &group {
            assert_eq!(drain.directory.cluster_for(*vni), Some(to));
        }
        assert_eq!(
            drain.clusters.get(from).unwrap().tables.routes.len(),
            healthy_from - moved_routes
        );
        assert_eq!(
            drain.clusters.get(to).unwrap().tables.routes.len(),
            healthy_to + moved_routes
        );
        assert!(drain.tags_consistent());
    }

    #[test]
    fn tier_map_builds_with_the_epoch_and_checks_tags() {
        let topo = topology();
        let config = DataplaneConfig {
            tier: Some(crate::tier::TierConfig::default()),
            ..DataplaneConfig::default()
        };
        let mut world = WorldView::healthy();
        world.dead_dpus.insert(1);
        world.dpu_saturated = true;
        assert!(world.is_degraded());
        let state = EpochState::build_with_world(&topo, &config, 7, &world);
        let tier = state.tier.as_ref().expect("tier configured");
        assert_eq!(tier.epoch_tag, 7);
        assert!(tier.saturated);
        assert_eq!(tier.pool.dead(), &BTreeSet::from([1u16]));
        assert!(state.tags_consistent());
    }

    #[test]
    #[should_panic(expected = "tier map sealed for epoch")]
    fn with_tier_rejects_a_stale_map() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let state = EpochState::build(&topo, &config, 2);
        let stale = crate::tier::TierMap::build(
            &crate::tier::TierConfig::default(),
            1,
            &WorldView::healthy(),
        );
        let _ = state.with_tier(stale);
    }

    #[test]
    fn degraded_world_removes_devices_and_tables() {
        let topo = topology();
        let config = DataplaneConfig::default();
        let mut world = WorldView::healthy();
        assert!(!world.is_degraded());
        world.dead_devices.insert((0, 1));
        world.wiped_clusters.insert(1);
        world.unassigned_clusters.insert(2);
        assert!(world.is_degraded());

        let healthy = EpochState::build(&topo, &config, 0);
        let degraded = EpochState::build_with_world(&topo, &config, 1, &world);
        let h0 = healthy.clusters.first().unwrap();
        let d0 = degraded.clusters.first().unwrap();
        assert_eq!(d0.ecmp.len(), h0.ecmp.len() - 1);
        let d1 = degraded.clusters.get(1).unwrap();
        assert_eq!(d1.tables.routes.len(), 0);
        // Withdrawn cluster: no VNI maps to it any more.
        let snapshot = degraded.directory.snapshot();
        assert!(snapshot.iter().all(|(_, c)| *c != 2));
        // Healthy directory does use cluster 2.
        assert!(healthy.directory.snapshot().iter().any(|(_, c)| *c == 2));
    }
}
