//! The central controller.
//!
//! Responsibilities (§4.3, §6.1):
//!
//! - **Split planning** — horizontal table splitting by VNI: "each XGW-H
//!   stores all the forwarding tables but only a portion of entries from
//!   each table ... we only need to insert new table entries into one
//!   cluster or allocate a new cluster if the original cluster is out of
//!   memory",
//! - **Installation** — building each cluster's table image from the
//!   VPCs the plan gives it and pushing it to the cluster's devices, all
//!   of which then share it, and pointing every XGW-x86 fallback node at
//!   one full-region image ([`crate::cluster::software_image`]),
//! - **Consistency checking** — "table entry inconsistency between the
//!   controller and the gateways may occur during table population ...
//!   periodic consistency checks are needed",
//! - **Update timeline** — the Fig 23 model: slow regular growth plus
//!   sudden announced batches from top customers.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

use sailfish_net::hash::MixMap;
use sailfish_net::Vni;
use sailfish_sim::faults::{InstallFault, VirtualClock};
use sailfish_sim::metrics::Series;
use sailfish_sim::topology::{Topology, Vpc};
use sailfish_xgw_h::HardwareTables;

use crate::cluster::{software_image, HwCluster, ImageBuilder, SwCluster};
use crate::lb::VniDirectory;

/// Per-cluster capacity limits (entries a single XGW-H can hold after the
/// §4.4 compression).
#[derive(Debug, Clone, Copy)]
pub struct ClusterCapacity {
    /// Maximum route entries.
    pub max_routes: usize,
    /// Maximum VM mappings.
    pub max_vms: usize,
}

impl Default for ClusterCapacity {
    fn default() -> Self {
        // The DESIGN.md §3 calibration: one XGW-H comfortably holds ~229k
        // routes and ~459k VMs with headroom (Table 4 shows ~69%/32%).
        ClusterCapacity {
            max_routes: 240_000,
            max_vms: 480_000,
        }
    }
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// One VNI alone exceeds a cluster's capacity — "the VPC is the
    /// smallest split granularity, however, some VPCs (e.g., top
    /// customers) contain millions of entries that challenge the capacity
    /// of a single cluster" (§4.4).
    VniTooLarge {
        /// The offending VPC.
        vni: Vni,
    },
    /// More clusters would be needed than allowed.
    NotEnoughClusters {
        /// Clusters required by the plan.
        needed: usize,
        /// Clusters available.
        available: usize,
    },
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::VniTooLarge { vni } => {
                write!(f, "{vni} exceeds single-cluster capacity")
            }
            PlanError::NotEnoughClusters { needed, available } => {
                write!(
                    f,
                    "plan needs {needed} clusters, only {available} available"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Load assigned to one cluster by a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterLoad {
    /// Route entries.
    pub routes: usize,
    /// VM mappings.
    pub vms: usize,
}

/// A VNI→cluster assignment: what every table build places by.
#[derive(Debug, Clone)]
pub struct SplitPlan {
    /// Assignment of each VNI.
    pub assignments: MixMap<Vni, usize>,
    /// Load per cluster ([`SplitPlan::by_anchor`] leaves it at zero).
    pub per_cluster: Vec<ClusterLoad>,
}

impl SplitPlan {
    /// Number of clusters the plan uses.
    pub fn clusters_needed(&self) -> usize {
        self.per_cluster.len()
    }

    /// The packet path's fixed placement: every VPC on cluster
    /// `peer_anchor(vpc) % clusters`, so peered VPCs co-locate (their
    /// chains must resolve without leaving the cluster). With no clusters
    /// nothing is placed. It places without packing, so it leaves the
    /// per-cluster loads at zero: one pass over the VPCs, since every
    /// epoch build runs it.
    pub fn by_anchor(topology: &Topology, clusters: usize) -> Self {
        let mut assignments = MixMap::default();
        assignments.reserve(topology.vpcs.len());
        for vpc in &topology.vpcs {
            if let Some(home) = (peer_anchor(vpc).value() as usize).checked_rem(clusters) {
                assignments.insert(vpc.vni, home);
            }
        }
        SplitPlan {
            assignments,
            per_cluster: vec![ClusterLoad::default(); clusters],
        }
    }

    /// The VPCs (indices into [`Topology::vpcs`], ascending) the plan
    /// puts on each of its clusters.
    pub fn members(&self, topology: &Topology) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.clusters_needed()];
        for (i, vpc) in topology.vpcs.iter().enumerate() {
            if let Some(vpcs) = self
                .assignments
                .get(&vpc.vni)
                .and_then(|c| members.get_mut(*c))
            {
                vpcs.push(i);
            }
        }
        members
    }
}

/// A VPC's peer-group anchor: the smaller VNI of it and its peer.
pub fn peer_anchor(vpc: &Vpc) -> Vni {
    vpc.peer.map_or(vpc.vni, |peer| vpc.vni.min(peer))
}

/// Per-VNI `(routes, vms)` weights of a topology, sorted by VNI.
pub(crate) fn vni_weights(topology: &Topology) -> BTreeMap<Vni, (usize, usize)> {
    let mut w: BTreeMap<Vni, (usize, usize)> = BTreeMap::new();
    for (key, _) in &topology.routes {
        w.entry(key.vni).or_default().0 += 1;
    }
    for vm in &topology.vms {
        w.entry(vm.vni).or_default().1 += 1;
    }
    w
}

/// Maps every VNI to its peer-group leader: peered VPCs are planned and
/// moved as one indivisible group. Peerings are mutual pairs, so the
/// leader is each VPC's [`peer_anchor`].
pub(crate) fn peer_leaders(topology: &Topology) -> HashMap<Vni, Vni> {
    let mut leader: HashMap<Vni, Vni> = HashMap::new();
    for vpc in &topology.vpcs {
        let min = peer_anchor(vpc);
        for m in core::iter::once(vpc.vni).chain(vpc.peer) {
            let entry = leader.entry(m).or_insert(min);
            *entry = (*entry).min(min);
        }
    }
    leader
}

/// Bounded-retry policy for two-phase installs. All timing is virtual —
/// the controller advances a [`VirtualClock`] instead of sleeping, so
/// recovery time is measurable and runs are deterministic.
#[derive(Debug, Clone, Copy)]
pub struct InstallPolicy {
    /// Attempts per cluster/device push before giving up.
    pub max_attempts: u32,
    /// Backoff after the `k`-th failed attempt is
    /// `base_backoff_ns << k` (exponential, deterministic).
    pub base_backoff_ns: u64,
    /// Virtual cost of a push that times out.
    pub timeout_ns: u64,
    /// Virtual cost of applying one table entry.
    pub push_ns_per_entry: u64,
}

impl Default for InstallPolicy {
    fn default() -> Self {
        InstallPolicy {
            max_attempts: 6,
            base_backoff_ns: 50_000_000, // 50 ms
            timeout_ns: 200_000_000,     // 200 ms
            push_ns_per_entry: 2_000,    // 2 µs per gRPC'd entry
        }
    }
}

impl InstallPolicy {
    /// Deterministic exponential backoff after failed attempt `attempt`.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        self.base_backoff_ns.saturating_mul(1u64 << attempt.min(16))
    }
}

/// Why a two-phase install failed for good.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallError {
    /// A device rejected an entry (capacity, table fault). Nothing from
    /// the failing cluster is left behind.
    Table {
        /// The cluster being pushed; `usize::MAX` is the XGW-x86 fleet.
        cluster: usize,
        /// The underlying table error.
        error: sailfish_tables::Error,
    },
    /// Every attempt hit an injected/observed fault; the push was rolled
    /// back and the cluster's VNIs stay unassigned (traffic degrades to
    /// the XGW-x86 fallback instead of black-holing).
    RetriesExhausted {
        /// The cluster being pushed.
        cluster: usize,
        /// Attempts made.
        attempts: u32,
        /// The fault seen on the final attempt.
        last_fault: InstallFault,
    },
    /// The static analyzer rejected the staged load before anything was
    /// pushed: the cluster's devices could not legally hold it, so the
    /// install is refused up front instead of failing half-way through
    /// a hardware push.
    LayoutRejected {
        /// The cluster whose staged load is illegal.
        cluster: usize,
        /// The analyzer's error diagnostics, one per line.
        detail: String,
    },
    /// The install was handed fewer physical clusters than the plan
    /// uses. Nothing was staged or pushed.
    TooFewClusters {
        /// Clusters the plan uses.
        needed: usize,
        /// Clusters handed to the install.
        available: usize,
    },
    /// The plan-time *world* verifier rejected the install as a whole:
    /// the staged world leaves a VNI uncovered, diverges directory from
    /// placement, or overloads a cluster (`SF-E007`+ codes). Nothing was
    /// staged or pushed.
    WorldRejected {
        /// The world verifier's error diagnostics, `; `-joined.
        detail: String,
    },
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstallError::Table { cluster, error } => {
                write!(f, "cluster {cluster}: table error: {error}")
            }
            InstallError::RetriesExhausted {
                cluster,
                attempts,
                last_fault,
            } => write!(
                f,
                "cluster {cluster}: install gave up after {attempts} attempts \
                 (last fault {last_fault:?})"
            ),
            InstallError::LayoutRejected { cluster, detail } => {
                write!(
                    f,
                    "cluster {cluster}: staged load rejected by verify: {detail}"
                )
            }
            InstallError::TooFewClusters { needed, available } => {
                write!(f, "plan needs {needed} clusters, only {available} given")
            }
            InstallError::WorldRejected { detail } => {
                write!(f, "staged world rejected by verify: {detail}")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// What a (two-phase) install did: attempts, rollbacks and virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Clusters (or devices, for a device reinstall) committed.
    pub committed: usize,
    /// Total push attempts.
    pub attempts: u32,
    /// Attempts that failed and were retried.
    pub retries: u32,
    /// Entries applied and then removed by rollbacks.
    pub rolled_back_entries: usize,
    /// Virtual time consumed.
    pub virtual_ns: u64,
}

impl InstallReport {
    /// Adds another push's counts and virtual time to this report.
    pub(crate) fn absorb(&mut self, other: &InstallReport) {
        self.committed += other.committed;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.rolled_back_entries += other.rolled_back_entries;
        self.virtual_ns += other.virtual_ns;
    }
}

/// Decides whether a push attempt faults. Called once per `(target,
/// attempt)`; returning `None` lets the attempt through. Deterministic
/// injectors (the chaos harness uses schedule-driven ones) keep whole
/// runs replayable.
pub type InstallInjector<'a> = dyn FnMut(usize, u32) -> Option<InstallFault> + 'a;

/// One image on its way to some device slots of one physical cluster,
/// with the entries the push carries.
pub(crate) struct Push<'a> {
    /// The physical cluster (primaries first, then backups).
    pub cluster: usize,
    /// The device slots that receive the image.
    pub slots: Range<usize>,
    /// The image, built off to the side.
    pub image: &'a Arc<HardwareTables>,
    /// Route entries the push carries.
    pub routes: usize,
    /// VM mappings the push carries.
    pub vms: usize,
}

impl<'a> Push<'a> {
    /// A push of every entry of `image`.
    pub(crate) fn whole(
        cluster: usize,
        slots: Range<usize>,
        image: &'a Arc<HardwareTables>,
    ) -> Self {
        Push {
            cluster,
            slots,
            image,
            routes: image.routes.len(),
            vms: image.vm_nc.len(),
        }
    }

    /// Push → consistency-check → commit, with bounded retry: a push
    /// that times out costs `timeout_ns`; one that lands a fraction `f`
    /// costs `⌊routes·f⌋ + ⌊vms·f⌋` entries and commits only if that is
    /// the whole push; a clean one costs every entry. Only a push that
    /// lands whole re-points the slots, so a failed attempt leaves the
    /// old image in place, and the retry backs off exponentially in
    /// virtual time. Gives up after `max_attempts`.
    pub(crate) fn run(
        self,
        hw: &mut HwCluster,
        clock: &mut VirtualClock,
        policy: &InstallPolicy,
        injector: &mut InstallInjector<'_>,
    ) -> Result<InstallReport, InstallError> {
        let mut report = InstallReport::default();
        let start_ns = clock.now_ns();
        let mut attempt = 0u32;
        loop {
            report.attempts += 1;
            let landed = match injector(self.cluster, attempt) {
                Some(InstallFault::Timeout) => {
                    // Nothing reached the devices.
                    clock.advance(policy.timeout_ns);
                    (0, 0)
                }
                Some(InstallFault::Partial { fraction }) => (
                    ((self.routes as f64) * fraction) as usize,
                    ((self.vms as f64) * fraction) as usize,
                ),
                None => (self.routes, self.vms),
            };
            let entries = landed.0 + landed.1;
            clock.advance(policy.push_ns_per_entry * entries as u64);
            if landed == (self.routes, self.vms) {
                hw.devices[self.slots.clone()].fill(Arc::clone(self.image));
            }
            if Controller::verify(hw, self.slots.clone(), self.image) {
                report.committed += 1;
                break;
            }
            // A prefix landed and the push died. The slots never left
            // their old image, so no device serves half a push; the
            // landed prefix counts as rolled back.
            report.rolled_back_entries += entries;
            report.retries += 1;
            attempt += 1;
            if attempt >= policy.max_attempts {
                return Err(InstallError::RetriesExhausted {
                    cluster: self.cluster,
                    attempts: attempt,
                    last_fault: injector(self.cluster, attempt).unwrap_or(InstallFault::Timeout),
                });
            }
            clock.advance(policy.backoff_ns(attempt - 1));
        }
        report.virtual_ns = clock.now_ns() - start_ns;
        Ok(report)
    }
}

/// An inconsistency found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// The cluster where it was found.
    pub cluster: usize,
    /// The device within the cluster.
    pub device: usize,
    /// The affected VNI.
    pub vni: Vni,
    /// Entries the controller believes are installed.
    pub expected: usize,
    /// Entries actually present.
    pub actual: usize,
}

/// The central controller.
#[derive(Debug, Default)]
pub struct Controller {
    /// Intended per-VNI route counts, recorded at install time.
    intent: HashMap<Vni, usize>,
}

impl Controller {
    /// Creates a controller with no recorded intent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans the horizontal split: first-fit decreasing over per-VNI
    /// entry weights, opening new clusters as needed (up to
    /// `max_clusters`).
    ///
    /// Peered VPCs are planned as one indivisible group: a packet for
    /// VNI A resolving to peer VNI B completes both lookups on the same
    /// device, so the controller must co-locate peers (otherwise
    /// cross-VPC traffic would fall back to software).
    pub fn plan_split(
        topology: &Topology,
        capacity: ClusterCapacity,
        max_clusters: usize,
    ) -> Result<SplitPlan, PlanError> {
        // Group peered VPCs: every VNI maps to a canonical group leader.
        let leader = peer_leaders(topology);

        // leader -> (member VNIs, route weight, VM weight).
        type Group = (Vec<Vni>, usize, usize);
        let mut groups: HashMap<Vni, Group> = HashMap::new();
        for (vni, (routes, vms)) in vni_weights(topology) {
            let g = groups
                .entry(leader.get(&vni).copied().unwrap_or(vni))
                .or_default();
            g.0.push(vni);
            g.1 += routes;
            g.2 += vms;
        }
        let mut ordered: Vec<(Vni, Group)> = groups.into_iter().collect();
        // Decreasing by dominant load dimension; ties by leader for
        // determinism.
        ordered.sort_by_key(|(lead, (_, r, v))| (core::cmp::Reverse(r + v), *lead));

        let mut per_cluster: Vec<ClusterLoad> = Vec::new();
        let mut assignments = MixMap::default();
        for (lead, (members, routes, vms)) in ordered {
            if routes > capacity.max_routes || vms > capacity.max_vms {
                return Err(PlanError::VniTooLarge { vni: lead });
            }
            let slot = per_cluster.iter().position(|load| {
                load.routes + routes <= capacity.max_routes && load.vms + vms <= capacity.max_vms
            });
            let idx = match slot {
                Some(idx) => idx,
                None => {
                    per_cluster.push(ClusterLoad::default());
                    per_cluster.len() - 1
                }
            };
            per_cluster[idx].routes += routes;
            per_cluster[idx].vms += vms;
            for vni in members {
                assignments.insert(vni, idx);
            }
        }
        if per_cluster.len() > max_clusters {
            return Err(PlanError::NotEnoughClusters {
                needed: per_cluster.len(),
                available: max_clusters,
            });
        }
        Ok(SplitPlan {
            assignments,
            per_cluster,
        })
    }

    /// Static pre-push verification of one cluster's load: runs the
    /// `sailfish_asic::verify` analyzer over the production layout the
    /// cluster's devices would carry at `routes` and `vms` entries. An
    /// error-level diagnostic refuses the push before any device is
    /// touched; warnings are allowed through (they describe headroom,
    /// not legality).
    pub(crate) fn verify_load(
        cluster: usize,
        routes: usize,
        vms: usize,
    ) -> Result<(), InstallError> {
        let config = sailfish_asic::TofinoConfig::tofino_64t();
        let report =
            sailfish_xgw_h::layout::verify_device_load(&config, routes, vms).map_err(|e| {
                InstallError::LayoutRejected {
                    cluster,
                    detail: e.to_string(),
                }
            })?;
        if report.is_clean() {
            return Ok(());
        }
        let detail = report
            .errors()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        Err(InstallError::LayoutRejected { cluster, detail })
    }

    /// The consistency-check phase of one push: every target slot holds
    /// the pushed image — the same image, not merely one with the same
    /// counts.
    fn verify(hw: &HwCluster, slots: Range<usize>, image: &Arc<HardwareTables>) -> bool {
        hw.devices[slots].iter().all(|d| Arc::ptr_eq(d, image))
    }

    /// Installs a planned topology: per-VNI state to its hardware cluster,
    /// the full state to the software cluster, and the VNI directory for
    /// the load balancer. Records intent for later consistency checks.
    ///
    /// Fault-free convenience wrapper over [`Controller::install_with`].
    pub fn install(
        &mut self,
        topology: &Topology,
        plan: &SplitPlan,
        hw: &mut [HwCluster],
        sw: &mut SwCluster,
        directory: &mut VniDirectory,
    ) -> Result<InstallReport, InstallError> {
        let mut clock = VirtualClock::new();
        self.install_with(
            topology,
            plan,
            hw,
            sw,
            directory,
            &mut clock,
            &InstallPolicy::default(),
            &mut |_, _| None,
        )
    }

    /// Two-phase installation (§6.1 hardening): **stage** every cluster's
    /// image off to the side, point the XGW-x86 safety net's nodes at
    /// one full-region image first, then per cluster push →
    /// **consistency-check** → **commit**. A push that times out or lands
    /// partially leaves the devices on their old image and is retried
    /// with deterministic exponential backoff in virtual time; only a
    /// push whose verification passes commits (intent recorded, directory
    /// cut over). On [`InstallError::RetriesExhausted`] the failing
    /// cluster is left clean and *unassigned*, so its traffic degrades to
    /// the rate-limited fallback path instead of black-holing against
    /// half-installed tables.
    #[allow(clippy::too_many_arguments)]
    pub fn install_with(
        &mut self,
        topology: &Topology,
        plan: &SplitPlan,
        hw: &mut [HwCluster],
        sw: &mut SwCluster,
        directory: &mut VniDirectory,
        clock: &mut VirtualClock,
        policy: &InstallPolicy,
        injector: &mut InstallInjector<'_>,
    ) -> Result<InstallReport, InstallError> {
        if hw.len() < plan.clusters_needed() {
            return Err(InstallError::TooFewClusters {
                needed: plan.clusters_needed(),
                available: hw.len(),
            });
        }
        // Plan-time world gate: prove ownership totality, directory
        // bijectivity and per-cluster capacity over the whole staged
        // world before anything is staged — a plan that strands a VNI is
        // a typed refusal here, not a panic or a half-pushed region.
        let world = crate::worldcheck::verify_staged_world(topology, plan, "install");
        if !world.is_clean() {
            return Err(InstallError::WorldRejected {
                detail: world.error_detail(),
            });
        }
        // The stage phase: every cluster's image, built off to the side
        // from the VPCs the plan gives it.
        let mut builder = ImageBuilder::new(topology, 0);
        let members = plan.members(topology);
        let images: Vec<Arc<HardwareTables>> = members
            .iter()
            .zip(hw.iter())
            .map(|(vpcs, cluster)| Arc::new(builder.build(vpcs, cluster.alpm)))
            .collect();

        // Static verification of every staged load before anything moves:
        // an illegal layout is a typed, explainable refusal, not a
        // half-pushed cluster.
        for (cluster, image) in images.iter().enumerate() {
            Self::verify_load(cluster, image.routes.len(), image.vm_nc.len())?;
        }

        // The fallback cluster holds the full region state and is the
        // graceful-degradation target, so it is pointed at its image
        // before any hardware cutover.
        let x86 = software_image(topology).map_err(|error| InstallError::Table {
            cluster: usize::MAX,
            error,
        })?;
        sw.point_all(&Arc::new(x86));

        let mut vnis: Vec<Vec<Vni>> = vec![Vec::new(); images.len()];
        for (vni, cluster) in &plan.assignments {
            if let Some(vnis) = vnis.get_mut(*cluster) {
                vnis.push(*vni);
            }
        }
        let mut report = InstallReport::default();
        for (cluster, (image, mut vnis)) in images.iter().zip(vnis).enumerate() {
            let pushed = Push::whole(cluster, 0..hw[cluster].devices.len(), image).run(
                &mut hw[cluster],
                clock,
                policy,
                injector,
            )?;
            report.absorb(&pushed);
            // Commit: record intent, cut the directory over.
            for vni in image.routes.vnis() {
                *self.intent.entry(vni).or_default() += image.routes.len_for_vni(vni);
            }
            vnis.sort();
            for vni in vnis {
                directory.assign(vni, cluster);
            }
        }
        report.virtual_ns = clock.now_ns();
        Ok(report)
    }

    /// Rebuilds one device's tables from the controller's plan through
    /// the same two-phase push: wipe, then push an image built from the
    /// plan, with bounded retry; a failed attempt leaves the device
    /// wiped. This is the repair path after table corruption and the
    /// maintenance path for firmware-style reinstalls; callers take the
    /// device out of the ECMP group first and re-admit it through the
    /// probe gate.
    ///
    /// `cluster` is the physical cluster index (primaries first, then
    /// backups); `plan_cluster` names the plan entry whose state the
    /// device must hold (for a backup, its primary's index).
    #[allow(clippy::too_many_arguments)]
    pub fn reinstall_device(
        &self,
        topology: &Topology,
        plan: &SplitPlan,
        hw: &mut [HwCluster],
        cluster: usize,
        plan_cluster: usize,
        device: usize,
        clock: &mut VirtualClock,
        policy: &InstallPolicy,
        injector: &mut InstallInjector<'_>,
    ) -> Result<InstallReport, InstallError> {
        let Some(vpcs) = plan.members(topology).into_iter().nth(plan_cluster) else {
            return Err(InstallError::LayoutRejected {
                cluster,
                detail: format!(
                    "plan has no cluster {plan_cluster} ({} planned)",
                    plan.clusters_needed()
                ),
            });
        };
        let available = hw.len();
        let Some(target) = hw.get_mut(cluster) else {
            return Err(InstallError::TooFewClusters {
                needed: cluster + 1,
                available,
            });
        };
        let image = Arc::new(ImageBuilder::new(topology, 0).build(&vpcs, target.alpm));
        // Same static gate as a full install: never wipe a live device
        // for a load its pipeline cannot legally hold.
        Self::verify_load(cluster, image.routes.len(), image.vm_nc.len())?;
        target.wipe_device(device);
        Push::whole(cluster, device..device + 1, &image).run(target, clock, policy, injector)
    }

    /// Periodic consistency check: compares recorded intent against every
    /// device's actual per-VNI route counts.
    pub fn check_consistency(&self, plan: &SplitPlan, hw: &[HwCluster]) -> Vec<Inconsistency> {
        let mut findings = Vec::new();
        for (vni, expected) in &self.intent {
            let cluster = plan.assignments[vni];
            for (device, _) in hw[cluster].devices.iter().enumerate() {
                let actual = hw[cluster].route_entries_for(device, *vni);
                if actual != *expected {
                    findings.push(Inconsistency {
                        cluster,
                        device,
                        vni: *vni,
                        expected: *expected,
                        actual,
                    });
                }
            }
        }
        findings.sort_by_key(|f| (f.cluster, f.device, f.vni));
        findings
    }

    /// The Fig 23 update-timeline model: per-cluster VXLAN-table entry
    /// counts over `days`, with slow linear growth and rare, large,
    /// pre-announced batches ("sudden increases are mainly ascribed to the
    /// arrival of top customers").
    pub fn update_timeline(
        seed: u64,
        clusters: usize,
        days: usize,
        samples_per_day: usize,
        base_entries: usize,
    ) -> Vec<Series> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(clusters);
        for c in 0..clusters {
            let mut series = Series::new(format!("cluster-{c}"));
            let mut entries = base_entries as f64 * rng.gen_range(0.6..1.1);
            // Regular growth: a fraction of a percent per day.
            let daily_growth = entries * rng.gen_range(0.001..0.004);
            // 1–3 sudden batches in the window.
            let batches: Vec<(usize, f64)> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    (
                        rng.gen_range(0..days * samples_per_day),
                        entries * rng.gen_range(0.05..0.25),
                    )
                })
                .collect();
            for step in 0..days * samples_per_day {
                entries += daily_growth / samples_per_day as f64;
                for (at, size) in &batches {
                    if step == *at {
                        entries += size;
                    }
                }
                series.push(step as f64 / samples_per_day as f64, entries);
            }
            out.push(series);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::topology::TopologyConfig;

    fn small_topology() -> Topology {
        Topology::generate(TopologyConfig::default())
    }

    #[test]
    fn plan_respects_capacity() {
        let t = small_topology();
        let cap = ClusterCapacity {
            max_routes: 400,
            max_vms: 2_000,
        };
        let plan = Controller::plan_split(&t, cap, 64).unwrap();
        assert!(plan.clusters_needed() > 1, "should need several clusters");
        for load in &plan.per_cluster {
            assert!(load.routes <= cap.max_routes);
            assert!(load.vms <= cap.max_vms);
        }
        // Every VNI with state is assigned.
        for (key, _) in &t.routes {
            assert!(plan.assignments.contains_key(&key.vni));
        }
        // Loads add up.
        let total_routes: usize = plan.per_cluster.iter().map(|l| l.routes).sum();
        assert_eq!(total_routes, t.routes.len());
    }

    #[test]
    fn plan_rejects_oversized_vni() {
        let t = small_topology();
        let top = t.top_customer();
        let top_vms = top.vm_range.1 - top.vm_range.0;
        let cap = ClusterCapacity {
            max_routes: 10_000,
            max_vms: top_vms - 1,
        };
        match Controller::plan_split(&t, cap, 1024) {
            Err(PlanError::VniTooLarge { vni }) => assert_eq!(vni, top.vni),
            other => panic!("expected VniTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn plan_respects_cluster_budget() {
        let t = small_topology();
        let cap = ClusterCapacity {
            max_routes: 400,
            max_vms: 2_000,
        };
        let err = Controller::plan_split(&t, cap, 1).unwrap_err();
        assert!(matches!(err, PlanError::NotEnoughClusters { .. }));
    }

    #[test]
    fn single_cluster_when_capacity_allows() {
        let t = small_topology();
        let plan = Controller::plan_split(&t, ClusterCapacity::default(), 8).unwrap();
        assert_eq!(plan.clusters_needed(), 1);
    }

    #[test]
    fn by_anchor_homes_every_vpc_on_its_anchor() {
        let t = small_topology();
        let plan = SplitPlan::by_anchor(&t, 4);
        assert_eq!(plan.clusters_needed(), 4);
        for vpc in &t.vpcs {
            assert_eq!(
                plan.assignments[&vpc.vni],
                peer_anchor(vpc).value() as usize % 4
            );
        }
        let members = plan.members(&t);
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), t.vpcs.len());
        // No clusters, no placement.
        let none = SplitPlan::by_anchor(&t, 0);
        assert!(none.assignments.is_empty() && none.per_cluster.is_empty());
    }

    #[test]
    fn install_refuses_too_few_clusters() {
        let t = small_topology();
        let cap = ClusterCapacity {
            max_routes: 400,
            max_vms: 2_000,
        };
        let plan = Controller::plan_split(&t, cap, 64).unwrap();
        assert!(plan.clusters_needed() > 1);
        let mut hw = vec![HwCluster::new(0, 2, 16, Default::default(), 0).unwrap()];
        let mut sw = SwCluster::new(
            1,
            16,
            sailfish_xgw_x86::XgwX86Config::default(),
            Default::default(),
        )
        .unwrap();
        let mut directory = VniDirectory::new();
        let err = Controller::new()
            .install(&t, &plan, &mut hw, &mut sw, &mut directory)
            .unwrap_err();
        assert_eq!(
            err,
            InstallError::TooFewClusters {
                needed: plan.clusters_needed(),
                available: 1
            }
        );
        assert!(directory.is_empty());
    }

    #[test]
    fn timeline_has_slow_growth_and_jumps() {
        let series = Controller::update_timeline(9, 4, 30, 4, 50_000);
        assert_eq!(series.len(), 4);
        for s in &series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last > first, "{}: entries must grow", s.label);
            // There must be at least one visible jump: a step larger than
            // 20x the median step.
            let mut steps: Vec<f64> = s.points.windows(2).map(|w| w[1].1 - w[0].1).collect();
            steps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = steps[steps.len() / 2];
            let max = *steps.last().unwrap();
            assert!(max > 20.0 * median, "{}: no sudden batch visible", s.label);
        }
    }
}
