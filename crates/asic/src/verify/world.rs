//! Plan-time *world* verification: static no-black-hole and capacity
//! proofs for whole staged worlds and the transitions between them.
//!
//! [`super::verify_with`] proves one device layout legal; production
//! safety needs more — the paper's gateway only survives churn because
//! every pushed program is known-good *and* every intermediate step of a
//! migration leaves every tenant served. This module lifts the analysis
//! two levels:
//!
//! 1. **World pass** — a [`WorldModel`] (the unit→cluster directory plus
//!    which clusters hold each unit's tables) is proved total (every
//!    unit has a live owner, `SF-E007`), bijective (the owner actually
//!    holds the tables and every index is inside the cluster set,
//!    `SF-E008`), and within per-cluster capacity (`SF-E009`/`SF-W007`)
//!    via a pluggable [`CapacityModel`] — the cluster layer supplies the
//!    real first-fit device allocator, tests use [`EntryBudget`].
//! 2. **Transition pass** — a [`TransitionPlan`] of make-before-break
//!    moves is walked phase by phase (Announce → Dual → Commit → Drain);
//!    every intermediate world must keep each moving unit covered
//!    (`SF-E010`), respect the phase order (`SF-E011`), and stay within
//!    capacity. Wide dual windows (`SF-W008`) and no-op moves
//!    (`SF-W009`) are linted.
//! 3. **O(delta) re-verification** — [`certify`] returns a
//!    [`WorldCertificate`] caching per-cluster loads and verdicts under
//!    a structural fingerprint; [`verify_plan`] re-checks only the
//!    clusters a move touches and reuses the cached verdicts for the
//!    rest, refusing stale certificates (`SF-E012`). [`DeltaStats`]
//!    counts capacity calls so the O(delta) claim is measurable.
//!
//! The model is deliberately abstract — units are opaque `u64`s (the
//! cluster layer maps VNIs onto them) — so the analysis lives beside the
//! ASIC resource model it reuses without inverting the crate dependency
//! direction.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use super::{LintCode, Severity};

/// One unit of ownership: a peer group of tenant state that always moves
/// together, with the table entries it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldUnit {
    /// Opaque unit id (the cluster layer uses the anchor VNI value).
    pub unit: u64,
    /// Route entries the unit carries.
    pub routes: usize,
    /// VM mappings the unit carries.
    pub vms: usize,
}

/// A whole staged world: every unit, who the directory says owns it, and
/// which clusters actually hold its tables.
#[derive(Debug, Clone)]
pub struct WorldModel {
    /// Caller-supplied label naming the world.
    pub label: String,
    /// Size of the cluster set; every owner index must be below it.
    pub clusters: usize,
    /// Every unit carrying entries, sorted by id.
    pub units: Vec<WorldUnit>,
    /// Directory: unit → live owner the balancer steers traffic to.
    pub primary: BTreeMap<u64, usize>,
    /// Table placement: unit → clusters holding its tables.
    pub holders: BTreeMap<u64, BTreeSet<usize>>,
}

impl WorldModel {
    /// An empty world over `clusters` clusters.
    pub fn new(label: &str, clusters: usize) -> Self {
        WorldModel {
            label: label.to_string(),
            clusters,
            units: Vec::new(),
            primary: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    /// Adds a unit owned (and held) by `cluster` — the steady-state
    /// shape. Units are kept sorted by id.
    pub fn add_unit(&mut self, unit: u64, routes: usize, vms: usize, cluster: usize) {
        let entry = WorldUnit { unit, routes, vms };
        match self.units.binary_search_by_key(&unit, |u| u.unit) {
            Ok(i) => self.units[i] = entry,
            Err(i) => self.units.insert(i, entry),
        }
        self.primary.insert(unit, cluster);
        self.holders.entry(unit).or_default().insert(cluster);
    }

    /// Adds a second table holder for a unit (dual-ownership windows,
    /// backups that count against capacity).
    pub fn add_holder(&mut self, unit: u64, cluster: usize) {
        self.holders.entry(unit).or_default().insert(cluster);
    }

    /// The unit's weight, if it exists.
    fn weight_of(&self, unit: u64) -> Option<(usize, usize)> {
        self.units
            .binary_search_by_key(&unit, |u| u.unit)
            .ok()
            .and_then(|i| self.units.get(i))
            .map(|u| (u.routes, u.vms))
    }

    /// Per-cluster `(routes, vms)` load summed over every holder.
    pub fn cluster_loads(&self) -> Vec<(usize, usize)> {
        let mut loads = vec![(0usize, 0usize); self.clusters];
        for u in &self.units {
            if let Some(holders) = self.holders.get(&u.unit) {
                for c in holders {
                    if let Some(slot) = loads.get_mut(*c) {
                        slot.0 += u.routes;
                        slot.1 += u.vms;
                    }
                }
            }
        }
        loads
    }

    /// Structural FNV-1a fingerprint of the world (label excluded): two
    /// worlds with the same units, directory and placement hash equal.
    /// [`verify_plan`] refuses certificates minted for a different
    /// fingerprint (`SF-E012`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.clusters as u64);
        for u in &self.units {
            mix(u.unit);
            mix(u.routes as u64);
            mix(u.vms as u64);
        }
        for (unit, cluster) in &self.primary {
            mix(*unit);
            mix(*cluster as u64);
        }
        for (unit, holders) in &self.holders {
            mix(*unit);
            for c in holders {
                mix(*c as u64);
            }
        }
        h
    }
}

/// Verdict of a capacity model for one cluster's aggregate load.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityVerdict {
    /// The load fits; `utilization_pct` is the binding resource's
    /// occupancy (drives the `SF-W007` headroom lint).
    Fits {
        /// Occupancy of the most-utilized resource, in percent.
        utilization_pct: f64,
    },
    /// The load cannot legally be held; `detail` carries the proof.
    Rejected {
        /// Why, with the numbers.
        detail: String,
    },
}

/// Pluggable per-cluster capacity oracle. The world verifier asks it
/// whether one cluster can hold an aggregate `(routes, vms)` load; the
/// cluster layer backs it with the real per-device first-fit layout
/// allocator, tests and the corpus use the entry-count [`EntryBudget`].
pub trait CapacityModel {
    /// Statically checks one cluster holding `routes`/`vms` entries.
    fn check(&self, cluster: usize, routes: usize, vms: usize) -> CapacityVerdict;
}

/// The simplest capacity model: flat per-cluster entry budgets.
#[derive(Debug, Clone, Copy)]
pub struct EntryBudget {
    /// Maximum route entries per cluster.
    pub max_routes: usize,
    /// Maximum VM mappings per cluster.
    pub max_vms: usize,
}

impl CapacityModel for EntryBudget {
    fn check(&self, _cluster: usize, routes: usize, vms: usize) -> CapacityVerdict {
        if routes > self.max_routes || vms > self.max_vms {
            return CapacityVerdict::Rejected {
                detail: format!(
                    "{routes}/{} routes, {vms}/{} vms",
                    self.max_routes, self.max_vms
                ),
            };
        }
        let r = 100.0 * routes as f64 / self.max_routes.max(1) as f64;
        let v = 100.0 * vms as f64 / self.max_vms.max(1) as f64;
        CapacityVerdict::Fits {
            utilization_pct: r.max(v),
        }
    }
}

/// One make-before-break stage of a move: the one stage vocabulary of
/// the region's move machine, the packet path's live epochs and this
/// verifier. The canonical order is [`MoveStage::SEQUENCE`]; any plan
/// whose stages are not a non-empty prefix of it is a break-before-make
/// bug (`SF-E011`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MoveStage {
    /// Destination stages and verifies the tables; traffic unmoved.
    Announce,
    /// Both owners hold the tables; flows hash to either.
    Dual,
    /// Directory retargeted; destination is the live owner.
    Commit,
    /// Source frees its copy.
    Drain,
}

impl MoveStage {
    /// The canonical make-before-break order.
    pub const SEQUENCE: [MoveStage; 4] = [
        MoveStage::Announce,
        MoveStage::Dual,
        MoveStage::Commit,
        MoveStage::Drain,
    ];

    /// Stable lowercase label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            MoveStage::Announce => "announce",
            MoveStage::Dual => "dual",
            MoveStage::Commit => "commit",
            MoveStage::Drain => "drain",
        }
    }

    /// The stage after this one in [`MoveStage::SEQUENCE`]; `None` after
    /// `Drain`.
    pub fn next(self) -> Option<MoveStage> {
        let at = Self::SEQUENCE.iter().position(|s| *s == self)?;
        Self::SEQUENCE.get(at + 1).copied()
    }
}

/// One planned migration of a unit group between clusters.
#[derive(Debug, Clone)]
pub struct WorldMove {
    /// The units moving together.
    pub units: Vec<u64>,
    /// Current owner the plan expects.
    pub from: usize,
    /// Destination.
    pub to: usize,
    /// Phases the move will drive, in order. A proper prefix of
    /// [`MoveStage::SEQUENCE`] models a scripted rollback.
    pub stages: Vec<MoveStage>,
}

impl WorldMove {
    /// A full Announce→Dual→Commit→Drain move.
    pub fn full(units: Vec<u64>, from: usize, to: usize) -> Self {
        WorldMove {
            units,
            from,
            to,
            stages: MoveStage::SEQUENCE.to_vec(),
        }
    }
}

/// A sequence of moves, driven one after another (the same serial order
/// `run_plan` uses, so the verified intermediate worlds are exactly the
/// worlds traffic will see).
#[derive(Debug, Clone, Default)]
pub struct TransitionPlan {
    /// Moves in drive order.
    pub moves: Vec<WorldMove>,
}

/// One finding of the world verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldDiagnostic {
    /// The stable lint code (`SF-E007`..`SF-E012`, `SF-W007`..).
    pub code: LintCode,
    /// What the finding is about: `unit <id>` or `cluster <idx>`.
    pub scope: Option<String>,
    /// The world it was found in: `base` or a move phase label.
    pub phase: Option<&'static str>,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl WorldDiagnostic {
    /// The diagnostic's severity (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for WorldDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code)?;
        if let Some(scope) = &self.scope {
            write!(f, " {scope}")?;
        }
        if let Some(phase) = self.phase {
            write!(f, " @ {phase}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// How much work a verification actually did — the measurable half of
/// the O(delta) claim. A full [`certify`] costs one capacity call per
/// cluster; a one-unit [`verify_plan`] must cost O(1) calls however many
/// clusters the world has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Clusters in the world.
    pub clusters_total: usize,
    /// Intermediate worlds walked (1 for a plain world pass).
    pub worlds_checked: usize,
    /// Capacity-model invocations actually made.
    pub capacity_calls: usize,
    /// Per-cluster verdicts reused from the certificate instead of
    /// recomputed: `worlds_checked * clusters_total - capacity_calls`.
    pub cache_hits: usize,
}

/// Analyzer knobs for the world passes.
#[derive(Debug, Clone, Copy)]
pub struct WorldOptions {
    /// Utilization percentage at which `SF-W007` fires.
    pub headroom_warn_pct: f64,
    /// Share of all units one move's dual window may co-own before
    /// `SF-W008` fires.
    pub blast_radius_warn_pct: f64,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            headroom_warn_pct: 85.0,
            blast_radius_warn_pct: 25.0,
        }
    }
}

/// The structured outcome of verifying a world or a transition.
#[derive(Debug, Clone)]
pub struct WorldReport {
    /// Caller-supplied label naming the world.
    pub label: String,
    /// Clusters in the world.
    pub clusters: usize,
    /// Units in the world.
    pub units: usize,
    /// All findings, sorted by (severity, code, scope, phase).
    pub diagnostics: Vec<WorldDiagnostic>,
    /// What the verification cost.
    pub stats: DeltaStats,
}

impl WorldReport {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &WorldDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &WorldDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// Whether the world (or plan) is safe to push (no errors).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether a diagnostic with `code` was emitted.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The error diagnostics joined one per `; ` — the detail string the
    /// install/reshard gates attach to their typed refusals.
    pub fn error_detail(&self) -> String {
        self.errors()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Renders the report as stable text; byte-identical across runs for
    /// the same world and plan.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== sailfish-verify world: {} ==", self.label);
        let _ = writeln!(
            out,
            "world: {} cluster(s), {} unit(s); worlds checked: {}",
            self.clusters, self.units, self.stats.worlds_checked,
        );
        let _ = writeln!(
            out,
            "cost: {} capacity call(s), {} cached verdict(s) reused",
            self.stats.capacity_calls, self.stats.cache_hits,
        );
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let _ = writeln!(out, "diagnostics: {errors} error(s), {warnings} warning(s)");
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
            let _ = writeln!(out, "    hint: {}", d.hint);
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if errors == 0 { "CLEAN" } else { "REJECTED" }
        );
        out
    }

    /// Re-sorts the diagnostics into the canonical stable order. Call
    /// after merging findings from several passes into one report.
    pub fn normalized(self) -> Self {
        self.finish()
    }

    fn finish(mut self) -> Self {
        self.diagnostics.sort_by(|a, b| {
            (a.severity(), a.code, &a.scope, a.phase).cmp(&(
                b.severity(),
                b.code,
                &b.scope,
                b.phase,
            ))
        });
        self
    }
}

/// A cached base-world verdict enabling O(delta) re-verification:
/// per-cluster loads and capacity verdicts under a structural
/// fingerprint. Mint one with [`certify`]; spend it in [`verify_plan`].
#[derive(Debug, Clone)]
pub struct WorldCertificate {
    /// Fingerprint of the world the certificate was minted for.
    pub fingerprint: u64,
    /// Per-cluster `(routes, vms)` at certification time.
    pub loads: Vec<(usize, usize)>,
    /// Per-cluster capacity verdict (true = fits) at certification time.
    pub verdicts: Vec<bool>,
}

/// The world pass: totality, bijectivity and capacity over one world.
fn check_structure(model: &WorldModel, diagnostics: &mut Vec<WorldDiagnostic>) {
    for u in &model.units {
        match model.primary.get(&u.unit) {
            None => diagnostics.push(WorldDiagnostic {
                code: LintCode::UncoveredUnit,
                scope: Some(format!("unit {}", u.unit)),
                phase: Some("base"),
                message: format!(
                    "carries {} route(s) and {} vm(s) but no cluster owns it — its traffic \
                     has nowhere to go",
                    u.routes, u.vms,
                ),
                hint: "assign the unit in the directory before staging its tables",
            }),
            Some(owner) => {
                if *owner >= model.clusters {
                    diagnostics.push(WorldDiagnostic {
                        code: LintCode::DirectoryDivergence,
                        scope: Some(format!("unit {}", u.unit)),
                        phase: Some("base"),
                        message: format!(
                            "directory points at cluster {owner}, outside the {}-cluster world",
                            model.clusters,
                        ),
                        hint: "retarget the unit to a cluster that exists",
                    });
                } else if !model
                    .holders
                    .get(&u.unit)
                    .is_some_and(|h| h.contains(owner))
                {
                    diagnostics.push(WorldDiagnostic {
                        code: LintCode::DirectoryDivergence,
                        scope: Some(format!("unit {}", u.unit)),
                        phase: Some("base"),
                        message: format!(
                            "directory points at cluster {owner} but that cluster holds no \
                             tables for the unit",
                        ),
                        hint: "stage the tables on the owner (or fix the directory) before \
                               traffic is steered there",
                    });
                }
            }
        }
        if let Some(holders) = model.holders.get(&u.unit) {
            for c in holders {
                if *c >= model.clusters {
                    diagnostics.push(WorldDiagnostic {
                        code: LintCode::DirectoryDivergence,
                        scope: Some(format!("unit {}", u.unit)),
                        phase: Some("base"),
                        message: format!(
                            "tables staged on cluster {c}, outside the {}-cluster world",
                            model.clusters,
                        ),
                        hint: "drop the phantom placement or grow the cluster set",
                    });
                }
            }
        }
    }
    // Orphan directory entries: the directory names a unit that stages
    // no entries anywhere — a dangling assignment the next re-shard
    // would trip over.
    let unit_ids: BTreeSet<u64> = model.units.iter().map(|u| u.unit).collect();
    for unit in model.primary.keys() {
        if !unit_ids.contains(unit) {
            diagnostics.push(WorldDiagnostic {
                code: LintCode::DirectoryDivergence,
                scope: Some(format!("unit {unit}")),
                phase: Some("base"),
                message: "directory entry for a unit that stages no entries in this world"
                    .to_string(),
                hint: "remove the dangling assignment or stage the unit's tables",
            });
        }
    }
}

/// Capacity-checks one cluster, pushing `SF-E009`/`SF-W007` findings.
/// Returns whether the load fits.
fn check_cluster(
    cluster: usize,
    load: (usize, usize),
    cap: &dyn CapacityModel,
    options: &WorldOptions,
    phase: &'static str,
    diagnostics: &mut Vec<WorldDiagnostic>,
    stats: &mut DeltaStats,
) -> bool {
    stats.capacity_calls += 1;
    match cap.check(cluster, load.0, load.1) {
        CapacityVerdict::Fits { utilization_pct } => {
            if utilization_pct >= options.headroom_warn_pct {
                diagnostics.push(WorldDiagnostic {
                    code: LintCode::WorldHeadroom,
                    scope: Some(format!("cluster {cluster}")),
                    phase: Some(phase),
                    message: format!(
                        "load of {} route(s) / {} vm(s) sits at {utilization_pct:.1}% of the \
                         cluster's budget",
                        load.0, load.1,
                    ),
                    hint: "plan a rebalance before the next tenant batch or move lands",
                });
            }
            true
        }
        CapacityVerdict::Rejected { detail } => {
            diagnostics.push(WorldDiagnostic {
                code: LintCode::WorldOverCapacity,
                scope: Some(format!("cluster {cluster}")),
                phase: Some(phase),
                message: format!("aggregate load exceeds the cluster's budget: {detail}"),
                hint: "split the load across more clusters or shrink the moving group",
            });
            false
        }
    }
}

/// Structure-only findings for a world — ownership totality and
/// directory bijectivity — with no capacity calls. Gates on a *live*
/// world pair this with [`trusted_certificate`] so a delta verifies in
/// O(delta) capacity work.
pub fn structure_diagnostics(model: &WorldModel) -> Vec<WorldDiagnostic> {
    let mut diagnostics = Vec::new();
    check_structure(model, &mut diagnostics);
    diagnostics
}

/// A certificate for a world that is **already live**: per-cluster loads
/// are computed, capacity is taken as proven by observation (the world
/// is serving traffic, so its loads demonstrably fit). This keeps
/// transition gates on a running region at O(delta) capacity calls —
/// only the clusters a move touches are re-proved.
pub fn trusted_certificate(model: &WorldModel) -> WorldCertificate {
    let loads = model.cluster_loads();
    let verdicts = vec![true; loads.len()];
    WorldCertificate {
        fingerprint: model.fingerprint(),
        loads,
        verdicts,
    }
}

/// Full world verification: the world pass plus one capacity call per
/// cluster. Returns the report and a [`WorldCertificate`] that later
/// [`verify_plan`] calls can re-verify deltas against in O(delta).
pub fn certify(
    model: &WorldModel,
    cap: &dyn CapacityModel,
    options: &WorldOptions,
) -> (WorldReport, WorldCertificate) {
    let mut diagnostics = Vec::new();
    let mut stats = DeltaStats {
        clusters_total: model.clusters,
        worlds_checked: 1,
        ..DeltaStats::default()
    };
    check_structure(model, &mut diagnostics);
    let loads = model.cluster_loads();
    let verdicts: Vec<bool> = loads
        .iter()
        .enumerate()
        .map(|(c, load)| {
            check_cluster(c, *load, cap, options, "base", &mut diagnostics, &mut stats)
        })
        .collect();
    let certificate = WorldCertificate {
        fingerprint: model.fingerprint(),
        loads,
        verdicts,
    };
    let report = WorldReport {
        label: model.label.clone(),
        clusters: model.clusters,
        units: model.units.len(),
        diagnostics,
        stats,
    }
    .finish();
    (report, certificate)
}

/// Full world verification without keeping the certificate.
pub fn verify_world(
    model: &WorldModel,
    cap: &dyn CapacityModel,
    options: &WorldOptions,
) -> WorldReport {
    certify(model, cap, options).0
}

/// Transition verification in O(delta): walks every intermediate world
/// of `plan` against `model`, re-checking capacity only for the clusters
/// a move actually touches and reusing `certificate`'s cached verdicts
/// for everything else. A certificate minted for a different world is
/// refused (`SF-E012`) — verifying a delta against the wrong base would
/// prove nothing.
pub fn verify_plan(
    model: &WorldModel,
    certificate: &WorldCertificate,
    plan: &TransitionPlan,
    cap: &dyn CapacityModel,
    options: &WorldOptions,
) -> WorldReport {
    let mut diagnostics = Vec::new();
    let mut stats = DeltaStats {
        clusters_total: model.clusters,
        ..DeltaStats::default()
    };
    let report = |diagnostics: Vec<WorldDiagnostic>, stats: DeltaStats| {
        WorldReport {
            label: model.label.clone(),
            clusters: model.clusters,
            units: model.units.len(),
            diagnostics,
            stats,
        }
        .finish()
    };

    if certificate.fingerprint != model.fingerprint() {
        diagnostics.push(WorldDiagnostic {
            code: LintCode::DeltaBaseMismatch,
            scope: None,
            phase: Some("base"),
            message: format!(
                "certificate fingerprint {:016x} does not match the world's {:016x} — the \
                 cached verdicts describe a different base",
                certificate.fingerprint,
                model.fingerprint(),
            ),
            hint: "re-certify the base world after any out-of-band change, then re-verify \
                   the delta",
        });
        return report(diagnostics, stats);
    }

    // Base-world verdicts carry over: a cluster the certificate already
    // proved over budget is re-reported without a capacity call.
    for (c, fits) in certificate.verdicts.iter().enumerate() {
        if !fits {
            let load = certificate.loads.get(c).copied().unwrap_or((0, 0));
            diagnostics.push(WorldDiagnostic {
                code: LintCode::WorldOverCapacity,
                scope: Some(format!("cluster {c}")),
                phase: Some("base"),
                message: format!(
                    "certificate records the base load ({} route(s), {} vm(s)) as already \
                     over budget",
                    load.0, load.1,
                ),
                hint: "resolve the base-world overload before planning moves on top of it",
            });
        }
    }

    let total_units = model.units.len().max(1);
    let mut moved: BTreeSet<u64> = BTreeSet::new();
    let mut loads = certificate.loads.clone();

    for (i, mv) in plan.moves.iter().enumerate() {
        let scope = format!("move {i}");
        let mut broken = false;

        // Phase order: stages must be a non-empty prefix of the
        // canonical make-before-break sequence. Anything else either
        // skips a make step (Announce→Drain frees the source while the
        // directory still points at it) or replays out of order.
        let prefix_ok = !mv.stages.is_empty()
            && mv.stages.len() <= MoveStage::SEQUENCE.len()
            && mv
                .stages
                .iter()
                .zip(MoveStage::SEQUENCE.iter())
                .all(|(a, b)| a == b);
        if !prefix_ok {
            let listed = mv
                .stages
                .iter()
                .map(|s| s.label())
                .collect::<Vec<_>>()
                .join("→");
            diagnostics.push(WorldDiagnostic {
                code: LintCode::InvalidPhaseOrder,
                scope: Some(scope.clone()),
                phase: mv.stages.first().map(|s| s.label()),
                message: format!(
                    "phase sequence [{listed}] is not a prefix of \
                     announce→dual→commit→drain — a skipped make step frees tables the \
                     directory still routes to",
                ),
                hint: "drive every move through the canonical order; model a rollback as a \
                       pre-commit prefix",
            });
            broken = true;
        }

        if mv.from == mv.to {
            diagnostics.push(WorldDiagnostic {
                code: LintCode::RedundantMove,
                scope: Some(scope.clone()),
                phase: Some("announce"),
                message: format!(
                    "source and destination are both cluster {} — the move publishes \
                     epochs without changing ownership",
                    mv.from,
                ),
                hint: "drop the no-op move from the plan",
            });
        }
        if mv.to >= model.clusters {
            diagnostics.push(WorldDiagnostic {
                code: LintCode::DirectoryDivergence,
                scope: Some(scope.clone()),
                phase: Some("announce"),
                message: format!(
                    "destination cluster {} is outside the {}-cluster world — the commit \
                     phase would retarget the directory into the void",
                    mv.to, model.clusters,
                ),
                hint: "target a cluster that exists (grow the set first if scaling out)",
            });
            broken = true;
        }

        for unit in &mv.units {
            if moved.contains(unit) {
                diagnostics.push(WorldDiagnostic {
                    code: LintCode::TransitionBlackHole,
                    scope: Some(format!("unit {unit}")),
                    phase: Some("announce"),
                    message: format!(
                        "unit moves twice in one plan (again in move {i}) — the second \
                         move's source no longer matches the world after the first",
                    ),
                    hint: "coalesce the moves or re-plan from the post-move world",
                });
                broken = true;
            }
            moved.insert(*unit);
            match model.weight_of(*unit) {
                None => {
                    diagnostics.push(WorldDiagnostic {
                        code: LintCode::DeltaBaseMismatch,
                        scope: Some(format!("unit {unit}")),
                        phase: Some("announce"),
                        message: "the delta names a unit absent from the base world".to_string(),
                        hint: "re-plan against the current base; the unit was removed or \
                               renamed since",
                    });
                    broken = true;
                }
                Some(_) => match model.primary.get(unit) {
                    None => {
                        diagnostics.push(WorldDiagnostic {
                            code: LintCode::TransitionBlackHole,
                            scope: Some(format!("unit {unit}")),
                            phase: Some("announce"),
                            message: "unit has no live owner to move from — every phase of \
                                      the move leaves it uncovered"
                                .to_string(),
                            hint: "assign the unit before migrating it",
                        });
                        broken = true;
                    }
                    Some(owner) if *owner != mv.from => {
                        diagnostics.push(WorldDiagnostic {
                            code: LintCode::TransitionBlackHole,
                            scope: Some(format!("unit {unit}")),
                            phase: Some("drain"),
                            message: format!(
                                "move expects source cluster {} but the directory points at \
                                 cluster {owner} — the drain phase would free the live \
                                 owner's tables while traffic still lands there",
                                mv.from,
                            ),
                            hint: "re-plan from the directory's actual assignment",
                        });
                        broken = true;
                    }
                    Some(_) => {}
                },
            }
        }

        // Blast radius: the whole group co-owns two clusters for the
        // dual window; a rollback mid-window republishes all of it.
        if mv.stages.contains(&MoveStage::Dual) {
            let pct = 100.0 * mv.units.len() as f64 / total_units as f64;
            if pct >= options.blast_radius_warn_pct {
                diagnostics.push(WorldDiagnostic {
                    code: LintCode::BlastRadius,
                    scope: Some(scope.clone()),
                    phase: Some("dual"),
                    message: format!(
                        "dual window co-owns {} of {} unit(s) ({pct:.1}% of the world) — a \
                         mid-window rollback republishes all of it at once",
                        mv.units.len(),
                        total_units,
                    ),
                    hint: "split the migration into smaller groups",
                });
            }
        }

        if broken {
            // The move cannot be simulated faithfully; skip its capacity
            // walk so one broken move doesn't cascade phantom findings.
            continue;
        }

        let group: (usize, usize) = mv.units.iter().fold((0, 0), |acc, u| {
            let (r, v) = model.weight_of(*u).unwrap_or((0, 0));
            (acc.0 + r, acc.1 + v)
        });

        // Walk the intermediate worlds. Only Announce changes a load
        // upward (destination gains the group); Dual/Commit re-use the
        // post-announce loads; Drain releases the source. Every other
        // cluster's verdict is structurally shared with the certificate.
        for stage in &mv.stages {
            stats.worlds_checked += 1;
            let checked = match stage {
                MoveStage::Announce => {
                    if let Some(slot) = loads.get_mut(mv.to) {
                        slot.0 += group.0;
                        slot.1 += group.1;
                        let load = *slot;
                        check_cluster(
                            mv.to,
                            load,
                            cap,
                            options,
                            "announce",
                            &mut diagnostics,
                            &mut stats,
                        );
                        1
                    } else {
                        0
                    }
                }
                MoveStage::Dual | MoveStage::Commit => 0,
                MoveStage::Drain => {
                    if let Some(slot) = loads.get_mut(mv.from) {
                        slot.0 = slot.0.saturating_sub(group.0);
                        slot.1 = slot.1.saturating_sub(group.1);
                    }
                    0
                }
            };
            stats.cache_hits += model.clusters - checked;
        }
        // A pre-commit prefix rolls back: the destination drops the
        // staged copy and the world returns to base.
        if !mv.stages.contains(&MoveStage::Commit) {
            if let Some(slot) = loads.get_mut(mv.to) {
                slot.0 = slot.0.saturating_sub(group.0);
                slot.1 = slot.1.saturating_sub(group.1);
            }
        }
    }

    report(diagnostics, stats)
}

/// A known-bad world/plan with the diagnostics it must provoke. Doubles
/// as golden-test fixtures and as the `verify_world` experiment's demo corpus.
#[derive(Debug, Clone)]
pub struct WorldCorpusCase {
    /// Stable case name.
    pub name: &'static str,
    /// The base world.
    pub base: WorldModel,
    /// The capacity budget to verify against.
    pub budget: EntryBudget,
    /// The transition to verify, when the case is about a plan.
    pub plan: Option<TransitionPlan>,
    /// Whether to verify the plan against a deliberately stale
    /// certificate (the `SF-E012` case).
    pub stale_certificate: bool,
    /// Codes the report must contain.
    pub expect: Vec<LintCode>,
}

/// Runs one corpus case the way the gates do: certify the base, then —
/// when the case carries a plan — verify it against the (possibly
/// staled) certificate. Base findings and plan findings are merged so a
/// case's expectation reads against one report.
pub fn run_world_case(case: &WorldCorpusCase) -> WorldReport {
    let options = WorldOptions::default();
    let (mut base_report, mut certificate) = certify(&case.base, &case.budget, &options);
    let Some(plan) = &case.plan else {
        return base_report;
    };
    if case.stale_certificate {
        certificate.fingerprint ^= 0xDEAD_BEEF;
    }
    let plan_report = verify_plan(&case.base, &certificate, plan, &case.budget, &options);
    base_report.diagnostics.extend(plan_report.diagnostics);
    base_report.stats = plan_report.stats;
    base_report.finish()
}

/// A healthy 4-cluster base world: 8 units of 100 routes / 200 vms,
/// round-robin owned.
fn healthy_base(label: &str) -> WorldModel {
    let mut model = WorldModel::new(label, 4);
    for unit in 0..8u64 {
        model.add_unit(unit + 1, 100, 200, (unit as usize) % 4);
    }
    model
}

fn generous() -> EntryBudget {
    EntryBudget {
        max_routes: 1_000,
        max_vms: 2_000,
    }
}

/// The known-bad world corpus: one minimal world or plan per world-level
/// error class, plus the headline warnings.
pub fn known_bad_world_corpus() -> Vec<WorldCorpusCase> {
    let mut cases = Vec::new();

    // 1. Uncovered unit: entries staged, no owner anywhere.
    let mut uncovered = healthy_base("uncovered-unit");
    uncovered.primary.remove(&3);
    uncovered.holders.remove(&3);
    cases.push(WorldCorpusCase {
        name: "uncovered-unit",
        base: uncovered,
        budget: generous(),
        plan: None,
        stale_certificate: false,
        expect: vec![LintCode::UncoveredUnit],
    });

    // 2. Directory divergence: the owner holds no tables.
    let mut diverged = healthy_base("directory-divergence");
    diverged.primary.insert(5, 3);
    cases.push(WorldCorpusCase {
        name: "directory-divergence",
        base: diverged,
        budget: generous(),
        plan: None,
        stale_certificate: false,
        expect: vec![LintCode::DirectoryDivergence],
    });

    // 3. Orphan directory entry: an assignment for a unit with no state.
    let mut orphan = healthy_base("orphan-directory-entry");
    orphan.primary.insert(99, 0);
    cases.push(WorldCorpusCase {
        name: "orphan-directory-entry",
        base: orphan,
        budget: generous(),
        plan: None,
        stale_certificate: false,
        expect: vec![LintCode::DirectoryDivergence],
    });

    // 4. World over capacity: one cluster's aggregate past its budget.
    cases.push(WorldCorpusCase {
        name: "world-over-capacity",
        base: healthy_base("world-over-capacity"),
        budget: EntryBudget {
            max_routes: 150,
            max_vms: 2_000,
        },
        plan: None,
        stale_certificate: false,
        expect: vec![LintCode::WorldOverCapacity],
    });

    // 5. Headroom: legal but ≥85% of the budget.
    cases.push(WorldCorpusCase {
        name: "world-headroom",
        base: healthy_base("world-headroom"),
        budget: EntryBudget {
            max_routes: 230,
            max_vms: 2_000,
        },
        plan: None,
        stale_certificate: false,
        expect: vec![LintCode::WorldHeadroom],
    });

    // 6. Transition black hole: the plan's source is not the owner, so
    // Drain would free the live owner's tables.
    cases.push(WorldCorpusCase {
        name: "transition-black-hole",
        base: healthy_base("transition-black-hole"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 2, 3)],
        }),
        stale_certificate: false,
        expect: vec![LintCode::TransitionBlackHole],
    });

    // 7. Break-before-make: Announce→Drain skips the Dual/Commit steps.
    cases.push(WorldCorpusCase {
        name: "break-before-make",
        base: healthy_base("break-before-make"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove {
                units: vec![1],
                from: 0,
                to: 1,
                stages: vec![MoveStage::Announce, MoveStage::Drain],
            }],
        }),
        stale_certificate: false,
        expect: vec![LintCode::InvalidPhaseOrder],
    });

    // 8. Stale certificate: a valid plan verified against the wrong base.
    cases.push(WorldCorpusCase {
        name: "delta-base-mismatch",
        base: healthy_base("delta-base-mismatch"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 0, 1)],
        }),
        stale_certificate: true,
        expect: vec![LintCode::DeltaBaseMismatch],
    });

    // 9. Destination outside the world.
    cases.push(WorldCorpusCase {
        name: "destination-outside-world",
        base: healthy_base("destination-outside-world"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 0, 9)],
        }),
        stale_certificate: false,
        expect: vec![LintCode::DirectoryDivergence],
    });

    // 10. Move that overloads its destination during the dual window.
    cases.push(WorldCorpusCase {
        name: "move-overloads-destination",
        base: healthy_base("move-overloads-destination"),
        budget: EntryBudget {
            max_routes: 250,
            max_vms: 2_000,
        },
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 0, 1)],
        }),
        stale_certificate: false,
        expect: vec![LintCode::WorldOverCapacity],
    });

    // 11. Blast radius: one move dual-owning half the world.
    cases.push(WorldCorpusCase {
        name: "blast-radius",
        base: healthy_base("blast-radius"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1, 5], 0, 2)],
        }),
        stale_certificate: false,
        expect: vec![LintCode::BlastRadius],
    });

    // 12. Redundant move: source equals destination.
    cases.push(WorldCorpusCase {
        name: "redundant-move",
        base: healthy_base("redundant-move"),
        budget: generous(),
        plan: Some(TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 0, 0)],
        }),
        stale_certificate: false,
        expect: vec![LintCode::RedundantMove],
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_world_certifies_clean() {
        let model = healthy_base("clean");
        let (report, certificate) = certify(&model, &generous(), &WorldOptions::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.stats.capacity_calls, 4);
        assert_eq!(certificate.fingerprint, model.fingerprint());
        assert!(certificate.verdicts.iter().all(|v| *v));
    }

    #[test]
    fn clean_plan_verifies_clean_in_o_delta() {
        let model = healthy_base("delta");
        let options = WorldOptions::default();
        let (_, certificate) = certify(&model, &generous(), &options);
        let plan = TransitionPlan {
            moves: vec![WorldMove::full(vec![1], 0, 1)],
        };
        let report = verify_plan(&model, &certificate, &plan, &generous(), &options);
        assert!(report.is_clean(), "{}", report.render());
        // One capacity call (the destination at Announce) regardless of
        // how many clusters exist — the O(delta) contract.
        assert_eq!(report.stats.capacity_calls, 1);
        assert!(report.stats.cache_hits > 0);
    }

    #[test]
    fn rollback_prefix_releases_the_destination() {
        let model = healthy_base("rollback");
        let options = WorldOptions::default();
        // Budget fits base + one announced group, but not two at once on
        // the same destination.
        let budget = EntryBudget {
            max_routes: 310,
            max_vms: 2_000,
        };
        let (_, certificate) = certify(&model, &budget, &options);
        // Move 1 rolls back pre-commit; move 2 then announces onto the
        // same destination. Legal only if the rollback released its load.
        let plan = TransitionPlan {
            moves: vec![
                WorldMove {
                    units: vec![1],
                    from: 0,
                    to: 2,
                    stages: vec![MoveStage::Announce, MoveStage::Dual],
                },
                WorldMove::full(vec![6], 1, 2),
            ],
        };
        let report = verify_plan(&model, &certificate, &plan, &budget, &options);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn drain_releases_the_source_for_later_moves() {
        // Five clusters, the fifth empty: units 1/5 leave cluster 0 for
        // it, then units 2/6 land on cluster 0. Legal only if the first
        // move's drain is modeled (otherwise cluster 0 holds 400 routes
        // against a 310 budget).
        let mut model = WorldModel::new("drain-release", 5);
        for unit in 0..8u64 {
            model.add_unit(unit + 1, 100, 200, (unit as usize) % 4);
        }
        let options = WorldOptions::default();
        let budget = EntryBudget {
            max_routes: 310,
            max_vms: 2_000,
        };
        let (_, certificate) = certify(&model, &budget, &options);
        let plan = TransitionPlan {
            moves: vec![
                WorldMove::full(vec![1, 5], 0, 4),
                WorldMove::full(vec![2, 6], 1, 0),
            ],
        };
        let report = verify_plan(&model, &certificate, &plan, &budget, &options);
        // The two-unit groups trip the blast-radius warning; no error is
        // the property under test.
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn corpus_cases_all_fire() {
        for case in known_bad_world_corpus() {
            let report = run_world_case(&case);
            for code in &case.expect {
                assert!(
                    report.has(*code),
                    "case '{}' should emit {code}; got:\n{}",
                    case.name,
                    report.render(),
                );
            }
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        for case in known_bad_world_corpus() {
            let a = run_world_case(&case).render();
            let b = run_world_case(&case).render();
            assert_eq!(a, b, "case '{}' rendering unstable", case.name);
        }
    }

    #[test]
    fn fingerprint_tracks_structure_not_label() {
        let a = healthy_base("a");
        let mut b = healthy_base("b");
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.add_holder(1, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn moving_a_unit_twice_is_flagged() {
        let model = healthy_base("twice");
        let options = WorldOptions::default();
        let (_, certificate) = certify(&model, &generous(), &options);
        let plan = TransitionPlan {
            moves: vec![
                WorldMove::full(vec![1], 0, 1),
                WorldMove::full(vec![1], 1, 2),
            ],
        };
        let report = verify_plan(&model, &certificate, &plan, &generous(), &options);
        assert!(
            report.has(LintCode::TransitionBlackHole),
            "{}",
            report.render()
        );
    }
}
