//! The plan-time **world** verifier, driven over every surface it
//! gates:
//!
//! 1. **Staged installs**: a planned split over the default topology must
//!    certify clean, with exactly one capacity call per cluster.
//! 2. **Known-bad corpus**: every case of
//!    [`sailfish_asic::verify::world::known_bad_world_corpus`] must
//!    provoke its pinned stable codes (SF-E007..E012, SF-W007..W009).
//! 3. **Re-shard plans in O(delta)**: a real scale-out plan between two
//!    valid splits verifies clean against the live region's trusted
//!    certificate, and the verification cost is counted — one capacity
//!    call per move versus one per cluster for a full re-certify.
//! 4. **Determinism**: rendered reports are byte-identical across runs
//!    (CI additionally runs `repro --tiny` twice and compares the
//!    artifacts).
//! 5. **Soundness differential**: the dataplane chaos harness replays a
//!    statically-rejected move with the gate on (nothing published,
//!    invariants hold) and with the gate off (`replay_rejected`) — every
//!    dynamic invariant violation the replay causes must be explained by
//!    the recorded static rejection: zero escapes.
//!
//! Run with: `cargo run --release -p sailfish-bench --bin repro --
//! verify_world` (add `--tiny` for the CI smoke scale). Output is fully
//! deterministic: two runs produce byte-identical
//! `experiments/verify_world.json` and
//! `experiments/verify_world_report.txt`. Wall-clock timings go to
//! stdout only, never into the JSON.

use std::collections::BTreeSet;
use std::time::Instant;

use sailfish_asic::verify::world::{self, known_bad_world_corpus, run_world_case, WorldOptions};
use sailfish_cluster::controller::ClusterCapacity;
use sailfish_cluster::region::RegionConfig;
use sailfish_cluster::reshard::ReshardPlan;
use sailfish_cluster::worldcheck::{
    region_world, verify_reshard, verify_staged_world, DeviceLoadCapacity,
};
use sailfish_cluster::{Controller, Region};
use sailfish_dataplane::chaos::{self, busiest_anchor, ChaosConfig, ScriptedMove};
use sailfish_dataplane::DataplaneConfig;
use sailfish_sim::faults::FaultSchedule;
use sailfish_sim::{Topology, TopologyConfig};

use crate::record::ExperimentRecord;
use crate::scale::Scale;

pub fn run(scale: Scale) -> ExperimentRecord {
    let (chaos_flows, chaos_frames, chaos_probe) = scale.pick((300, 800, 400), (600, 3_000, 1_200));

    let mut rec = ExperimentRecord::new(
        "verify_world",
        "Plan-time world verifier: installs, deltas, re-shard plans, soundness",
    );
    let mut rendered = String::new();
    let topology = Topology::generate(TopologyConfig::default());

    // --- 1. staged install: whole-world proof before any push --------
    let capacity = ClusterCapacity {
        max_routes: 600,
        max_vms: 3_000,
    };
    let split = Controller::plan_split(&topology, capacity, 64).expect("split plans");
    let staged = verify_staged_world(&topology, &split, "staged-install");
    println!(
        "staged-install: {} ({} capacity call(s) over {} cluster(s))",
        if staged.is_clean() {
            "clean"
        } else {
            "REJECTED"
        },
        staged.stats.capacity_calls,
        split.clusters_needed(),
    );
    rec.compare(
        "staged install certifies clean",
        "clean",
        if staged.is_clean() {
            "clean".to_string()
        } else {
            format!("{} error(s)", staged.errors().count())
        },
        staged.is_clean(),
    );
    rec.compare(
        "install certify costs one capacity call per cluster",
        format!("{}", split.clusters_needed()),
        format!("{}", staged.stats.capacity_calls),
        staged.stats.capacity_calls == split.clusters_needed(),
    );
    rendered.push_str(&staged.render());
    rendered.push('\n');

    // --- 2. known-bad corpus: every pinned code fires ----------------
    let corpus = known_bad_world_corpus();
    for case in &corpus {
        let report = run_world_case(case);
        let fired = case.expect.iter().all(|code| report.has(*code));
        let codes: Vec<&str> = case.expect.iter().map(|c| c.code()).collect();
        println!(
            "corpus/{}: {} (expects {})",
            case.name,
            if fired { "diagnosed" } else { "MISSED" },
            codes.join("+"),
        );
        rec.compare(
            format!("corpus '{}' emits {}", case.name, codes.join("+")),
            "diagnosed",
            if fired { "diagnosed" } else { "missed" }.to_string(),
            fired,
        );
        rendered.push_str(&report.render());
        rendered.push('\n');
    }

    // --- 3. re-shard plan: O(delta) against the live region ----------
    let tighter = ClusterCapacity {
        max_routes: 400,
        max_vms: 2_000,
    };
    let target = Controller::plan_split(&topology, tighter, 64).expect("split plans");
    let config = RegionConfig {
        capacity,
        spare_clusters: target
            .clusters_needed()
            .saturating_sub(split.clusters_needed()),
        ..RegionConfig::default()
    };
    let region = Region::build(&topology, config).expect("region builds");
    let plan = ReshardPlan::plan(
        &topology,
        &region.plan,
        &target,
        ClusterCapacity::default(),
        &BTreeSet::new(),
    )
    .expect("plan between valid splits");

    let delta_t = Instant::now();
    let delta = verify_reshard(&region, &plan.moves, "reshard-plan");
    let delta_elapsed = delta_t.elapsed();
    let model = region_world(&region, &plan.moves, "reshard-plan");
    let full_t = Instant::now();
    let (full_report, _certificate) = world::certify(
        &model,
        &DeviceLoadCapacity::default(),
        &WorldOptions::default(),
    );
    let full_elapsed = full_t.elapsed();
    let full_calls = full_report.stats.capacity_calls;
    // Re-certifying every intermediate world from scratch would cost one
    // capacity call per cluster per world — exactly the verdicts the
    // delta pass either makes (capacity_calls) or reuses (cache_hits).
    let naive_calls = delta.stats.capacity_calls + delta.stats.cache_hits;

    println!(
        "reshard-plan: {} ({} move(s); delta {} capacity call(s) vs naive \
         per-world {}; base certify {} — wall {:.1?} delta vs {:.1?} certify)",
        if delta.is_clean() {
            "clean"
        } else {
            "REJECTED"
        },
        plan.moves.len(),
        delta.stats.capacity_calls,
        naive_calls,
        full_calls,
        delta_elapsed,
        full_elapsed,
    );
    rec.compare(
        "re-shard plan verifies clean against the live region",
        "clean",
        if delta.is_clean() {
            "clean".to_string()
        } else {
            format!("{} error(s)", delta.errors().count())
        },
        delta.is_clean(),
    );
    rec.compare(
        "delta verification costs one capacity call per move",
        format!("{}", plan.moves.len()),
        format!("{}", delta.stats.capacity_calls),
        delta.stats.capacity_calls == plan.moves.len(),
    );
    rec.compare(
        "delta pass reuses cached verdicts (cache hits > 0)",
        "> 0",
        format!("{}", delta.stats.cache_hits),
        delta.stats.cache_hits > 0,
    );
    rec.compare(
        "delta capacity cost below the naive per-world re-certify",
        format!("< {naive_calls}"),
        format!("{}", delta.stats.capacity_calls),
        delta.stats.capacity_calls < naive_calls,
    );
    rec.compare(
        "full base certify costs one capacity call per cluster",
        format!("{}", model.clusters),
        format!("{full_calls}"),
        full_calls == model.clusters,
    );
    rendered.push_str(&delta.render());
    rendered.push('\n');

    // --- 4. render determinism ---------------------------------------
    let replay = verify_reshard(&region, &plan.moves, "reshard-plan");
    let stable = replay.render() == delta.render();
    println!(
        "render determinism: {}",
        if stable { "byte-identical" } else { "DIVERGED" }
    );
    rec.compare(
        "re-verification renders byte-identical",
        "byte-identical",
        if stable { "byte-identical" } else { "diverged" }.to_string(),
        stable,
    );

    // --- 5. soundness differential on the live executor --------------
    let dp_config = DataplaneConfig::default();
    let clusters = dp_config.clusters;
    let mut chaos_cfg = ChaosConfig {
        flows: chaos_flows,
        frames_per_slot: chaos_frames,
        probe_frames: chaos_probe,
        ..ChaosConfig::default()
    };
    let (anchor, from) =
        busiest_anchor(&topology, &chaos_cfg, clusters).expect("the default topology has peer groups");
    // Destination outside the cluster set: from Commit on, the directory
    // would point into the void — the canonical statically-provable
    // black hole.
    chaos_cfg.reshard = vec![ScriptedMove {
        anchor,
        from,
        to: clusters + 3,
        start: 1,
        dwell: 2,
        abort_after: None,
    }];
    let schedule = FaultSchedule::from_events(8, vec![]);

    let gated = chaos::run_schedule(&topology, dp_config.clone(), &chaos_cfg, &schedule);
    let gate_ok = gated.holds()
        && !gated.static_rejects.is_empty()
        && gated.epochs_swapped == 0
        && gated.soundness_escapes(&schedule) == 0;
    println!(
        "chaos gated: {} ({} static reject(s), {} epoch swap(s), {} violation(s))",
        if gate_ok { "clean" } else { "UNSOUND" },
        gated.static_rejects.len(),
        gated.epochs_swapped,
        gated.violations.len(),
    );
    rec.compare(
        "gated poison move publishes nothing and violates nothing",
        "rejected, 0 swaps, 0 violations",
        format!(
            "{} reject(s), {} swap(s), {} violation(s)",
            gated.static_rejects.len(),
            gated.epochs_swapped,
            gated.violations.len()
        ),
        gate_ok,
    );

    chaos_cfg.replay_rejected = true;
    let ungated = chaos::run_schedule(&topology, dp_config, &chaos_cfg, &schedule);
    let escapes = ungated.soundness_escapes(&schedule);
    let replay_ok = !ungated.holds() && escapes == 0;
    println!(
        "chaos ungated: {} ({} violation(s), {} unflagged escape(s))",
        if replay_ok {
            "all explained"
        } else {
            "ESCAPED"
        },
        ungated.violations.len(),
        escapes,
    );
    rec.compare(
        "replayed poison move violates dynamically, with zero unflagged escapes",
        "violations > 0, escapes = 0",
        format!(
            "{} violation(s), {} escape(s)",
            ungated.violations.len(),
            escapes
        ),
        replay_ok,
    );

    rec.report = Some(rendered);
    rec
}
