//! Epoch-consistency properties: live installs interleaved with traffic
//! batches must never tear the dataplane's view.
//!
//! The contract under test (see `dataplane::epoch`):
//!
//! - every batch is served entirely by one epoch (pinned once per batch),
//! - `epoch_violations` stays zero across arbitrary install/batch
//!   interleavings (no packet ever observes a cluster tagged with a
//!   different epoch than the directory that routed it), and
//! - the per-epoch decision digest of a live dataplane that swapped
//!   mid-run equals the digest a *fresh* dataplane pinned at that world
//!   computes for the same frames — installs change *which* epoch serves
//!   a batch, never *what* an epoch decides.

use std::collections::BTreeSet;

use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::{traffic, Dataplane, DataplaneConfig, EpochState, WorldView};
use sailfish_sim::workload::{self, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_util::check;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::Rng;

fn setup() -> (Topology, Vec<Vec<u8>>, Vec<sailfish_sim::Flow>) {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 400,
            internet_share: 0.01,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let flows = flows[..frames.len()].to_vec();
    (topology, frames, flows)
}

/// A small palette of worlds an install can publish.
fn world_palette() -> Vec<WorldView> {
    let mut wiped = WorldView::healthy();
    wiped.wiped_clusters.insert(1);
    let mut unassigned = WorldView::healthy();
    unassigned.unassigned_clusters.insert(2);
    let mut dead = WorldView::healthy();
    dead.dead_devices.insert((0, 1));
    let mut combo = WorldView::healthy();
    combo.wiped_clusters.insert(3);
    combo.dead_devices.insert((2, 0));
    vec![WorldView::healthy(), wiped, unassigned, dead, combo]
}

/// Seeded interleavings of installs and batches: violations stay zero and
/// each epoch's digest matches a fresh dataplane pinned at that world.
#[test]
fn interleaved_installs_never_tear_and_digests_pin_per_epoch() {
    let (topology, frames, flows) = setup();
    let config = DataplaneConfig::default();
    let palette = world_palette();

    check::run("install_batch_interleaving", 8, |rng: &mut StdRng| {
        let dp = Dataplane::build(&topology, config.clone());
        let mut current_world = WorldView::healthy();
        let mut served_epochs: BTreeSet<u64> = BTreeSet::new();

        for step in 0..6 {
            if step > 0 && rng.gen_bool(0.5) {
                // Install: publish a randomly chosen world as a staged
                // epoch swap.
                let world = rng.choose(&palette).expect("palette non-empty").clone();
                let staged =
                    EpochState::build_with_world(&topology, &config, dp.next_epoch(), &world);
                dp.publish(staged);
                current_world = world;
            }
            // Batch slice: a seeded Zipf slice of the traffic pool.
            let sched = traffic::schedule(&flows, 1_500, rng.gen::<u64>());
            let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
            let mut fallback = software_forwarder(&topology);
            let live = dp.run_single(&seq, &mut fallback);

            assert_eq!(live.counters.epoch_violations, 0, "torn epoch observed");
            assert_eq!(live.counters.parse_errors, 0);
            // The whole run was served by the single currently-published
            // epoch (no publish happened mid-run here).
            let epoch = dp.pin().epoch;
            assert_eq!(
                live.epoch_digests.keys().copied().collect::<Vec<u64>>(),
                vec![epoch],
            );
            served_epochs.insert(epoch);

            // Per-epoch digest oracle: a fresh dataplane pinned at the
            // same world decides the same frames identically. Digests are
            // keyed by epoch number but their value is epoch-agnostic.
            let fresh = Dataplane::build(&topology, config.clone());
            if current_world != WorldView::healthy() {
                let staged = EpochState::build_with_world(
                    &topology,
                    &config,
                    fresh.next_epoch(),
                    &current_world,
                );
                fresh.publish(staged);
            }
            let fresh_epoch = fresh.pin().epoch;
            let mut fresh_fallback = software_forwarder(&topology);
            let reference = fresh.run_single(&seq, &mut fresh_fallback);
            assert_eq!(
                live.epoch_digests.get(&epoch),
                reference.epoch_digests.get(&fresh_epoch),
                "epoch {epoch} digest diverged from a fresh pin of the same world"
            );
            // Full decision digest (hardware + fallback) matches too.
            assert_eq!(live.decision_digest, reference.decision_digest);
        }
        assert_eq!(dp.epoch_swaps(), dp.pin().epoch);
        assert!(!served_epochs.is_empty());
    });
}

/// An old pin stays fully consistent after newer epochs publish: batches
/// run against the pinned snapshot see zero violations and identical
/// decisions before and after the swap (RCU grace-period behavior).
#[test]
fn pinned_snapshot_survives_later_publishes() {
    let (topology, frames, flows) = setup();
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());

    let sched = traffic::schedule(&flows, 4_000, 1234);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
    let mut fb = software_forwarder(&topology);
    let before = dp.run_single(&seq, &mut fb);

    let pinned = dp.pin();
    let mut world = WorldView::healthy();
    world.wiped_clusters.insert(0);
    world.unassigned_clusters.insert(1);
    dp.publish(EpochState::build_with_world(
        &topology,
        &config,
        dp.next_epoch(),
        &world,
    ));

    // The old snapshot is untouched by the swap.
    assert_eq!(pinned.epoch, 0);
    assert!(pinned.tags_consistent());
    assert!(pinned.directory.snapshot().iter().any(|(_, c)| *c == 1));

    // The live dataplane now decides against the degraded epoch...
    let mut fb2 = software_forwarder(&topology);
    let after = dp.run_single(&seq, &mut fb2);
    assert_eq!(after.counters.epoch_violations, 0);
    assert!(after.epoch_digests.contains_key(&1));
    assert!(after.counters.punted() > before.counters.punted());

    // ...while a fresh dataplane replays the healthy epoch's exact
    // decisions, proving the old state was never mutated in place.
    let fresh = Dataplane::build(&topology, config.clone());
    let mut fb3 = software_forwarder(&topology);
    let replay = fresh.run_single(&seq, &mut fb3);
    assert_eq!(replay.decision_digest, before.decision_digest);
    assert_eq!(replay.epoch_digests, before.epoch_digests);
}

/// Concurrent multi-worker traffic with a publisher thread swapping
/// epochs mid-run: every batch lands on an entirely-old or entirely-new
/// epoch (violations zero), digests land only on published epochs, and
/// the accounting identity holds.
#[test]
fn concurrent_publishes_never_tear_multi_worker_batches() {
    let (topology, frames, flows) = setup();
    let config = DataplaneConfig::default();
    let dp = Dataplane::build(&topology, config.clone());

    let sched = traffic::schedule(&flows, 60_000, 77);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut world = WorldView::healthy();
    world.wiped_clusters.insert(2);

    let report = std::thread::scope(|scope| {
        let dp_ref = &dp;
        let topo_ref = &topology;
        let config_ref = &config;
        let world_ref = &world;
        let publisher = scope.spawn(move || {
            // Publish a handful of alternating healthy/degraded epochs
            // while the workers chew through the frame sequence.
            for i in 1..=6u64 {
                std::thread::yield_now();
                let w = if i % 2 == 0 {
                    WorldView::healthy()
                } else {
                    world_ref.clone()
                };
                let staged =
                    EpochState::build_with_world(topo_ref, config_ref, dp_ref.next_epoch(), &w);
                dp_ref.publish(staged);
            }
        });
        let mut fallback = software_forwarder(topo_ref);
        let report = dp_ref.run_multi(&seq, &mut fallback);
        publisher.join().expect("publisher panicked");
        report
    });

    assert_eq!(report.counters.epoch_violations, 0, "torn batch observed");
    assert_eq!(report.counters.parse_errors, 0);
    // Digests only ever land on epochs that were actually published.
    assert_eq!(dp.epoch_swaps(), 6);
    for epoch in report.epoch_digests.keys() {
        assert!(*epoch <= 6, "digest on unpublished epoch {epoch}");
    }
    // No black hole under concurrent swaps.
    assert_eq!(report.counters.unaccounted(), (0, 0));
}
