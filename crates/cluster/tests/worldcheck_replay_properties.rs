//! Seeded replay property for the plan-time world verifier: a
//! [`ReshardPlan`] the verifier proves clean must replay through
//! [`run_plan`] with **zero** dynamic findings — every move commits,
//! nothing rolls back, and the controller's consistency checker finds
//! the region coherent afterwards. This is the constructive half of the
//! soundness differential (the chaos harness covers the destructive
//! half: dynamic violations only where a static rejection was recorded).

use std::collections::BTreeSet;

use sailfish_asic::verify::world::MoveStage;
use sailfish_cluster::controller::{ClusterCapacity, Controller};
use sailfish_cluster::region::RegionConfig;
use sailfish_cluster::reshard::{run_plan, MoveState, ReshardPlan};
use sailfish_cluster::worldcheck::verify_reshard;
use sailfish_cluster::Region;
use sailfish_sim::faults::VirtualClock;
use sailfish_sim::{Topology, TopologyConfig};

const SEEDS: [u64; 6] = [1, 7, 42, 1337, 0xBEEF, 0xE1A5];

fn topology_for(seed: u64) -> Topology {
    Topology::generate(TopologyConfig {
        seed,
        vpcs: 120 + (seed as usize % 5) * 40,
        peering_fraction: 0.2 + (seed % 3) as f64 * 0.1,
        ..TopologyConfig::default()
    })
}

fn tight() -> ClusterCapacity {
    ClusterCapacity {
        max_routes: 600,
        max_vms: 3_000,
    }
}

fn tighter() -> ClusterCapacity {
    ClusterCapacity {
        max_routes: 400,
        max_vms: 2_000,
    }
}

#[test]
fn statically_clean_plans_replay_without_dynamic_findings() {
    for seed in SEEDS {
        let topology = topology_for(seed);
        let current = Controller::plan_split(&topology, tight(), 64).expect("split plans");
        let target = Controller::plan_split(&topology, tighter(), 64).expect("split plans");
        let config = RegionConfig {
            capacity: tight(),
            spare_clusters: target
                .clusters_needed()
                .saturating_sub(current.clusters_needed()),
            ..RegionConfig::default()
        };
        let mut region = Region::build(&topology, config).expect("region builds");
        let plan = ReshardPlan::plan(
            &topology,
            &region.plan,
            &target,
            ClusterCapacity::default(),
            &BTreeSet::new(),
        )
        .expect("plan between valid splits");
        assert!(
            !plan.moves.is_empty(),
            "seed {seed}: tighter split should force moves"
        );

        // Static proof first: the whole move sequence is black-hole-free
        // and within capacity in every intermediate world.
        let world = verify_reshard(&region, &plan.moves, "replay-property");
        assert!(world.is_clean(), "seed {seed}:\n{}", world.render());

        // Replay: a clean verdict must mean a clean run.
        let mut clock = VirtualClock::new();
        let report = run_plan(
            &mut region,
            &topology,
            &plan,
            &mut clock,
            &Default::default(),
            &mut |_, _| None,
        );
        assert!(
            report.static_detail.is_none(),
            "seed {seed}: gate re-rejected a clean plan: {:?}",
            report.static_detail
        );
        assert_eq!(
            report.committed(),
            plan.moves.len(),
            "seed {seed}: not every move drained"
        );
        assert_eq!(report.rolled_back(), 0, "seed {seed}");
        for outcome in &report.outcomes {
            assert_eq!(
                outcome.state,
                MoveState::At(MoveStage::Drain),
                "seed {seed}"
            );
            assert!(
                outcome.error.is_none(),
                "seed {seed}: dynamic finding on {:?}: {:?}",
                outcome.leader,
                outcome.error
            );
        }

        // The directory lands where the plan said it would …
        for mv in &plan.moves {
            for vni in &mv.vnis {
                assert_eq!(
                    region.directory.cluster_for(*vni),
                    Some(mv.to),
                    "seed {seed}: {vni:?} not on its destination"
                );
            }
        }
        // … and the controller's own consistency sweep agrees.
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        assert!(findings.is_empty(), "seed {seed}: {findings:?}");
    }
}
