//! One table image per cluster.
//!
//! The devices of a cluster "maintain the same table entries" (§4.3):
//! after a build every device slot of a cluster, and of its 1:1 backup,
//! points at one image. A wipe re-points one slot and a reinstall
//! re-points it back to a fresh image of the plan; a push that fails
//! leaves every slot where it was. And the region's controller and the
//! packet path's epoch build fill a cluster identically from the same
//! split plan, whichever planner made it, and at every stage of a live
//! move.
//!
//! The XGW-x86 fleet has the same shape: every node of a region points at
//! one full-region image, the same one the packet path's fallback
//! forwarder is built over.

use std::collections::BTreeSet;
use std::sync::Arc;

use sailfish_asic::verify::world::MoveStage;
use sailfish_cluster::cluster::{HwCluster, SwCluster};
use sailfish_cluster::controller::{
    ClusterCapacity, Controller, InstallError, InstallPolicy, SplitPlan,
};
use sailfish_cluster::lb::VniDirectory;
use sailfish_cluster::region::{Region, RegionConfig};
use sailfish_cluster::reshard::{
    LiveMove, MoveMachine, MoveState, ReshardError, ReshardPlan, VniMove,
};
use sailfish_dataplane::executor::software_forwarder;
use sailfish_dataplane::traffic::packet_for_flow;
use sailfish_dataplane::{DataplaneConfig, EpochState, WorldView};
use sailfish_sim::faults::{InstallFault, VirtualClock};
use sailfish_sim::workload::{generate_flows, WorkloadConfig};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::snat::SnatConfig;
use sailfish_xgw_h::HardwareTables;
use sailfish_xgw_x86::{SoftwareForwarder, XgwX86Config};

fn tight() -> ClusterCapacity {
    ClusterCapacity {
        max_routes: 600,
        max_vms: 3_000,
    }
}

fn region(topology: &Topology) -> Region {
    Region::build(
        topology,
        RegionConfig {
            hw_clusters: 4,
            spare_clusters: 1,
            devices_per_cluster: 3,
            sw_nodes: 2,
            capacity: tight(),
            ..RegionConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn devices_and_backups_share_one_image_per_cluster() {
    let topology = Topology::generate(TopologyConfig::default());
    let region = region(&topology);
    let primaries = region.plan.clusters_needed();
    assert!(primaries > 2);
    let mut distinct: Vec<&Arc<HardwareTables>> = Vec::new();
    for hw in &region.hw {
        for image in &hw.devices {
            if !distinct.iter().any(|seen| Arc::ptr_eq(seen, image)) {
                distinct.push(image);
            }
        }
    }
    assert_eq!(distinct.len(), primaries);
    for cluster in 0..primaries {
        let backup = region.backup_of(cluster).unwrap();
        let image = &region.hw[cluster].devices[0];
        for slot in region.hw[cluster]
            .devices
            .iter()
            .chain(&region.hw[backup].devices)
        {
            assert!(Arc::ptr_eq(slot, image), "cluster {cluster}");
        }
    }
}

#[test]
fn wipe_then_reinstall_repoints_one_slot() {
    let topology = Topology::generate(TopologyConfig::default());
    let mut region = region(&topology);
    let image = Arc::clone(&region.hw[0].devices[0]);
    region.hw[0].wipe_device(1);
    assert!(!Arc::ptr_eq(&region.hw[0].devices[1], &image));
    let findings = region
        .controller
        .check_consistency(&region.plan, &region.hw);
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.cluster == 0 && f.device == 1));

    let plan = region.plan.clone();
    region
        .controller
        .reinstall_device(
            &topology,
            &plan,
            &mut region.hw,
            0,
            0,
            1,
            &mut VirtualClock::new(),
            &InstallPolicy::default(),
            &mut |_, _| None,
        )
        .unwrap();
    let slots = &region.hw[0].devices;
    assert!(!Arc::ptr_eq(&slots[1], &image), "a fresh image of the plan");
    assert_eq!(slots[1].routes.len(), image.routes.len());
    assert_eq!(slots[1].vm_nc.len(), image.vm_nc.len());
    assert!(Arc::ptr_eq(&slots[0], &image) && Arc::ptr_eq(&slots[2], &image));
    assert!(region
        .controller
        .check_consistency(&region.plan, &region.hw)
        .is_empty());
}

#[test]
fn failed_partial_pushes_leave_the_old_image() {
    let always_partial = |_: usize, _: u32| Some(InstallFault::Partial { fraction: 0.5 });
    let policy = InstallPolicy {
        max_attempts: 3,
        ..InstallPolicy::default()
    };

    // A fresh install: the clusters keep their empty images.
    let topology = Topology::generate(TopologyConfig::default());
    let plan = Controller::plan_split(&topology, tight(), 8).unwrap();
    let mut hw: Vec<HwCluster> = (0..plan.clusters_needed())
        .map(|id| HwCluster::new(id, 3, 16, Default::default(), 0).unwrap())
        .collect();
    let empty: Vec<Vec<Arc<HardwareTables>>> = hw.iter().map(|c| c.devices.clone()).collect();
    let mut sw = SwCluster::new(1, 16, XgwX86Config::default(), SnatConfig::default()).unwrap();
    let err = Controller::new()
        .install_with(
            &topology,
            &plan,
            &mut hw,
            &mut sw,
            &mut VniDirectory::new(),
            &mut VirtualClock::new(),
            &policy,
            &mut always_partial.clone(),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        InstallError::RetriesExhausted { cluster: 0, .. }
    ));
    for (cluster, before) in hw.iter().zip(&empty) {
        for (slot, old) in cluster.devices.iter().zip(before) {
            assert!(Arc::ptr_eq(slot, old));
        }
    }

    // A re-shard announce: destination and backup keep their images.
    let mut region = region(&topology);
    let spare = region.plan.clusters_needed() - 1;
    let mut target = region.plan.clone();
    for (_, cluster) in target.assignments.iter_mut() {
        if *cluster == 0 {
            *cluster = spare;
        }
    }
    let moves = ReshardPlan::plan(
        &topology,
        &region.plan,
        &target,
        ClusterCapacity::default(),
        &BTreeSet::new(),
    )
    .unwrap();
    let backup = region.backup_of(spare).unwrap();
    let before: Vec<Arc<HardwareTables>> = region.hw[spare]
        .devices
        .iter()
        .chain(&region.hw[backup].devices)
        .cloned()
        .collect();
    let mut machine = MoveMachine::new(&topology, moves.moves[0].clone());
    let err = machine
        .announce(
            &mut region,
            &mut VirtualClock::new(),
            &policy,
            &mut always_partial.clone(),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ReshardError::Install(InstallError::RetriesExhausted { .. })
    ));
    let after = region.hw[spare]
        .devices
        .iter()
        .chain(&region.hw[backup].devices);
    for (slot, old) in after.zip(&before) {
        assert!(Arc::ptr_eq(slot, old));
    }

    // A backup push that fails unwinds the destination's.
    let mut calls = 0;
    let mut machine = MoveMachine::new(&topology, moves.moves[0].clone());
    machine
        .announce(
            &mut region,
            &mut VirtualClock::new(),
            &policy,
            &mut |cluster, _| {
                calls += 1;
                (cluster == backup).then_some(InstallFault::Timeout)
            },
        )
        .unwrap_err();
    assert!(calls > 1, "the destination push ran first");
    for (slot, old) in region.hw[spare].devices.iter().zip(&before) {
        assert!(Arc::ptr_eq(slot, old));
    }
}

/// Per-VNI route counts, VM count, and the walk of every flow agree
/// between two images.
fn assert_same_image(
    a: &HardwareTables,
    b: &HardwareTables,
    flows: &[sailfish_sim::workload::Flow],
    what: &str,
) {
    assert_eq!(a.routes.vnis(), b.routes.vnis(), "{what}");
    for vni in a.routes.vnis() {
        assert_eq!(
            a.routes.len_for_vni(vni),
            b.routes.len_for_vni(vni),
            "{what}: {vni}"
        );
    }
    assert_eq!(a.vm_nc.len(), b.vm_nc.len(), "{what}");
    for flow in flows {
        assert_eq!(
            a.walk(flow.vni, &flow.tuple, &mut ()),
            b.walk(flow.vni, &flow.tuple, &mut ()),
            "{what}: flow to {} in {}",
            flow.tuple.dst_ip,
            flow.vni
        );
    }
}

/// The group's directory owners and per-cluster route counts agree
/// between the region, where a `MoveMachine` drove `mv` to `state`, and
/// an epoch built from the pre-move plan with `mv` live at that stage.
fn assert_region_matches_epoch(
    topology: &Topology,
    region: &Region,
    premove: &SplitPlan,
    mv: &VniMove,
    state: MoveState,
    what: &str,
) {
    let mut world = WorldView::healthy();
    if let MoveState::At(stage) = state {
        let live = LiveMove {
            from: mv.from,
            to: mv.to,
            stage,
        };
        world.moves.insert(mv.leader, live);
    }
    let config = DataplaneConfig {
        clusters: premove.clusters_needed(),
        hw_vm_stride: 0,
        ..DataplaneConfig::default()
    };
    let epoch = EpochState::build_planned(topology, &config, 1, &world, premove);
    for vni in &mv.vnis {
        assert_eq!(
            region.directory.owners_for(*vni),
            epoch.directory.owners_for(*vni),
            "{what}: owners of {vni}"
        );
        for (c, cluster) in epoch.clusters.iter().enumerate() {
            assert_eq!(
                region.hw[c].route_entries_for(0, *vni),
                cluster.tables.routes.len_for_vni(*vni),
                "{what}: routes of {vni} on cluster {c}"
            );
        }
    }
}

#[test]
fn region_and_epoch_fill_a_cluster_identically() {
    for seed in [1, 7, 42, 1337] {
        let topology = Topology::generate(TopologyConfig {
            seed,
            vpcs: 120 + (seed as usize % 5) * 40,
            ..TopologyConfig::default()
        });
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                seed,
                flows: 1_500,
                ..WorkloadConfig::default()
            },
        );
        let build = || {
            Region::build(
                &topology,
                RegionConfig {
                    capacity: tight(),
                    hw_clusters: 8,
                    spare_clusters: 1,
                    ..RegionConfig::default()
                },
            )
            .unwrap()
        };
        let region = build();
        let planned = Controller::plan_split(&topology, tight(), 8).unwrap();
        for (planner, plan) in [
            ("plan_split", planned),
            ("by_anchor", SplitPlan::by_anchor(&topology, 4)),
        ] {
            // The region's install path, from this plan.
            let mut hw: Vec<HwCluster> = (0..plan.clusters_needed())
                .map(|id| HwCluster::new(id, 2, 16, Default::default(), 0).unwrap())
                .collect();
            let mut sw =
                SwCluster::new(1, 16, XgwX86Config::default(), SnatConfig::default()).unwrap();
            let mut directory = VniDirectory::new();
            Controller::new()
                .install(&topology, &plan, &mut hw, &mut sw, &mut directory)
                .unwrap();
            // The packet path's build, from the same plan, every VM on chip.
            let config = DataplaneConfig {
                clusters: plan.clusters_needed(),
                hw_vm_stride: 0,
                ..DataplaneConfig::default()
            };
            let epoch =
                EpochState::build_planned(&topology, &config, 1, &WorldView::healthy(), &plan);
            assert_eq!(directory.snapshot(), epoch.directory.snapshot());
            for (c, cluster) in hw.iter().enumerate() {
                let what = format!("seed {seed}, {planner}, cluster {c}");
                assert_same_image(
                    &cluster.devices[0],
                    &epoch.clusters[c].tables,
                    &flows,
                    &what,
                );
                if planner == "plan_split" {
                    assert_same_image(&region.hw[c].devices[0], &cluster.devices[0], &flows, &what);
                }
            }
        }

        // A live move: cluster 0's first group onto the spare, driven
        // to Drain, and separately rolled back from Dual.
        let premove = region.plan.clone();
        let spare = premove.clusters_needed() - 1;
        let mut target = premove.clone();
        for cluster in target.assignments.values_mut() {
            if *cluster == 0 {
                *cluster = spare;
            }
        }
        let moves = ReshardPlan::plan(
            &topology,
            &premove,
            &target,
            ClusterCapacity::default(),
            &BTreeSet::new(),
        )
        .unwrap();
        let mv = &moves.moves[0];
        for rollback in [false, true] {
            let mut region = build();
            let mut machine = MoveMachine::new(&topology, mv.clone());
            machine
                .announce(
                    &mut region,
                    &mut VirtualClock::new(),
                    &InstallPolicy::default(),
                    &mut |_, _| None,
                )
                .unwrap();
            let what = format!("seed {seed}, rollback {rollback}");
            let check = |region: &Region, state: MoveState| {
                let what = format!("{what}, {state:?}");
                assert_region_matches_epoch(&topology, region, &premove, mv, state, &what);
            };
            check(&region, machine.state());
            let advances = if rollback { 1 } else { 3 };
            for _ in 0..advances {
                machine.advance(&mut region).unwrap();
                check(&region, machine.state());
            }
            if rollback {
                machine.rollback(&mut region).unwrap();
                assert_eq!(machine.state(), MoveState::RolledBack);
                check(&region, machine.state());
            } else {
                assert_eq!(machine.state(), MoveState::At(MoveStage::Drain));
            }
        }
    }
}

#[test]
fn x86_nodes_share_one_image_equal_to_the_fallback_forwarders() {
    for seed in [1, 7, 42, 1337] {
        let topology = Topology::generate(TopologyConfig {
            seed,
            vpcs: 120 + (seed as usize % 5) * 40,
            ..TopologyConfig::default()
        });
        let region = Region::build(
            &topology,
            RegionConfig {
                capacity: tight(),
                hw_clusters: 8,
                ..RegionConfig::default()
            },
        )
        .unwrap();
        let image = &region.sw.nodes[0].forwarder.tables;
        assert_eq!(region.sw.nodes.len(), 4);
        for node in &region.sw.nodes {
            assert!(Arc::ptr_eq(&node.forwarder.tables, image), "seed {seed}");
        }

        // Same SNAT pool on both sides, so bindings compare too.
        let mut fallback = software_forwarder(&topology);
        let mut node = SoftwareForwarder::new(Arc::clone(image), SnatConfig::default());
        assert_eq!(image.routes.len(), fallback.tables.routes.len());
        assert_eq!(image.vm_nc.len(), fallback.tables.vm_nc.len());
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                seed,
                flows: 1_500,
                ..WorkloadConfig::default()
            },
        );
        for (i, flow) in flows.iter().enumerate() {
            let packet = packet_for_flow(flow);
            let now = i as u64;
            assert_eq!(
                node.process(&packet, now),
                fallback.process(&packet, now),
                "seed {seed}: flow to {} in {}",
                flow.tuple.dst_ip,
                flow.vni
            );
        }
    }
}
