//! Cluster-side adapter for the plan-time world verifier
//! ([`sailfish_asic::verify::world`]).
//!
//! The asic-level verifier reasons about opaque units and an abstract
//! [`CapacityModel`]; this module maps the cluster layer's concrete
//! state onto that model:
//!
//! - **units** are VNIs (by their 24-bit value), weighted with the
//!   route/VM entries they carry;
//! - **capacity** is the real per-device first-fit layout allocator —
//!   [`DeviceLoadCapacity`] runs `sailfish_xgw_h::layout`'s production
//!   layout for a cluster's aggregate load, so a world passes exactly
//!   when every device of every cluster can legally hold its share;
//! - a [`SplitPlan`] about to be installed becomes a [`WorldModel`] via
//!   [`staged_world`] (proved by `certify` before any push);
//! - a live [`Region`] plus the moves of a [`ReshardPlan`] become a
//!   world + [`TransitionPlan`] via [`region_world`] / [`transition_of`],
//!   verified in O(delta) against a trusted certificate (the region is
//!   serving traffic, so its base loads are proven by observation).
//!
//! [`CapacityModel`]: sailfish_asic::CapacityModel
//! [`ReshardPlan`]: crate::reshard::ReshardPlan

use std::collections::BTreeSet;

use sailfish_asic::verify::world::{
    self, CapacityModel, CapacityVerdict, TransitionPlan, WorldModel, WorldMove, WorldOptions,
    WorldReport,
};
use sailfish_asic::TofinoConfig;
use sailfish_net::Vni;
use sailfish_sim::Topology;

use crate::controller::{vni_weights, SplitPlan};
use crate::region::Region;
use crate::reshard::VniMove;

/// Unit ids above this base are synthetic per-cluster *resident* units
/// (the non-moving load of a cluster, aggregated); real VNIs are 24-bit
/// so the ranges can never collide.
const RESIDENT_BASE: u64 = 1 << 40;

/// The world id of a VNI.
fn unit_of(vni: Vni) -> u64 {
    u64::from(vni.value())
}

/// Capacity model backed by the production device layout: a cluster can
/// hold an aggregate load iff `sailfish_xgw_h::layout::verify_device_load`
/// proves the per-device program (every device of a cluster carries the
/// full cluster load) places cleanly on the folded pipeline.
#[derive(Debug, Clone, Default)]
pub struct DeviceLoadCapacity {
    config: TofinoConfig,
}

impl CapacityModel for DeviceLoadCapacity {
    fn check(&self, _cluster: usize, routes: usize, vms: usize) -> CapacityVerdict {
        match sailfish_xgw_h::layout::verify_device_load(&self.config, routes, vms) {
            Err(e) => CapacityVerdict::Rejected {
                detail: e.to_string(),
            },
            Ok(report) => {
                if report.is_clean() {
                    let utilization_pct = report
                        .pairs
                        .iter()
                        .map(|p| p.occupancy.sram_pct.max(p.occupancy.tcam_pct))
                        .fold(0.0f64, f64::max);
                    CapacityVerdict::Fits { utilization_pct }
                } else {
                    CapacityVerdict::Rejected {
                        detail: report
                            .errors()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join("; "),
                    }
                }
            }
        }
    }
}

/// Lifts a staged install — a topology about to be pushed under a
/// [`SplitPlan`] — into a [`WorldModel`]. Every entry-carrying VNI is a
/// unit; a VNI the plan does not assign stays unowned, so the world pass
/// proves ownership totality (`SF-E007`) *before* the staging code would
/// panic on the missing assignment.
pub fn staged_world(topology: &Topology, plan: &SplitPlan, label: &str) -> WorldModel {
    let mut model = WorldModel::new(label, plan.clusters_needed());
    let w = vni_weights(topology);
    for (vni, (routes, vms)) in &w {
        let id = unit_of(*vni);
        match plan.assignments.get(vni) {
            Some(cluster) => model.add_unit(id, *routes, *vms, *cluster),
            None => {
                // Unowned unit: entries staged, no owner — recorded
                // without a directory entry so SF-E007 fires.
                model.add_unit(id, *routes, *vms, 0);
                model.primary.remove(&id);
                model.holders.remove(&id);
            }
        }
    }
    // Dangling assignments (a VNI with no entries anywhere) surface as
    // directory divergence.
    let mut dangling: Vec<(Vni, usize)> = plan
        .assignments
        .iter()
        .filter(|(vni, _)| !w.contains_key(*vni))
        .map(|(vni, c)| (*vni, *c))
        .collect();
    dangling.sort();
    for (vni, cluster) in dangling {
        model.primary.insert(unit_of(vni), cluster);
    }
    model
}

/// Lifts a live region and the groups about to move into a
/// [`WorldModel`]. The moving groups appear as real units — primaries
/// from the **live directory**, holders from the split plan plus any
/// dual owner — so a plan whose `from` disagrees with where traffic
/// actually lands is caught (`SF-E010`). Each cluster's non-moving load
/// is aggregated into one synthetic resident unit carrying the plan's
/// recorded per-cluster load minus the moving groups' share.
pub fn region_world(region: &Region, moves: &[VniMove], label: &str) -> WorldModel {
    let clusters = region.plan.clusters_needed();
    let mut model = WorldModel::new(label, clusters);
    let mut moving_weight = vec![(0usize, 0usize); clusters];
    for mv in moves {
        for vni in &mv.vnis {
            let id = unit_of(*vni);
            // The group's weight rides on its leader; the other units of
            // the peer group move with it at zero marginal weight.
            let (routes, vms) = if *vni == mv.leader {
                (mv.routes, mv.vms)
            } else {
                (0, 0)
            };
            model.add_unit(id, routes, vms, 0);
            model.primary.remove(&id);
            model.holders.remove(&id);
            if let Some(owner) = region.directory.cluster_for(*vni) {
                model.primary.insert(id, owner);
            }
            if let Some(assigned) = region.plan.assignments.get(vni) {
                model.add_holder(id, *assigned);
            }
            if let Some(dual) = region.directory.dual_of(*vni) {
                model.add_holder(id, dual);
            }
        }
        if let Some(slot) = moving_weight.get_mut(mv.from) {
            slot.0 += mv.routes;
            slot.1 += mv.vms;
        }
    }
    for (cluster, load) in region.plan.per_cluster.iter().take(clusters).enumerate() {
        let (mr, mv) = moving_weight.get(cluster).copied().unwrap_or((0, 0));
        let id = RESIDENT_BASE + cluster as u64;
        model.add_unit(
            id,
            load.routes.saturating_sub(mr),
            load.vms.saturating_sub(mv),
            cluster,
        );
    }
    model
}

/// The asic-level transition mirroring a set of [`VniMove`]s, every move
/// driven through the full make-before-break sequence (the same serial
/// order `run_plan` uses).
pub fn transition_of(moves: &[VniMove]) -> TransitionPlan {
    TransitionPlan {
        moves: moves
            .iter()
            .map(|m| WorldMove::full(m.vnis.iter().copied().map(unit_of).collect(), m.from, m.to))
            .collect(),
    }
}

/// Verifies a staged install as a whole world: ownership totality,
/// directory bijectivity and per-cluster capacity through the real
/// device-layout allocator. Clean means safe to push.
pub fn verify_staged_world(topology: &Topology, plan: &SplitPlan, label: &str) -> WorldReport {
    let model = staged_world(topology, plan, label);
    world::verify_world(
        &model,
        &DeviceLoadCapacity::default(),
        &WorldOptions::default(),
    )
}

/// Verifies a re-shard (one move or a whole plan) against the live
/// region in O(delta): the base world is covered by a trusted
/// certificate (it is serving traffic), so only the clusters the moves
/// touch cost a capacity call. The report merges structural findings on
/// the base with the transition walk.
pub fn verify_reshard(region: &Region, moves: &[VniMove], label: &str) -> WorldReport {
    let model = region_world(region, moves, label);
    let certificate = world::trusted_certificate(&model);
    let plan = transition_of(moves);
    let mut report = world::verify_plan(
        &model,
        &certificate,
        &plan,
        &DeviceLoadCapacity::default(),
        &WorldOptions::default(),
    );
    report
        .diagnostics
        .extend(world::structure_diagnostics(&model));
    report.normalized()
}

/// Every VNI a set of moves touches, for callers that need to scope a
/// refusal.
pub fn touched_vnis(moves: &[VniMove]) -> BTreeSet<Vni> {
    moves.iter().flat_map(|m| m.vnis.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ClusterCapacity, Controller};
    use crate::region::RegionConfig;
    use crate::reshard::ReshardPlan;
    use sailfish_asic::LintCode;
    use sailfish_sim::TopologyConfig;

    fn topology() -> Topology {
        Topology::generate(TopologyConfig::default())
    }

    fn capacity() -> ClusterCapacity {
        ClusterCapacity {
            max_routes: 600,
            max_vms: 3_000,
        }
    }

    #[test]
    fn planned_split_verifies_clean() {
        let topology = topology();
        let plan = Controller::plan_split(&topology, capacity(), 64).expect("split plans");
        let report = verify_staged_world(&topology, &plan, "staged");
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.stats.capacity_calls, plan.clusters_needed());
    }

    #[test]
    fn unassigned_vni_is_an_uncovered_unit() {
        let topology = topology();
        let mut plan = Controller::plan_split(&topology, capacity(), 64).expect("split plans");
        let victim = *plan.assignments.keys().min().expect("non-empty plan");
        plan.assignments.remove(&victim);
        let report = verify_staged_world(&topology, &plan, "staged");
        assert!(report.has(LintCode::UncoveredUnit), "{}", report.render());
        assert!(!report.is_clean());
    }

    #[test]
    fn dangling_assignment_is_directory_divergence() {
        let topology = topology();
        let mut plan = Controller::plan_split(&topology, capacity(), 64).expect("split plans");
        plan.assignments.insert(Vni::new(0xFFFFFE).expect("vni"), 0);
        let report = verify_staged_world(&topology, &plan, "staged");
        assert!(
            report.has(LintCode::DirectoryDivergence),
            "{}",
            report.render()
        );
    }

    #[test]
    fn reshard_plan_verifies_clean_in_o_delta() {
        let topology = topology();
        let tighter = ClusterCapacity {
            max_routes: 400,
            max_vms: 2_000,
        };
        // The tighter target split needs more clusters; build the region
        // with enough spares that the scale-out is legal.
        let current = Controller::plan_split(&topology, capacity(), 64).expect("split plans");
        let target = Controller::plan_split(&topology, tighter, 64).expect("split plans");
        let config = RegionConfig {
            capacity: capacity(),
            spare_clusters: target
                .clusters_needed()
                .saturating_sub(current.clusters_needed()),
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
        assert!(!plan.moves.is_empty(), "tighter split should force moves");
        let report = verify_reshard(&region, &plan.moves, "reshard");
        assert!(report.is_clean(), "{}", report.render());
        // O(delta): one capacity call per move (the destination at
        // announce), not one per cluster per intermediate world.
        assert_eq!(report.stats.capacity_calls, plan.moves.len());
        assert!(report.stats.cache_hits > 0);
    }

    #[test]
    fn move_from_wrong_source_is_a_black_hole() {
        let topology = topology();
        let config = RegionConfig {
            capacity: capacity(),
            ..RegionConfig::default()
        };
        let region = Region::build(&topology, config).expect("region builds");
        let (vni, owner) = {
            let snapshot = region.directory.snapshot();
            *snapshot.first().expect("directory non-empty")
        };
        let wrong_from = (owner + 1) % region.plan.clusters_needed().max(1);
        let mv = VniMove {
            leader: vni,
            vnis: vec![vni],
            from: wrong_from,
            to: owner,
            routes: 1,
            vms: 1,
        };
        let report = verify_reshard(&region, core::slice::from_ref(&mv), "bad-move");
        assert!(
            report.has(LintCode::TransitionBlackHole),
            "{}",
            report.render()
        );
    }
}
