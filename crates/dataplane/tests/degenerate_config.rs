//! Absurd cluster shapes degrade, they do not panic.
//!
//! `EpochState::build_with_world` used to assert `clusters > 0 &&
//! devices_per_cluster > 0` (and divide by the cluster count) and to
//! `expect` every device under the ECMP cap. A config is control-plane
//! input: with nothing to place VNIs on, the directory stays empty and
//! every packet default-routes to the software tier; with more devices
//! than the ECMP group admits, the surplus stays out of the group. Either
//! way every packet is accounted for — the no-black-hole identity
//! `TableCounters::unaccounted()` stays at `(0, 0)`.

use sailfish_dataplane::chaos::{self, ChaosConfig};
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::{traffic, RunReport, TierConfig};
use sailfish_net::Vni;
use sailfish_sim::faults::{FaultSchedule, FaultScheduleConfig};
use sailfish_sim::{Topology, TopologyConfig, WorkloadConfig};

fn run(config: DataplaneConfig) -> (Dataplane, RunReport) {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = sailfish_sim::workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 400,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let seq: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let dp = Dataplane::build(&topology, config);
    let report = dp.run_single(&seq, &mut software_forwarder(&topology));
    assert_eq!(report.packets, seq.len() as u64);
    assert_eq!(
        report.counters.unaccounted(),
        (0, 0),
        "{:?}",
        report.counters
    );
    (dp, report)
}

/// Nothing was placed: no VNI has a cluster, no packet was decided in
/// hardware, the software tier served them all.
fn assert_software_only(dp: &Dataplane, report: &RunReport) {
    let state = dp.pin();
    assert_eq!(state.directory.len(), 0);
    assert_eq!(state.directory.cluster_for(Vni::from_const(1_000)), None);
    let c = &report.counters;
    assert_eq!(c.hw_forwarded, 0, "{c:?}");
    assert_eq!(c.epoch_violations, 0, "{c:?}");
    assert!(c.fallback_forwarded > 0, "{c:?}");
}

#[test]
fn zero_clusters_default_route_everything_to_software() {
    let (dp, report) = run(DataplaneConfig {
        clusters: 0,
        ..DataplaneConfig::default()
    });
    assert!(dp.pin().clusters.is_empty());
    assert_software_only(&dp, &report);
}

/// The chaos harness replays faults that name clusters a zero-cluster
/// region does not have: each degrades nothing, and every slot still
/// accounts for every packet.
#[test]
fn chaos_schedule_over_zero_clusters_accounts_for_every_packet() {
    let topology = Topology::generate(TopologyConfig::default());
    let schedule = FaultSchedule::generate(&FaultScheduleConfig {
        slots: 24,
        clusters: DataplaneConfig::default().clusters,
        devices_per_cluster: DataplaneConfig::default().devices_per_cluster,
        fault_rate: 0.5,
        ..FaultScheduleConfig::default()
    });
    assert_eq!(schedule.kinds_present().len(), 9);
    let config = DataplaneConfig {
        clusters: 0,
        tier: Some(TierConfig::default()),
        ..DataplaneConfig::default()
    };
    let cfg = ChaosConfig {
        flows: 300,
        frames_per_slot: 800,
        probe_frames: 400,
        ..ChaosConfig::default()
    };
    let report = chaos::run_schedule(&topology, config, &cfg, &schedule);
    assert_eq!(report.slots.len(), 24);
    for slot in &report.slots {
        assert_eq!(slot.unaccounted, 0, "slot {}", slot.slot);
    }
}

#[test]
fn zero_devices_default_route_everything_to_software() {
    let (dp, report) = run(DataplaneConfig {
        devices_per_cluster: 0,
        ..DataplaneConfig::default()
    });
    assert_software_only(&dp, &report);
}

#[test]
fn devices_past_the_ecmp_cap_stay_out_of_the_group() {
    let config = DataplaneConfig {
        devices_per_cluster: 9,
        ecmp_max: 3,
        ..DataplaneConfig::default()
    };
    let (dp, report) = run(config);
    for cluster in &dp.pin().clusters {
        assert_eq!(cluster.ecmp.members(), [0, 1, 2]);
    }
    // The capped region still forwards in hardware.
    assert!(report.counters.hw_forwarded > 0, "{:?}", report.counters);
}
