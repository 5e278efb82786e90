//! Tentpole acceptance: the differential oracle over a seeded Zipf
//! workload.
//!
//! Every packet the hardware executor serves — or punts — must reach the
//! same normalized `(next-hop, rewrite)` decision as the reference
//! XGW-x86 forwarder over the full table set. The tier-1 run here covers
//! tens of thousands of scheduled packets across every decision class;
//! the ≥1M-packet run is Fig 18's measured section (`repro fig18`).

use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::oracle::differential_run;
use sailfish_dataplane::traffic;
use sailfish_sim::{Topology, TopologyConfig, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> (Topology, Vec<Vec<u8>>, Vec<usize>) {
    let topology = Topology::generate(TopologyConfig::default());
    let flow_set = sailfish_sim::workload::generate_flows(
        &topology,
        &WorkloadConfig {
            flows,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flow_set);
    let sched = traffic::schedule(&flow_set[..frames.len()], 60_000, seed);
    (topology, frames, sched)
}

#[test]
fn executor_agrees_with_reference_over_zipf_workload() {
    let (topology, frames, sched) = workload(1_200, 7);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

    let mut fallback = software_forwarder(&topology);
    let mut reference = software_forwarder(&topology);
    let report = differential_run(&dp, &seq, &mut fallback, &mut reference);

    assert_eq!(report.packets, seq.len() as u64);
    assert!(
        report.holds(),
        "{} mismatches over {} packets; first: {:?}",
        report.mismatches,
        report.packets,
        report.first_mismatch
    );
}

#[test]
fn oracle_covers_every_decision_class() {
    // The default topology mixes local, peered, internet, IDC and
    // cross-region VPCs; with the VM stride withholding mappings the run
    // must exercise hardware forwards, punts of all three reasons, and
    // fallback service — otherwise the oracle's "agreement" is vacuous.
    let (topology, frames, sched) = workload(1_200, 7);
    let dp = Dataplane::build(&topology, DataplaneConfig::default());
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
    let mut fallback = software_forwarder(&topology);
    let report = dp.run_single(&seq, &mut fallback);
    let c = &report.counters;
    assert!(c.hw_forwarded > 0, "{c:?}");
    assert!(c.punt_snat > 0, "{c:?}");
    assert!(c.punt_no_vm > 0, "{c:?}");
    assert!(c.fallback_forwarded > 0, "{c:?}");
    assert!(c.vm_hit_main > 0, "{c:?}");
    assert!(c.route_hits > 0, "{c:?}");
}
