//! Chaos harness: replays deterministic fault schedules against a region.
//!
//! [`sailfish_sim::faults`] generates pure-data schedules; this module
//! interprets them against a live [`Region`], driving the §6.1 recovery
//! machinery — the cluster/node/port disaster-recovery ladder, two-phase
//! installs with bounded retry, consistency-check detection of silent
//! corruption, and probe-gated re-admission — while recording per-slot
//! loss, fallback share, per-fault recovery timing, and invariant checks.
//! Everything runs in virtual time with seeded randomness, so a schedule
//! replays byte-for-byte.

use std::collections::BTreeSet;

use sailfish_net::Vni;
use sailfish_sim::faults::{FaultEvent, FaultKind, FaultSchedule, VirtualClock};
use sailfish_sim::topology::Topology;
use sailfish_sim::workload::Flow;

use crate::controller::{InstallInjector, InstallPolicy};
use crate::failover::{self, RecoveryError};
use crate::probe::{self, Probe};
use crate::region::Region;

/// Harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Virtual nanoseconds per measurement slot.
    pub slot_ns: u64,
    /// Probes per behaviour class for the re-admission gate.
    pub probes_per_class: usize,
    /// Retry/backoff policy for repair installs.
    pub policy: InstallPolicy,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            slot_ns: 1_000_000_000,
            probes_per_class: 3,
            policy: InstallPolicy::default(),
        }
    }
}

/// One measurement slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotSample {
    /// Slot index.
    pub slot: u64,
    /// Region loss ratio for the slot.
    pub loss_ratio: f64,
    /// Share of offered traffic degraded to the XGW-x86 path.
    pub fallback_share: f64,
    /// Whether any fault window covered the slot.
    pub fault_active: bool,
}

/// What happened to one scheduled fault.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The schedule entry.
    pub event: FaultEvent,
    /// Stable label of the fault kind.
    pub label: &'static str,
    /// Slot at which the fault was *detected* (consistency check);
    /// faults injected via explicit alerts are detected at injection.
    pub detected_at: Option<u64>,
    /// Slot at which recovery completed.
    pub recovered_at: Option<u64>,
    /// Push attempts the repair install needed (0 when no install ran).
    pub install_attempts: u32,
    /// Virtual time the repair install consumed (retries + backoff).
    pub repair_virtual_ns: u64,
}

/// An invariant the region broke during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Slot at which it was observed.
    pub slot: u64,
    /// Description.
    pub what: String,
}

/// The outcome of replaying one schedule.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-slot measurements.
    pub samples: Vec<SlotSample>,
    /// Per-fault outcomes, in schedule order.
    pub faults: Vec<FaultRecord>,
    /// Invariant violations (must be empty for a hardened region).
    pub violations: Vec<InvariantViolation>,
    /// Loss ratio of the clean baseline slot (slot 0).
    pub baseline_loss: f64,
    /// Whether the VNI directory ended byte-identical to its start state.
    pub directory_restored: bool,
}

impl ChaosReport {
    /// Mean time-to-repair over faults that ran a repair install, in
    /// virtual nanoseconds.
    pub fn mean_repair_ns(&self) -> f64 {
        let repairs: Vec<u64> = self
            .faults
            .iter()
            .filter(|f| f.repair_virtual_ns > 0)
            .map(|f| f.repair_virtual_ns)
            .collect();
        if repairs.is_empty() {
            0.0
        } else {
            repairs.iter().sum::<u64>() as f64 / repairs.len() as f64
        }
    }

    /// Worst slot loss while no fault window was active.
    pub fn max_loss_outside_faults(&self) -> f64 {
        self.samples
            .iter()
            .filter(|s| !s.fault_active)
            .map(|s| s.loss_ratio)
            .fold(0.0, f64::max)
    }

    /// Worst slot loss overall.
    pub fn max_loss(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.loss_ratio)
            .fold(0.0, f64::max)
    }

    /// Faults whose recovery completed.
    pub fn recovered_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.recovered_at.is_some())
            .count()
    }
}

/// Replays `schedule` against `region`, offering `flows` once per slot.
///
/// Slot order: recoveries due this slot run first, then injections, then
/// the traffic offer, then detection (consistency check) and invariant
/// checks. Fault windows are therefore exactly `[at, ends_at)`: a slot at
/// `ends_at` measures the recovered region.
pub fn run_schedule(
    region: &mut Region,
    topology: &Topology,
    flows: &[Flow],
    schedule: &FaultSchedule,
    config: &ChaosConfig,
) -> ChaosReport {
    let baseline_snapshot = region.directory.snapshot();
    let mut samples = Vec::with_capacity(schedule.slots as usize);
    let mut faults: Vec<FaultRecord> = schedule
        .events
        .iter()
        .map(|e| FaultRecord {
            event: *e,
            label: e.kind.label(),
            detected_at: None,
            recovered_at: None,
            install_attempts: 0,
            repair_virtual_ns: 0,
        })
        .collect();
    let mut baseline_loss = 0.0;
    let mut harness = Harness {
        region,
        topology,
        probes: probe::generate(topology, config.probes_per_class),
        config,
        clock: VirtualClock::new(),
        violations: Vec::new(),
        slot: 0,
    };

    for slot in 0..schedule.slots {
        harness.slot = slot;
        harness.clock.advance(config.slot_ns);

        // Recoveries due this slot (window ended).
        for fault in &mut faults {
            if fault.event.ends_at() == slot && fault.recovered_at.is_none() {
                harness.recover(fault);
            }
        }

        // Injections.
        for fault in &mut faults {
            if fault.event.at == slot {
                harness.inject(fault);
            }
        }

        // Offer one interval, amplified by any active heavy-hitter storm.
        let multiplier = schedule
            .events
            .iter()
            .filter(|e| slot >= e.at && slot < e.ends_at())
            .filter_map(|e| match e.kind {
                FaultKind::HeavyHitterStorm { multiplier }
                | FaultKind::ConnectionStorm { multiplier, .. } => Some(multiplier),
                _ => None,
            })
            .fold(1.0, f64::max);
        let region = &mut *harness.region;
        let report = region.offer(flows, multiplier);
        if slot == 0 {
            baseline_loss = report.loss_ratio();
        }
        samples.push(SlotSample {
            slot,
            loss_ratio: report.loss_ratio(),
            fallback_share: report.fallback_share(),
            fault_active: schedule.fault_active_at(slot),
        });

        // Detection: the periodic consistency check localizes silent
        // corruption; findings not attributable to an active corruption
        // fault are violations.
        let findings = region
            .controller
            .check_consistency(&region.plan, &region.hw);
        for finding in &findings {
            let mut attributed = false;
            for f in faults.iter_mut().filter(|f| {
                matches!(
                    f.event.kind,
                    FaultKind::TableCorruption { cluster, device }
                        if cluster == finding.cluster && device == finding.device
                ) && f.event.at <= slot
                    && slot < f.event.ends_at()
            }) {
                attributed = true;
                f.detected_at.get_or_insert(slot);
            }
            if !attributed {
                harness.fail(format!("unattributed inconsistency: {finding:?}"));
            }
        }

        harness.check_invariants(report.unrouted_pps);
    }

    let directory_restored = harness.region.directory.snapshot() == baseline_snapshot;
    ChaosReport {
        samples,
        faults,
        violations: harness.violations,
        baseline_loss,
        directory_restored,
    }
}

/// What one schedule replay threads through every fault action.
struct Harness<'a> {
    region: &'a mut Region,
    topology: &'a Topology,
    probes: Vec<Probe>,
    config: &'a ChaosConfig,
    clock: VirtualClock,
    violations: Vec<InvariantViolation>,
    /// The slot being replayed.
    slot: u64,
}

impl Harness<'_> {
    fn fail(&mut self, what: String) {
        self.violations.push(InvariantViolation {
            slot: self.slot,
            what,
        });
    }

    /// Runs the probe gate for `(cluster, device)` and records a
    /// violation on anything but success. The single place the four
    /// recovery paths (install failure, node death, cluster failure,
    /// table corruption) funnel their re-admission through.
    fn readmit(&mut self, cluster: usize, device: usize) -> bool {
        match failover::readmit_device(self.region, &self.probes, cluster, device) {
            Ok(_) => true,
            Err(RecoveryError::ProbeGateFailed { failures, .. }) => {
                self.fail(format!(
                    "probe gate refused ({cluster},{device}): {failures} failures"
                ));
                false
            }
            Err(e) => {
                self.fail(format!("readmit({cluster},{device}): {e}"));
                false
            }
        }
    }

    fn inject(&mut self, record: &mut FaultRecord) {
        let slot = self.slot;
        match record.event.kind {
            FaultKind::NodeDeath { cluster, device } => {
                record.detected_at = Some(slot);
                if let Err(e) = failover::fail_device(self.region, cluster, device) {
                    self.fail(format!("fail_device({cluster},{device}): {e}"));
                }
            }
            FaultKind::PortDegradation {
                cluster,
                device,
                healthy_fraction,
            } => {
                record.detected_at = Some(slot);
                if let Err(e) =
                    failover::isolate_ports(self.region, cluster, device, healthy_fraction)
                {
                    self.fail(format!("isolate_ports({cluster},{device}): {e}"));
                }
            }
            FaultKind::ClusterFailure { cluster } => {
                record.detected_at = Some(slot);
                for device in 0..self.region.config.devices_per_cluster {
                    if let Err(e) = failover::fail_device(self.region, cluster, device) {
                        self.fail(format!("fail_device({cluster},{device}): {e}"));
                    }
                }
                if let Err(e) = failover::fail_cluster(self.region, cluster) {
                    self.fail(format!("fail_cluster({cluster}): {e}"));
                }
            }
            FaultKind::InstallFailure {
                cluster,
                device,
                fault,
            } => {
                // A maintenance reinstall whose pushes fault for
                // `duration` consecutive attempts: the two-phase installer
                // must retry with backoff, roll back partials, and land a
                // verified install; the probe gate then re-admits the
                // device. All of it happens inside the slot — the point of
                // the hardening is that traffic never sees the faulty
                // pushes.
                record.detected_at = Some(slot);
                let faulty_attempts = record
                    .event
                    .duration
                    .min(u64::from(self.config.policy.max_attempts) - 1)
                    as u32;
                self.repair_device(record, cluster, device, &mut |_, attempt| {
                    (attempt < faulty_attempts).then_some(fault)
                });
            }
            FaultKind::TableCorruption { cluster, device } => {
                // Silent: the device keeps serving with empty tables. Only
                // the consistency check / probe sweep can spot it.
                self.region.hw[cluster].wipe_device(device);
            }
            FaultKind::HeavyHitterStorm { .. } => {
                record.detected_at = Some(slot);
            }
            FaultKind::ConnectionStorm { .. } => {
                // Load-only, like a heavy-hitter storm: visible immediately
                // in the punt/SNAT counters, no table state to corrupt.
                record.detected_at = Some(slot);
            }
            FaultKind::DpuNodeDeath { .. } | FaultKind::DpuPoolSaturation { .. } => {
                // The DPU middle tier sits between the chip and the x86
                // fallback; the region model here collapses both software
                // rungs, so these faults shift load inside that aggregate
                // without changing region routing. The packet-level harness
                // (`sailfish_dataplane::chaos`) replays them against the
                // real three-tier ladder; this one records detection so the
                // schedule's MTTR accounting still covers every kind.
                record.detected_at = Some(slot);
            }
        }
    }

    fn recover(&mut self, record: &mut FaultRecord) {
        let slot = self.slot;
        match record.event.kind {
            FaultKind::NodeDeath { cluster, device } => {
                // Tables survived the outage; the probe gate verifies that
                // before the device rejoins the ECMP group.
                if self.readmit(cluster, device) {
                    record.recovered_at = Some(slot);
                }
            }
            FaultKind::PortDegradation {
                cluster, device, ..
            } => match failover::restore_ports(self.region, cluster, device) {
                Ok(_) => record.recovered_at = Some(slot),
                Err(e) => self.fail(format!("restore_ports({cluster},{device}): {e}")),
            },
            FaultKind::ClusterFailure { cluster } => {
                let mut ok = true;
                for device in 0..self.region.config.devices_per_cluster {
                    ok &= self.readmit(cluster, device);
                }
                match failover::restore_cluster(self.region, cluster) {
                    Ok(_) if ok => record.recovered_at = Some(slot),
                    Ok(_) => {}
                    Err(e) => self.fail(format!("restore_cluster({cluster}): {e}")),
                }
            }
            FaultKind::InstallFailure { .. } => {
                // Recovered at injection (the retry loop ran to completion).
            }
            FaultKind::TableCorruption { cluster, device } => {
                self.repair_device(record, cluster, device, &mut |_, _| None);
            }
            FaultKind::HeavyHitterStorm { .. } => {
                record.recovered_at = Some(slot);
            }
            FaultKind::ConnectionStorm { .. } => {
                record.recovered_at = Some(slot);
            }
            FaultKind::DpuNodeDeath { .. } | FaultKind::DpuPoolSaturation { .. } => {
                // Consistent-hash spillover re-homes the dead node's flows
                // (or the saturation shed ends); the window closing is the
                // recovery.
                record.recovered_at = Some(slot);
            }
        }
    }

    /// The documented repair ladder for one device: offline, rebuild from
    /// the plan through the two-phase installer (its pushes faulting as
    /// `injector` says), probe-gate back in.
    fn repair_device(
        &mut self,
        record: &mut FaultRecord,
        cluster: usize,
        device: usize,
        injector: &mut InstallInjector<'_>,
    ) {
        if let Err(e) = failover::fail_device(self.region, cluster, device) {
            self.fail(format!("fail_device({cluster},{device}): {e}"));
        }
        let region = &mut *self.region;
        let plan = region.plan.clone();
        let result = region.controller.reinstall_device(
            self.topology,
            &plan,
            &mut region.hw,
            cluster,
            cluster,
            device,
            &mut self.clock,
            &self.config.policy,
            injector,
        );
        match result {
            Ok(report) => {
                record.install_attempts = report.attempts;
                record.repair_virtual_ns = report.virtual_ns;
            }
            Err(e) => self.fail(format!("reinstall({cluster},{device}): {e}")),
        }
        if self.readmit(cluster, device) {
            record.recovered_at = Some(self.slot);
        }
    }

    /// Region invariants that must hold in *every* slot, faulted or not:
    /// the directory covers exactly the planned VNIs, every VNI is served by
    /// its planned cluster or that cluster's backup, peered VPCs stay
    /// co-located, and no traffic is black-holed.
    fn check_invariants(&mut self, unrouted_pps: f64) {
        let region = &*self.region;
        let mut found = Vec::new();
        if unrouted_pps > 0.0 {
            found.push(format!("{unrouted_pps} pps black-holed (unrouted)"));
        }

        let snapshot = region.directory.snapshot();
        let directory_vnis: BTreeSet<Vni> = snapshot.iter().map(|(v, _)| *v).collect();
        let planned_vnis: BTreeSet<Vni> = region.plan.assignments.keys().copied().collect();
        if directory_vnis != planned_vnis {
            found.push(format!(
                "directory covers {} VNIs, plan {} (bijectivity broken)",
                directory_vnis.len(),
                planned_vnis.len()
            ));
        }

        for (vni, target) in &snapshot {
            let planned = region.plan.assignments[vni];
            let backup = region.backup_of(planned);
            if *target != planned && Some(*target) != backup {
                found.push(format!(
                    "{vni} served by cluster {target}, planned {planned}"
                ));
            }
        }

        for vpc in &self.topology.vpcs {
            if let Some(peer) = vpc.peer {
                let a = region.directory.cluster_for(vpc.vni);
                let b = region.directory.cluster_for(peer);
                if a.is_some() && b.is_some() && a != b {
                    found.push(format!(
                        "peered {} and {} split across {a:?}/{b:?}",
                        vpc.vni, peer
                    ));
                }
            }
        }
        for what in found {
            self.fail(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClusterCapacity;
    use crate::region::RegionConfig;
    use sailfish_sim::faults::{FaultScheduleConfig, InstallFault};
    use sailfish_sim::topology::TopologyConfig;
    use sailfish_sim::workload::{generate_flows, WorkloadConfig};

    fn build() -> (Topology, Vec<Flow>, Region) {
        let topology = Topology::generate(TopologyConfig::default());
        let region = Region::build(
            &topology,
            RegionConfig {
                hw_clusters: 4,
                devices_per_cluster: 3,
                with_backup: true,
                sw_nodes: 2,
                capacity: ClusterCapacity {
                    max_routes: 600,
                    max_vms: 3_000,
                },
                ..RegionConfig::default()
            },
        )
        .unwrap();
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 2_000,
                total_gbps: 1_000.0,
                ..WorkloadConfig::default()
            },
        );
        (topology, flows, region)
    }

    #[test]
    fn generated_schedule_runs_clean_and_recovers_everything() {
        let (topology, flows, mut region) = build();
        let schedule = FaultSchedule::generate(&FaultScheduleConfig {
            slots: 24,
            clusters: region.plan.clusters_needed(),
            devices_per_cluster: 3,
            // At least nine events so the round-robin prefix covers every
            // fault kind once.
            fault_rate: 0.4,
            ..FaultScheduleConfig::default()
        });
        assert_eq!(schedule.kinds_present().len(), 9);
        let report = run_schedule(
            &mut region,
            &topology,
            &flows,
            &schedule,
            &ChaosConfig::default(),
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.recovered_count(), report.faults.len());
        assert!(report.directory_restored);
        // Loss outside fault windows stays at the clean baseline.
        assert!(
            report.max_loss_outside_faults() <= report.baseline_loss * 1.001 + 1e-12,
            "loss leaked outside fault windows: {} vs baseline {}",
            report.max_loss_outside_faults(),
            report.baseline_loss
        );
    }

    #[test]
    fn corruption_is_detected_and_repaired_with_loss_confined() {
        let (topology, flows, mut region) = build();
        let schedule = FaultSchedule::from_events(
            8,
            vec![FaultEvent {
                at: 2,
                duration: 2,
                kind: FaultKind::TableCorruption {
                    cluster: 0,
                    device: 1,
                },
            }],
        );
        let report = run_schedule(
            &mut region,
            &topology,
            &flows,
            &schedule,
            &ChaosConfig::default(),
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let fault = &report.faults[0];
        // Detected by the consistency check in the injection slot,
        // repaired when the window closed, through a real install.
        assert_eq!(fault.detected_at, Some(2));
        assert_eq!(fault.recovered_at, Some(4));
        assert!(fault.install_attempts >= 1);
        assert!(fault.repair_virtual_ns > 0);
        // Slots after recovery are as clean as before injection.
        let loss_at = |slot: u64| report.samples[slot as usize].loss_ratio;
        assert!(loss_at(6) <= loss_at(1) * 1.001 + 1e-12);
    }

    #[test]
    fn install_faults_are_retried_without_any_traffic_impact() {
        let (topology, flows, mut region) = build();
        let schedule = FaultSchedule::from_events(
            6,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::InstallFailure {
                    cluster: 1,
                    device: 0,
                    fault: InstallFault::Partial { fraction: 0.4 },
                },
            }],
        );
        let report = run_schedule(
            &mut region,
            &topology,
            &flows,
            &schedule,
            &ChaosConfig::default(),
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let fault = &report.faults[0];
        // 3 faulty pushes + 1 clean one, all inside the injection slot.
        assert_eq!(fault.install_attempts, 4);
        assert_eq!(fault.recovered_at, Some(2));
        assert!(fault.repair_virtual_ns > 0);
        // The two-phase install means traffic never saw the partials:
        // every slot matches the baseline.
        assert!(report.max_loss() <= report.baseline_loss * 1.001 + 1e-12);
    }

    #[test]
    fn cluster_failure_rolls_to_backup_and_back() {
        let (topology, flows, mut region) = build();
        let schedule = FaultSchedule::from_events(
            8,
            vec![FaultEvent {
                at: 2,
                duration: 3,
                kind: FaultKind::ClusterFailure { cluster: 0 },
            }],
        );
        let before = region.directory.snapshot();
        let report = run_schedule(
            &mut region,
            &topology,
            &flows,
            &schedule,
            &ChaosConfig::default(),
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.directory_restored);
        assert_eq!(region.directory.snapshot(), before);
        // The backup carried the traffic: no slot black-holed anything and
        // no slot needed the x86 fallback.
        for s in &report.samples {
            assert_eq!(s.fallback_share, 0.0, "slot {}: {s:?}", s.slot);
        }
    }
}
