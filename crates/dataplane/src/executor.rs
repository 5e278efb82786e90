//! The region dataplane: its configuration, its run report, and the
//! oracle's per-frame view of it.
//!
//! A [`Dataplane`] models one region's hardware tier the way the upstream
//! fabric sees it: a VNI directory splits traffic horizontally across
//! clusters (Fig 12), flow-hash ECMP attributes packets to devices inside
//! a cluster, and each cluster's table set serves the walk. Packets the
//! hardware cannot serve degrade to the software tiers — an optional DPU
//! pool, then the XGW-x86 forwarder — each behind a punt-path circuit
//! breaker wrapping its protective meter.
//!
//! What a packet's fate *is* lives elsewhere, once (the crate docs list
//! where), and [`crate::batch`] is the one driver that feeds frames to
//! it: [`Dataplane::run_single`] and [`Dataplane::run_multi`] are cold
//! runs of a [`BatchExecutor`]. Table state is epoch-versioned
//! ([`crate::epoch`]): workers pin the current [`EpochState`] once per
//! batch, and hardware decisions are digested per epoch
//! ([`RunReport::epoch_digests`]) so the oracle can pin each epoch's
//! decision multiset independently.

use std::collections::BTreeMap;
use std::sync::Arc;

use sailfish_cluster::cluster::{software_image, software_routes};
use sailfish_net::rss::Toeplitz;
use sailfish_net::wire::ethernet;
use sailfish_net::GatewayPacket;
use sailfish_sim::Topology;
use sailfish_tables::snat::SnatConfig;
use sailfish_tables::types::Verdict;
use sailfish_xgw_x86::{SoftwareForwarder, SoftwareTables};

use crate::batch::BatchExecutor;
use crate::breaker::{BreakerConfig, BreakerStats};
use crate::counters::TableCounters;
use crate::epoch::{EpochCell, EpochState};
use crate::ladder::snat_offloaded;

/// Dataplane configuration.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Hardware clusters in the region.
    pub clusters: usize,
    /// Devices per cluster (ECMP members).
    pub devices_per_cluster: usize,
    /// ECMP next-hop cap (commercial gear stays under 64).
    pub ecmp_max: usize,
    /// Every `hw_vm_stride`-th VM mapping stays off-chip (volatile or
    /// mid-migration entries served by x86) — the NoVmMapping punt source.
    /// 0 keeps every mapping on chip, as the region model does.
    pub hw_vm_stride: usize,
    /// Punt meter rate. Generous by default so deterministic runs and the
    /// oracle never hit the limiter; benches can tighten it.
    pub punt_rate_bps: u64,
    /// Punt meter burst.
    pub punt_burst_bytes: u64,
    /// Punt-path circuit breaker over the meter.
    pub breaker: BreakerConfig,
    /// Factor of each worker's flow-cache capacity: a worker's S3-FIFO
    /// [`crate::FlowCache`] holds `cache_shards * cache_shard_capacity`
    /// flows. The cache is not sharded; the two fields survive because
    /// the stand-alone benchmark reads both, and merging them into one
    /// waits for a change to that benchmark.
    pub cache_shards: usize,
    /// The other factor of each worker's flow-cache capacity (see
    /// [`DataplaneConfig::cache_shards`]).
    pub cache_shard_capacity: usize,
    /// Worker threads in [`Dataplane::run_multi`].
    pub workers: usize,
    /// Frames per batch (per-batch overhead is charged once; the epoch is
    /// pinned once per batch).
    pub batch_size: usize,
    /// The DPU middle tier of the degradation ladder. `None` (the
    /// default) keeps the historical binary punt — every hardware miss
    /// degrades straight to x86 — byte-identical to pre-tier builds.
    pub tier: Option<crate::tier::TierConfig>,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            clusters: 4,
            devices_per_cluster: 4,
            ecmp_max: 64,
            hw_vm_stride: 20,
            punt_rate_bps: 400_000_000_000,
            punt_burst_bytes: 1 << 31,
            breaker: BreakerConfig::default(),
            cache_shards: 8,
            cache_shard_capacity: 4096,
            workers: 4,
            batch_size: 32,
            tier: None,
        }
    }
}

/// The region-level hardware dataplane.
#[derive(Debug)]
pub struct Dataplane {
    config: DataplaneConfig,
    cell: EpochCell,
}

/// Report of one executor run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Frames offered.
    pub packets: u64,
    /// Merged stage counters.
    pub counters: TableCounters,
    /// Order-independent sum of per-packet decision digests. Equal
    /// between single and multi mode on the same frame sequence.
    pub decision_digest: u64,
    /// Hardware decision digests keyed by the epoch the deciding batch
    /// had pinned. (Fallback decisions resolve after the pipeline and are
    /// not epoch-attributed.) With no concurrent installs this holds a
    /// single entry whose value is the hardware share of
    /// [`RunReport::decision_digest`].
    pub epoch_digests: BTreeMap<u64, u64>,
    /// Virtual nanoseconds: slowest worker's pipeline time plus the
    /// serial software-fallback time.
    pub virtual_ns: u64,
    /// Packets served by the x86 software fallback (the bottom tier).
    pub fallback_packets: u64,
    /// Packets served by the DPU middle tier. Zero when the region runs
    /// without [`DataplaneConfig::tier`].
    pub dpu_packets: u64,
    /// Workers used.
    pub workers: usize,
    /// Packets attributed per `(cluster, device)`, flattened row-major.
    pub device_packets: Vec<u64>,
    /// Merged x86 punt-breaker transition/shed stats across workers.
    pub breaker: BreakerStats,
    /// Merged DPU-tier breaker stats across workers; all-zero without a
    /// configured tier.
    pub dpu_breaker: BreakerStats,
}

impl RunReport {
    /// Throughput in Mpps under the virtual cost model.
    pub fn virtual_mpps(&self) -> f64 {
        if self.virtual_ns == 0 {
            0.0
        } else {
            self.packets as f64 / self.virtual_ns as f64 * 1000.0
        }
    }
}

/// Builds the reference/fallback software forwarder over the complete
/// table image of `topology` ([`software_image`]) with the default SNAT
/// pool. A VM run the table refuses (a VM listed twice) leaves the image
/// its routes and an empty VM plane, as
/// [`sailfish_cluster::cluster::ImageBuilder`] leaves a hardware image:
/// its VM lookups miss, nothing panics.
pub fn software_forwarder(topology: &Topology) -> SoftwareForwarder {
    let image = software_image(topology).unwrap_or_else(|_| SoftwareTables {
        routes: software_routes(topology),
        ..SoftwareTables::default()
    });
    SoftwareForwarder::new(Arc::new(image), SnatConfig::default())
}

impl Dataplane {
    /// Builds the hardware tier from a topology at epoch 0. See
    /// [`EpochState::build`] for the table-placement rules.
    pub fn build(topology: &Topology, config: DataplaneConfig) -> Self {
        let state = EpochState::build(topology, &config, 0);
        Dataplane {
            config,
            cell: EpochCell::new(state),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DataplaneConfig {
        &self.config
    }

    /// Pins the currently published epoch state.
    pub fn pin(&self) -> Arc<EpochState> {
        self.cell.pin()
    }

    /// Atomically publishes a staged state built off to the side (e.g.
    /// via [`EpochState::build_with_world`]); returns the new epoch.
    pub fn publish(&self, state: EpochState) -> u64 {
        self.cell.publish(state)
    }

    /// The epoch number a fresh staged build should use.
    pub fn next_epoch(&self) -> u64 {
        self.cell.pin().epoch + 1
    }

    /// How many epoch swaps have been published.
    pub fn epoch_swaps(&self) -> u64 {
        self.cell.swaps()
    }

    /// Runs every frame in order on one worker with a cold cache — the
    /// deterministic golden mode. Punted packets are resolved through
    /// `fallback` afterwards.
    pub fn run_single(&self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        BatchExecutor::new(self, 1).run(self, frames, fallback)
    }

    /// Runs frames across `config.workers` scoped threads with cold
    /// caches, partitioned by outer-UDP flow entropy (what an underlay
    /// ECMP fabric hashes). Decision digest matches
    /// [`Dataplane::run_single`] on the same frames; virtual time reflects
    /// the slowest worker.
    pub fn run_multi(&self, frames: &[&[u8]], fallback: &mut SoftwareForwarder) -> RunReport {
        BatchExecutor::new(self, self.config.workers).run(self, frames, fallback)
    }

    /// Decides one frame end-to-end: [`Dataplane::decide`] on its parsed
    /// packet. Returns `None` when the frame does not parse.
    pub fn decide_one(
        &self,
        frame: &[u8],
        fallback: &mut SoftwareForwarder,
        now_ns: u64,
    ) -> Option<Verdict> {
        let packet = GatewayPacket::parse(frame).ok()?;
        Some(self.decide(&packet, fallback, now_ns))
    }

    /// Decides one parsed packet end-to-end without touching caches or
    /// the punt breaker — the oracle's view of the executor against the
    /// currently published epoch. Punts are resolved immediately through
    /// `fallback`.
    pub fn decide(
        &self,
        packet: &GatewayPacket,
        fallback: &mut SoftwareForwarder,
        now_ns: u64,
    ) -> Verdict {
        let state = self.cell.pin();
        let tuple = packet.five_tuple();
        // The workers' own steering, so the oracle walks the very tables
        // the pipeline walked.
        let Some(steer) = state.steer(
            &Toeplitz::default(),
            packet.vni,
            &tuple,
            self.config.devices_per_cluster,
            &mut TableCounters::default(),
        ) else {
            return fallback.forward(packet.vni, &tuple, now_ns);
        };
        let verdict = steer.cluster.tables.walk(packet.vni, &tuple, &mut ());
        if verdict.is_final() {
            verdict
        } else if snat_offloaded(&state, verdict, packet.vni, || tuple) {
            // A promoted SNAT flow never reaches the fallback.
            Verdict::ToInternet
        } else {
            fallback.forward(packet.vni, &tuple, now_ns)
        }
    }
}

/// Which worker a frame belongs to: the outer UDP source port (underlay
/// flow entropy) mixed and reduced. Unparsable-at-a-glance frames land on
/// worker 0.
pub fn worker_for(frame: &[u8], workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let port = peek_outer_udp_src(frame).unwrap_or(0);
    (u64::from(port).wrapping_mul(0x9E37_79B1) >> 16) as usize % workers
}

fn peek_outer_udp_src(frame: &[u8]) -> Option<u16> {
    let ethertype = u16::from_be_bytes([*frame.get(12)?, *frame.get(13)?]);
    let udp_start = match ethertype {
        0x0800 => ethernet::HEADER_LEN + usize::from(*frame.get(ethernet::HEADER_LEN)? & 0x0f) * 4,
        0x86dd => ethernet::HEADER_LEN + 40,
        _ => return None,
    };
    Some(u16::from_be_bytes([
        *frame.get(udp_start)?,
        *frame.get(udp_start + 1)?,
    ]))
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::traffic;
    use sailfish_sim::{TopologyConfig, WorkloadConfig};

    fn small_setup() -> (Topology, Vec<Vec<u8>>, Vec<usize>) {
        let topology = Topology::generate(TopologyConfig::default());
        let flows = sailfish_sim::workload::generate_flows(
            &topology,
            &WorkloadConfig {
                flows: 800,
                internet_share: 0.01,
                ..WorkloadConfig::default()
            },
        );
        let frames = traffic::frames_for_flows(&flows);
        let sched = traffic::schedule(&flows[..frames.len()], 30_000, 42);
        (topology, frames, sched)
    }

    #[test]
    fn single_and_multi_agree_on_decisions() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

        let mut fb1 = software_forwarder(&topology);
        let single = dp.run_single(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let multi = dp.run_multi(&seq, &mut fb2);

        assert_eq!(single.decision_digest, multi.decision_digest);
        assert_eq!(single.epoch_digests, multi.epoch_digests);
        assert_eq!(single.packets, multi.packets);
        assert_eq!(single.counters.parse_errors, 0);
        assert_eq!(single.counters.parsed, seq.len() as u64);
        // Stage totals are partition-independent too (every worker's
        // cache holds all its flows).
        assert_eq!(single.counters.punted(), multi.counters.punted());
        assert_eq!(
            single.counters.hw_forwarded + single.counters.fallback_forwarded,
            multi.counters.hw_forwarded + multi.counters.fallback_forwarded,
        );
        assert_eq!(multi.workers, dp.config().workers);
        // Parallel pipelines are faster in virtual time.
        assert!(multi.virtual_mpps() >= single.virtual_mpps());
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb1 = software_forwarder(&topology);
        let a = dp.run_multi(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let b = dp.run_multi(&seq, &mut fb2);
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.device_packets, b.device_packets);
    }

    #[test]
    fn stride_withholds_vm_mappings() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        // With 1-in-20 mappings off-chip and thousands of flows, some
        // NoVmMapping punts must occur — and the fallback must serve them
        // (full tables, no black hole).
        assert!(report.counters.punt_no_vm > 0, "{:?}", report.counters);
        assert!(report.counters.fallback_forwarded > 0);
        assert_eq!(report.counters.punt_rate_limited, 0);
        assert_eq!(report.counters.punt_breaker_open, 0);
        // Cache effectiveness: repeated flows hit after the first miss.
        assert!(report.counters.cache_hits > report.counters.cache_misses);
    }

    #[test]
    fn quiescent_run_stays_on_one_untorn_epoch() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        assert_eq!(report.counters.epoch_violations, 0);
        assert_eq!(report.epoch_digests.len(), 1);
        assert!(report.epoch_digests.contains_key(&0));
        assert_eq!(dp.epoch_swaps(), 0);
        assert_eq!(dp.pin().epoch, 0);
    }

    #[test]
    fn dpu_tier_serves_punts_without_changing_the_digest() {
        let (topology, frames, sched) = small_setup();
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();

        let flat = Dataplane::build(&topology, DataplaneConfig::default());
        let mut fb = software_forwarder(&topology);
        let two_tier = flat.run_single(&seq, &mut fb);

        let tiered = Dataplane::build(
            &topology,
            DataplaneConfig {
                tier: Some(crate::tier::TierConfig::default()),
                ..DataplaneConfig::default()
            },
        );
        let mut fb = software_forwarder(&topology);
        let three_tier = tiered.run_single(&seq, &mut fb);

        // Tier placement moves *where* a punt is served, never *what*
        // the decision is.
        assert_eq!(two_tier.decision_digest, three_tier.decision_digest);
        assert_eq!(two_tier.epoch_digests, three_tier.epoch_digests);

        // A healthy pool with generous meters owns every punted flow:
        // the x86 rung sees nothing.
        assert!(three_tier.dpu_packets > 0);
        assert_eq!(three_tier.fallback_packets, 0);
        assert_eq!(three_tier.dpu_packets, two_tier.fallback_packets);
        let c = &three_tier.counters;
        assert_eq!(c.dpu_spilled, c.dpu_forwarded + c.dpu_dropped);
        assert_eq!(c.dpu_shed_meter, 0);
        assert_eq!(c.dpu_breaker_open, 0);
        assert_eq!(c.dpu_rehomed, 0);
        assert_eq!(
            c.punted(),
            c.dpu_forwarded
                + c.dpu_dropped
                + c.fallback_forwarded
                + c.fallback_dropped
                + c.punt_rate_limited
                + c.punt_breaker_open
        );

        // DPU service is cheaper than x86 service, so the three-tier
        // ladder finishes earlier in virtual time.
        assert!(three_tier.virtual_ns < two_tier.virtual_ns);
    }

    #[test]
    fn tiered_single_and_multi_agree_on_decisions() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(
            &topology,
            DataplaneConfig {
                tier: Some(crate::tier::TierConfig::default()),
                ..DataplaneConfig::default()
            },
        );
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb1 = software_forwarder(&topology);
        let single = dp.run_single(&seq, &mut fb1);
        let mut fb2 = software_forwarder(&topology);
        let multi = dp.run_multi(&seq, &mut fb2);
        assert_eq!(single.decision_digest, multi.decision_digest);
        assert_eq!(single.epoch_digests, multi.epoch_digests);
        assert_eq!(single.dpu_packets, multi.dpu_packets);
        assert_eq!(single.counters.dpu_spilled, multi.counters.dpu_spilled);
    }

    #[test]
    fn worker_partition_is_total_and_stable() {
        let (_, frames, _) = small_setup();
        for frame in frames.iter().take(200) {
            let w = worker_for(frame, 4);
            assert!(w < 4);
            assert_eq!(w, worker_for(frame, 4));
        }
        assert_eq!(worker_for(&[], 4), 0);
        assert_eq!(worker_for(&[0u8; 60], 1), 0);
    }

    #[test]
    fn ecmp_attribution_spreads_devices() {
        let (topology, frames, sched) = small_setup();
        let dp = Dataplane::build(&topology, DataplaneConfig::default());
        let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
        let mut fb = software_forwarder(&topology);
        let report = dp.run_single(&seq, &mut fb);
        let busy = report.device_packets.iter().filter(|c| **c > 0).count();
        assert!(
            busy > dp.config().devices_per_cluster,
            "only {busy} devices saw traffic: {:?}",
            report.device_packets
        );
        assert_eq!(
            report.device_packets.iter().sum::<u64>(),
            report.counters.parsed
        );
    }

    #[test]
    fn software_forwarder_keeps_its_routes_when_the_vm_run_is_refused() {
        let mut topology = Topology::generate(TopologyConfig::default());
        topology.vms.push(topology.vms[0]);
        let forwarder = software_forwarder(&topology);
        assert_eq!(forwarder.tables.routes.len(), topology.routes.len());
        assert!(forwarder.tables.vm_nc.is_empty());
    }
}
