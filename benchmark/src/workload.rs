//! The four workloads and how their inputs are made from `--seed`.
//!
//! Everything the program under test sees is generated here: a seeded
//! topology, flows drawn from `sim::workload::generate_flows`, one wire
//! frame per flow and a packet schedule over them. The program never
//! sees the seed, the flow classes or the schedule recipe — only frames.
//!
//! # Why the schedule is built from quotas, not sampled
//!
//! `generate_flows` decides *at random* which flows go to the Internet
//! and which destination VMs they hit, and `traffic::schedule` samples
//! packets with replacement. With a Zipf head that heavy, whether one
//! of the top-ten flows happens to punt swings the punt share by an
//! order of magnitude from seed to seed — a different seed would measure
//! a different regime. So the benchmark pins the *traffic mix* and lets
//! the seed vary everything else:
//!
//! - every rank of the Zipf popularity curve is assigned a **class**
//!   (fast / Internet / off-chip VM) by a fixed rule of the workload;
//! - flows are drawn from seeded generator pools and placed on ranks of
//!   their class. The class of a flow is decided from the *inputs* (how
//!   the topology's route list resolves its destination, and whether
//!   the destination VM's index is one the configured `hw_vm_stride`
//!   keeps off-chip) — never by asking the executor under test what it
//!   would do with it;
//! - rank `r` gets exactly `round-to-quota(w_r · packets)` packets
//!   (largest-remainder), and the multiset is shuffled with the seed.
//!
//! The share of packets per class is therefore identical for every
//! seed; which tenants, addresses, ports, routes and table shapes carry
//! it is not.

use std::collections::HashMap;
use std::time::Instant;

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::tier::TierConfig;
use sailfish_dataplane::{traffic, EpochState, RunReport};
use sailfish_sim::conn::ConnSignal;
use sailfish_sim::workload::generate_flows;
use sailfish_sim::zipf::zipf_weights;
use sailfish_sim::{Flow, Topology, TopologyConfig, WorkloadConfig};
use sailfish_snat::{HybridConfig, HybridSnat};
use sailfish_tables::types::RouteTarget;
use sailfish_tables::vxlan_route::VxlanRoutingTable;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};
use sailfish_xgw_x86::SoftwareForwarder;

/// Packets in one pass of the schedule.
pub const PASS_PACKETS: usize = 1 << 18;

/// Table scale of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `TopologyConfig::region_scale()`: ≈462k VMs, ≈225k routes.
    Region,
    /// 100 000 VMs / 5 000 VPCs, other parameters as region scale.
    Churn,
}

/// What the input generator expects the gateway to do with a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Served entirely on-chip.
    Fast,
    /// VM→Internet: needs SNAT, punts unless an offload entry serves it.
    Internet,
    /// Destination VM mapping is one `hw_vm_stride` keeps off-chip.
    OffChip,
}

/// `(period, offset)`: ranks `i` with `i % period == offset`.
pub type Slots = (usize, usize);

/// One workload's recipe.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Table scale.
    pub scale: Scale,
    /// `DataplaneConfig::hw_vm_stride`.
    pub hw_vm_stride: usize,
    /// Distinct flows.
    pub flows: usize,
    /// Zipf exponent of the per-rank packet quota.
    pub zipf_s: f64,
    /// Ranks carrying Internet flows.
    pub internet_slots: Slots,
    /// Ranks carrying flows to off-chip VMs (none when `None`).
    pub off_chip_slots: Option<Slots>,
    /// Pin every frame to this wire length (encapsulation floor
    /// permitting); `None` keeps the generator's 128–1400 B sizes.
    pub pin_wire_bytes: Option<usize>,
    /// DPU middle tier plus a sealed SNAT offload.
    pub service_tiers: bool,
    /// Epoch installs run beside the timed window.
    pub churn: bool,
}

/// `hot_path`: parse → cache hit → rewrite, tables idle.
pub const HOT_PATH: Spec = Spec {
    name: "hot_path",
    why: "every packet is parse, flow-cache hit, rewrite at 128 B on region-size tables: bare per-packet cost",
    scale: Scale::Region,
    hw_vm_stride: 5000,
    flows: 16_384,
    zipf_s: 1.1,
    // 4 of 16 384 flows ≈ WorkloadConfig's 0.2‰ Internet share.
    internet_slots: (4096, 256),
    off_chip_slots: None,
    pin_wire_bytes: Some(128),
    service_tiers: false,
    churn: false,
};

/// `miss_walk`: working set far beyond the flow cache.
pub const MISS_WALK: Spec = Spec {
    name: "miss_walk",
    why: "200k flows over a 32k-entry cache: a third of packets evict, re-parse and walk ALPM and digest tables",
    flows: 200_000,
    zipf_s: 0.9,
    internet_slots: (4096, 256),
    ..HOT_PATH
};

/// `service_mix`: the punt path, DPU tier and SNAT offload under load.
pub const SERVICE_MIX: Spec = Spec {
    name: "service_mix",
    why: "same fast path but over 10% of packets leave it: tier placement, SNAT offload, punt hand-off, x86 forwarder",
    hw_vm_stride: 20,
    // One rank in eight is an Internet flow (generator: internet_share
    // 0.2 × 60% of VPCs with an Internet route ≈ 12%).
    internet_slots: (8, 4),
    // One rank in twenty hits an off-chip VM — stride 20's natural 5%.
    off_chip_slots: Some((20, 1)),
    pin_wire_bytes: None,
    service_tiers: true,
    ..HOT_PATH
};

/// `churn`: `hot_path`'s read path with epoch installs beside it.
pub const CHURN: Spec = Spec {
    name: "churn",
    why: "hot_path's reads with a paced epoch install every 500 ms beside them: install cost, RCU pin/reclaim, allocator interference",
    scale: Scale::Churn,
    churn: true,
    ..HOT_PATH
};

/// Every workload, in reporting order.
pub const WORKLOADS: [Spec; 4] = [HOT_PATH, MISS_WALK, SERVICE_MIX, CHURN];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The class the recipe assigns to popularity rank `rank` (0-based).
    pub fn class_of_rank(&self, rank: usize) -> Class {
        let hit = |(period, offset): Slots| rank % period == offset;
        if hit(self.internet_slots) {
            Class::Internet
        } else if self.off_chip_slots.is_some_and(hit) {
            Class::OffChip
        } else {
            Class::Fast
        }
    }

    /// The topology generator configuration of this workload: the
    /// default topology under `--smoke`, else its table scale.
    pub fn topology_config(&self, seed: u64, smoke: bool) -> TopologyConfig {
        if smoke {
            return TopologyConfig {
                seed,
                ..TopologyConfig::default()
            };
        }
        let region = TopologyConfig {
            seed,
            ..TopologyConfig::region_scale()
        };
        match self.scale {
            Scale::Region => region,
            Scale::Churn => TopologyConfig {
                total_vms: 100_000,
                vpcs: 5_000,
                ..region
            },
        }
    }

    /// The dataplane configuration of this workload.
    pub fn dataplane_config(&self) -> DataplaneConfig {
        DataplaneConfig {
            hw_vm_stride: self.hw_vm_stride,
            tier: self.service_tiers.then(TierConfig::default),
            ..DataplaneConfig::default()
        }
    }
}

/// Exact per-rank packet quotas: `packets` split over Zipf(`s`) weights
/// by the largest-remainder method, so the quotas sum to `packets` and
/// depend on nothing but `(flows, s, packets)`.
pub fn quotas(flows: usize, s: f64, packets: usize) -> Vec<u32> {
    let weights = zipf_weights(flows, s);
    let mut counts: Vec<u32> = Vec::with_capacity(flows);
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(flows);
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let exact = w * packets as f64;
        let whole = exact.floor();
        counts.push(whole as u32);
        assigned += whole as usize;
        remainders.push((exact - whole, i));
    }
    // Largest remainder first; ties broken by rank so the result is a
    // pure function of its arguments.
    remainders.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    for &(_, i) in remainders.iter().take(packets.saturating_sub(assigned)) {
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    counts
}

/// Wall seconds of each set-up stage (the `sim.*`, `traffic.*` and
/// `dataplane.build_s` ledger rows) and their total, `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// `Topology::generate`.
    pub topology_gen_s: f64,
    /// Generator pools, classification and rank placement.
    pub flows_gen_s: f64,
    /// `traffic::frames_for_flows` plus the schedule.
    pub frames_emit_s: f64,
    /// `Dataplane::build`.
    pub dataplane_build_s: f64,
    /// Everything before the timed window.
    pub total_s: f64,
}

/// What sealing the SNAT offload cost and produced (`service_mix`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnatSeal {
    /// `HybridSnat::outbound` events fed (Internet packets of one pass).
    pub events: u64,
    /// Wall ns per `outbound` event.
    pub outbound_ns: f64,
    /// Wall ms of `HybridSnat::rebalance`.
    pub rebalance_ms: f64,
    /// Entries in the sealed snapshot.
    pub entries: usize,
    /// Packet-count threshold at which a connection was promoted.
    pub promote_packets: u64,
}

/// Every flow's wire frame, packed back to back in one buffer.
///
/// One heap allocation per frame would scatter 128-byte frames over
/// whatever holes the allocator has — after a few set-ups, one page per
/// frame — and the benchmark would time the TLB instead of the gateway.
/// A packed buffer is what a receive ring looks like, and it lays out
/// the same whatever state the heap is in.
pub struct Frames {
    bytes: Vec<u8>,
    bounds: Vec<(u32, u32)>,
}

impl Frames {
    fn pack(frames: &[Vec<u8>]) -> Self {
        let mut bytes = Vec::with_capacity(frames.iter().map(Vec::len).sum());
        let mut bounds = Vec::with_capacity(frames.len());
        for frame in frames {
            bounds.push((bytes.len() as u32, frame.len() as u32));
            bytes.extend_from_slice(frame);
        }
        Frames { bytes, bounds }
    }

    /// The frame of flow `flow`.
    pub fn get(&self, flow: u32) -> Option<&[u8]> {
        let &(start, len) = self.bounds.get(flow as usize)?;
        self.bytes.get(start as usize..(start + len) as usize)
    }

    /// Every frame, in flow order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.bounds.len() as u32).filter_map(|i| self.get(i))
    }

    /// One pass: the frame of every scheduled packet, in order.
    pub fn sequence(&self, sched: &[u32]) -> Vec<&[u8]> {
        sched.iter().filter_map(|i| self.get(*i)).collect()
    }
}

/// A fully set-up workload, ready for the correctness gate and the
/// timed window.
pub struct Setup {
    /// The recipe.
    pub spec: Spec,
    /// The generated region.
    pub topology: Topology,
    /// The dataplane configuration in force.
    pub config: DataplaneConfig,
    /// Expected class of each flow (same order).
    pub classes: Vec<Class>,
    /// Packets of each flow in one pass (same order).
    pub counts: Vec<u32>,
    /// One wire frame per flow (same order).
    pub frames: Frames,
    /// One pass: flow index per packet slot.
    pub sched: Vec<u32>,
    /// The dataplane under test.
    pub dp: Dataplane,
    /// The single-worker batch executor, cache warm.
    pub batch: BatchExecutor,
    /// The software tier that serves punts.
    pub fallback: SoftwareForwarder,
    /// Report of the cold (cache-empty) warm-up pass.
    pub cold: RunReport,
    /// SNAT sealing ledger (zeros unless `service_tiers`).
    pub snat: SnatSeal,
    /// Stage timings.
    pub timings: SetupTimings,
}

impl Setup {
    /// The pass as frame slices, in schedule order.
    pub fn sequence(&self) -> Vec<&[u8]> {
        self.frames.sequence(&self.sched)
    }

    /// Packets one pass is expected to hand to a software tier, from
    /// the input classes alone: every off-chip packet, plus Internet
    /// packets of flows too cold to be promoted into the SNAT offload.
    pub fn expected_punts(&self) -> u64 {
        self.classes
            .iter()
            .zip(&self.counts)
            .map(|(class, &n)| match class {
                Class::Fast => 0,
                Class::OffChip => u64::from(n),
                Class::Internet => {
                    let promoted =
                        self.spec.service_tiers && u64::from(n) >= self.snat.promote_packets;
                    if promoted {
                        0
                    } else {
                        u64::from(n)
                    }
                }
            })
            .sum()
    }

    /// Mean wire length of the scheduled frames, bytes.
    pub fn mean_frame_bytes(&self) -> f64 {
        let total: u64 = self
            .frames
            .iter()
            .zip(&self.counts)
            .map(|(f, &n)| f.len() as u64 * u64::from(n))
            .sum();
        total as f64 / self.sched.len().max(1) as f64
    }
}

/// Input-side classification of generated flows. A flow's class is
/// read off the *inputs*: the topology's route list resolved through the
/// logical routing table (`tables::vxlan_route`, the software-side
/// reference structure — not the ALPM the hardware path walks), and the
/// destination VM's index in the topology, which is what
/// `hw_vm_stride` withholds mappings by.
struct Classifier {
    routes: VxlanRoutingTable,
    vm_index: HashMap<(u32, core::net::IpAddr), usize>,
}

impl Classifier {
    fn new(topology: &Topology) -> Self {
        let mut routes = VxlanRoutingTable::new();
        for (key, target) in &topology.routes {
            routes.insert(*key, *target);
        }
        Classifier {
            routes,
            vm_index: topology
                .vms
                .iter()
                .enumerate()
                .map(|(i, vm)| ((vm.vni.value(), vm.ip), i))
                .collect(),
        }
    }

    /// Expected class of a generated flow under `stride`; `None` for a
    /// flow no gateway forwards (no route, or no such VM), which the
    /// workloads leave out: they offer only traffic that is delivered.
    fn classify(&self, flow: &Flow, stride: usize) -> Option<Class> {
        let dst = flow.tuple.dst_ip;
        let resolved = self.routes.resolve(flow.vni, dst).ok()?;
        match resolved.target {
            RouteTarget::InternetSnat => Some(Class::Internet),
            RouteTarget::Local => {
                let index = *self.vm_index.get(&(resolved.final_vni.value(), dst))?;
                Some(if index % stride.max(1) == 0 {
                    Class::OffChip
                } else {
                    Class::Fast
                })
            }
            _ => Some(Class::Fast),
        }
    }
}

fn pool(topology: &Topology, spec: &Spec, seed: u64, flows: usize, internet: bool) -> Vec<Flow> {
    generate_flows(
        topology,
        &WorkloadConfig {
            seed,
            flows,
            zipf_s: spec.zipf_s,
            heavy_hitters: 0,
            internet_share: if internet { 1.0 } else { 0.0 },
            ..WorkloadConfig::default()
        },
    )
}

/// Draws seeded generator pools and places their flows on the ranks of
/// their class. Returns flows and classes in rank order.
fn place_flows(
    topology: &Topology,
    spec: &Spec,
    seed: u64,
) -> Result<(Vec<Flow>, Vec<Class>), String> {
    let classes: Vec<Class> = (0..spec.flows).map(|r| spec.class_of_rank(r)).collect();
    let need = |c: Class| classes.iter().filter(|x| **x == c).count();
    let classifier = Classifier::new(topology);

    // Pool A: everything that stays inside the cloud. Off-chip
    // destinations occur at their natural 1/stride rate, so the pool is
    // oversized until it holds enough of them.
    let mut fast: Vec<Flow> = Vec::new();
    let mut off_chip: Vec<Flow> = Vec::new();
    let mut pool_size = spec.flows + spec.flows / 4 + 256;
    for attempt in 0..4u64 {
        fast.clear();
        off_chip.clear();
        for flow in pool(
            topology,
            spec,
            seed.wrapping_add(attempt << 32),
            pool_size,
            false,
        ) {
            match classifier.classify(&flow, spec.hw_vm_stride) {
                Some(Class::Fast) => fast.push(flow),
                Some(Class::OffChip) => off_chip.push(flow),
                Some(Class::Internet) | None => {}
            }
        }
        if fast.len() >= need(Class::Fast) && off_chip.len() >= need(Class::OffChip) {
            break;
        }
        pool_size *= 2;
    }
    // Pool B: Internet-bound flows only.
    let internet: Vec<Flow> = pool(
        topology,
        spec,
        seed ^ 0x5A17_F15B,
        need(Class::Internet) * 3 + 256,
        true,
    )
    .into_iter()
    .filter(|f| classifier.classify(f, spec.hw_vm_stride) == Some(Class::Internet))
    .collect();

    for (class, have) in [
        (Class::Fast, fast.len()),
        (Class::OffChip, off_chip.len()),
        (Class::Internet, internet.len()),
    ] {
        if have < need(class) {
            return Err(format!(
                "generator pools hold {have} {class:?} flows, workload {} needs {}",
                spec.name,
                need(class)
            ));
        }
    }

    // Pools come out rate-descending, so taking them in order keeps the
    // generator's own pairing of popular flows with large packets.
    let (mut fast, mut off_chip, mut internet) =
        (fast.into_iter(), off_chip.into_iter(), internet.into_iter());
    let mut flows = Vec::with_capacity(spec.flows);
    for class in &classes {
        let next = match class {
            Class::Fast => fast.next(),
            Class::OffChip => off_chip.next(),
            Class::Internet => internet.next(),
        };
        let Some(mut flow) = next else {
            return Err("flow pool exhausted after the size check".to_string());
        };
        if let Some(bytes) = spec.pin_wire_bytes {
            flow.wire_bytes = bytes;
        }
        flows.push(flow);
    }
    Ok((flows, classes))
}

/// Feeds one pass's Internet packets through the hybrid SNAT tier in
/// schedule order, then seals the promotion set for `epoch`: the
/// hottest half of the Internet flows (by packets in one pass).
fn seal_snat(
    flows: &[Flow],
    classes: &[Class],
    counts: &[u32],
    sched: &[u32],
    epoch: u64,
) -> (sailfish_snat::SnatOffload, SnatSeal) {
    let mut internet_counts: Vec<u64> = classes
        .iter()
        .zip(counts)
        .filter(|(c, _)| **c == Class::Internet)
        .map(|(_, &n)| u64::from(n))
        .collect();
    internet_counts.sort_unstable();
    let promote_packets = internet_counts
        .get(internet_counts.len() / 2)
        .copied()
        .unwrap_or(1)
        .max(1);
    let mut hybrid = HybridSnat::new(HybridConfig {
        promote_packets,
        offload_capacity: internet_counts.len().max(1),
        ..HybridConfig::default()
    });
    let mut events = 0u64;
    let mut now_ns = 0u64;
    let t = Instant::now();
    for &i in sched {
        let (Some(flow), Some(Class::Internet)) = (flows.get(i as usize), classes.get(i as usize))
        else {
            continue;
        };
        now_ns += 1_000;
        events += 1;
        hybrid.outbound(flow.vni, flow.tuple, ConnSignal::Payload, now_ns);
    }
    let outbound_ns = t.elapsed().as_nanos() as f64 / events.max(1) as f64;
    let t = Instant::now();
    let offload = hybrid.rebalance(epoch);
    let rebalance_ms = t.elapsed().as_secs_f64() * 1e3;
    let seal = SnatSeal {
        events,
        outbound_ns,
        rebalance_ms,
        entries: offload.len(),
        promote_packets,
    };
    (offload, seal)
}

/// Everything before the timed window: topology, flows, frames,
/// schedule, dataplane build, offload/tier sealing, fallback build and
/// one cold pass that warms the flow cache.
pub fn set_up(spec: Spec, seed: u64, smoke: bool) -> Result<Setup, String> {
    let total = Instant::now();
    let mut timings = SetupTimings::default();
    let secs = |t: Instant| t.elapsed().as_secs_f64();

    let t = Instant::now();
    let topology = Topology::generate(spec.topology_config(seed, smoke));
    timings.topology_gen_s = secs(t);

    let t = Instant::now();
    let (flows, classes) = place_flows(&topology, &spec, seed)?;
    let packets = PASS_PACKETS;
    let counts = quotas(spec.flows, spec.zipf_s, packets);
    timings.flows_gen_s = secs(t);

    let t = Instant::now();
    let emitted = traffic::frames_for_flows(&flows);
    if emitted.len() != flows.len() {
        return Err(format!(
            "{} of {} flows did not emit a frame",
            flows.len() - emitted.len(),
            flows.len()
        ));
    }
    let frames = Frames::pack(&emitted);
    drop(emitted);
    let mut sched: Vec<u32> = Vec::with_capacity(packets);
    for (i, &n) in counts.iter().enumerate() {
        sched.extend(std::iter::repeat_n(i as u32, n as usize));
    }
    StdRng::seed_from_u64(seed ^ 0x5C4E_D01E).shuffle(&mut sched);
    timings.frames_emit_s = secs(t);

    let config = spec.dataplane_config();
    let t = Instant::now();
    let dp = Dataplane::build(&topology, config.clone());
    timings.dataplane_build_s = secs(t);

    let mut snat = SnatSeal::default();
    if spec.service_tiers {
        let epoch = dp.next_epoch();
        let (offload, seal) = seal_snat(&flows, &classes, &counts, &sched, epoch);
        snat = seal;
        dp.publish(EpochState::build(&topology, &config, epoch).with_snat(offload));
    }

    let mut fallback = software_forwarder(&topology);
    let mut batch = BatchExecutor::new(&dp, 1);
    let cold = batch.run(&dp, &frames.sequence(&sched), &mut fallback);
    timings.total_s = secs(total);

    Ok(Setup {
        spec,
        topology,
        config,
        classes,
        counts,
        frames,
        sched,
        dp,
        batch,
        fallback,
        cold,
        snat,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_sum_exactly_and_follow_rank() {
        for (flows, s, packets) in [
            (16_384, 1.1, 1 << 18),
            (200_000, 0.9, 1 << 18),
            (7, 1.5, 100),
        ] {
            let q = quotas(flows, s, packets);
            assert_eq!(q.len(), flows);
            assert_eq!(q.iter().map(|c| *c as usize).sum::<usize>(), packets);
            assert!(q.windows(2).all(|w| w[0] + 1 >= w[1]), "quotas follow rank");
        }
    }

    #[test]
    fn class_rule_is_a_pure_function_of_rank() {
        assert_eq!(HOT_PATH.class_of_rank(256), Class::Internet);
        assert_eq!(HOT_PATH.class_of_rank(257), Class::Fast);
        assert_eq!(SERVICE_MIX.class_of_rank(4), Class::Internet);
        assert_eq!(SERVICE_MIX.class_of_rank(1), Class::OffChip);
        assert_eq!(SERVICE_MIX.class_of_rank(0), Class::Fast);
        let internet = (0..SERVICE_MIX.flows)
            .filter(|r| SERVICE_MIX.class_of_rank(*r) == Class::Internet)
            .count();
        assert_eq!(internet, SERVICE_MIX.flows / 8);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
