//! Flow-level workload generation.
//!
//! Produces the traffic phenomena the paper's motivation rests on:
//!
//! - Zipf-distributed flow rates (the 80/20 rule of §4.2),
//! - explicit heavy hitters — "sometimes, a single flow in Alibaba Cloud
//!   can even reach tens of Gbps" (§2.3),
//! - the diurnal + shopping-festival load profile of Figs 4–6 and 19.

use core::net::{IpAddr, Ipv4Addr};

use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

use sailfish_net::hash::MixMap;
use sailfish_net::{FiveTuple, IpProtocol, Vni};

use crate::topology::{Topology, Vpc, PEERED_SUBNETS};
use crate::zipf::zipf_weights;

/// Destinations of Internet, IDC and cross-region flows (the last two
/// inside the topology's service routes).
const INTERNET_DST: IpAddr = IpAddr::V4(Ipv4Addr::new(93, 184, 216, 34));
const IDC_DST: IpAddr = IpAddr::V4(Ipv4Addr::new(172, 16, 9, 9));
const CROSS_REGION_DST: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 64, 1, 1));
/// Destination ports, drawn uniformly.
const SERVICE_PORTS: [u16; 5] = [80, 443, 8080, 3306, 6379];

/// What kind of path a flow exercises (Table 1's traffic routes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// VM→VM within one VPC.
    IntraVpc,
    /// VM→VM across peered VPCs.
    CrossVpc,
    /// VM→Internet (SNAT on XGW-x86).
    Internet,
    /// VM→IDC over the CEN.
    Idc,
    /// VM→VM across regions.
    CrossRegion,
}

/// One generated flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The inner (tenant) 5-tuple.
    pub tuple: FiveTuple,
    /// The source VPC's VNI.
    pub vni: Vni,
    /// Offered packets per second.
    pub pps: f64,
    /// Mean wire bytes per packet.
    pub wire_bytes: usize,
    /// Path class.
    pub kind: FlowKind,
}

impl Flow {
    /// Offered bits per second.
    pub fn bps(&self) -> f64 {
        self.pps * self.wire_bytes as f64 * 8.0
    }
}

/// Workload generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of flows (heavy hitters included).
    pub flows: usize,
    /// Aggregate offered load in Gbps at profile multiplier 1.0.
    pub total_gbps: f64,
    /// Zipf exponent of flow rates.
    pub zipf_s: f64,
    /// Number of explicit heavy hitters.
    pub heavy_hitters: usize,
    /// Rate of each heavy hitter in Gbps.
    pub heavy_hitter_gbps: f64,
    /// Share of flows that go to the Internet (SNAT, software path).
    pub internet_share: f64,
    /// Share of flows that cross VPCs (when the source VPC has a peer).
    pub cross_vpc_share: f64,
    /// Optional hard cap on non-heavy-hitter flow rates, in Gbps. When
    /// unset and heavy hitters are configured, mice are capped at 80% of
    /// the heavy-hitter rate so "heavy hitter" keeps its meaning.
    pub mouse_cap_gbps: Option<f64>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 7,
            flows: 10_000,
            total_gbps: 400.0,
            zipf_s: 1.5,
            heavy_hitters: 2,
            heavy_hitter_gbps: 20.0,
            internet_share: 0.0002, // Fig 22: <0.2‰ of traffic hits x86
            cross_vpc_share: 0.25,
            mouse_cap_gbps: None,
        }
    }
}

/// The diurnal + festival load multiplier at time `day` (days, fractional;
/// the festival peak is centered on day 6, as in Figs 4–5/19).
pub fn festival_profile(day: f64) -> f64 {
    let diurnal = 0.8 + 0.2 * (core::f64::consts::TAU * day).sin();
    let festival = 1.8 * (-((day - 6.0) / 0.35).powi(2)).exp();
    diurnal + festival
}

/// Generates a flow set over a topology (empty for `flows: 0`).
pub fn generate_flows(topology: &Topology, cfg: &WorkloadConfig) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut flows = Vec::with_capacity(cfg.flows);
    let by_vni = topology.vpcs_by_vni();

    let hh_count = cfg.heavy_hitters.min(cfg.flows);
    let mice = cfg.flows - hh_count;
    let hh_bps_total = hh_count as f64 * cfg.heavy_hitter_gbps * 1e9;
    let mice_bps_total = (cfg.total_gbps * 1e9 - hh_bps_total).max(0.0);
    // Zipf rates for the mice; when explicit heavy hitters are requested,
    // the mice are water-filled below them so "heavy hitter" keeps its
    // meaning (the Zipf head would otherwise out-rank them).
    let cap = match cfg.mouse_cap_gbps {
        Some(gbps) => Some(gbps * 1e9),
        None if hh_count > 0 => Some(0.8 * cfg.heavy_hitter_gbps * 1e9),
        None => None,
    };
    let mice_rates = if mice > 0 {
        water_filled_rates(&zipf_weights(mice, cfg.zipf_s), mice_bps_total, cap)
    } else {
        Vec::new()
    };

    for i in 0..cfg.flows {
        let (bps, wire_bytes) = if i < hh_count {
            // Heavy hitters: sustained large-packet streams.
            (cfg.heavy_hitter_gbps * 1e9, 1400)
        } else {
            let bps = mice_rates[i - hh_count];
            // Packet size scales with rate: fast flows are bulk transfers
            // near MTU, mid-rate flows are request/response with large
            // payloads, and only genuinely small flows carry small
            // packets (a Gbps-scale 128B-packet flow would be a packet
            // flood, not tenant traffic).
            let bytes = if bps > 1e9 {
                1400
            } else if bps > 1e8 {
                1024
            } else {
                // 128, 256, 512 or 1024.
                128usize << rng.gen_range(0..4usize)
            };
            (bps, bytes)
        };

        // Elephant-class flows stay inside the cloud: Internet/IDC egress
        // is bandwidth-capped per tenant (and SNAT'd Internet flows ride
        // the software path, which the paper keeps to a few Gbps total).
        let allow_external = bps < 1e9;
        let (tuple, vni, kind) = sample_endpoints(topology, &by_vni, cfg, allow_external, &mut rng);
        flows.push(Flow {
            tuple,
            vni,
            pps: bps / (wire_bytes as f64 * 8.0),
            wire_bytes,
            kind,
        });
    }
    flows
}

/// Distributes `total` across flows proportionally to `weights`, capping
/// individual rates at `cap` and redistributing the excess over uncapped
/// flows (water-filling). Without a cap this is a plain scale.
fn water_filled_rates(weights: &[f64], total: f64, cap: Option<f64>) -> Vec<f64> {
    let mut rates: Vec<f64> = weights.iter().map(|w| w * total).collect();
    let Some(cap) = cap else {
        return rates;
    };
    // Iterate: clamp, then redistribute the clipped mass over flows still
    // under the cap. Converges because the capped set only grows.
    for _ in 0..64 {
        let excess: f64 = rates.iter().map(|r| (r - cap).max(0.0)).sum();
        if excess < total * 1e-9 {
            break;
        }
        let uncapped_weight: f64 = rates
            .iter()
            .zip(weights)
            .filter(|(r, _)| **r < cap)
            .map(|(_, w)| *w)
            .sum();
        if uncapped_weight == 0.0 {
            // Everything is capped; the workload cannot place the excess.
            rates.fill(cap);
            break;
        }
        for (r, w) in rates.iter_mut().zip(weights) {
            if *r >= cap {
                *r = cap;
            } else {
                *r += excess * w / uncapped_weight;
            }
        }
    }
    rates
}

fn sample_endpoints(
    topology: &Topology,
    by_vni: &MixMap<Vni, &Vpc>,
    cfg: &WorkloadConfig,
    allow_external: bool,
    rng: &mut StdRng,
) -> (FiveTuple, Vni, FlowKind) {
    // Pick a source VPC weighted by VM count, then a source VM.
    let vpc = loop {
        let candidate = &topology.vpcs[rng.gen_range(0..topology.vpcs.len())];
        if candidate.vm_range.1 > candidate.vm_range.0 {
            break candidate;
        }
    };
    let vms = topology.vms_of(vpc);
    let src = vms[rng.gen_range(0..vms.len())];

    let peer = vpc.peer.and_then(|p| by_vni.get(&p).copied());

    let roll: f64 = if allow_external { rng.gen() } else { 1.0 };
    let cross_vpc = roll < cfg.internet_share + 0.04 + cfg.cross_vpc_share;
    let (dst_ip, kind) = if roll < cfg.internet_share && vpc.internet {
        (INTERNET_DST, FlowKind::Internet)
    } else if roll < cfg.internet_share + 0.02 && vpc.idc.is_some() {
        (IDC_DST, FlowKind::Idc)
    } else if roll < cfg.internet_share + 0.04 && vpc.cross_region.is_some() {
        (CROSS_REGION_DST, FlowKind::CrossRegion)
    } else if let Some(peer) = peer.filter(|_| cross_vpc) {
        // Only the peer's first PEERED_SUBNETS subnets are reachable
        // through the peering routes; VMs are packed into subnets in
        // order, so draw from the leading slice.
        let pvms = topology.vms_of(peer);
        let reachable = pvms
            .len()
            .min(PEERED_SUBNETS * 250)
            .min(peer.subnets.len() * 250);
        if reachable == 0 {
            (src.ip, FlowKind::IntraVpc)
        } else {
            (pvms[rng.gen_range(0..reachable)].ip, FlowKind::CrossVpc)
        }
    } else {
        let dst = vms[rng.gen_range(0..vms.len())];
        (dst.ip, FlowKind::IntraVpc)
    };

    // Keep tuples single-family (v6 sources talk to v6 destinations only
    // in the intra-VPC case; otherwise coerce the source choice).
    let (src_ip, dst_ip) = if src.ip.is_ipv4() == dst_ip.is_ipv4() {
        (src.ip, dst_ip)
    } else {
        // Fall back to an intra-VPC v4↔v4 or v6↔v6 pair.
        match vms.iter().find(|v| v.ip.is_ipv4() == dst_ip.is_ipv4()) {
            Some(v) => (v.ip, dst_ip),
            None => (src.ip, src.ip),
        }
    };

    let tuple = FiveTuple::new(
        src_ip,
        dst_ip,
        if rng.gen_bool(0.7) {
            IpProtocol::Tcp
        } else {
            IpProtocol::Udp
        },
        rng.gen_range(1024..65535),
        SERVICE_PORTS[rng.gen_range(0..SERVICE_PORTS.len())],
    );
    (tuple, vpc.vni, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn small() -> (Topology, WorkloadConfig) {
        (
            Topology::generate(TopologyConfig::default()),
            WorkloadConfig {
                flows: 2_000,
                ..WorkloadConfig::default()
            },
        )
    }

    #[test]
    fn total_rate_matches_config() {
        let (t, cfg) = small();
        let flows = generate_flows(&t, &cfg);
        assert_eq!(flows.len(), cfg.flows);
        let total_gbps: f64 = flows.iter().map(|f| f.bps()).sum::<f64>() / 1e9;
        assert!(
            (total_gbps - cfg.total_gbps).abs() / cfg.total_gbps < 0.02,
            "total {total_gbps}"
        );
    }

    #[test]
    fn zero_flows_is_an_empty_set() {
        let (t, mut cfg) = small();
        cfg.flows = 0;
        assert!(generate_flows(&t, &cfg).is_empty());
    }

    #[test]
    fn heavy_hitters_lead() {
        let (t, cfg) = small();
        let flows = generate_flows(&t, &cfg);
        let mut rates: Vec<f64> = flows.iter().map(|f| f.bps()).collect();
        rates.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        // The two explicit heavy hitters are the top-2 flows at 20 Gbps.
        assert!((rates[0] - 20e9).abs() < 1.0);
        assert!((rates[1] - 20e9).abs() < 1.0);
        assert!(rates[2] < 20e9);
    }

    #[test]
    fn eighty_twenty_rule_emerges() {
        let (t, mut cfg) = small();
        cfg.heavy_hitters = 0;
        let flows = generate_flows(&t, &cfg);
        let mut rates: Vec<f64> = flows.iter().map(|f| f.bps()).collect();
        rates.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let total: f64 = rates.iter().sum();
        let top5pct: f64 = rates.iter().take(flows.len() / 20).sum();
        assert!(
            top5pct / total > 0.85,
            "top 5% carry {:.2}",
            top5pct / total
        );
    }

    #[test]
    fn tuples_are_well_formed() {
        let (t, cfg) = small();
        for f in generate_flows(&t, &cfg) {
            assert!(f.tuple.is_well_formed(), "{}", f.tuple);
            assert!(f.pps > 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (t, cfg) = small();
        let a = generate_flows(&t, &cfg);
        let b = generate_flows(&t, &cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[7].tuple, b[7].tuple);
        assert_eq!(a[7].pps, b[7].pps);
    }

    #[test]
    fn festival_profile_shape() {
        // Baseline around 1, peak near day 6, diurnal wiggle.
        assert!(festival_profile(1.25) > festival_profile(1.75));
        let peak = festival_profile(6.0);
        assert!(peak > 2.0, "peak {peak}");
        for d in 0..8 {
            let v = festival_profile(d as f64 + 0.5);
            assert!(v > 0.4 && v < 3.2, "day {d}: {v}");
        }
        // The peak dominates every other day.
        assert!(festival_profile(6.0) > festival_profile(3.0) * 2.0);
    }

    #[test]
    fn flow_kinds_cover_table1() {
        let (t, mut cfg) = small();
        cfg.flows = 20_000;
        cfg.internet_share = 0.05; // force enough Internet flows to observe
        let flows = generate_flows(&t, &cfg);
        let mut kinds = std::collections::HashSet::new();
        for f in &flows {
            kinds.insert(f.kind);
        }
        assert!(kinds.contains(&FlowKind::IntraVpc));
        assert!(kinds.contains(&FlowKind::CrossVpc));
        assert!(kinds.contains(&FlowKind::Internet));
    }
}
