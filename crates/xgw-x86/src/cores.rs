//! The fluid multi-core engine: RSS placement + per-core capacity.
//!
//! Simulating Tbps of traffic packet-by-packet is infeasible, and
//! unnecessary: the CPU-overload phenomenon of §2.3 depends only on
//! *which core each flow lands on* (decided per flow by RSS, exactly as
//! in hardware) and on per-core rate arithmetic. The engine therefore
//! works on flow aggregates ("fluid" approximation): each flow contributes
//! its packet rate to exactly one core, chosen by the real Toeplitz hash.

use sailfish_net::rss::Toeplitz;
use sailfish_net::FiveTuple;

use crate::config::XgwX86Config;

/// One flow's offered load.
#[derive(Debug, Clone)]
pub struct FlowRate {
    /// The flow's 5-tuple (RSS input).
    pub tuple: FiveTuple,
    /// Offered packets per second.
    pub pps: f64,
    /// Mean wire bytes per packet.
    pub wire_bytes: usize,
}

impl FlowRate {
    /// Offered bits per second.
    pub fn bps(&self) -> f64 {
        self.pps * self.wire_bytes as f64 * 8.0
    }
}

/// The outcome of offering a flow set to one XGW-x86 for one interval.
#[derive(Debug, Clone)]
pub struct CoreLoadReport {
    /// Offered pps per core.
    pub offered_pps: Vec<f64>,
    /// Utilization per core (offered / capacity; may exceed 1).
    pub utilization: Vec<f64>,
    /// Per-core flow contributions `(flow index, pps)`, for heavy-hitter
    /// analysis (Fig 7).
    pub flows_per_core: Vec<Vec<(usize, f64)>>,
    /// Total offered pps.
    pub offered_total_pps: f64,
    /// Packets/s dropped due to per-core overload.
    pub dropped_pps: f64,
    /// Packets/s dropped because the NIC line rate was exceeded.
    pub nic_dropped_pps: f64,
}

impl CoreLoadReport {
    /// Overall loss ratio in `[0, 1]`.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered_total_pps == 0.0 {
            0.0
        } else {
            (self.dropped_pps + self.nic_dropped_pps) / self.offered_total_pps
        }
    }

    /// Mean core utilization — the box-level headroom signal the chaos
    /// harness and monitor watch while fallback traffic lands here.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
        }
    }

    /// The index and utilization of the busiest core.
    pub fn hottest_core(&self) -> (usize, f64) {
        self.utilization
            .iter()
            .copied()
            .enumerate()
            .fold((0, 0.0), |acc, (i, u)| if u > acc.1 { (i, u) } else { acc })
    }

    /// Traffic share of the top-`n` flows on one core, in `[0, 1]`
    /// (Fig 7's "packet percentage of top-N flows").
    pub fn top_flow_share(&self, core: usize, n: usize) -> f64 {
        let flows = &self.flows_per_core[core];
        let total: f64 = flows.iter().map(|(_, pps)| pps).sum();
        if total == 0.0 {
            return 0.0;
        }
        let mut rates: Vec<f64> = flows.iter().map(|(_, pps)| *pps).collect();
        rates.sort_by(|a, b| b.total_cmp(a));
        rates.iter().take(n).sum::<f64>() / total
    }
}

/// The RSS + run-to-completion core model of one XGW-x86.
#[derive(Debug)]
pub struct FluidEngine {
    config: XgwX86Config,
    rss: Toeplitz,
}

impl FluidEngine {
    /// Creates an engine with the default NIC RSS key.
    pub fn new(config: XgwX86Config) -> Self {
        FluidEngine {
            config,
            rss: Toeplitz::default(),
        }
    }

    /// The node configuration.
    pub fn config(&self) -> &XgwX86Config {
        &self.config
    }

    /// Which core a flow lands on (stable for the flow's lifetime — the
    /// root cause of §2.3's heavy-hitter overload).
    pub fn core_for(&self, tuple: &FiveTuple) -> usize {
        self.rss.queue_for(tuple, self.config.cores)
    }

    /// Offers a flow set for one interval and reports per-core load and
    /// loss.
    pub fn offer(&self, flows: &[FlowRate]) -> CoreLoadReport {
        let cores = self.config.cores;
        let cap = self.config.pps_per_core;
        let mut offered = vec![0.0f64; cores];
        let mut per_core_flows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cores];
        let mut total_pps = 0.0;
        let mut total_bps = 0.0;
        for (idx, flow) in flows.iter().enumerate() {
            let core = self.core_for(&flow.tuple);
            offered[core] += flow.pps;
            per_core_flows[core].push((idx, flow.pps));
            total_pps += flow.pps;
            total_bps += flow.bps();
        }
        // NIC line-rate bound applies before packets reach the cores;
        // drops there are proportional across flows.
        let nic_excess_ratio = if total_bps > self.config.nic_bps {
            1.0 - self.config.nic_bps / total_bps
        } else {
            0.0
        };
        let nic_dropped_pps = total_pps * nic_excess_ratio;
        let admitted_scale = 1.0 - nic_excess_ratio;

        let mut dropped = 0.0;
        let mut utilization = Vec::with_capacity(cores);
        for core_offered in &offered {
            let admitted = core_offered * admitted_scale;
            utilization.push(admitted / cap);
            if admitted > cap {
                dropped += admitted - cap;
            }
        }
        CoreLoadReport {
            offered_pps: offered,
            utilization,
            flows_per_core: per_core_flows,
            offered_total_pps: total_pps,
            dropped_pps: dropped,
            nic_dropped_pps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::IpProtocol;

    fn flow(i: u32, pps: f64) -> FlowRate {
        FlowRate {
            tuple: FiveTuple::new(
                core::net::Ipv4Addr::from(0x0a00_0000 | i).into(),
                "10.255.0.1".parse().unwrap(),
                IpProtocol::Udp,
                (1000 + i) as u16,
                4789,
            ),
            pps,
            wire_bytes: 500,
        }
    }

    fn engine() -> FluidEngine {
        FluidEngine::new(XgwX86Config::default())
    }

    #[test]
    fn no_loss_below_capacity() {
        let e = engine();
        let flows: Vec<FlowRate> = (0..1000).map(|i| flow(i, 1_000.0)).collect();
        let r = e.offer(&flows);
        assert_eq!(r.dropped_pps, 0.0);
        assert_eq!(r.nic_dropped_pps, 0.0);
        assert_eq!(r.loss_ratio(), 0.0);
        assert!((r.offered_total_pps - 1e6).abs() < 1.0);
    }

    #[test]
    fn heavy_hitter_overloads_one_core_only() {
        let e = engine();
        // Background: 3200 mice at 1kpps ≈ 100 kpps/core.
        let mut flows: Vec<FlowRate> = (0..3200).map(|i| flow(i, 1_000.0)).collect();
        // One elephant at 1.5 Mpps — more than a whole core (781 kpps).
        flows.push(flow(999_999, 1_500_000.0));
        let r = e.offer(&flows);
        let (hot, hot_util) = r.hottest_core();
        assert!(hot_util > 1.0, "hot core must be overloaded: {hot_util}");
        // Loss happens even though the box as a whole has headroom.
        assert!(r.offered_total_pps < e.config().total_pps());
        assert!(r.dropped_pps > 0.0);
        // Only one core is overloaded.
        let overloaded = r.utilization.iter().filter(|u| **u > 1.0).count();
        assert_eq!(overloaded, 1);
        // Fig 7: the top-1 flow dominates the hot core.
        assert!(r.top_flow_share(hot, 1) > 0.8);
    }

    #[test]
    fn flow_placement_is_stable() {
        let e = engine();
        let f = flow(7, 1.0);
        assert_eq!(e.core_for(&f.tuple), e.core_for(&f.tuple));
    }

    #[test]
    fn nic_bound_drops_proportionally() {
        let e = engine();
        // 200 Gbps offered against a 100 Gbps NIC: 50% NIC drops.
        let flows: Vec<FlowRate> = (0..200)
            .map(|i| FlowRate {
                wire_bytes: 1250,
                ..flow(i, 100_000.0)
            })
            .collect();
        let total_bps: f64 = flows.iter().map(|f| f.bps()).sum();
        assert!((total_bps - 200e9).abs() < 1e6);
        let r = e.offer(&flows);
        assert!(r.nic_dropped_pps > 0.0);
        let ratio = r.nic_dropped_pps / r.offered_total_pps;
        assert!((ratio - 0.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn rss_spreads_many_flows_evenly() {
        let e = engine();
        let flows: Vec<FlowRate> = (0..32_000).map(|i| flow(i, 100.0)).collect();
        let r = e.offer(&flows);
        let mean = r.offered_total_pps / e.config().cores as f64;
        for (core, pps) in r.offered_pps.iter().enumerate() {
            let dev = (pps - mean).abs() / mean;
            assert!(dev < 0.15, "core {core} deviates {dev:.2} from mean");
        }
    }
}
