//! One-call construction of a simulated Sailfish deployment.

use sailfish_cluster::region::{BuildError, Region, RegionConfig};
use sailfish_sim::topology::{Topology, TopologyConfig};
use sailfish_sim::workload::{generate_flows, Flow, WorkloadConfig};

/// Builds a topology, a region, and a workload together.
///
/// ```
/// use sailfish::prelude::*;
/// use std::sync::Arc;
///
/// let (topology, mut region, flows) = SailfishBuilder::small().build().unwrap();
/// let report = region.offer(&flows, 1.0);
/// assert!(report.loss_ratio() < 1e-6);
/// // Every XGW-x86 fallback node points at one full-region table image.
/// let image = &region.sw.nodes[0].forwarder.tables;
/// assert_eq!(topology.routes.len(), image.routes.len());
/// assert!(region.sw.nodes.iter().all(|n| Arc::ptr_eq(&n.forwarder.tables, image)));
/// ```
#[derive(Debug, Clone)]
pub struct SailfishBuilder {
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// Region deployment parameters.
    pub region: RegionConfig,
    /// Workload parameters.
    pub workload: WorkloadConfig,
}

impl SailfishBuilder {
    /// A laptop-friendly scale: hundreds of VPCs, thousands of flows.
    pub fn small() -> Self {
        SailfishBuilder {
            topology: TopologyConfig::default(),
            region: RegionConfig {
                capacity: sailfish_cluster::controller::ClusterCapacity {
                    max_routes: 600,
                    max_vms: 3_000,
                },
                ..RegionConfig::default()
            },
            workload: WorkloadConfig {
                flows: 2_000,
                total_gbps: 1_000.0,
                ..WorkloadConfig::default()
            },
        }
    }

    /// The paper's region scale (slow: ~hundreds of thousands of entries;
    /// used by the benches).
    pub fn region_scale() -> Self {
        SailfishBuilder {
            topology: TopologyConfig::region_scale(),
            region: RegionConfig::default(),
            workload: WorkloadConfig {
                flows: 50_000,
                total_gbps: 20_000.0,
                ..WorkloadConfig::default()
            },
        }
    }

    /// Generates everything.
    pub fn build(&self) -> Result<(Topology, Region, Vec<Flow>), BuildError> {
        let topology = Topology::generate(self.topology.clone());
        let region = Region::build(&topology, self.region.clone())?;
        let flows = generate_flows(&topology, &self.workload);
        Ok((topology, region, flows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_builder_builds() {
        let (topology, region, flows) = SailfishBuilder::small().build().unwrap();
        assert!(!topology.routes.is_empty());
        assert!(region.plan.clusters_needed() >= 1);
        assert_eq!(flows.len(), 2_000);
    }
}
