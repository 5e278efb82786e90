//! Gateway clusters.
//!
//! "Within a cluster, multiple XGW-H devices maintain the same table
//! entries, share the traffic load and backup for each other" (§4.3).
//! The entries are one table image, built in bulk from the cluster's
//! member VPCs by [`ImageBuilder`], and every device slot points at it:
//! N devices, and a 1:1 backup, cost one table set. Traffic spreads by
//! flow-hash ECMP.
//!
//! The XGW-x86 fleet, [`SwCluster`], has the same shape: every node
//! points at one full-region image built by [`software_image`], and keeps
//! only its own SNAT sessions.

use std::sync::Arc;

use sailfish_net::hash::MixMap;
use sailfish_net::{FiveTuple, IpPrefix, Vni};
use sailfish_sim::topology::{VmRecord, Vpc};
use sailfish_sim::workload::Flow;
use sailfish_sim::Topology;
use sailfish_tables::alpm::AlpmConfig;
use sailfish_tables::pooled::PooledAlpm;
use sailfish_tables::snat::SnatConfig;
use sailfish_tables::types::{NcAddr, RouteTarget, VmKey};
use sailfish_tables::vm_nc::VmNcTable;
use sailfish_tables::vxlan_route::VxlanRoutingTable;
use sailfish_tables::Result as TableResult;
use sailfish_xgw_h::HardwareTables;
use sailfish_xgw_x86::{
    CoreLoadReport, FlowRate, FluidEngine, SoftwareForwarder, SoftwareTables, XgwX86Config,
};

use crate::lb::{EcmpGroup, LbError};

/// A topology's routes bucketed by owning VPC, each bucket in topology
/// order: a stable counting sort, so each per-VNI table receives its
/// routes in topology order and its ALPM carves exactly as route-by-route
/// insertion would.
#[derive(Debug)]
struct RouteRuns {
    /// `starts[v]..starts[v + 1]` is VPC `v`'s stretch of `runs`; the
    /// stretch after the last VPC's holds the routes of unknown VNIs.
    starts: Vec<usize>,
    runs: Vec<(IpPrefix, RouteTarget)>,
}

impl RouteRuns {
    fn group(topology: &Topology) -> Self {
        let unknown = topology.vpcs.len();
        let mut index: MixMap<Vni, usize> = MixMap::default();
        index.reserve(unknown);
        for (i, vpc) in topology.vpcs.iter().enumerate() {
            index.insert(vpc.vni, i);
        }
        // A VPC's routes mostly arrive back to back: remember the last
        // answer and probe the index once per stretch.
        let mut last = None;
        let vpc_of: Vec<usize> = topology
            .routes
            .iter()
            .map(|(key, _)| match last {
                Some((vni, vpc)) if vni == key.vni => vpc,
                _ => {
                    let vpc = index.get(&key.vni).copied().unwrap_or(unknown);
                    last = Some((key.vni, vpc));
                    vpc
                }
            })
            .collect();

        let mut starts = vec![0usize; unknown + 2];
        for vpc in &vpc_of {
            if let Some(n) = starts.get_mut(vpc + 1) {
                *n += 1;
            }
        }
        let mut seen = 0;
        for n in &mut starts {
            seen += *n;
            *n = seen;
        }
        let mut next = starts.clone();
        let mut order = vec![0usize; vpc_of.len()];
        for (route, vpc) in vpc_of.into_iter().enumerate() {
            if let Some(n) = next.get_mut(vpc) {
                if let Some(slot) = order.get_mut(*n) {
                    *slot = route;
                }
                *n += 1;
            }
        }
        let runs = order
            .into_iter()
            .filter_map(|route| topology.routes.get(route))
            .map(|(key, target)| (key.prefix, *target))
            .collect();
        RouteRuns { starts, runs }
    }

    /// VPC `vpc`'s routes, as its routing table takes them.
    fn of(&self, vpc: usize) -> &[(IpPrefix, RouteTarget)] {
        match (self.starts.get(vpc), self.starts.get(vpc + 1)) {
            (Some(&from), Some(&to)) => self.runs.get(from..to).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// Builds cluster table images from one topology — the only way tables
/// are filled, for the region model and the packet path alike.
///
/// The routes are grouped by owning VPC once, up front; each
/// [`ImageBuilder::build`] then fills one image VPC by VPC, while it is
/// the only thing in cache: one
/// [`sailfish_xgw_h::tables::HwRoutingTable::install_vni`] per VPC,
/// filled in the builder's one scratch table and stored at exact size,
/// then the cluster's whole VM run in one [`HardwareTables::load_vms`].
/// Routes of a VNI no VPC carries are never installed.
///
/// It never panics. A VM run the table refuses (a VM listed twice)
/// leaves that image without on-chip VM mappings — its packets punt to
/// x86, none black-holes.
#[derive(Debug)]
pub struct ImageBuilder<'t> {
    topology: &'t Topology,
    routes: RouteRuns,
    vm_stride: usize,
    /// One run buffer for every image, with room for any of them
    /// (untouched room costs nothing).
    vm_run: Vec<(VmKey, NcAddr)>,
    /// The one table every VNI's routes are filled in before its
    /// exact-size copy is stored; it keeps the room of the largest.
    alpm_scratch: PooledAlpm<RouteTarget>,
}

impl<'t> ImageBuilder<'t> {
    /// Groups `topology`'s routes for building. Every `vm_stride`-th VM
    /// mapping of the region is withheld from the chip; a stride of 0
    /// withholds none.
    pub fn new(topology: &'t Topology, vm_stride: usize) -> Self {
        ImageBuilder {
            topology,
            routes: RouteRuns::group(topology),
            vm_stride,
            vm_run: Vec::with_capacity(topology.vms.len()),
            alpm_scratch: PooledAlpm::default(),
        }
    }

    /// Builds the image of the VPCs `vpcs` (indices into
    /// [`Topology::vpcs`], ascending) with ALPM partitions of `alpm`.
    pub fn build(&mut self, vpcs: &[usize], alpm: AlpmConfig) -> HardwareTables {
        let mut tables = HardwareTables::new(alpm);
        tables.routes.reserve_vnis(vpcs.len());
        self.vm_run.clear();
        for &i in vpcs {
            let Some(vpc) = self.topology.vpcs.get(i) else {
                continue;
            };
            // Prefixes are canonical by type; nothing here can be
            // refused.
            let _ = tables
                .routes
                .install_vni(vpc.vni, self.routes.of(i), &mut self.alpm_scratch);
            self.vm_run.extend(
                on_chip_vms(self.topology, vpc, self.vm_stride)
                    .map(|vm| (VmKey::new(vm.vni, vm.ip), vm.nc)),
            );
        }
        // A refused run (a VM listed twice) leaves the plane empty: the
        // image's VM lookups miss and punt.
        let _ = tables.load_vms(&self.vm_run);
        tables
    }
}

/// The VM mappings of one VPC that go on-chip: every one but each
/// `stride`-th of the region's, which stays on x86 (none with stride 0).
fn on_chip_vms<'a>(
    topology: &'a Topology,
    vpc: &Vpc,
    stride: usize,
) -> impl Iterator<Item = &'a VmRecord> {
    let (start, end) = vpc.vm_range;
    let vms = topology.vms.get(start..end).unwrap_or(&[]);
    (start..)
        .zip(vms)
        .filter(move |(i, _)| stride == 0 || i % stride != 0)
        .map(|(_, vm)| vm)
}

/// A cluster of hardware gateways sharing one table image.
#[derive(Debug)]
pub struct HwCluster {
    /// Cluster id within the region.
    pub id: usize,
    /// The table image each device slot holds. Every slot normally
    /// points at the same image (a 1:1 backup's at its primary's); a
    /// wiped device points at an empty one until it is reinstalled.
    /// Offline devices are removed from `ecmp` but keep their slot (their
    /// tables survive for fast re-admission).
    pub devices: Vec<Arc<HardwareTables>>,
    /// Flow-hash spread across the devices.
    pub ecmp: EcmpGroup,
    /// ALPM partition size the cluster's images are built with.
    pub alpm: AlpmConfig,
}

impl HwCluster {
    /// Builds a cluster of `devices` gateways, every one pointing at the
    /// same empty image. The punt budget is the region model's business
    /// ([`crate::region::RegionConfig::punt_rate_bps`]); the cluster
    /// does not use it.
    pub fn new(
        id: usize,
        devices: usize,
        ecmp_max: usize,
        alpm: AlpmConfig,
        _punt_rate_bps: u64,
    ) -> Result<Self, LbError> {
        let mut ecmp = EcmpGroup::new(ecmp_max);
        for d in 0..devices {
            ecmp.add(d)?;
        }
        let empty = Arc::new(HardwareTables::new(alpm));
        Ok(HwCluster {
            id,
            devices: vec![empty; devices],
            ecmp,
            alpm,
        })
    }

    /// Points every device slot at `image`.
    pub fn point_all(&mut self, image: &Arc<HardwareTables>) {
        self.devices.fill(Arc::clone(image));
    }

    /// Wipes one device's tables: its slot points at an empty image. This
    /// is the memory-loss failure mode the §6.1 consistency checker
    /// exists to catch, and the first step of a controller-driven
    /// rebuild: the device keeps forwarding, but every lookup misses and
    /// punts to XGW-x86.
    pub fn wipe_device(&mut self, device: usize) {
        if let Some(slot) = self.devices.get_mut(device) {
            *slot = Arc::new(HardwareTables::new(self.alpm));
        }
    }

    /// Route entries held (devices are replicas; device 0 is
    /// representative).
    pub fn route_entries(&self) -> usize {
        self.devices.first().map_or(0, |d| d.routes.len())
    }

    /// VM entries held.
    pub fn vm_entries(&self) -> usize {
        self.devices.first().map_or(0, |d| d.vm_nc.len())
    }

    /// Route entries of one VNI on one device (consistency checking); 0
    /// for a device the cluster does not have.
    pub fn route_entries_for(&self, device: usize, vni: Vni) -> usize {
        self.devices
            .get(device)
            .map_or(0, |d| d.routes.len_for_vni(vni))
    }

    /// Number of online devices.
    pub fn online_devices(&self) -> usize {
        self.ecmp.len()
    }

    /// Takes a device offline (node-level disaster recovery: "the other
    /// gateways in the same cluster will share the traffic load", §6.1).
    pub fn take_device_offline(&mut self, device: usize) -> bool {
        self.ecmp.remove(device)
    }

    /// Brings a device back online.
    pub fn bring_device_online(&mut self, device: usize) -> Result<(), LbError> {
        if self.ecmp.members().contains(&device) {
            return Ok(());
        }
        self.ecmp.add(device)
    }

    /// The device a flow would hit.
    pub fn device_for(&self, tuple: &FiveTuple) -> Result<usize, LbError> {
        self.ecmp.pick(tuple)
    }
}

/// Builds the XGW-x86 table image of `topology` — the only way software
/// tables are filled, for the region's fallback fleet and the packet
/// path's fallback alike: every route in topology order into one route
/// map sized for them up front ([`software_routes`]), then every VM
/// mapping bulk-loaded in one run, which refuses a VM listed twice.
pub fn software_image(topology: &Topology) -> TableResult<SoftwareTables> {
    let mut tables = SoftwareTables {
        routes: software_routes(topology),
        ..SoftwareTables::default()
    };
    let vms: Vec<_> = topology
        .vms
        .iter()
        .map(|vm| (VmKey::new(vm.vni, vm.ip), vm.nc))
        .collect();
    tables.vm_nc = VmNcTable::from_run(&vms)?;
    Ok(tables)
}

/// The routes half of [`software_image`]: every route of `topology`, in
/// topology order, in a table whose route map is allocated once.
pub fn software_routes(topology: &Topology) -> VxlanRoutingTable {
    let mut routes = VxlanRoutingTable::new();
    routes.reserve(topology.routes.len());
    for (key, target) in &topology.routes {
        routes.insert(*key, *target);
    }
    routes
}

/// One software fallback node: a DPDK box plus its forwarding state.
#[derive(Debug)]
pub struct SwNode {
    /// Multi-core capacity model.
    pub engine: FluidEngine,
    /// The fleet's shared table image and this node's SNAT sessions.
    pub forwarder: SoftwareForwarder,
}

/// A fleet of XGW-x86 gateways behind flow-hash ECMP: the pre-Sailfish
/// baseline of Figs 4–7, and Sailfish's "four XGW-x86s for fallback
/// traffic processing" (§4.2). Every node holds the full region tables,
/// so every node points at one shared image; each keeps only its own
/// SNAT sessions.
#[derive(Debug)]
pub struct SwCluster {
    /// Member nodes.
    pub nodes: Vec<SwNode>,
    /// Flow spread across the nodes.
    pub ecmp: EcmpGroup,
}

/// One interval of traffic offered to a [`SwCluster`].
#[derive(Debug, Clone)]
pub struct SwReport {
    /// Per-node core reports.
    pub node_reports: Vec<CoreLoadReport>,
    /// Total offered packets/s, including traffic no node could take.
    pub offered_pps: f64,
    /// Total dropped packets/s (core overload, NIC, no node at all).
    pub dropped_pps: f64,
}

impl SwReport {
    /// The fleet's loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered_pps == 0.0 {
            0.0
        } else {
            self.dropped_pps / self.offered_pps
        }
    }
}

impl SwCluster {
    /// Builds a fleet of `nodes` gateways, every one pointing at the same
    /// empty image, each with an empty SNAT table on the pool `snat`.
    pub fn new(
        nodes: usize,
        ecmp_max: usize,
        node_config: XgwX86Config,
        snat: SnatConfig,
    ) -> Result<Self, LbError> {
        let mut ecmp = EcmpGroup::new(ecmp_max);
        let empty = Arc::new(SoftwareTables::default());
        let mut list = Vec::with_capacity(nodes);
        for n in 0..nodes {
            ecmp.add(n)?;
            list.push(SwNode {
                engine: FluidEngine::new(node_config.clone()),
                forwarder: SoftwareForwarder::new(Arc::clone(&empty), snat.clone()),
            });
        }
        Ok(SwCluster { nodes: list, ecmp })
    }

    /// Points every node at `image`. SNAT sessions stay where they are.
    pub fn point_all(&mut self, image: &Arc<SoftwareTables>) {
        for n in &mut self.nodes {
            n.forwarder.tables = Arc::clone(image);
        }
    }

    /// Offers one interval of traffic at a load `multiplier`: each flow
    /// lands on its ECMP node, then on that node's RSS core.
    pub fn offer(&self, flows: &[Flow], multiplier: f64) -> SwReport {
        let mut per_node: Vec<Vec<FlowRate>> = vec![Vec::new(); self.nodes.len()];
        let mut offered_pps = 0.0;
        let mut unserved_pps = 0.0;
        for flow in flows {
            let pps = flow.pps * multiplier;
            offered_pps += pps;
            match self.ecmp.pick(&flow.tuple) {
                Ok(node) => per_node[node].push(flow_rate(flow, pps)),
                // No gateway at all: the traffic is lost.
                Err(_) => unserved_pps += pps,
            }
        }
        let mut report = self.offer_rates(&per_node);
        report.offered_pps = offered_pps;
        report.dropped_pps += unserved_pps;
        report
    }

    /// Offers rate lists already spread over the nodes (`per_node[n]` to
    /// node `n`) and reports each node's core load.
    pub fn offer_rates(&self, per_node: &[Vec<FlowRate>]) -> SwReport {
        let node_reports: Vec<CoreLoadReport> = (self.nodes.iter().zip(per_node))
            .map(|(node, rates)| node.engine.offer(rates))
            .collect();
        SwReport {
            offered_pps: node_reports.iter().map(|r| r.offered_total_pps).sum(),
            dropped_pps: (node_reports.iter())
                .fold(0.0, |sum, r| sum + (r.dropped_pps + r.nic_dropped_pps)),
            node_reports,
        }
    }
}

/// `flow` offered at `pps` packets/s, as the core model takes it.
pub(crate) fn flow_rate(flow: &Flow, pps: f64) -> FlowRate {
    FlowRate {
        tuple: flow.tuple,
        pps,
        wire_bytes: flow.wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_sim::TopologyConfig;
    use sailfish_xgw_h::Walked;

    /// A 4-device cluster pointing at the image of the topology's first
    /// VPC.
    fn sample_cluster(topology: &Topology) -> HwCluster {
        let mut c = HwCluster::new(0, 4, 64, AlpmConfig::default(), 10_000_000_000).unwrap();
        let image = Arc::new(ImageBuilder::new(topology, 0).build(&[0], c.alpm));
        c.point_all(&image);
        c
    }

    #[test]
    fn install_replicates_to_all_devices() {
        let topology = Topology::generate(TopologyConfig::default());
        let c = sample_cluster(&topology);
        let vpc = &topology.vpcs[0];
        let routes = topology.routes.iter().filter(|(k, _)| k.vni == vpc.vni);
        for d in &c.devices {
            assert!(Arc::ptr_eq(d, &c.devices[0]), "one image behind every slot");
        }
        assert_eq!(c.route_entries(), routes.count());
        assert_eq!(c.vm_entries(), vpc.vm_range.1 - vpc.vm_range.0);
    }

    #[test]
    fn any_device_forwards_identically() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut c = sample_cluster(&topology);
        let vm = &topology.vms[topology.vpcs[0].vm_range.0];
        let tuple = FiveTuple::new(
            "192.0.2.9".parse().unwrap(),
            vm.ip,
            sailfish_net::IpProtocol::Udp,
            1000,
            2000,
        );
        let walk = |c: &HwCluster, device: usize| c.devices[device].walk(vm.vni, &tuple, &mut ());
        let device = c.device_for(&tuple).unwrap();
        let decision = walk(&c, device);
        assert_eq!(
            decision,
            Walked::ToNc {
                nc: vm.nc,
                vni: vm.vni
            }
        );
        // Offline the chosen device; another one serves the same flow the
        // same way.
        c.take_device_offline(device);
        let device2 = c.device_for(&tuple).unwrap();
        assert_ne!(device, device2);
        assert_eq!(walk(&c, device2), decision);
        assert_eq!(c.online_devices(), 3);
        c.bring_device_online(device).unwrap();
        assert_eq!(c.online_devices(), 4);
    }

    #[test]
    fn wipe_repoints_one_slot() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut c = sample_cluster(&topology);
        let image = Arc::clone(&c.devices[0]);
        c.wipe_device(2);
        assert!(c.devices[2].routes.is_empty() && c.devices[2].vm_nc.is_empty());
        for d in [0, 1, 3] {
            assert!(Arc::ptr_eq(&c.devices[d], &image));
        }
        // Out of range is a no-op.
        c.wipe_device(9);
        assert_eq!(c.devices.len(), 4);
    }

    #[test]
    fn route_entries_of_a_missing_device_are_zero() {
        let topology = Topology::generate(TopologyConfig::default());
        let c = sample_cluster(&topology);
        let vni = topology.vpcs[0].vni;
        assert_eq!(c.route_entries_for(3, vni), c.route_entries());
        assert_eq!(c.route_entries_for(4, vni), 0);
        assert_eq!(c.route_entries_for(usize::MAX, vni), 0);
    }

    #[test]
    fn vm_stride_withholds_every_nth_mapping() {
        let topology = Topology::generate(TopologyConfig::default());
        let all: Vec<usize> = (0..topology.vpcs.len()).collect();
        let kept = |stride| ImageBuilder::new(&topology, stride).build(&all, AlpmConfig::default());
        assert_eq!(kept(0).vm_nc.len(), topology.vms.len());
        assert_eq!(kept(1).vm_nc.len(), 0);
        let every_tenth = topology.vms.len() - topology.vms.len().div_ceil(10);
        assert_eq!(kept(10).vm_nc.len(), every_tenth);
        assert_eq!(kept(10).routes.len(), topology.routes.len());
    }

    #[test]
    fn sw_cluster_holds_full_tables() {
        let topology = Topology::generate(TopologyConfig::default());
        let mut sw = SwCluster::new(4, 64, XgwX86Config::default(), SnatConfig::default()).unwrap();
        let image = Arc::new(software_image(&topology).unwrap());
        sw.point_all(&image);
        for n in &sw.nodes {
            assert!(Arc::ptr_eq(&n.forwarder.tables, &image));
        }
        assert_eq!(image.routes.len(), topology.routes.len());
        assert_eq!(image.vm_nc.len(), topology.vms.len());
    }
}
