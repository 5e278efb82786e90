//! Multi-tenant region topology generation.
//!
//! Builds the full control-plane state of a synthetic cloud region: VPCs
//! with skewed VM counts ("some top customers can purchase millions of
//! VMs even in a single VPC", §3.3), dual-stack subnets, VM→NC placements,
//! VPC peerings, and Internet/IDC/cross-region routes. The generated
//! route/mapping sets drive both the forwarding simulations and the
//! memory-compression measurements (realistically *clustered* prefixes
//! matter for ALPM partition fill).

use core::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};

use sailfish_net::hash::{MixMap, MixState};
use sailfish_net::{IpPrefix, Ipv4Prefix, Vni};
use sailfish_tables::types::{IdcId, NcAddr, NcId, RegionId, RouteTarget, VxlanRouteKey};

use crate::zipf::zipf_weights;

/// Hosts per /24 (v4) or /64 (v6) subnet.
const VMS_PER_SUBNET: usize = 250;

/// Destinations of a VPC's Internet (SNAT), IDC and cross-region routes.
const INTERNET_ROUTE: IpPrefix = IpPrefix::V4(Ipv4Prefix::DEFAULT);
const IDC_ROUTE: IpPrefix = v4_prefix(Ipv4Addr::new(172, 16, 0, 0), 12);
const CROSS_REGION_ROUTE: IpPrefix = v4_prefix(Ipv4Addr::new(100, 64, 0, 0), 10);

/// A constant IPv4 prefix: a length over 32 fails the build, not a run.
const fn v4_prefix(addr: Ipv4Addr, len: u8) -> IpPrefix {
    match Ipv4Prefix::new(addr, len) {
        Ok(prefix) => IpPrefix::V4(prefix),
        Err(_) => panic!("IPv4 prefix length over 32"),
    }
}

/// Topology generator configuration.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// RNG seed; same seed → identical topology.
    pub seed: u64,
    /// Number of VPCs (tenancy scale).
    pub vpcs: usize,
    /// Baseline subnets per VPC (more are added to host skewed VM
    /// counts).
    pub base_subnets_per_vpc: usize,
    /// Total VMs in the region.
    pub total_vms: usize,
    /// Zipf exponent of the per-VPC VM-count skew.
    pub vm_skew: f64,
    /// Fraction of subnets that are IPv6.
    pub v6_fraction: f64,
    /// Fraction of VPCs peered with another VPC.
    pub peering_fraction: f64,
    /// Fraction of VPCs with an Internet (SNAT) default route.
    pub internet_fraction: f64,
    /// Fraction of VPCs with an IDC route over the CEN.
    pub idc_fraction: f64,
    /// Fraction of VPCs with a cross-region route.
    pub cross_region_fraction: f64,
    /// Number of physical servers (NCs) hosting the VMs.
    pub ncs: usize,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 1,
            vpcs: 200,
            base_subnets_per_vpc: 4,
            total_vms: 5_000,
            vm_skew: 1.2,
            v6_fraction: 0.25,
            peering_fraction: 0.3,
            internet_fraction: 0.5,
            idc_fraction: 0.1,
            cross_region_fraction: 0.1,
            ncs: 500,
        }
    }
}

impl TopologyConfig {
    /// The region scale used for the paper's memory experiments
    /// (DESIGN.md §3: ≈229k routes, ≈459k VMs per XGW-H after
    /// cluster-level splitting).
    pub fn region_scale() -> Self {
        TopologyConfig {
            seed: 2021,
            vpcs: 25_000,
            base_subnets_per_vpc: 7,
            total_vms: 459_000,
            vm_skew: 1.2,
            v6_fraction: 0.25,
            peering_fraction: 0.4,
            internet_fraction: 0.6,
            idc_fraction: 0.1,
            cross_region_fraction: 0.1,
            ncs: 20_000,
        }
    }
}

/// Number of leading subnets of each VPC that peer routes cover, and
/// within which cross-VPC workload destinations are drawn.
pub const PEERED_SUBNETS: usize = 2;

/// One tenant VPC.
#[derive(Debug, Clone)]
pub struct Vpc {
    /// The VPC's VNI.
    pub vni: Vni,
    /// Index range `[start, end)` into [`Topology::vms`].
    pub vm_range: (usize, usize),
    /// The VPC's subnet prefixes (Local routes).
    pub subnets: Vec<IpPrefix>,
    /// Peered VPC, if any.
    pub peer: Option<Vni>,
    /// Whether the VPC has an Internet SNAT route.
    pub internet: bool,
    /// IDC attachment, if any.
    pub idc: Option<IdcId>,
    /// Cross-region attachment, if any.
    pub cross_region: Option<RegionId>,
}

/// One VM placement.
#[derive(Debug, Clone, Copy)]
pub struct VmRecord {
    /// The VPC the VM belongs to.
    pub vni: Vni,
    /// The VM's inner IP address.
    pub ip: IpAddr,
    /// The physical server hosting it: its place in [`Topology::ncs`].
    pub nc: NcId,
}

/// A generated region topology.
#[derive(Debug)]
pub struct Topology {
    /// The generating configuration.
    pub config: TopologyConfig,
    /// Tenant VPCs.
    pub vpcs: Vec<Vpc>,
    /// The VXLAN routing entries.
    pub routes: Vec<(VxlanRouteKey, RouteTarget)>,
    /// The VM→NC mappings (contiguous per VPC).
    pub vms: Vec<VmRecord>,
    /// The physical servers (NCs) hosting the VMs, indexed by
    /// [`VmRecord::nc`]: the inventory every VM-NC table built from the
    /// topology shares.
    pub ncs: Arc<[NcAddr]>,
}

impl Topology {
    /// Generates a topology deterministically from its config.
    pub fn generate(config: TopologyConfig) -> Self {
        assert!(config.vpcs > 0 && config.ncs > 0 && u32::try_from(config.ncs).is_ok());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let weights = zipf_weights(config.vpcs, config.vm_skew);

        let mut vpcs = Vec::with_capacity(config.vpcs);
        let mut routes = Vec::new();
        let mut vms = Vec::new();

        for (i, w) in weights.iter().enumerate() {
            let vni = Vni::from_const(1_000 + i as u32);
            let vm_count = ((w * config.total_vms as f64).round() as usize).max(1);
            let subnets = config
                .base_subnets_per_vpc
                .max(vm_count.div_ceil(VMS_PER_SUBNET));

            // Peered VPCs must not overlap (real controllers forbid
            // overlapping CIDRs between peers); adjacent VPCs — the only
            // peering candidates — use staggered subnet-id planes.
            let subnet_base = (i % 2) * 4096;

            // Subnets and their Local routes.
            let mut subnet_prefixes: Vec<(bool, usize)> = Vec::with_capacity(subnets);
            let mut prefixes = Vec::with_capacity(subnets);
            for s in 0..subnets {
                let v6 = rng.gen_bool(config.v6_fraction);
                let prefix = subnet_prefix(v6, subnet_base + s);
                routes.push((VxlanRouteKey::new(vni, prefix), RouteTarget::Local));
                subnet_prefixes.push((v6, subnet_base + s));
                prefixes.push(prefix);
            }

            // VM placements, packed into the subnets.
            let vm_start = vms.len();
            for k in 0..vm_count {
                let (v6, s) = subnet_prefixes[k / VMS_PER_SUBNET % subnets];
                let host = 2
                    + (k % VMS_PER_SUBNET) as u32
                    + (k / (VMS_PER_SUBNET * subnets) * 1000) as u32;
                let ip = vm_address(v6, s, host);
                let nc_idx = rng.gen_range(0..config.ncs);
                vms.push(VmRecord {
                    vni,
                    ip,
                    nc: NcId(nc_idx as u32),
                });
            }

            vpcs.push(Vpc {
                vni,
                vm_range: (vm_start, vms.len()),
                subnets: prefixes,
                peer: None,
                internet: rng.gen_bool(config.internet_fraction),
                idc: rng
                    .gen_bool(config.idc_fraction)
                    .then(|| IdcId(rng.gen_range(0..64))),
                cross_region: rng
                    .gen_bool(config.cross_region_fraction)
                    .then(|| RegionId(1 + rng.gen_range(0..8))),
            });
        }

        // Peerings: pair adjacent VPCs with the configured probability and
        // install the cross routes of Fig 2, covering each peer's first
        // PEERED_SUBNETS subnets.
        let mut i = 0;
        while i + 1 < vpcs.len() {
            if rng.gen_bool(config.peering_fraction) {
                let (a, b) = (vpcs[i].vni, vpcs[i + 1].vni);
                vpcs[i].peer = Some(b);
                vpcs[i + 1].peer = Some(a);
                for s in 0..PEERED_SUBNETS {
                    if let Some(p) = vpcs[i + 1].subnets.get(s) {
                        routes.push((VxlanRouteKey::new(a, *p), RouteTarget::Peer(b)));
                    }
                    if let Some(p) = vpcs[i].subnets.get(s) {
                        routes.push((VxlanRouteKey::new(b, *p), RouteTarget::Peer(a)));
                    }
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        // Safety: duplicate keys would make install order significant.
        dedupe_routes(&mut routes);

        // Service routes per VPC.
        for vpc in &vpcs {
            if vpc.internet {
                routes.push((
                    VxlanRouteKey::new(vpc.vni, INTERNET_ROUTE),
                    RouteTarget::InternetSnat,
                ));
            }
            if let Some(idc) = vpc.idc {
                routes.push((
                    VxlanRouteKey::new(vpc.vni, IDC_ROUTE),
                    RouteTarget::Idc(idc),
                ));
            }
            if let Some(region) = vpc.cross_region {
                routes.push((
                    VxlanRouteKey::new(vpc.vni, CROSS_REGION_ROUTE),
                    RouteTarget::CrossRegion(region),
                ));
            }
        }

        let ncs = (0..config.ncs)
            .map(|i| NcAddr::new(nc_address(i)))
            .collect();
        Topology {
            config,
            vpcs,
            routes,
            vms,
            ncs,
        }
    }

    /// Route-entry counts per family `(v4, v6)`.
    pub fn route_family_counts(&self) -> (usize, usize) {
        let mut v4 = 0;
        let mut v6 = 0;
        for (k, _) in &self.routes {
            if k.prefix.is_v4() {
                v4 += 1;
            } else {
                v6 += 1;
            }
        }
        (v4, v6)
    }

    /// The VPCs by VNI, indexed in one pass. When a VNI repeats (only a
    /// hand-built topology can), the first VPC carrying it wins — the one
    /// a scan of [`Topology::vpcs`] finds.
    pub fn vpcs_by_vni(&self) -> MixMap<Vni, &Vpc> {
        let mut index = MixMap::with_capacity_and_hasher(self.vpcs.len(), MixState);
        for vpc in &self.vpcs {
            index.entry(vpc.vni).or_insert(vpc);
        }
        index
    }

    /// VMs of one VPC.
    pub fn vms_of(&self, vpc: &Vpc) -> &[VmRecord] {
        &self.vms[vpc.vm_range.0..vpc.vm_range.1]
    }

    /// The VPC with the most VMs (the "top customer").
    pub fn top_customer(&self) -> &Vpc {
        self.vpcs
            .iter()
            .max_by_key(|v| v.vm_range.1 - v.vm_range.0)
            .expect("at least one VPC")
    }
}

fn subnet_prefix(v6: bool, s: usize) -> IpPrefix {
    if v6 {
        let addr = Ipv6Addr::new(0x2001, 0xdb8, 0, s as u16, 0, 0, 0, 0);
        IpPrefix::new(addr.into(), 64).expect("fixed length")
    } else {
        let addr = Ipv4Addr::new(10, (s / 256) as u8, (s % 256) as u8, 0);
        IpPrefix::new(addr.into(), 24).expect("fixed length")
    }
}

fn vm_address(v6: bool, s: usize, host: u32) -> IpAddr {
    if v6 {
        let mut seg = [0u16; 8];
        seg[0] = 0x2001;
        seg[1] = 0xdb8;
        seg[3] = s as u16;
        seg[6] = (host >> 16) as u16;
        seg[7] = host as u16;
        Ipv6Addr::new(
            seg[0], seg[1], seg[2], seg[3], seg[4], seg[5], seg[6], seg[7],
        )
        .into()
    } else {
        // Hosts beyond the /24 range spill into higher octets; the mapping
        // table is exact-match so any unique address works, but keep it
        // inside the subnet's /24 where possible.
        let base = u32::from(Ipv4Addr::new(10, (s / 256) as u8, (s % 256) as u8, 0));
        Ipv4Addr::from(base + host).into()
    }
}

fn nc_address(idx: usize) -> IpAddr {
    Ipv4Addr::new(
        10,
        (192 + idx / 65536) as u8,
        (idx / 256 % 256) as u8,
        (idx % 256) as u8,
    )
    .into()
}

fn dedupe_routes(routes: &mut Vec<(VxlanRouteKey, RouteTarget)>) {
    let mut seen = std::collections::HashSet::new();
    routes.retain(|(k, _)| seen.insert(*k));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = Topology::generate(TopologyConfig::default());
        let b = Topology::generate(TopologyConfig::default());
        assert_eq!(a.routes.len(), b.routes.len());
        assert_eq!(a.vms.len(), b.vms.len());
        assert_eq!(a.vms[0].ip, b.vms[0].ip);
    }

    #[test]
    fn vm_counts_add_up_and_are_skewed() {
        let t = Topology::generate(TopologyConfig::default());
        let total: usize = t.vpcs.iter().map(|v| v.vm_range.1 - v.vm_range.0).sum();
        assert_eq!(total, t.vms.len());
        // Rounding keeps us near the configured total.
        let target = t.config.total_vms as f64;
        assert!((total as f64 - target).abs() / target < 0.1);
        // The top customer dominates.
        let top = t.top_customer();
        let top_count = top.vm_range.1 - top.vm_range.0;
        assert!(
            top_count as f64 > 0.05 * total as f64,
            "top customer has {top_count} of {total}"
        );
    }

    #[test]
    fn vm_ips_unique_within_vpc() {
        let t = Topology::generate(TopologyConfig::default());
        for vpc in &t.vpcs {
            let vms = t.vms_of(vpc);
            let unique: std::collections::HashSet<IpAddr> = vms.iter().map(|v| v.ip).collect();
            assert_eq!(unique.len(), vms.len(), "duplicates in {}", vpc.vni);
        }
    }

    #[test]
    fn routes_have_no_duplicate_keys() {
        let t = Topology::generate(TopologyConfig::default());
        let unique: std::collections::HashSet<&VxlanRouteKey> =
            t.routes.iter().map(|(k, _)| k).collect();
        assert_eq!(unique.len(), t.routes.len());
    }

    #[test]
    fn family_mix_tracks_config() {
        let t = Topology::generate(TopologyConfig::default());
        let (v4, v6) = t.route_family_counts();
        let ratio = v6 as f64 / (v4 + v6) as f64;
        // Default routes etc. are v4, so the measured ratio sits a bit
        // below the configured subnet fraction.
        assert!((0.1..0.35).contains(&ratio), "v6 ratio {ratio:.2}");
    }

    #[test]
    fn peered_vpcs_are_mutual() {
        let t = Topology::generate(TopologyConfig::default());
        let by_vni: std::collections::HashMap<Vni, &Vpc> =
            t.vpcs.iter().map(|v| (v.vni, v)).collect();
        let mut peered = 0;
        for vpc in &t.vpcs {
            if let Some(peer) = vpc.peer {
                peered += 1;
                assert_eq!(by_vni[&peer].peer, Some(vpc.vni));
            }
        }
        assert!(peered > 0, "default config should create peerings");
    }

    #[test]
    fn peer_routes_resolve_end_to_end() {
        use sailfish_tables::vxlan_route::VxlanRoutingTable;
        let t = Topology::generate(TopologyConfig::default());
        let mut table = VxlanRoutingTable::new();
        for (k, target) in &t.routes {
            table.insert(*k, *target);
        }
        let mut checked = 0;
        for vpc in &t.vpcs {
            let Some(peer_vni) = vpc.peer else { continue };
            let peer = t.vpcs.iter().find(|v| v.vni == peer_vni).unwrap();
            let pvms = t.vms_of(peer);
            let reachable = pvms.len().min(PEERED_SUBNETS * 250);
            for vm in &pvms[..reachable] {
                let r = table
                    .resolve(vpc.vni, vm.ip)
                    .unwrap_or_else(|e| panic!("{} -> {}: {e}", vpc.vni, vm.ip));
                assert_eq!(r.final_vni, peer_vni, "{} -> {}", vpc.vni, vm.ip);
                assert_eq!(r.target, RouteTarget::Local);
                assert_eq!(r.hops, 1);
                checked += 1;
            }
            if checked > 2_000 {
                break;
            }
        }
        assert!(checked > 100, "must exercise real peerings ({checked})");
    }

    #[test]
    fn region_scale_hits_calibrated_magnitudes() {
        let t = Topology::generate(TopologyConfig::region_scale());
        // DESIGN.md §3: ≈229k routes, ≈459k VMs (±10%).
        let routes = t.routes.len() as f64;
        assert!((206_000.0..252_000.0).contains(&routes), "routes {routes}");
        let vms = t.vms.len() as f64;
        assert!((430_000.0..490_000.0).contains(&vms), "vms {vms}");
    }
}
