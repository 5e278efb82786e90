//! The software forwarding path.
//!
//! XGW-x86 holds *all* tables — "XGW-x86 maintains a large number of
//! volatile tables ... It also stores large-sized stateful tables that
//! cannot be easily compressed into XGW-H" (§4.2) — so this forwarder
//! implements the complete decision logic: ACL, VXLAN routing with peer
//! resolution, VM-NC mapping, SNAT for Internet-bound flows, and
//! cross-region/IDC handoff.

use std::sync::Arc;

use sailfish_net::{FiveTuple, GatewayPacket, Vni};
use sailfish_tables::acl::{AclAction, AclTable};
use sailfish_tables::snat::{SnatConfig, SnatTable};
use sailfish_tables::types::{Reason, RouteTarget, Verdict};
use sailfish_tables::vm_nc::VmNcTable;
use sailfish_tables::vxlan_route::VxlanRoutingTable;
use sailfish_tables::Error as TableError;

/// The shared software table image: everything a node forwards by
/// except its SNAT sessions. It is immutable once built, so every node of
/// a fleet points at one image.
#[derive(Debug)]
pub struct SoftwareTables {
    /// VXLAN routing table: the full region's routes in one flat map,
    /// keyed by VNI, family, prefix length and masked address.
    pub routes: VxlanRoutingTable,
    /// VM-NC mapping table.
    pub vm_nc: VmNcTable,
    /// Per-tenant ACLs.
    pub acl: AclTable,
}

impl Default for SoftwareTables {
    /// Empty tables with a default-permit ACL.
    fn default() -> Self {
        SoftwareTables {
            routes: VxlanRoutingTable::new(),
            vm_nc: VmNcTable::new(),
            acl: AclTable::new(AclAction::Permit, None),
        }
    }
}

impl SoftwareTables {
    /// Walks one packet through the full table set — ACL, VXLAN routing
    /// with peer resolution, VM-NC mapping — keyed by the VNI and tenant
    /// 5-tuple, which is all the walk reads of a packet. An
    /// Internet-bound route yields [`Verdict::ToInternet`]: translating
    /// it is the node's SNAT step after the walk
    /// ([`SoftwareForwarder::forward`]). Never punts.
    pub fn walk(&self, vni: Vni, tuple: &FiveTuple) -> Verdict {
        if self.acl.evaluate(vni, tuple) == AclAction::Deny {
            return Verdict::Drop(Reason::AclDeny);
        }
        let resolution = match self.routes.resolve(vni, tuple.dst_ip) {
            Ok(r) => r,
            Err(TableError::RoutingLoop) => return Verdict::Drop(Reason::RoutingLoop),
            Err(_) => return Verdict::Drop(Reason::NoRoute),
        };
        let vni = resolution.final_vni;
        match resolution.target {
            RouteTarget::Local => match self.vm_nc.lookup(vni, tuple.dst_ip) {
                Some(nc) => Verdict::ToNc { nc, vni },
                None => Verdict::Drop(Reason::NoVmMapping),
            },
            RouteTarget::CrossRegion(region) => Verdict::ToRegion { region, vni },
            RouteTarget::Idc(idc) => Verdict::ToIdc { idc, vni },
            RouteTarget::InternetSnat => Verdict::ToInternet,
            // `resolve` follows peer hops itself; a peer target left over
            // is a chain it gave up on.
            RouteTarget::Peer(_) => Verdict::Drop(Reason::RoutingLoop),
        }
    }
}

/// The run-to-completion software forwarder: a shared table image plus
/// this node's own SNAT sessions. A clone shares the image and copies the
/// sessions.
#[derive(Debug, Clone)]
pub struct SoftwareForwarder {
    /// The table image, shared with every other node of the fleet.
    pub tables: Arc<SoftwareTables>,
    /// The stateful SNAT session table (O(100M) entries in production),
    /// the node's only state of its own.
    pub snat: SnatTable,
}

impl SoftwareForwarder {
    /// A forwarder over `tables` with a fresh SNAT table on `snat`.
    pub fn new(tables: Arc<SoftwareTables>, snat: SnatConfig) -> Self {
        SoftwareForwarder {
            tables,
            snat: SnatTable::new(snat),
        }
    }

    /// Decides one packet: [`SoftwareForwarder::forward`] keyed by the
    /// packet's VNI and 5-tuple.
    pub fn process(&mut self, packet: &GatewayPacket, now_ns: u64) -> Verdict {
        self.forward(packet.vni, &packet.five_tuple(), now_ns)
    }

    /// Walks the shared image ([`SoftwareTables::walk`]), then runs the
    /// SNAT step: an Internet-bound flow takes (or refreshes) a public
    /// binding in this node's session table under its original VNI, or
    /// drops when the pool is exhausted.
    pub fn forward(&mut self, vni: Vni, tuple: &FiveTuple, now_ns: u64) -> Verdict {
        match self.tables.walk(vni, tuple) {
            Verdict::ToInternet => match self.snat.translate_outbound(vni, *tuple, now_ns) {
                Ok(_) => Verdict::ToInternet,
                Err(_) => Verdict::Drop(Reason::SnatExhausted),
            },
            verdict => verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::IpPrefix;
    use sailfish_tables::acl::AclRule;
    use sailfish_tables::types::{IdcId, NcAddr, RegionId, VxlanRouteKey};

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// Builds the Fig 2 scenario plus an Internet route and an IDC route.
    fn forwarder() -> SoftwareForwarder {
        let mut tables = SoftwareTables::default();
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.168.10.0/24")),
            RouteTarget::Local,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.168.30.0/24")),
            RouteTarget::Peer(vni(200)),
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(200), prefix("192.168.30.0/24")),
            RouteTarget::Local,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("0.0.0.0/0")),
            RouteTarget::InternetSnat,
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("172.16.0.0/12")),
            RouteTarget::Idc(IdcId(3)),
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("192.169.0.0/16")),
            RouteTarget::CrossRegion(RegionId(2)),
        );
        tables
            .vm_nc
            .insert(
                vni(100),
                "192.168.10.3".parse().unwrap(),
                NcAddr::new("10.1.1.12".parse().unwrap()),
            )
            .unwrap();
        tables
            .vm_nc
            .insert(
                vni(200),
                "192.168.30.5".parse().unwrap(),
                NcAddr::new("10.1.1.15".parse().unwrap()),
            )
            .unwrap();
        SoftwareForwarder::new(Arc::new(tables), SnatConfig::default())
    }

    fn packet(dst: &str) -> GatewayPacket {
        GatewayPacketBuilder::new(
            vni(100),
            "192.168.10.2".parse().unwrap(),
            dst.parse().unwrap(),
        )
        .build()
    }

    #[test]
    fn same_vpc_forwarding() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("192.168.10.3"), 0),
            Verdict::ToNc {
                nc: NcAddr::new("10.1.1.12".parse().unwrap()),
                vni: vni(100)
            }
        );
    }

    #[test]
    fn cross_vpc_forwarding_rewrites_vni() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("192.168.30.5"), 0),
            Verdict::ToNc {
                nc: NcAddr::new("10.1.1.15".parse().unwrap()),
                vni: vni(200)
            },
            "VNI must become the peer VPC"
        );
    }

    #[test]
    fn internet_route_applies_snat() {
        let mut f = forwarder();
        let p = packet("93.184.216.34");
        assert_eq!(f.process(&p, 0), Verdict::ToInternet);
        let binding = f.snat.translate_outbound(p.vni, p.five_tuple(), 0).unwrap();
        assert!(binding.public_port >= 1024);
        // Same flow keeps the same binding.
        assert_eq!(f.process(&p, 1), Verdict::ToInternet);
        assert_eq!(f.process(&p, 2), Verdict::ToInternet);
        assert_eq!(f.snat.len(), 1);
        assert_eq!(
            f.snat.translate_outbound(p.vni, p.five_tuple(), 3).unwrap(),
            binding
        );
    }

    /// Two flows take distinct bindings but reach the same verdict, with
    /// the same digest: the binding is not part of the decision.
    #[test]
    fn internet_decisions_ignore_binding() {
        let mut f = forwarder();
        let p1 = packet("8.8.8.8");
        let p2 = GatewayPacketBuilder::new(
            vni(100),
            "192.168.10.9".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
        )
        .build();
        let d1 = f.process(&p1, 0);
        let d2 = f.process(&p2, 0);
        assert_eq!(d1, Verdict::ToInternet);
        assert_eq!(d1, d2);
        assert_eq!(d1.digest(), d2.digest());
        let b1 = f.snat.translate_outbound(p1.vni, p1.five_tuple(), 0);
        let b2 = f.snat.translate_outbound(p2.vni, p2.five_tuple(), 0);
        assert_ne!(b1.unwrap(), b2.unwrap());
    }

    #[test]
    fn idc_and_cross_region_handoff() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("172.16.5.5"), 0),
            Verdict::ToIdc {
                idc: IdcId(3),
                vni: vni(100)
            }
        );
        assert_eq!(
            f.process(&packet("192.169.1.1"), 0),
            Verdict::ToRegion {
                region: RegionId(2),
                vni: vni(100)
            }
        );
    }

    #[test]
    fn missing_vm_mapping_drops() {
        let mut f = forwarder();
        assert_eq!(
            f.process(&packet("192.168.10.99"), 0),
            Verdict::Drop(Reason::NoVmMapping)
        );
    }

    #[test]
    fn unknown_vni_drops() {
        let mut f = forwarder();
        let p = GatewayPacketBuilder::new(
            vni(999),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .build();
        assert_eq!(f.process(&p, 0), Verdict::Drop(Reason::NoRoute));
    }

    #[test]
    fn acl_deny_takes_precedence() {
        let mut f = forwarder();
        Arc::get_mut(&mut f.tables)
            .unwrap()
            .acl
            .insert(AclRule {
                priority: 10,
                vni: Some(vni(100)),
                src: None,
                dst: Some(prefix("192.168.10.3/32")),
                protocol: None,
                src_ports: None,
                dst_ports: None,
                action: AclAction::Deny,
            })
            .unwrap();
        assert_eq!(
            f.process(&packet("192.168.10.3"), 0),
            Verdict::Drop(Reason::AclDeny)
        );
        // Other destinations unaffected.
        assert!(matches!(
            f.process(&packet("192.168.30.5"), 0),
            Verdict::ToNc { .. }
        ));
    }

    #[test]
    fn routing_loop_drops() {
        let mut f = forwarder();
        let tables = Arc::get_mut(&mut f.tables).unwrap();
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("10.66.0.0/16")),
            RouteTarget::Peer(vni(300)),
        );
        tables.routes.insert(
            VxlanRouteKey::new(vni(300), prefix("10.66.0.0/16")),
            RouteTarget::Peer(vni(100)),
        );
        assert_eq!(
            f.process(&packet("10.66.1.1"), 0),
            Verdict::Drop(Reason::RoutingLoop)
        );
    }

    #[test]
    fn snat_exhaustion_drops() {
        let mut tables = SoftwareTables::default();
        tables.routes.insert(
            VxlanRouteKey::new(vni(100), prefix("0.0.0.0/0")),
            RouteTarget::InternetSnat,
        );
        let mut f = SoftwareForwarder::new(
            Arc::new(tables),
            SnatConfig {
                port_range: (1024, 1024),
                ..SnatConfig::default()
            },
        );
        assert_eq!(f.process(&packet("93.184.216.34"), 0), Verdict::ToInternet);
        // A second distinct flow exhausts the single-port pool.
        let p2 = GatewayPacketBuilder::new(
            vni(100),
            "192.168.10.9".parse().unwrap(),
            "93.184.216.34".parse().unwrap(),
        )
        .build();
        assert_eq!(f.process(&p2, 0), Verdict::Drop(Reason::SnatExhausted));
    }
}
