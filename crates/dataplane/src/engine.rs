//! The counted table walk and its virtual cost model.
//!
//! The hardware forwarding decision has one implementation,
//! [`HardwareTables::walk`], generic over a [`WalkSink`] that observes
//! each table interaction. This module supplies the counting side:
//! [`TableCounters`] is a sink — each single-step LPM lookup, each
//! peer-VPC recirculation and each VM-NC digest probe lands in its lane
//! the way a switch pipeline exposes per-stage counters — [`walk`] is the
//! counted entry point, and [`cost::of`] prices each interaction on the
//! virtual clock.

use sailfish_net::GatewayPacket;
use sailfish_tables::acl::AclAction;
use sailfish_tables::digest::DigestLookup;
use sailfish_tables::types::RouteTarget;
use sailfish_xgw_h::tables::HardwareTables;
use sailfish_xgw_h::{HwDecision, WalkEvent, WalkSink};

use crate::counters::TableCounters;

/// Virtual per-stage costs in nanoseconds, used by the deterministic
/// executor to derive a reproducible Mpps figure. The constants are sized
/// from the relative stage weights of a Tofino-class pipeline model (parse
/// and rewrite dominated by header touches, x86 fallback ~two orders of
/// magnitude above a hardware stage) — they make deterministic runs
/// comparable, not absolute predictions.
pub mod cost {
    use super::{DigestLookup, WalkEvent};

    /// Parsing a frame into the packet model.
    pub const PARSE_NS: u64 = 25;
    /// ACL evaluation.
    pub const ACL_NS: u64 = 8;
    /// One single-step LPM lookup (incl. each peer recirculation).
    pub const ROUTE_LOOKUP_NS: u64 = 12;
    /// A VM-NC digest probe.
    pub const VM_LOOKUP_NS: u64 = 10;
    /// Extra cost when the conflict plane resolves the key.
    pub const CONFLICT_PROBE_NS: u64 = 6;
    /// In-place header rewrite and re-encapsulation.
    pub const REWRITE_NS: u64 = 15;
    /// A flow-cache hit (replaces the whole walk).
    pub const CACHE_HIT_NS: u64 = 18;
    /// Handing a punted packet to the x86 path.
    pub const PUNT_HANDOFF_NS: u64 = 60;
    /// The x86 software forwarder serving one packet.
    pub const X86_PROCESS_NS: u64 = 1600;
    /// Per-batch overhead in the multi-worker mode.
    pub const BATCH_OVERHEAD_NS: u64 = 120;

    /// Virtual nanoseconds one walk interaction costs. A sink that sums
    /// this over a walk's events has charged the whole walk.
    pub fn of(event: WalkEvent) -> u64 {
        match event {
            WalkEvent::Acl(_) => ACL_NS,
            WalkEvent::Route(_) => ROUTE_LOOKUP_NS,
            WalkEvent::Loop => 0,
            WalkEvent::Vm(DigestLookup::HitConflict) => VM_LOOKUP_NS + CONFLICT_PROBE_NS,
            WalkEvent::Vm(_) => VM_LOOKUP_NS,
        }
    }
}

/// The counting sink: one lane per table interaction. Route misses, VM
/// misses and SNAT-tagged routes are the three punt causes, so their
/// `punt_*` classification lanes are bumped at the same point.
impl WalkSink for TableCounters {
    fn on(&mut self, event: WalkEvent) {
        match event {
            WalkEvent::Acl(AclAction::Deny) => self.acl_denied += 1,
            WalkEvent::Acl(AclAction::Permit) => {}
            WalkEvent::Route(matched) => {
                self.route_lookups += 1;
                match matched {
                    None => {
                        self.route_misses += 1;
                        self.punt_no_route += 1;
                    }
                    Some(target) => {
                        self.route_hits += 1;
                        match target {
                            RouteTarget::Peer(_) => self.peer_hops += 1,
                            RouteTarget::InternetSnat => self.punt_snat += 1,
                            _ => {}
                        }
                    }
                }
            }
            WalkEvent::Loop => self.loop_drops += 1,
            WalkEvent::Vm(DigestLookup::HitMain) => self.vm_hit_main += 1,
            WalkEvent::Vm(DigestLookup::HitConflict) => self.vm_hit_conflict += 1,
            WalkEvent::Vm(DigestLookup::Miss) => {
                self.vm_miss += 1;
                self.punt_no_vm += 1;
            }
        }
    }
}

/// Walks one packet through the hardware tables, counting each stage.
pub fn walk(
    tables: &HardwareTables,
    packet: &GatewayPacket,
    counters: &mut TableCounters,
) -> HwDecision {
    tables
        .walk(packet.vni, &packet.five_tuple(), counters)
        .into_decision(packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DataplaneConfig;
    use crate::ladder::Ladder;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::{IpPrefix, Vni};
    use sailfish_tables::types::{IdcId, NcAddr, RegionId, VxlanRouteKey};
    use sailfish_util::check;
    use sailfish_util::rand::rngs::Xoshiro256pp;
    use sailfish_util::rand::Rng;
    use sailfish_xgw_h::program::HwDropReason;
    use sailfish_xgw_h::tables::MAX_PEER_HOPS;
    use sailfish_xgw_h::{PuntReason, Walked, XgwH};

    /// The walk's virtual cost as a closed formula over one packet's
    /// counter lanes — what the executors used to derive by diffing
    /// counter snapshots around each walk.
    fn walk_cost_formula(c: &TableCounters) -> u64 {
        cost::ACL_NS
            + cost::ROUTE_LOOKUP_NS * c.route_lookups
            + cost::VM_LOOKUP_NS * (c.vm_hit_main + c.vm_hit_conflict + c.vm_miss)
            + cost::CONFLICT_PROBE_NS * c.vm_hit_conflict
    }

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// Builds a random but structured table set: a handful of VNIs with
    /// local subnets, peer chains (including a deliberate loop), external
    /// targets and partial VM coverage.
    fn random_gateway(rng: &mut Xoshiro256pp) -> XgwH {
        let mut g = XgwH::with_defaults();
        let vnis = 4 + rng.gen_range(0..4u32);
        for v in 0..vnis {
            let id = vni(100 + v);
            g.tables
                .routes
                .insert(
                    VxlanRouteKey::new(id, prefix(&format!("10.{v}.0.0/16"))),
                    RouteTarget::Local,
                )
                .unwrap();
            // Peer chain to the next VNI; last one loops back to make the
            // recirculation bound reachable.
            let next = vni(100 + (v + 1) % vnis);
            g.tables
                .routes
                .insert(
                    VxlanRouteKey::new(id, prefix("172.20.0.0/16")),
                    RouteTarget::Peer(next),
                )
                .unwrap();
            if rng.gen_bool(0.5) {
                g.tables
                    .routes
                    .insert(
                        VxlanRouteKey::new(id, prefix("0.0.0.0/0")),
                        RouteTarget::InternetSnat,
                    )
                    .unwrap();
            }
            if rng.gen_bool(0.3) {
                g.tables
                    .routes
                    .insert(
                        VxlanRouteKey::new(id, prefix("192.168.0.0/16")),
                        RouteTarget::CrossRegion(RegionId(v)),
                    )
                    .unwrap();
            }
            if rng.gen_bool(0.3) {
                g.tables
                    .routes
                    .insert(
                        VxlanRouteKey::new(id, prefix("172.16.0.0/13")),
                        RouteTarget::Idc(IdcId(v)),
                    )
                    .unwrap();
            }
            // VM coverage with gaps.
            for host in 1..20u32 {
                if host % 3 == 0 {
                    continue;
                }
                let ip = format!("10.{v}.0.{host}").parse().unwrap();
                g.tables
                    .add_vm(
                        id,
                        ip,
                        NcAddr::new(format!("10.200.{v}.{host}").parse().unwrap()),
                    )
                    .unwrap();
            }
        }
        g
    }

    fn random_packet(rng: &mut Xoshiro256pp) -> GatewayPacket {
        let v = vni(100 + rng.gen_range(0..10u32));
        let dst: core::net::IpAddr = match rng.gen_range(0..6u8) {
            0 => format!(
                "10.{}.0.{}",
                rng.gen_range(0..8u32),
                rng.gen_range(0..32u32)
            )
            .parse()
            .unwrap(),
            1 => "172.20.1.1".parse().unwrap(),
            2 => "192.168.3.4".parse().unwrap(),
            3 => "172.17.0.1".parse().unwrap(),
            4 => "8.8.8.8".parse().unwrap(),
            _ => "203.0.113.7".parse().unwrap(),
        };
        GatewayPacketBuilder::new(v, "10.0.0.2".parse().unwrap(), dst).build()
    }

    /// There is one walk; what a sink observes must never change what it
    /// decides, and the counting sink's lanes must stay consistent with
    /// the decision and with the cost the executors' sink (a worker's
    /// `Ladder`: counters + virtual clock) charges.
    #[test]
    fn sinks_observe_one_walk_consistently() {
        check::run("sinks_observe_one_walk_consistently", 64, |rng| {
            let g = random_gateway(rng);
            let config = DataplaneConfig::default();
            let mut priced = Ladder::<u32>::new(&config);
            for _ in 0..64 {
                let p = random_packet(rng);
                let silent = g.tables.walk(p.vni, &p.five_tuple(), &mut ());
                priced.reset(&config);
                let counted = g.tables.walk(p.vni, &p.five_tuple(), &mut priced);
                assert_eq!(silent, counted, "a sink changed the decision");
                assert_eq!(
                    walk(&g.tables, &p, &mut TableCounters::default()),
                    g.classify(&p)
                );

                let c = &priced.counters;
                assert_eq!(c.route_lookups, c.route_hits + c.route_misses, "{c:?}");
                // Exactly one VM-NC lane per `Local` resolution — the
                // only resolutions that end in `ToNc` or a NoVmMapping
                // punt — and none otherwise.
                let local = matches!(
                    counted,
                    Walked::ToNc { .. } | Walked::Punt(PuntReason::NoVmMapping)
                );
                assert_eq!(
                    c.vm_hit_main + c.vm_hit_conflict + c.vm_miss,
                    u64::from(local),
                    "{counted:?}: {c:?}"
                );
                assert_eq!(c.punted(), u64::from(matches!(counted, Walked::Punt(_))));
                assert_eq!(priced.clock_ns, walk_cost_formula(c), "{counted:?}: {c:?}");
            }
        });
    }

    #[test]
    fn walk_counts_peer_hops_and_loops() {
        let mut g = XgwH::with_defaults();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(1), prefix("10.0.0.0/8")),
                RouteTarget::Peer(vni(2)),
            )
            .unwrap();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(2), prefix("10.0.0.0/8")),
                RouteTarget::Peer(vni(1)),
            )
            .unwrap();
        let p = GatewayPacketBuilder::new(
            vni(1),
            "10.0.0.1".parse().unwrap(),
            "10.9.9.9".parse().unwrap(),
        )
        .build();
        let mut c = TableCounters::default();
        assert_eq!(
            walk(&g.tables, &p, &mut c),
            HwDecision::Drop(HwDropReason::RoutingLoop)
        );
        assert_eq!(c.loop_drops, 1);
        assert_eq!(c.route_lookups as usize, MAX_PEER_HOPS + 1);
        assert_eq!(c.peer_hops as usize, MAX_PEER_HOPS + 1);
    }

    #[test]
    fn walk_cost_scales_with_stages() {
        let mut g = XgwH::with_defaults();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(1), prefix("10.0.0.0/8")),
                RouteTarget::Local,
            )
            .unwrap();
        g.tables
            .add_vm(
                vni(1),
                "10.0.0.5".parse().unwrap(),
                NcAddr::new("10.200.0.5".parse().unwrap()),
            )
            .unwrap();
        let p = GatewayPacketBuilder::new(
            vni(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.5".parse().unwrap(),
        )
        .build();
        let mut priced = Ladder::<u32>::new(&DataplaneConfig::default());
        g.tables.walk(p.vni, &p.five_tuple(), &mut priced);
        assert_eq!(
            priced.clock_ns,
            cost::ACL_NS + cost::ROUTE_LOOKUP_NS + cost::VM_LOOKUP_NS
        );
    }
}
