//! The folded gateway program.
//!
//! Lookup order along the fold path (Fig 13/Fig 15):
//!
//! 1. **Ingress Pipe 0/2** — parse, service classification, ACL, punt
//!    decision for SNAT-tagged traffic;
//! 2. **Egress Pipe 1/3** — VXLAN routing (entries split between the two
//!    loop pipes by VNI parity, Fig 14);
//! 3. **Ingress Pipe 1/3** — VM-NC mapping (most of it);
//! 4. **Egress Pipe 0/2** — VM-NC remainder (cross-pipe mapping, Fig 15)
//!    and header rewrite.
//!
//! Traffic the hardware cannot serve (stateful SNAT, volatile long-tail
//! tables) is punted to XGW-x86 behind a token-bucket rate limiter:
//! "rate limiting is necessary at XGW-H before forwarding the traffic to
//! XGW-x86 for overload protection" (§4.2).

use sailfish_net::{FiveTuple, GatewayPacket, Vni};
use sailfish_tables::acl::AclAction;
use sailfish_tables::alpm::AlpmConfig;
use sailfish_tables::digest::DigestLookup;
use sailfish_tables::meter::Meter;
use sailfish_tables::types::{IdcId, NcAddr, RegionId, RouteTarget};

use crate::tables::{HardwareTables, MAX_PEER_HOPS};

/// Why a packet leaves for the software gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuntReason {
    /// The route is tagged as requiring stateful SNAT (special VNI tag in
    /// the paper's Fig 11).
    SnatRequired,
    /// The hardware tables have no entry; the long tail lives on x86.
    NoHwRoute,
    /// Route present but the VM mapping is not on chip (volatile or
    /// mid-migration entry kept on x86).
    NoVmMapping,
}

/// Why the hardware dropped a packet outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwDropReason {
    /// ACL denied the flow.
    AclDeny,
    /// The peer-VPC chain exceeded the recirculation bound.
    RoutingLoop,
    /// The punt path's protective rate limiter rejected the packet.
    PuntRateLimited,
}

/// The hardware forwarding decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwDecision {
    /// Forward to the NC hosting the destination VM.
    ToNc {
        /// Rewritten packet.
        packet: GatewayPacket,
        /// Destination server.
        nc: NcAddr,
    },
    /// Hand off to another region.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context.
        vni: Vni,
    },
    /// Hand off to an IDC over the CEN.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context.
        vni: Vni,
    },
    /// Send to XGW-x86 (rate limit already charged).
    PuntToX86 {
        /// The unmodified packet.
        packet: GatewayPacket,
        /// Why it is punted.
        reason: PuntReason,
    },
    /// Dropped in hardware.
    Drop(HwDropReason),
}

/// What one walk over the resident tables decides — the folded program
/// up to, but not including, the punt meter. It has no variant for
/// [`HwDropReason::PuntRateLimited`]: only [`XgwH::process`], which owns
/// the meter, can produce that drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walked {
    /// Forward to the NC hosting the destination VM.
    ToNc {
        /// Destination server.
        nc: NcAddr,
        /// VNI of the final (non-peer) route match.
        vni: Vni,
    },
    /// Hand off to another region.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context.
        vni: Vni,
    },
    /// Hand off to an IDC over the CEN.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context.
        vni: Vni,
    },
    /// The hardware cannot serve the packet; XGW-x86 must.
    Punt(PuntReason),
    /// ACL denied the flow.
    DropAcl,
    /// The peer-VPC chain exceeded the recirculation bound.
    DropLoop,
}

impl Walked {
    /// The hardware decision this walk amounts to for `packet`: forwards
    /// carry the rewritten packet, punts the unmodified one.
    pub fn into_decision(self, packet: &GatewayPacket) -> HwDecision {
        match self {
            Walked::ToNc { nc, vni } => {
                let mut out = *packet;
                out.outer.dst_ip = nc.ip;
                out.vni = vni;
                HwDecision::ToNc { packet: out, nc }
            }
            Walked::ToRegion { region, vni } => HwDecision::ToRegion { region, vni },
            Walked::ToIdc { idc, vni } => HwDecision::ToIdc { idc, vni },
            Walked::Punt(reason) => HwDecision::PuntToX86 {
                packet: *packet,
                reason,
            },
            Walked::DropAcl => HwDecision::Drop(HwDropReason::AclDeny),
            Walked::DropLoop => HwDecision::Drop(HwDropReason::RoutingLoop),
        }
    }
}

/// One table interaction of a walk, as a switch pipeline would expose it
/// through per-stage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEvent {
    /// The ACL stage ran (exactly once per walk) with this verdict.
    Acl(AclAction),
    /// One single-step LPM lookup and what it matched: `None` is a miss,
    /// `Some(Peer(_))` a recirculation into the peer VPC.
    Route(Option<RouteTarget>),
    /// The peer chain outran [`MAX_PEER_HOPS`].
    Loop,
    /// The VM-NC digest probe and the plane that resolved it.
    Vm(DigestLookup),
}

/// Observer of a walk's table interactions. `()` observes nothing and
/// compiles away; the dataplane's stage counters are the counting sink.
pub trait WalkSink {
    /// Called once per table interaction, in pipeline order.
    fn on(&mut self, event: WalkEvent);
}

impl WalkSink for () {
    #[inline]
    fn on(&mut self, _: WalkEvent) {}
}

impl HardwareTables {
    /// Walks one packet through the resident tables in fold order — ACL,
    /// the bounded peer-VPC route chain, the VM-NC digest probe —
    /// reporting every table interaction to `sink`. Touches no runtime
    /// statistics and no meter.
    ///
    /// The key is the VNI and the tenant 5-tuple — all the program reads
    /// of a packet — so a caller holding a borrowed
    /// [`sailfish_net::FrameView`] walks without building the owned model.
    pub fn walk<S: WalkSink>(&self, mut vni: Vni, tuple: &FiveTuple, sink: &mut S) -> Walked {
        let verdict = self.acl.evaluate(vni, tuple);
        sink.on(WalkEvent::Acl(verdict));
        if verdict == AclAction::Deny {
            return Walked::DropAcl;
        }
        let dst = tuple.dst_ip;
        // Each peer hop is a pipeline recirculation, so the chain is
        // followed one single-step lookup at a time.
        for _ in 0..=MAX_PEER_HOPS {
            let matched = self.routes.lookup(vni, dst);
            sink.on(WalkEvent::Route(matched));
            match matched {
                None => return Walked::Punt(PuntReason::NoHwRoute),
                Some(RouteTarget::Peer(next)) => vni = next,
                Some(RouteTarget::Local) => {
                    let (nc, trace) = self.vm_nc.lookup_traced(vni, dst);
                    sink.on(WalkEvent::Vm(trace));
                    return match nc {
                        Some(nc) => Walked::ToNc { nc, vni },
                        None => Walked::Punt(PuntReason::NoVmMapping),
                    };
                }
                Some(RouteTarget::CrossRegion(region)) => return Walked::ToRegion { region, vni },
                Some(RouteTarget::Idc(idc)) => return Walked::ToIdc { idc, vni },
                Some(RouteTarget::InternetSnat) => return Walked::Punt(PuntReason::SnatRequired),
            }
        }
        sink.on(WalkEvent::Loop);
        Walked::DropLoop
    }
}

/// Per-gateway runtime statistics.
#[derive(Debug, Clone, Default)]
pub struct XgwHStats {
    /// Packets and bytes forwarded per physical pipe (0..4). Pipes 1/3
    /// carry the loop traffic split by VNI parity (Figs 20/21).
    pub pipe_packets: [u64; 4],
    /// Bytes per pipe.
    pub pipe_bytes: [u64; 4],
    /// Packets punted to XGW-x86.
    pub punted_packets: u64,
    /// Bytes punted to XGW-x86.
    pub punted_bytes: u64,
    /// Packets dropped by the punt rate limiter.
    pub punt_rate_limited: u64,
    /// Packets dropped by ACL.
    pub acl_dropped: u64,
    /// Packets dropped by the loop bound.
    pub loop_dropped: u64,
    /// Packets forwarded in hardware.
    pub forwarded_packets: u64,
    /// Bytes forwarded in hardware.
    pub forwarded_bytes: u64,
}

impl XgwHStats {
    /// Fraction of handled traffic (in packets) that was punted to
    /// software — the Fig 22 "XGW-x86 traffic ratio".
    pub fn punt_ratio(&self) -> f64 {
        let total = self.forwarded_packets + self.punted_packets;
        if total == 0 {
            0.0
        } else {
            self.punted_packets as f64 / total as f64
        }
    }

    /// Byte share carried by each loop pipe `(pipe1, pipe3)` (Figs 20/21).
    pub fn loop_pipe_split(&self) -> (f64, f64) {
        let total = (self.pipe_bytes[1] + self.pipe_bytes[3]) as f64;
        if total == 0.0 {
            (0.0, 0.0)
        } else {
            (
                self.pipe_bytes[1] as f64 / total,
                self.pipe_bytes[3] as f64 / total,
            )
        }
    }
}

/// One hardware gateway (one Tofino in folded configuration).
#[derive(Debug)]
pub struct XgwH {
    /// The resident tables.
    pub tables: HardwareTables,
    /// Protective rate limiter in front of the x86 punt path.
    punt_meter: Meter,
    /// Runtime counters.
    stats: XgwHStats,
}

impl XgwH {
    /// Creates a gateway. `punt_rate_bps` bounds software-bound traffic
    /// (a few Gbps in production, Fig 22).
    pub fn new(alpm_config: AlpmConfig, punt_rate_bps: u64, punt_burst_bytes: u64) -> Self {
        XgwH {
            tables: HardwareTables::new(alpm_config),
            punt_meter: Meter::new(punt_rate_bps, punt_burst_bytes),
            stats: XgwHStats::default(),
        }
    }

    /// A gateway with a 10 Gbps punt budget.
    pub fn with_defaults() -> Self {
        Self::new(AlpmConfig::default(), 10_000_000_000, 125_000_000)
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &XgwHStats {
        &self.stats
    }

    /// Resets runtime statistics (used between measurement windows).
    pub fn reset_stats(&mut self) {
        self.stats = XgwHStats::default();
    }

    /// Drops every installed table entry, keeping the ALPM configuration,
    /// the punt meter and the runtime counters. This is the memory-loss
    /// failure mode the §6.1 consistency checker exists to catch (and the
    /// first step of a controller-driven table rebuild): the device keeps
    /// forwarding, but every lookup misses and punts to XGW-x86.
    pub fn wipe_tables(&mut self) {
        self.tables = HardwareTables::new(self.tables.routes.alpm_config());
    }

    /// Which loop pipe the packet traverses: entries are split by VNI
    /// parity between Egress/Ingress Pipe 1 and Pipe 3 (Fig 14).
    pub fn loop_pipe_for(vni: Vni) -> usize {
        if vni.parity() == 0 {
            1
        } else {
            3
        }
    }

    /// Which outer pipe the packet enters/leaves through (by underlay flow
    /// entropy; both outer pipes run identical programs).
    pub fn outer_pipe_for(packet: &GatewayPacket) -> usize {
        if packet.outer.udp_src_port.is_multiple_of(2) {
            0
        } else {
            2
        }
    }

    fn walk(&self, packet: &GatewayPacket) -> Walked {
        self.tables.walk(packet.vni, &packet.five_tuple(), &mut ())
    }

    fn punt(&mut self, packet: &GatewayPacket, reason: PuntReason, now_ns: u64) -> HwDecision {
        let bytes = packet.wire_len();
        if self.punt_meter.offer(now_ns, bytes) {
            self.stats.punted_packets += 1;
            self.stats.punted_bytes += bytes as u64;
            HwDecision::PuntToX86 {
                packet: *packet,
                reason,
            }
        } else {
            self.stats.punt_rate_limited += 1;
            HwDecision::Drop(HwDropReason::PuntRateLimited)
        }
    }

    /// Pure classification of one packet: the decision the folded program
    /// would take, without touching counters or the punt meter. Used by
    /// the fluid region simulation, which does its own rate accounting.
    pub fn classify(&self, packet: &GatewayPacket) -> HwDecision {
        self.walk(packet).into_decision(packet)
    }

    /// Processes one packet through the folded program, updating per-pipe
    /// counters and charging the punt rate limiter.
    pub fn process(&mut self, packet: &GatewayPacket, now_ns: u64) -> HwDecision {
        let bytes = packet.wire_len() as u64;
        // Step 1: ingress outer pipe — accounting (ACL runs in the walk).
        let outer = Self::outer_pipe_for(packet);
        self.stats.pipe_packets[outer] += 1;
        self.stats.pipe_bytes[outer] += bytes;
        let walked = self.walk(packet);

        // Step 2 accounting: the loop pipe chosen by VNI parity carries
        // everything that got past the ACL.
        if walked != Walked::DropAcl {
            let loop_pipe = Self::loop_pipe_for(packet.vni);
            self.stats.pipe_packets[loop_pipe] += 1;
            self.stats.pipe_bytes[loop_pipe] += bytes;
        }

        match walked {
            Walked::DropAcl => self.stats.acl_dropped += 1,
            Walked::DropLoop => self.stats.loop_dropped += 1,
            Walked::Punt(reason) => return self.punt(packet, reason, now_ns),
            Walked::ToNc { .. } | Walked::ToRegion { .. } | Walked::ToIdc { .. } => {
                self.stats.forwarded_packets += 1;
                self.stats.forwarded_bytes += bytes;
            }
        }
        walked.into_decision(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_net::IpPrefix;
    use sailfish_tables::types::VxlanRouteKey;

    fn vni(v: u32) -> Vni {
        Vni::from_const(v)
    }

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn gateway() -> XgwH {
        let mut g = XgwH::with_defaults();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(100), prefix("192.168.10.0/24")),
                RouteTarget::Local,
            )
            .unwrap();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(100), prefix("0.0.0.0/0")),
                RouteTarget::InternetSnat,
            )
            .unwrap();
        g.tables
            .add_vm(
                vni(100),
                "192.168.10.3".parse().unwrap(),
                NcAddr::new("10.1.1.12".parse().unwrap()),
            )
            .unwrap();
        g
    }

    fn packet(v: u32, dst: &str) -> GatewayPacket {
        GatewayPacketBuilder::new(
            vni(v),
            "192.168.10.2".parse().unwrap(),
            dst.parse().unwrap(),
        )
        .build()
    }

    #[test]
    fn hardware_forwards_local_traffic() {
        let mut g = gateway();
        match g.process(&packet(100, "192.168.10.3"), 0) {
            HwDecision::ToNc { packet, .. } => {
                assert_eq!(
                    packet.outer.dst_ip,
                    "10.1.1.12".parse::<core::net::IpAddr>().unwrap()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.stats().forwarded_packets, 1);
        assert_eq!(g.stats().punt_ratio(), 0.0);
    }

    #[test]
    fn snat_traffic_punts() {
        let mut g = gateway();
        match g.process(&packet(100, "93.184.216.34"), 0) {
            HwDecision::PuntToX86 { reason, .. } => {
                assert_eq!(reason, PuntReason::SnatRequired)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(g.stats().punt_ratio() > 0.0);
    }

    #[test]
    fn unknown_vni_punts_to_x86() {
        let mut g = gateway();
        match g.process(&packet(999, "10.0.0.1"), 0) {
            HwDecision::PuntToX86 { reason, .. } => assert_eq!(reason, PuntReason::NoHwRoute),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_vm_mapping_punts() {
        let mut g = gateway();
        match g.process(&packet(100, "192.168.10.77"), 0) {
            HwDecision::PuntToX86 { reason, .. } => {
                assert_eq!(reason, PuntReason::NoVmMapping)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn punt_rate_limiter_protects_x86() {
        // 8 kbit/s budget: the first small packet passes, the flood drops.
        let mut g = XgwH::new(AlpmConfig::default(), 8_000, 200);
        let p = packet(999, "10.0.0.1");
        let mut punted = 0;
        let mut dropped = 0;
        for _ in 0..50 {
            match g.process(&p, 0) {
                HwDecision::PuntToX86 { .. } => punted += 1,
                HwDecision::Drop(HwDropReason::PuntRateLimited) => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(punted >= 1);
        assert!(dropped > 40, "flood must be throttled, dropped={dropped}");
        assert_eq!(g.stats().punt_rate_limited, dropped);
    }

    #[test]
    fn vni_parity_splits_loop_pipes() {
        let mut g = gateway();
        g.tables
            .routes
            .insert(
                VxlanRouteKey::new(vni(101), prefix("192.168.10.0/24")),
                RouteTarget::Local,
            )
            .unwrap();
        g.tables
            .add_vm(
                vni(101),
                "192.168.10.3".parse().unwrap(),
                NcAddr::new("10.1.1.13".parse().unwrap()),
            )
            .unwrap();
        // Even VNI → pipe 1, odd VNI → pipe 3.
        g.process(&packet(100, "192.168.10.3"), 0);
        g.process(&packet(101, "192.168.10.3"), 0);
        assert!(g.stats().pipe_bytes[1] > 0);
        assert!(g.stats().pipe_bytes[3] > 0);
        let (p1, p3) = g.stats().loop_pipe_split();
        assert!((p1 - 0.5).abs() < 0.01 && (p3 - 0.5).abs() < 0.01);
    }

    #[test]
    fn acl_drop_counted() {
        use sailfish_tables::acl::{AclAction, AclRule};
        let mut g = gateway();
        g.tables
            .acl
            .insert(AclRule {
                priority: 9,
                vni: Some(vni(100)),
                src: None,
                dst: None,
                protocol: None,
                src_ports: None,
                dst_ports: None,
                action: AclAction::Deny,
            })
            .unwrap();
        assert_eq!(
            g.process(&packet(100, "192.168.10.3"), 0),
            HwDecision::Drop(HwDropReason::AclDeny)
        );
        assert_eq!(g.stats().acl_dropped, 1);
    }
}
