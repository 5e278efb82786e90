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
use sailfish_tables::types::{NcAddr, Reason, RouteTarget, Verdict};

use crate::tables::{HardwareTables, MAX_PEER_HOPS};

/// What the hardware does with a packet: a [`Verdict`] plus the packet
/// where one leaves the switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwDecision {
    /// Forward to the NC hosting the destination VM.
    ToNc {
        /// Rewritten packet.
        packet: GatewayPacket,
        /// Destination server.
        nc: NcAddr,
    },
    /// Send to XGW-x86 (from [`XgwH::process`], past the punt meter).
    PuntToX86 {
        /// The unmodified packet.
        packet: GatewayPacket,
        /// Why it is punted.
        reason: Reason,
    },
    /// Every other verdict — a handoff to a region or IDC, or a drop —
    /// which carries no packet.
    Other(Verdict),
}

impl HwDecision {
    /// What `verdict` amounts to for `packet`: a forward to an NC carries
    /// the rewritten packet, a punt the unmodified one.
    pub fn new(verdict: Verdict, packet: &GatewayPacket) -> HwDecision {
        match verdict {
            Verdict::ToNc { nc, vni } => {
                let mut out = *packet;
                out.outer.dst_ip = nc.ip;
                out.vni = vni;
                HwDecision::ToNc { packet: out, nc }
            }
            Verdict::Punt(reason) => HwDecision::PuntToX86 {
                packet: *packet,
                reason,
            },
            other => HwDecision::Other(other),
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
    /// statistics and no meter, so it never yields a
    /// [`Reason::PuntRateLimited`] drop: only [`XgwH::process`], which
    /// owns the meter, can.
    ///
    /// The key is the VNI and the tenant 5-tuple — all the program reads
    /// of a packet — so a caller holding a borrowed
    /// [`sailfish_net::FrameView`] walks without building the owned model.
    pub fn walk<S: WalkSink>(&self, mut vni: Vni, tuple: &FiveTuple, sink: &mut S) -> Verdict {
        let acl = self.acl.evaluate(vni, tuple);
        sink.on(WalkEvent::Acl(acl));
        if acl == AclAction::Deny {
            return Verdict::Drop(Reason::AclDeny);
        }
        let dst = tuple.dst_ip;
        // Each peer hop is a pipeline recirculation, so the chain is
        // followed one single-step lookup at a time.
        for _ in 0..=MAX_PEER_HOPS {
            let matched = self.routes.lookup(vni, dst);
            sink.on(WalkEvent::Route(matched));
            match matched {
                None => return Verdict::Punt(Reason::NoRoute),
                Some(RouteTarget::Peer(next)) => vni = next,
                Some(RouteTarget::Local) => {
                    let (nc, trace) = self.vm_nc.lookup_traced(vni, dst);
                    sink.on(WalkEvent::Vm(trace));
                    return match nc {
                        Some(nc) => Verdict::ToNc { nc, vni },
                        None => Verdict::Punt(Reason::NoVmMapping),
                    };
                }
                Some(RouteTarget::CrossRegion(region)) => return Verdict::ToRegion { region, vni },
                Some(RouteTarget::Idc(idc)) => return Verdict::ToIdc { idc, vni },
                Some(RouteTarget::InternetSnat) => return Verdict::Punt(Reason::SnatRequired),
            }
        }
        sink.on(WalkEvent::Loop);
        Verdict::Drop(Reason::RoutingLoop)
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

    /// Processes one packet through the folded program, updating per-pipe
    /// counters and charging the punt rate limiter.
    pub fn process(&mut self, packet: &GatewayPacket, now_ns: u64) -> HwDecision {
        let bytes = packet.wire_len() as u64;
        // Step 1: ingress outer pipe — accounting (ACL runs in the walk).
        let outer = Self::outer_pipe_for(packet);
        self.stats.pipe_packets[outer] += 1;
        self.stats.pipe_bytes[outer] += bytes;
        let mut verdict = self.tables.walk(packet.vni, &packet.five_tuple(), &mut ());

        // Step 2 accounting: the loop pipe chosen by VNI parity carries
        // everything that got past the ACL.
        if verdict != Verdict::Drop(Reason::AclDeny) {
            let loop_pipe = Self::loop_pipe_for(packet.vni);
            self.stats.pipe_packets[loop_pipe] += 1;
            self.stats.pipe_bytes[loop_pipe] += bytes;
        }

        match verdict {
            Verdict::Drop(Reason::AclDeny) => self.stats.acl_dropped += 1,
            // The walk's only other drop is the loop bound.
            Verdict::Drop(_) => self.stats.loop_dropped += 1,
            Verdict::Punt(_) if self.punt_meter.offer(now_ns, packet.wire_len()) => {
                self.stats.punted_packets += 1;
                self.stats.punted_bytes += bytes;
            }
            Verdict::Punt(_) => {
                self.stats.punt_rate_limited += 1;
                verdict = Verdict::Drop(Reason::PuntRateLimited);
            }
            _ => {
                self.stats.forwarded_packets += 1;
                self.stats.forwarded_bytes += bytes;
            }
        }
        HwDecision::new(verdict, packet)
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
                assert_eq!(reason, Reason::SnatRequired)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(g.stats().punt_ratio() > 0.0);
    }

    #[test]
    fn unknown_vni_punts_to_x86() {
        let mut g = gateway();
        match g.process(&packet(999, "10.0.0.1"), 0) {
            HwDecision::PuntToX86 { reason, .. } => assert_eq!(reason, Reason::NoRoute),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_vm_mapping_punts() {
        let mut g = gateway();
        match g.process(&packet(100, "192.168.10.77"), 0) {
            HwDecision::PuntToX86 { reason, .. } => {
                assert_eq!(reason, Reason::NoVmMapping)
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
                HwDecision::Other(Verdict::Drop(Reason::PuntRateLimited)) => dropped += 1,
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
            HwDecision::Other(Verdict::Drop(Reason::AclDeny))
        );
        assert_eq!(g.stats().acl_dropped, 1);
    }
}
