//! The differential oracle.
//!
//! A packet served by the hardware executor must reach the same
//! `(next-hop, rewrite)` decision the reference software forwarder
//! (`sailfish_xgw_x86::SoftwareForwarder`) takes for the same packet —
//! including packets the hardware punts, which the fallback forwarder then
//! serves. [`PathDecision`] is the normalized decision both paths map
//! into, and [`differential_run`] replays a frame sequence through both,
//! reporting the first disagreement verbatim.

use sailfish_net::{GatewayPacket, Vni};
use sailfish_tables::types::{IdcId, NcAddr, RegionId};
use sailfish_xgw_h::Walked;
use sailfish_xgw_x86::{Decision, DropReason};

use crate::executor::Dataplane;

/// Why a packet was ultimately dropped, normalized across both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropClass {
    /// ACL deny.
    Acl,
    /// Peer-chain loop bound.
    RoutingLoop,
    /// No route anywhere.
    NoRoute,
    /// No VM mapping anywhere.
    NoVmMapping,
    /// SNAT pool exhausted.
    SnatExhausted,
    /// The hardware punt rate limiter rejected the packet.
    PuntRateLimited,
}

/// The normalized end-to-end decision for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDecision {
    /// Delivered to an NC with the outer header rewritten.
    ToNc {
        /// Destination server.
        nc: NcAddr,
        /// Rewritten VNI.
        vni: Vni,
    },
    /// Handed off to another region.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context.
        vni: Vni,
    },
    /// Handed off to an IDC.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context.
        vni: Vni,
    },
    /// SNAT'd toward the Internet. The public binding is excluded from
    /// the comparison: allocation order differs between single- and
    /// multi-worker replays, while reaching the SNAT stage at all is the
    /// decision under test.
    ToInternet,
    /// Dropped.
    Drop(DropClass),
}

impl PathDecision {
    /// The final decision a hardware walk result yields; `None` for
    /// punts, which a software tier decides.
    pub fn from_walk(walked: Walked) -> Option<PathDecision> {
        match walked {
            Walked::ToNc { nc, vni } => Some(PathDecision::ToNc { nc, vni }),
            Walked::ToRegion { region, vni } => Some(PathDecision::ToRegion { region, vni }),
            Walked::ToIdc { idc, vni } => Some(PathDecision::ToIdc { idc, vni }),
            Walked::DropAcl => Some(PathDecision::Drop(DropClass::Acl)),
            Walked::DropLoop => Some(PathDecision::Drop(DropClass::RoutingLoop)),
            Walked::Punt(_) => None,
        }
    }

    /// Maps a software-forwarder decision into the normalized form.
    pub fn from_software(decision: &Decision) -> PathDecision {
        match decision {
            Decision::ToNc { packet, nc } => PathDecision::ToNc {
                nc: *nc,
                vni: packet.vni,
            },
            Decision::ToRegion { region, vni } => PathDecision::ToRegion {
                region: *region,
                vni: *vni,
            },
            Decision::ToIdc { idc, vni } => PathDecision::ToIdc {
                idc: *idc,
                vni: *vni,
            },
            Decision::ToInternet { .. } => PathDecision::ToInternet,
            Decision::Drop(reason) => PathDecision::Drop(match reason {
                DropReason::NoRoute => DropClass::NoRoute,
                DropReason::RoutingLoop => DropClass::RoutingLoop,
                DropReason::NoVmMapping => DropClass::NoVmMapping,
                DropReason::AclDeny => DropClass::Acl,
                DropReason::SnatExhausted => DropClass::SnatExhausted,
            }),
        }
    }

    /// An order-independent 64-bit digest of the decision (FNV-1a over a
    /// canonical byte rendering). Summed over a run it fingerprints the
    /// decision multiset regardless of worker interleaving.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            PathDecision::ToNc { nc, vni } => {
                eat(&[1]);
                match nc.ip {
                    core::net::IpAddr::V4(a) => eat(&a.octets()),
                    core::net::IpAddr::V6(a) => eat(&a.octets()),
                }
                eat(&vni.value().to_be_bytes());
            }
            PathDecision::ToRegion { region, vni } => {
                eat(&[2]);
                eat(&region.0.to_be_bytes());
                eat(&vni.value().to_be_bytes());
            }
            PathDecision::ToIdc { idc, vni } => {
                eat(&[3]);
                eat(&idc.0.to_be_bytes());
                eat(&vni.value().to_be_bytes());
            }
            PathDecision::ToInternet => eat(&[4]),
            PathDecision::Drop(class) => eat(&[5, *class as u8]),
        }
        h
    }
}

/// Outcome of a differential replay.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Frames replayed.
    pub packets: u64,
    /// Frames where executor and reference agreed.
    pub agreements: u64,
    /// Frames where they disagreed.
    pub mismatches: u64,
    /// Human-readable description of the first disagreement.
    pub first_mismatch: Option<String>,
}

impl OracleReport {
    /// Whether every packet agreed.
    pub fn holds(&self) -> bool {
        self.mismatches == 0 && self.packets > 0
    }
}

/// Replays `frames` through the executor (punts resolved through
/// `fallback`) and through the independent `reference` forwarder, packet
/// by packet, comparing normalized decisions.
///
/// `fallback` and `reference` must be distinct instances over identical
/// tables: both are stateful (SNAT allocates bindings), and the oracle
/// compares decisions, not shared mutations.
pub fn differential_run(
    dataplane: &Dataplane,
    frames: &[&[u8]],
    fallback: &mut sailfish_xgw_x86::SoftwareForwarder,
    reference: &mut sailfish_xgw_x86::SoftwareForwarder,
) -> OracleReport {
    let mut report = OracleReport {
        packets: 0,
        agreements: 0,
        mismatches: 0,
        first_mismatch: None,
    };
    let mut now_ns = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let Ok(packet) = GatewayPacket::parse(frame) else {
            // Both paths reject unparsable frames by construction; they
            // are outside the decision comparison.
            continue;
        };
        now_ns += 1_000;
        report.packets += 1;
        let got = dataplane
            .decide_one(frame, fallback, now_ns)
            .expect("frame parsed above");
        let want = PathDecision::from_software(&reference.process(&packet, now_ns));
        if got == want {
            report.agreements += 1;
        } else {
            report.mismatches += 1;
            if report.first_mismatch.is_none() {
                report.first_mismatch = Some(format!(
                    "frame {i}: executor {got:?} != reference {want:?} \
                     (vni {}, dst {})",
                    packet.vni, packet.inner.dst_ip
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_decisions() {
        let a = PathDecision::ToNc {
            nc: NcAddr::new("10.0.0.1".parse().unwrap()),
            vni: Vni::from_const(1),
        };
        let b = PathDecision::ToNc {
            nc: NcAddr::new("10.0.0.2".parse().unwrap()),
            vni: Vni::from_const(1),
        };
        let c = PathDecision::Drop(DropClass::NoRoute);
        let d = PathDecision::Drop(DropClass::Acl);
        let digests = [a.digest(), b.digest(), c.digest(), d.digest()];
        for (i, x) in digests.iter().enumerate() {
            for (j, y) in digests.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "decisions {i} and {j} collide");
                }
            }
        }
        assert_eq!(a.digest(), a.digest());
    }

    #[test]
    fn internet_decisions_ignore_binding() {
        use sailfish_tables::snat::{SnatConfig, SnatTable};
        let mut table = SnatTable::new(SnatConfig::default());
        let t1 = sailfish_net::FiveTuple::new(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            sailfish_net::IpProtocol::Udp,
            1111,
            53,
        );
        let t2 = sailfish_net::FiveTuple::new(
            "10.0.0.2".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            sailfish_net::IpProtocol::Udp,
            2222,
            53,
        );
        let vni = Vni::from_const(1);
        let b1 = table.translate_outbound(vni, t1, 0).unwrap();
        let b2 = table.translate_outbound(vni, t2, 0).unwrap();
        let d1 = PathDecision::from_software(&Decision::ToInternet { binding: b1 });
        let d2 = PathDecision::from_software(&Decision::ToInternet { binding: b2 });
        assert_eq!(d1, d2);
        assert_eq!(d1.digest(), d2.digest());
    }
}
