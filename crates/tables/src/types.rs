//! Shared key/value types of the gateway forwarding tables.

use core::fmt;
use core::net::IpAddr;

use sailfish_net::{IpPrefix, Vni};

/// Identifier of a cloud region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

/// Identifier of an enterprise IDC attached over the CEN leased-line
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdcId(pub u32);

impl fmt::Display for IdcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idc-{}", self.0)
    }
}

/// Result of a VXLAN routing-table lookup: the scope of the destination
/// (Fig 2's `Scope` + `Next Hop` columns, extended with the cross-gateway
/// destinations of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteTarget {
    /// The destination VM is in this VPC; continue with the VM-NC lookup.
    Local,
    /// The destination belongs to a peered VPC; re-run the routing lookup
    /// with this VNI ("until the scope becomes Local", §2.1).
    Peer(Vni),
    /// The destination is in another region, reached over the cross-region
    /// network.
    CrossRegion(RegionId),
    /// The destination is in an enterprise IDC, reached over the CEN.
    Idc(IdcId),
    /// The destination is on the public Internet; requires SNAT on
    /// XGW-x86 ("a special VNI tag ... requires SNAT", §4.2).
    InternetSnat,
}

impl RouteTarget {
    /// Whether the lookup must recurse with a new VNI.
    pub fn is_peer(&self) -> bool {
        matches!(self, RouteTarget::Peer(_))
    }
}

/// Key of the VXLAN routing table: `(VNI, inner destination prefix)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VxlanRouteKey {
    /// The VPC in whose routing context the lookup happens.
    pub vni: Vni,
    /// The destination prefix (LPM component).
    pub prefix: IpPrefix,
}

impl VxlanRouteKey {
    /// Builds a key.
    pub fn new(vni: Vni, prefix: IpPrefix) -> Self {
        VxlanRouteKey { vni, prefix }
    }

    /// Wire width of the key in bits: 24-bit VNI plus the address.
    pub fn key_bits(&self) -> u32 {
        24 + if self.prefix.is_v4() { 32 } else { 128 }
    }
}

impl fmt::Display for VxlanRouteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.vni, self.prefix)
    }
}

/// Key of the VM-NC mapping table: `(VNI, VM IP)` exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmKey {
    /// The VPC containing the VM.
    pub vni: Vni,
    /// The VM's inner IP address.
    pub ip: IpAddr,
}

impl VmKey {
    /// Builds a key.
    pub fn new(vni: Vni, ip: IpAddr) -> Self {
        VmKey { vni, ip }
    }

    /// Wire width of the key in bits.
    pub fn key_bits(&self) -> u32 {
        24 + if self.ip.is_ipv4() { 32 } else { 128 }
    }

    /// A canonical 152-bit encoding of the key: VNI in the top 24 bits of a
    /// (u32, u128) pair. Used by the digest compressor.
    pub fn canonical_bits(&self) -> (u32, u128) {
        let addr = match self.ip {
            IpAddr::V4(a) => u128::from(u32::from(a)),
            IpAddr::V6(a) => u128::from(a),
        };
        (self.vni.value(), addr)
    }
}

impl fmt::Display for VmKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.vni, self.ip)
    }
}

/// The NC (Node Controller) — "the physical server hosting VMs" — a VM
/// maps to, plus the egress port used to reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NcAddr {
    /// Underlay IP address of the server.
    pub ip: IpAddr,
}

impl NcAddr {
    /// Builds an NC address.
    pub fn new(ip: IpAddr) -> Self {
        NcAddr { ip }
    }
}

impl fmt::Display for NcAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nc@{}", self.ip)
    }
}

/// An NC's place in an NC inventory: the list of a region's servers that
/// a VM-NC table's entries index instead of each holding an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NcId(pub u32);

impl NcId {
    /// The inventory index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a packet is not forwarded by the tier deciding it: what a
/// [`Verdict::Drop`] drops for or a [`Verdict::Punt`] punts for. One
/// vocabulary for the hardware walk, the x86 forwarder and the punt
/// path in front of it; each produces only the reasons its own stages
/// can cause. The discriminants are part of [`Verdict::digest`]'s
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reason {
    /// An ACL rule denied the flow.
    AclDeny = 0,
    /// The peer-VPC chain exceeded its hop bound.
    RoutingLoop = 1,
    /// No route for (VNI, inner destination). On the hardware this is a
    /// punt: the long tail lives on x86.
    NoRoute = 2,
    /// The destination VM has no NC mapping. On the hardware this is a
    /// punt: volatile or mid-migration mappings stay on x86.
    NoVmMapping = 3,
    /// The SNAT port pool or session table is exhausted.
    SnatExhausted = 4,
    /// The punt path's rate limiter or circuit breaker shed the packet.
    PuntRateLimited = 5,
    /// The route needs stateful SNAT, which only a software tier holds
    /// (a punt reason only).
    SnatRequired = 6,
}

/// What a gateway tier decides for one packet — the hardware walk, the
/// x86 forwarder and the dataplane's differential oracle all speak it.
/// A verdict carries no packet: a forward's rewrite is the NC address and
/// VNI it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Forward to the NC hosting the destination VM, with the outer
    /// destination set to the NC and the VNI to the destination VPC.
    ToNc {
        /// Destination server.
        nc: NcAddr,
        /// VNI of the final (non-peer) route match.
        vni: Vni,
    },
    /// Hand off to another region over the cross-region network.
    ToRegion {
        /// Destination region.
        region: RegionId,
        /// VNI context at the handoff.
        vni: Vni,
    },
    /// Hand off to an enterprise IDC over the CEN.
    ToIdc {
        /// Destination IDC.
        idc: IdcId,
        /// VNI context at the handoff.
        vni: Vni,
    },
    /// SNAT'd toward the Internet. The public binding is not part of the
    /// verdict: allocation order differs between single- and
    /// multi-worker replays, while reaching the SNAT stage at all is the
    /// decision.
    ToInternet,
    /// The deciding tier cannot serve the packet; a software tier must.
    Punt(Reason),
    /// Dropped.
    Drop(Reason),
}

impl Verdict {
    /// The ACL drop, under the name the stand-alone benchmark spells
    /// through the dataplane's `CachedAction` alias; it goes with that
    /// alias.
    #[allow(non_upper_case_globals)]
    pub const DropAcl: Verdict = Verdict::Drop(Reason::AclDeny);

    /// Whether the verdict is final: everything but a punt, which the
    /// next tier decides.
    pub fn is_final(&self) -> bool {
        !matches!(self, Verdict::Punt(_))
    }

    /// An order-independent 64-bit digest of a final verdict (FNV-1a over
    /// a canonical byte rendering); 0 for a punt, whose final verdict the
    /// serving tier digests. Summed over a run it fingerprints the
    /// verdict multiset regardless of worker interleaving.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            Verdict::ToNc { nc, vni } => {
                eat(&[1]);
                match nc.ip {
                    IpAddr::V4(a) => eat(&a.octets()),
                    IpAddr::V6(a) => eat(&a.octets()),
                }
                eat(&vni.value().to_be_bytes());
            }
            Verdict::ToRegion { region, vni } => {
                eat(&[2]);
                eat(&region.0.to_be_bytes());
                eat(&vni.value().to_be_bytes());
            }
            Verdict::ToIdc { idc, vni } => {
                eat(&[3]);
                eat(&idc.0.to_be_bytes());
                eat(&vni.value().to_be_bytes());
            }
            Verdict::ToInternet => eat(&[4]),
            Verdict::Drop(reason) => eat(&[5, *reason as u8]),
            Verdict::Punt(_) => return 0,
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bits() {
        let k = VxlanRouteKey::new(Vni::from_const(1), "10.0.0.0/8".parse().unwrap());
        assert_eq!(k.key_bits(), 56);
        let k = VxlanRouteKey::new(Vni::from_const(1), "2001:db8::/32".parse().unwrap());
        assert_eq!(k.key_bits(), 152);
        let k = VmKey::new(Vni::from_const(1), "10.0.0.1".parse().unwrap());
        assert_eq!(k.key_bits(), 56);
        let k = VmKey::new(Vni::from_const(1), "2001:db8::1".parse().unwrap());
        assert_eq!(k.key_bits(), 152);
    }

    #[test]
    fn canonical_bits_distinguish_families() {
        // ::a.b.c.d (IPv4-compatible IPv6) and a.b.c.d produce the same
        // 128-bit address bits but VmKey equality still differs because the
        // digest layer adds a family label; here we just check values.
        let v4 = VmKey::new(Vni::from_const(5), "1.2.3.4".parse().unwrap());
        let (vni, addr) = v4.canonical_bits();
        assert_eq!(vni, 5);
        assert_eq!(addr, 0x01020304);
    }

    #[test]
    fn route_target_peer() {
        assert!(RouteTarget::Peer(Vni::from_const(2)).is_peer());
        assert!(!RouteTarget::Local.is_peer());
        assert!(!RouteTarget::InternetSnat.is_peer());
    }

    /// Every final verdict's digest, pinned byte for byte: the decision
    /// digests in `experiments/` are sums of these.
    #[test]
    fn verdict_digests_are_golden() {
        let vni = Vni::from_const;
        let nc = |ip: &str| NcAddr::new(ip.parse().unwrap());
        let golden = [
            (
                Verdict::ToNc {
                    nc: nc("10.1.1.12"),
                    vni: vni(100),
                },
                0x4eba_6953_bcfe_7650,
            ),
            (
                Verdict::ToNc {
                    nc: nc("2001:db8::c"),
                    vni: vni(200),
                },
                0x4405_ab86_29aa_fcde,
            ),
            (
                Verdict::ToRegion {
                    region: RegionId(2),
                    vni: vni(100),
                },
                0xf37b_02a0_5326_9733,
            ),
            (
                Verdict::ToIdc {
                    idc: IdcId(3),
                    vni: vni(100),
                },
                0x6cbf_d06d_3bdb_7843,
            ),
            (Verdict::ToInternet, 0xaf63_b94c_8601_b113),
            (Verdict::Drop(Reason::AclDeny), 0x0821_8a07_b4dd_0020),
            (Verdict::Drop(Reason::RoutingLoop), 0x0821_8b07_b4dd_01d3),
            (Verdict::Drop(Reason::NoRoute), 0x0821_8c07_b4dd_0386),
            (Verdict::Drop(Reason::NoVmMapping), 0x0821_8d07_b4dd_0539),
            (Verdict::Drop(Reason::SnatExhausted), 0x0821_8e07_b4dd_06ec),
            (
                Verdict::Drop(Reason::PuntRateLimited),
                0x0821_8f07_b4dd_089f,
            ),
        ];
        for (verdict, want) in golden {
            assert_eq!(verdict.digest(), want, "{verdict:?}");
        }
        assert_eq!(Verdict::Punt(Reason::SnatRequired).digest(), 0);
    }

    #[test]
    fn digest_separates_decisions() {
        let a = Verdict::ToNc {
            nc: NcAddr::new("10.0.0.1".parse().unwrap()),
            vni: Vni::from_const(1),
        };
        let b = Verdict::ToNc {
            nc: NcAddr::new("10.0.0.2".parse().unwrap()),
            vni: Vni::from_const(1),
        };
        let c = Verdict::Drop(Reason::NoRoute);
        let d = Verdict::Drop(Reason::AclDeny);
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
}
