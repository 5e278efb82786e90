//! The VXLAN routing table.
//!
//! "The VXLAN routing table finds the right region/IDC/VPC scope according
//! to the inner DIP of the VXLAN-encapsulated packet" (§2.1, Fig 2). The
//! key is `(VNI, inner destination prefix)`; the result is a
//! [`RouteTarget`]. A `Peer` result restarts the lookup with the peer VPC's
//! VNI "until the scope becomes Local".
//!
//! This is the logical, software-side table: the reference the hardware
//! ALPM placements are checked against and the XGW-x86 tier's own routing
//! table. Every route of every VNI sits in one fixed-key [`MixMap`] keyed
//! by `(VNI, family, prefix length, masked address)`; beside it, each VNI
//! keeps a small inline record of the prefix lengths present in each
//! family (a bitmask) and its route count per family. A lookup is LPM by
//! its definition, as in [`crate::lpm::Lpm128`]: walk the VNI's present
//! lengths longest first, probe the exact key at each and return the
//! first hit. It shares nothing with ALPM's carving or buckets, so it
//! stays an independent oracle for the hardware table. A build is one
//! hash insert per route into one map, not one map per VNI and family; a
//! lookup is the VNI record plus one probe per present length, per peer
//! hop.

use core::net::IpAddr;

use sailfish_net::hash::MixMap;
use sailfish_net::Vni;

use crate::error::{Error, Result};
use crate::lpm::Key128;
use crate::pooled::{plane_addr, plane_key};
use crate::types::{RouteTarget, VxlanRouteKey};

/// Maximum peer-VPC indirection depth before declaring a routing loop.
/// The paper's example (Fig 2) uses one hop; production route chains stay
/// short because peerings are installed pairwise.
pub const MAX_PEER_HOPS: usize = 8;

/// Result of fully resolving a destination through peer chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The VNI in whose context the final (non-Peer) match happened; for
    /// `Local` targets this is the VPC hosting the destination VM.
    pub final_vni: Vni,
    /// The terminal route target (never `Peer`).
    pub target: RouteTarget,
    /// How many peer indirections were followed.
    pub hops: usize,
}

/// One route's key in the flat map: the VNI, the family and the prefix
/// length packed in one word, then the prefix's bits in its family plane
/// (MSB-aligned, host bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RouteKey {
    head: u64,
    hi: u64,
    lo: u64,
}

impl RouteKey {
    /// The key of the prefix of length `len` over the plane address
    /// `addr`, whose bits past `len` are cleared here.
    fn new(vni: Vni, v4: bool, len: u8, addr: u128) -> Self {
        let bits = addr & Key128::mask(len);
        RouteKey {
            head: u64::from(vni.value()) << 9 | u64::from(v4) << 8 | u64::from(len),
            hi: (bits >> 64) as u64,
            lo: bits as u64,
        }
    }

    fn of(key: &VxlanRouteKey) -> Self {
        let plane = plane_key(&key.prefix);
        Self::new(key.vni, key.prefix.is_v4(), plane.len, plane.value)
    }
}

/// One VNI's record: per family, the prefix lengths present (bit `l` of
/// the mask is length `l`; `v6` spans three words for `0..=128`) and the
/// route count. A remove clears a family's mask only when its last route
/// goes, so a mask may keep a stale length, which costs one missed probe.
#[derive(Debug, Clone, Copy, Default)]
struct Lengths {
    v4: u64,
    v6: [u64; 3],
    n4: u32,
    n6: u32,
}

impl Lengths {
    fn mask(&self, v4: bool) -> &[u64] {
        if v4 {
            core::slice::from_ref(&self.v4)
        } else {
            &self.v6
        }
    }

    fn family_mut(&mut self, v4: bool) -> (&mut [u64], &mut u32) {
        if v4 {
            (core::slice::from_mut(&mut self.v4), &mut self.n4)
        } else {
            (&mut self.v6, &mut self.n6)
        }
    }

    fn add(&mut self, v4: bool, len: u8) {
        let (mask, count) = self.family_mut(v4);
        if let Some(word) = mask.get_mut(usize::from(len / 64)) {
            *word |= 1 << (len % 64);
        }
        *count += 1;
    }

    fn sub(&mut self, v4: bool) {
        let (mask, count) = self.family_mut(v4);
        *count = count.saturating_sub(1);
        if *count == 0 {
            mask.fill(0);
        }
    }

    fn len(&self) -> usize {
        self.n4 as usize + self.n6 as usize
    }
}

/// The lengths set in `mask`, longest first.
fn longest_first(mask: &[u64]) -> impl Iterator<Item = u8> + '_ {
    mask.iter().enumerate().rev().flat_map(|(w, &word)| {
        let mut left = word;
        core::iter::from_fn(move || {
            let top = 63u32.checked_sub(left.leading_zeros())?;
            left &= !(1 << top);
            Some((w * 64) as u8 + top as u8)
        })
    })
}

/// The logical VXLAN routing table: per-VNI dual-stack LPM over one flat
/// map.
#[derive(Debug, Default)]
pub struct VxlanRoutingTable {
    routes: MixMap<RouteKey, RouteTarget>,
    per_vni: MixMap<Vni, Lengths>,
}

impl VxlanRoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more routes, so a bulk fill of known
    /// size allocates its route map once.
    pub fn reserve(&mut self, additional: usize) {
        self.routes.reserve(additional);
    }

    /// Total number of route entries across all VNIs.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Entry counts per family `(v4, v6)`.
    pub fn family_counts(&self) -> (usize, usize) {
        self.per_vni.values().fold((0, 0), |(n4, n6), l| {
            (n4 + l.n4 as usize, n6 + l.n6 as usize)
        })
    }

    /// Installs a route; replacing an existing identical key returns the
    /// old target.
    pub fn insert(&mut self, key: VxlanRouteKey, target: RouteTarget) -> Option<RouteTarget> {
        let flat = RouteKey::of(&key);
        let old = self.routes.insert(flat, target);
        if old.is_none() {
            self.per_vni
                .entry(key.vni)
                .or_default()
                .add(key.prefix.is_v4(), key.prefix.len());
        }
        old
    }

    /// Removes a route.
    pub fn remove(&mut self, key: &VxlanRouteKey) -> Option<RouteTarget> {
        let old = self.routes.remove(&RouteKey::of(key))?;
        if let Some(lengths) = self.per_vni.get_mut(&key.vni) {
            lengths.sub(key.prefix.is_v4());
            if lengths.len() == 0 {
                self.per_vni.remove(&key.vni);
            }
        }
        Some(old)
    }

    /// Single-step lookup: the longest-prefix match within `vni`.
    pub fn lookup(&self, vni: Vni, dst: IpAddr) -> Option<RouteTarget> {
        let lengths = self.per_vni.get(&vni)?;
        let v4 = dst.is_ipv4();
        let addr = plane_addr(dst);
        longest_first(lengths.mask(v4))
            .find_map(|len| self.routes.get(&RouteKey::new(vni, v4, len, addr)))
            .copied()
    }

    /// Fully resolves a destination, following `Peer` targets.
    ///
    /// Errors with [`Error::NotFound`] if any step misses and
    /// [`Error::RoutingLoop`] if the peer chain exceeds
    /// [`MAX_PEER_HOPS`].
    pub fn resolve(&self, vni: Vni, dst: IpAddr) -> Result<Resolution> {
        let mut current = vni;
        for hops in 0..=MAX_PEER_HOPS {
            match self.lookup(current, dst) {
                None => return Err(Error::NotFound),
                Some(RouteTarget::Peer(next)) => {
                    current = next;
                }
                Some(target) => {
                    return Ok(Resolution {
                        final_vni: current,
                        target,
                        hops,
                    })
                }
            }
        }
        Err(Error::RoutingLoop)
    }

    /// The VNIs that currently have routes, in ascending order (the
    /// controller splits tables by VNI, §4.3).
    pub fn vnis(&self) -> Vec<Vni> {
        let mut v: Vec<Vni> = self.per_vni.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of entries belonging to one VNI.
    pub fn len_for_vni(&self, vni: Vni) -> usize {
        self.per_vni.get(&vni).map_or(0, Lengths::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::IpPrefix;

    fn key(vni: u32, prefix: &str) -> VxlanRouteKey {
        VxlanRouteKey::new(Vni::from_const(vni), prefix.parse::<IpPrefix>().unwrap())
    }

    /// The exact scenario of Fig 2.
    fn fig2_table() -> VxlanRoutingTable {
        let mut t = VxlanRoutingTable::new();
        let vpc_a = Vni::from_const(100);
        let vpc_b = Vni::from_const(200);
        t.insert(key(100, "192.168.10.0/24"), RouteTarget::Local);
        t.insert(key(100, "192.168.30.0/24"), RouteTarget::Peer(vpc_b));
        t.insert(key(200, "192.168.30.0/24"), RouteTarget::Local);
        t.insert(key(200, "192.168.10.0/24"), RouteTarget::Peer(vpc_a));
        t
    }

    #[test]
    fn fig2_same_vpc() {
        let t = fig2_table();
        let r = t
            .resolve(Vni::from_const(100), "192.168.10.3".parse().unwrap())
            .unwrap();
        assert_eq!(r.target, RouteTarget::Local);
        assert_eq!(r.final_vni, Vni::from_const(100));
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn fig2_cross_vpc() {
        let t = fig2_table();
        let r = t
            .resolve(Vni::from_const(100), "192.168.30.5".parse().unwrap())
            .unwrap();
        assert_eq!(r.target, RouteTarget::Local);
        assert_eq!(r.final_vni, Vni::from_const(200));
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn miss_and_isolation() {
        let t = fig2_table();
        // Unknown destination in a known VPC.
        assert_eq!(
            t.resolve(Vni::from_const(100), "10.9.9.9".parse().unwrap()),
            Err(Error::NotFound)
        );
        // Unknown VPC entirely.
        assert_eq!(
            t.resolve(Vni::from_const(999), "192.168.10.3".parse().unwrap()),
            Err(Error::NotFound)
        );
    }

    #[test]
    fn routing_loop_detected() {
        let mut t = VxlanRoutingTable::new();
        t.insert(key(1, "10.0.0.0/8"), RouteTarget::Peer(Vni::from_const(2)));
        t.insert(key(2, "10.0.0.0/8"), RouteTarget::Peer(Vni::from_const(1)));
        assert_eq!(
            t.resolve(Vni::from_const(1), "10.1.1.1".parse().unwrap()),
            Err(Error::RoutingLoop)
        );
    }

    #[test]
    fn longest_prefix_wins_within_vni() {
        let mut t = VxlanRoutingTable::new();
        t.insert(key(1, "10.0.0.0/8"), RouteTarget::InternetSnat);
        t.insert(key(1, "10.1.0.0/16"), RouteTarget::Local);
        assert_eq!(
            t.lookup(Vni::from_const(1), "10.1.2.3".parse().unwrap()),
            Some(RouteTarget::Local)
        );
        assert_eq!(
            t.lookup(Vni::from_const(1), "10.2.2.3".parse().unwrap()),
            Some(RouteTarget::InternetSnat)
        );
    }

    #[test]
    fn dual_stack_routes_coexist() {
        let mut t = VxlanRoutingTable::new();
        t.insert(key(1, "192.168.0.0/16"), RouteTarget::Local);
        t.insert(key(1, "2001:db8::/32"), RouteTarget::Local);
        assert!(t
            .lookup(Vni::from_const(1), "2001:db8::9".parse().unwrap())
            .is_some());
        assert!(t
            .lookup(Vni::from_const(1), "192.168.9.9".parse().unwrap())
            .is_some());
        assert_eq!(t.family_counts(), (1, 1));
        // A default route of one family never answers the other.
        t.insert(key(1, "::/0"), RouteTarget::InternetSnat);
        assert_eq!(
            t.lookup(Vni::from_const(1), "10.0.0.1".parse().unwrap()),
            None
        );
        t.insert(key(2, "0.0.0.0/0"), RouteTarget::Local);
        assert_eq!(t.lookup(Vni::from_const(2), "::1".parse().unwrap()), None);
    }

    #[test]
    fn remove_cleans_up_empty_vnis() {
        let mut t = fig2_table();
        assert_eq!(t.vnis().len(), 2);
        assert!(t.remove(&key(200, "192.168.30.0/24")).is_some());
        assert!(t.remove(&key(200, "192.168.10.0/24")).is_some());
        assert_eq!(t.vnis().len(), 1);
        assert_eq!(t.len_for_vni(Vni::from_const(200)), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn peer_chains_resolve_up_to_max_hops() {
        // VNI i peers to i + 1; the last VNI of the chain is Local.
        let chain = |hops: u32| {
            let mut t = VxlanRoutingTable::new();
            for i in 0..hops {
                t.insert(
                    key(i, "10.0.0.0/8"),
                    RouteTarget::Peer(Vni::from_const(i + 1)),
                );
            }
            t.insert(key(hops, "10.0.0.0/8"), RouteTarget::Local);
            t
        };
        let dst = "10.1.1.1".parse().unwrap();
        let max = MAX_PEER_HOPS as u32;
        assert_eq!(
            chain(max).resolve(Vni::from_const(0), dst),
            Ok(Resolution {
                final_vni: Vni::from_const(max),
                target: RouteTarget::Local,
                hops: MAX_PEER_HOPS,
            })
        );
        assert_eq!(
            chain(max + 1).resolve(Vni::from_const(0), dst),
            Err(Error::RoutingLoop)
        );
        // A chain into a VNI without a covering route misses.
        let mut t = chain(2);
        t.remove(&key(2, "10.0.0.0/8"));
        assert_eq!(t.resolve(Vni::from_const(0), dst), Err(Error::NotFound));
    }
}
