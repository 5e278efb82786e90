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
//! table. Each VNI's routes are a [`PooledPrefixMap`] — per family, one
//! exact-match map per prefix length present ([`crate::lpm::Lpm128`]) —
//! found through a fixed-key [`MixMap`], so a region-scale build is one
//! hash insert per route and a lookup a few probes per peer hop.

use core::net::IpAddr;

use sailfish_net::hash::MixMap;
use sailfish_net::Vni;

use crate::error::{Error, Result};
use crate::pooled::PooledPrefixMap;
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

/// The logical VXLAN routing table: per-VNI dual-stack LPM.
#[derive(Debug, Default)]
pub struct VxlanRoutingTable {
    per_vni: MixMap<Vni, PooledPrefixMap<RouteTarget>>,
}

impl VxlanRoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of route entries across all VNIs.
    pub fn len(&self) -> usize {
        self.per_vni.values().map(|m| m.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.per_vni.values().all(|m| m.is_empty())
    }

    /// Entry counts per family `(v4, v6)`.
    pub fn family_counts(&self) -> (usize, usize) {
        self.per_vni
            .values()
            .map(|m| m.family_counts())
            .fold((0, 0), |(a4, a6), (b4, b6)| (a4 + b4, a6 + b6))
    }

    /// Installs a route; replacing an existing identical key returns the
    /// old target.
    pub fn insert(&mut self, key: VxlanRouteKey, target: RouteTarget) -> Option<RouteTarget> {
        self.per_vni
            .entry(key.vni)
            .or_default()
            .insert(key.prefix, target)
    }

    /// Removes a route.
    pub fn remove(&mut self, key: &VxlanRouteKey) -> Option<RouteTarget> {
        let map = self.per_vni.get_mut(&key.vni)?;
        let old = map.remove(&key.prefix);
        if map.is_empty() {
            self.per_vni.remove(&key.vni);
        }
        old
    }

    /// Single-step lookup: the longest-prefix match within `vni`.
    pub fn lookup(&self, vni: Vni, dst: IpAddr) -> Option<RouteTarget> {
        self.per_vni.get(&vni)?.lookup(dst).map(|(_, t)| *t)
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
        self.per_vni.get(&vni).map_or(0, |m| m.len())
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
}
