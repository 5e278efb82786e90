//! The ECMP load balancer in front of gateway clusters.
//!
//! "Cloud gateways are placed behind the load balancing switch/router
//! which conducts ECMP flow-based forwarding... commercial load balancers
//! are generally limited to allowing fewer than 64 possible next-hops"
//! (§2.3). The cap is the reason a region needs several clusters; the
//! balancer enforces it.
//!
//! Two dispatch layers exist in Sailfish mode (Fig 12): a VNI directory
//! choosing the *cluster* ("traffic is distributed according to the VNI
//! via a load balancer"), then flow-hash ECMP choosing the *device*
//! within the cluster.

use sailfish_net::hash::MixMap;
use sailfish_net::rss::Toeplitz;
use sailfish_net::{FiveTuple, Vni};

/// Errors from balancer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LbError {
    /// Adding the next hop would exceed the ECMP group's hardware cap.
    NextHopLimit {
        /// The configured cap.
        max: usize,
    },
    /// The group has no members.
    Empty,
}

impl core::fmt::Display for LbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LbError::NextHopLimit { max } => {
                write!(f, "ECMP next-hop limit ({max}) exceeded")
            }
            LbError::Empty => write!(f, "ECMP group has no members"),
        }
    }
}

impl std::error::Error for LbError {}

/// A flow-hash ECMP group with a commercial next-hop cap.
#[derive(Debug, Clone)]
pub struct EcmpGroup {
    members: Vec<usize>,
    max_next_hops: usize,
    hasher: Toeplitz,
}

impl EcmpGroup {
    /// Creates a group with a next-hop cap (Juniper-style caps are 16;
    /// most gear stays under 64).
    pub fn new(max_next_hops: usize) -> Self {
        EcmpGroup {
            members: Vec::new(),
            max_next_hops,
            hasher: Toeplitz::default(),
        }
    }

    /// Current members (node ids).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a next hop, enforcing the cap.
    pub fn add(&mut self, node: usize) -> Result<(), LbError> {
        if self.members.len() >= self.max_next_hops {
            return Err(LbError::NextHopLimit {
                max: self.max_next_hops,
            });
        }
        self.members.push(node);
        Ok(())
    }

    /// Removes a next hop (node failure / maintenance). Flows re-hash to
    /// the remaining members.
    pub fn remove(&mut self, node: usize) -> bool {
        match self.members.iter().position(|m| *m == node) {
            Some(idx) => {
                self.members.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Picks the member for a flow.
    pub fn pick(&self, tuple: &FiveTuple) -> Result<usize, LbError> {
        if self.members.is_empty() {
            return Err(LbError::Empty);
        }
        let h = self.hasher.hash_tuple(tuple) as usize;
        Ok(self.members[h % self.members.len()])
    }
}

/// Picks between two co-owners of a VNI range during a make-before-break
/// migration's `Dual` stage. The choice is a pure flow-hash function, so
/// upstream ECMP, the region model, and the packet-level executor all
/// send a given flow to the *same* owner — no packet can land on a device
/// that lacks the tables, because both owners hold them.
pub fn pick_owner(hasher: &Toeplitz, tuple: &FiveTuple, primary: usize, secondary: usize) -> usize {
    if hasher.hash_tuple(tuple) & 1 == 0 {
        primary
    } else {
        secondary
    }
}

/// VNI → cluster directory, maintained by the controller's split plan.
///
/// During an elastic re-shard a VNI can temporarily have a *second*
/// owner (`Dual` stage of the make-before-break sequence): the primary
/// map keeps the old owner until Commit retargets it in one step.
///
/// Every packet the flow cache misses probes it, and the controller
/// provisions its keys, so both maps hash VNIs with the fixed-key
/// [`sailfish_net::hash::MixState`] — which also makes two directories
/// built from one plan iterate in the same order.
#[derive(Debug, Clone, Default)]
pub struct VniDirectory {
    map: MixMap<Vni, usize>,
    dual: MixMap<Vni, usize>,
}

impl VniDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a VNI to a cluster.
    pub fn assign(&mut self, vni: Vni, cluster: usize) {
        self.map.insert(vni, cluster);
    }

    /// The cluster serving a VNI.
    pub fn cluster_for(&self, vni: Vni) -> Option<usize> {
        self.map.get(&vni).copied()
    }

    /// Sets the VNI's second owner: `Some` co-owns it alongside the
    /// primary (traffic may hash to either), `None` leaves the primary
    /// the sole owner.
    pub fn set_dual(&mut self, vni: Vni, secondary: Option<usize>) {
        match secondary {
            Some(s) => {
                self.dual.insert(vni, s);
            }
            None => {
                self.dual.remove(&vni);
            }
        }
    }

    /// The secondary owner of a VNI during `Dual`, if any.
    pub fn dual_of(&self, vni: Vni) -> Option<usize> {
        self.dual.get(&vni).copied()
    }

    /// Number of VNIs currently under dual ownership.
    pub fn dual_len(&self) -> usize {
        self.dual.len()
    }

    /// The one steering rule, shared by the region model and the packet
    /// path: the cluster serving a flow of `vni` — the directory's owner,
    /// or during a `Dual` window the flow-hash [`pick_owner`] between
    /// both — and whether that pick left the primary. `None` when the
    /// VNI has no owner.
    #[inline]
    pub fn owner(&self, hasher: &Toeplitz, vni: Vni, tuple: &FiveTuple) -> Option<(usize, bool)> {
        let primary = self.cluster_for(vni)?;
        Some(match self.dual_of(vni) {
            Some(secondary) => {
                let owner = pick_owner(hasher, tuple, primary, secondary);
                (owner, owner != primary)
            }
            None => (primary, false),
        })
    }

    /// Both owners of a VNI: `(primary, Option<secondary>)`.
    pub fn owners_for(&self, vni: Vni) -> Option<(usize, Option<usize>)> {
        self.cluster_for(vni).map(|p| (p, self.dual_of(vni)))
    }

    /// Number of assigned VNIs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A deterministic (sorted) snapshot of every assignment. Chaos
    /// invariant checks and property tests compare snapshots before and
    /// after recovery sequences.
    pub fn snapshot(&self) -> Vec<(Vni, usize)> {
        let mut entries: Vec<(Vni, usize)> = self.map.iter().map(|(v, c)| (*v, *c)).collect();
        entries.sort();
        entries
    }

    /// Moves every VNI on `from` to `to` (cluster-level disaster
    /// recovery: "any anomaly will alert the controller to modify the
    /// routes in the upstream devices for traffic reroute to the backup
    /// clusters", §6.1). Returns how many VNIs moved.
    pub fn reroute_cluster(&mut self, from: usize, to: usize) -> usize {
        let mut moved = 0;
        for target in self.map.values_mut() {
            if *target == from {
                *target = to;
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sailfish_net::IpProtocol;

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            core::net::Ipv4Addr::from(0x0a000000 | i).into(),
            "10.255.0.1".parse().unwrap(),
            IpProtocol::Tcp,
            1000,
            4789,
        )
    }

    #[test]
    fn next_hop_cap_enforced() {
        let mut g = EcmpGroup::new(16);
        for i in 0..16 {
            g.add(i).unwrap();
        }
        assert_eq!(g.add(16), Err(LbError::NextHopLimit { max: 16 }));
        assert_eq!(g.len(), 16);
    }

    #[test]
    fn pick_is_stable_and_in_range() {
        let mut g = EcmpGroup::new(8);
        for i in 0..8 {
            g.add(i * 10).unwrap();
        }
        for i in 0..100 {
            let t = tuple(i);
            let a = g.pick(&t).unwrap();
            assert_eq!(a, g.pick(&t).unwrap());
            assert!(g.members().contains(&a));
        }
    }

    #[test]
    fn spreads_flows_roughly_evenly() {
        let mut g = EcmpGroup::new(64);
        for i in 0..10 {
            g.add(i).unwrap();
        }
        let mut counts = [0usize; 10];
        for i in 0..20_000 {
            counts[g.pick(&tuple(i)).unwrap()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - 2_000.0).abs() / 2_000.0;
            assert!(dev < 0.2, "member {i} got {c}");
        }
    }

    #[test]
    fn removal_reroutes_remaining() {
        let mut g = EcmpGroup::new(8);
        g.add(1).unwrap();
        g.add(2).unwrap();
        assert!(g.remove(1));
        assert!(!g.remove(1));
        for i in 0..10 {
            assert_eq!(g.pick(&tuple(i)).unwrap(), 2);
        }
        g.remove(2);
        assert_eq!(g.pick(&tuple(0)), Err(LbError::Empty));
    }

    #[test]
    fn dual_ownership_promote_and_abort() {
        let mut d = VniDirectory::new();
        let v = Vni::from_const(7);
        d.assign(v, 0);
        assert_eq!(d.owners_for(v), Some((0, None)));
        d.set_dual(v, Some(3));
        assert_eq!(d.owners_for(v), Some((0, Some(3))));
        assert_eq!(d.cluster_for(v), Some(0), "primary unchanged in Dual");
        assert_eq!(d.dual_len(), 1);

        // Promote: the second owner becomes the sole primary.
        d.assign(v, 3);
        d.set_dual(v, None);
        assert_eq!(d.owners_for(v), Some((3, None)));
        assert_eq!(d.dual_len(), 0);

        // Abort: the second owner goes, the primary stays.
        d.set_dual(v, Some(1));
        d.set_dual(v, None);
        assert_eq!(d.owners_for(v), Some((3, None)), "abort keeps primary");
        d.set_dual(v, None);
        assert_eq!(d.dual_len(), 0, "clearing is idempotent");
    }

    #[test]
    fn pick_owner_is_stable_and_covers_both() {
        let h = Toeplitz::default();
        let mut saw = [false; 2];
        for i in 0..200 {
            let t = tuple(i);
            let o = pick_owner(&h, &t, 0, 1);
            assert_eq!(o, pick_owner(&h, &t, 0, 1));
            saw[o] = true;
        }
        assert!(saw[0] && saw[1], "both owners should receive flows");
    }

    #[test]
    fn vni_directory_reroute() {
        let mut d = VniDirectory::new();
        d.assign(Vni::from_const(1), 0);
        d.assign(Vni::from_const(2), 0);
        d.assign(Vni::from_const(3), 1);
        assert_eq!(d.cluster_for(Vni::from_const(1)), Some(0));
        assert_eq!(d.reroute_cluster(0, 9), 2);
        assert_eq!(d.cluster_for(Vni::from_const(1)), Some(9));
        assert_eq!(d.cluster_for(Vni::from_const(3)), Some(1));
        assert_eq!(d.cluster_for(Vni::from_const(99)), None);
    }
}
