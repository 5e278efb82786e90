//! IPv4/IPv6 table pooling.
//!
//! "Our strategy is to pool IPv4 and IPv6 memory resources. For any table
//! with IP as its key, both IPv4 and IPv6 are supported, ensuring that the
//! ratio of IPv4/IPv6 can be adjusted arbitrarily" (§4.4).
//!
//! For LPM tables the paper expands the IPv4 key to 128 bits so both
//! families share one physical table; a family label (part of the match
//! key) keeps the planes disjoint — an IPv6 `::/0` must never match IPv4
//! traffic. This module models that as label-separated views over shared
//! storage: [`PooledAlpm`], the compressed ALPM form whose statistics feed
//! the Fig 17 memory accounting, and the two key maps ([`plane_key`],
//! [`plane_addr`]) that the logical
//! [`crate::vxlan_route::VxlanRoutingTable`] keys its routes by too.

use core::net::IpAddr;

use sailfish_net::IpPrefix;

use crate::alpm::{AlpmConfig, AlpmStats, AlpmTable};
use crate::error::Result;
use crate::lpm::Key128;

/// Maps an [`IpPrefix`] into a 128-bit MSB-aligned key within its family
/// plane (IPv4 prefixes are MSB-aligned with their native length).
pub fn plane_key(prefix: &IpPrefix) -> Key128 {
    // A prefix's length fits its family and its host bits are zero by
    // type, so the key is canonical as built.
    let (value, len) = match prefix {
        IpPrefix::V4(p) => (u128::from(p.bits()) << 96, p.len()),
        IpPrefix::V6(p) => (p.bits(), p.len()),
    };
    Key128 { value, len }
}

/// Maps an address into its family plane for lookups.
pub fn plane_addr(addr: IpAddr) -> u128 {
    match addr {
        IpAddr::V4(a) => u128::from(u32::from(a)) << 96,
        IpAddr::V6(a) => u128::from(a),
    }
}

/// A dual-stack ALPM table (label-separated planes over the compressed
/// structure; stats are pooled).
#[derive(Debug)]
pub struct PooledAlpm<T: Clone> {
    v4: AlpmTable<T>,
    v6: AlpmTable<T>,
}

/// As [`AlpmTable`]'s: a clone is exact-size, `clone_from` keeps the
/// target's room.
impl<T: Clone> Clone for PooledAlpm<T> {
    fn clone(&self) -> Self {
        PooledAlpm {
            v4: self.v4.clone(),
            v6: self.v6.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.v4.clone_from(&source.v4);
        self.v6.clone_from(&source.v6);
    }
}

impl<T: Clone> Default for PooledAlpm<T> {
    fn default() -> Self {
        Self::new(AlpmConfig::default())
    }
}

impl<T: Clone> PooledAlpm<T> {
    /// Creates an empty table.
    pub fn new(config: AlpmConfig) -> Self {
        PooledAlpm {
            v4: AlpmTable::new(config),
            v6: AlpmTable::new(config),
        }
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a prefix.
    pub fn insert(&mut self, prefix: IpPrefix, value: T) -> Result<Option<T>> {
        let table = if prefix.is_v4() {
            &mut self.v4
        } else {
            &mut self.v6
        };
        table.insert(plane_key(&prefix), value)
    }

    /// Removes a prefix.
    pub fn remove(&mut self, prefix: &IpPrefix) -> Option<T> {
        let table = if prefix.is_v4() {
            &mut self.v4
        } else {
            &mut self.v6
        };
        table.remove(plane_key(prefix))
    }

    /// The family plane lookups of that family run against.
    pub fn plane(&self, v4: bool) -> &AlpmTable<T> {
        if v4 {
            &self.v4
        } else {
            &self.v6
        }
    }

    /// Longest-prefix lookup through the compressed path.
    pub fn lookup(&self, addr: IpAddr) -> Option<(u8, &T)> {
        self.plane(addr.is_ipv4())
            .lookup(plane_addr(addr))
            .map(|(k, v)| (k.len, v))
    }

    /// Pooled ALPM layout statistics (both planes summed — they share the
    /// same physical memory).
    pub fn stats(&self) -> AlpmStats {
        let a = self.v4.stats();
        let b = self.v6.stats();
        let allocated = a.allocated_slots + b.allocated_slots;
        let buckets = a.bucket_entries + b.bucket_entries;
        AlpmStats {
            tcam_entries: a.tcam_entries + b.tcam_entries,
            bucket_entries: buckets,
            default_entries: a.default_entries + b.default_entries,
            allocated_slots: allocated,
            avg_fill: if allocated == 0 {
                0.0
            } else {
                buckets as f64 / allocated as f64
            },
        }
    }

    /// Invariant audit over both planes.
    pub fn audit(&self) -> core::result::Result<(), String> {
        self.v4.audit()?;
        self.v6.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::Lpm128;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn pooled<T: Clone>(entries: &[(&str, T)]) -> PooledAlpm<T> {
        let mut m = PooledAlpm::new(AlpmConfig { bucket_capacity: 2 });
        for (prefix, value) in entries {
            assert!(m.insert(p(prefix), value.clone()).unwrap().is_none());
        }
        m
    }

    #[test]
    fn families_are_isolated() {
        let m = pooled(&[("10.0.0.0/8", "v4"), ("::/0", "v6-default")]);
        // An IPv4 address must not fall through to the v6 default when the
        // v4 plane misses: the family label is part of the key.
        assert_eq!(m.lookup("10.1.2.3".parse().unwrap()).unwrap().1, &"v4");
        assert!(m.lookup("11.0.0.1".parse().unwrap()).is_none());
        assert_eq!(
            m.lookup("2001:db8::1".parse().unwrap()).unwrap().1,
            &"v6-default"
        );
        assert_eq!((m.plane(true).len(), m.plane(false).len()), (1, 1));
    }

    #[test]
    fn v4_default_does_not_leak_into_v6() {
        let m = pooled(&[("0.0.0.0/0", "v4-default")]);
        assert!(m.lookup("2001:db8::1".parse().unwrap()).is_none());
        assert_eq!(
            m.lookup("8.8.8.8".parse().unwrap()).unwrap().1,
            &"v4-default"
        );
    }

    #[test]
    fn longest_match_within_family() {
        let m = pooled(&[("192.168.0.0/16", 16), ("192.168.10.0/24", 24)]);
        let (len, v) = m.lookup("192.168.10.9".parse().unwrap()).unwrap();
        assert_eq!(*v, 24);
        assert_eq!(len, 24);
    }

    #[test]
    fn remove_and_counts() {
        let mut m = pooled(&[("10.0.0.0/8", 1), ("2001:db8::/32", 2)]);
        assert_eq!(m.remove(&p("10.0.0.0/8")), Some(1));
        assert_eq!(m.remove(&p("10.0.0.0/8")), None);
        assert_eq!((m.plane(true).len(), m.plane(false).len()), (0, 1));
        assert_eq!(m.len(), 1);
        m.audit().unwrap();
    }

    /// Against two `Lpm128`s, one per family plane.
    #[test]
    fn pooled_alpm_matches_map() {
        use sailfish_util::rand::rngs::StdRng;
        use sailfish_util::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut planes = [Lpm128::new(), Lpm128::new()];
        let mut alpm = PooledAlpm::new(AlpmConfig { bucket_capacity: 4 });
        for i in 0..300u32 {
            let v4 = rng.gen_bool(0.5);
            let prefix = if v4 {
                let addr = core::net::Ipv4Addr::from(rng.gen_range(0..1u32 << 16) << 16);
                IpPrefix::new(addr.into(), rng.gen_range(8..=24)).unwrap()
            } else {
                let addr = core::net::Ipv6Addr::from(rng.gen_range(0..1u128 << 24) << 104);
                IpPrefix::new(addr.into(), rng.gen_range(16..=48)).unwrap()
            };
            planes[usize::from(v4)].insert(plane_key(&prefix), i);
            alpm.insert(prefix, i).unwrap();
        }
        alpm.audit().unwrap();
        for _ in 0..1000 {
            let addr: IpAddr = if rng.gen_bool(0.5) {
                core::net::Ipv4Addr::from(rng.gen::<u32>() & 0xffff_0000).into()
            } else {
                core::net::Ipv6Addr::from((rng.gen_range(0..1u128 << 24)) << 104).into()
            };
            let want = planes[usize::from(addr.is_ipv4())]
                .lookup(plane_addr(addr))
                .map(|(k, v)| (k.len, *v));
            assert_eq!(want, alpm.lookup(addr).map(|(l, v)| (l, *v)), "addr {addr}");
        }
        let stats = alpm.stats();
        assert!(stats.tcam_entries < planes[0].len() + planes[1].len());
    }
}
