//! The VM-NC mapping table.
//!
//! "The VM-NC mapping table finds the exact physical server address where
//! the destination VM is hosted" (§2.1, Fig 2). Exact match on
//! `(VNI, VM IP)`; the value is the NC (Node Controller) underlay address.
//!
//! The logical table is backed by the key-digest compressor of
//! [`crate::digest`] so its layout statistics directly feed the §4.4
//! "compressing longer table entries" accounting.
//!
//! # The NC inventory
//!
//! A region has far fewer servers than VMs (20,000 NCs for ≈462k VMs at
//! region scale), so an entry does not hold its NC's address: it holds a
//! 4-byte [`NcId`] into the table's *inventory*, the list of NC addresses
//! the ids index, and a lookup reads the address from there. A bulk load
//! takes the inventory with the run — a topology's own, whose `Arc`
//! every image built from it shares — and refuses an id past its end;
//! [`VmNcTable::insert`] takes an address and files it under the id the
//! inventory already gives it, or appends it.

use core::net::IpAddr;
use std::sync::Arc;

use sailfish_net::Vni;

use crate::digest::{DigestExactTable, DigestLookup, DigestStats};
use crate::error::{Error, Result};
use crate::types::{NcAddr, NcId, VmKey};

/// The logical VM-NC mapping table.
#[derive(Debug, Default, Clone)]
pub struct VmNcTable {
    /// The NC addresses the entries' ids index.
    ncs: Arc<[NcAddr]>,
    inner: DigestExactTable<NcId>,
}

impl VmNcTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the table from a run of mappings in one go — what an
    /// epoch install does per cluster — naming NCs by their place in
    /// `ncs`. Equal to inserting them in order into a table with room
    /// reserved; a VM appearing twice is an error, and so is an id
    /// `ncs` does not have.
    pub fn from_run(ncs: Arc<[NcAddr]>, run: &[(VmKey, NcId)]) -> Result<Self> {
        if run.iter().any(|(_, nc)| nc.index() >= ncs.len()) {
            return Err(Error::NotFound);
        }
        Ok(VmNcTable {
            ncs,
            inner: DigestExactTable::from_run(run)?,
        })
    }

    /// Number of VM mappings.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Registers a VM on its hosting NC. An NC the inventory does not
    /// list yet is appended to it (a scan and a copy of the inventory: a
    /// region's worth of mappings goes through [`VmNcTable::from_run`]).
    pub fn insert(&mut self, vni: Vni, vm_ip: IpAddr, nc: NcAddr) -> Result<()> {
        let known = self.ncs.iter().position(|listed| *listed == nc);
        let index = known.unwrap_or(self.ncs.len());
        let id = NcId(u32::try_from(index).map_err(|_| Error::CapacityExceeded)?);
        self.inner.insert(VmKey::new(vni, vm_ip), id)?;
        if known.is_none() {
            self.ncs = self.ncs.iter().copied().chain([nc]).collect();
        }
        Ok(())
    }

    /// Finds the NC hosting a VM.
    pub fn lookup(&self, vni: Vni, vm_ip: IpAddr) -> Option<NcAddr> {
        self.lookup_traced(vni, vm_ip).0
    }

    /// Finds the NC hosting a VM, reporting which digest plane resolved
    /// the key (main vs conflict table) for dataplane counters.
    //
    // Always inlined so the key never round-trips through memory; see
    // `DigestExactTable::get_traced`.
    #[inline(always)]
    pub fn lookup_traced(&self, vni: Vni, vm_ip: IpAddr) -> (Option<NcAddr>, DigestLookup) {
        let (id, trace) = self.inner.get_traced(&VmKey::new(vni, vm_ip));
        (id.and_then(|id| self.ncs.get(id.index())).copied(), trace)
    }

    /// Digest-compression statistics (main vs conflict entries).
    pub fn digest_stats(&self) -> DigestStats {
        self.inner.stats()
    }

    /// Iterates all mappings. The compressed plane keeps each key as its
    /// tag (and an IPv6 key's address bits), so keys come out owned.
    pub fn iter(&self) -> impl Iterator<Item = (VmKey, &NcAddr)> {
        self.inner
            .iter()
            .filter_map(|(key, id)| Some((key, self.ncs.get(id.index())?)))
    }

    /// Entry counts per family `(v4, v6)`.
    pub fn family_counts(&self) -> (usize, usize) {
        let mut v4 = 0;
        let mut v6 = 0;
        for (k, _) in self.inner.iter() {
            if k.ip.is_ipv4() {
                v4 += 1;
            } else {
                v6 += 1;
            }
        }
        (v4, v6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest32;
    use core::net::{Ipv4Addr, Ipv6Addr};

    fn nc(s: &str) -> NcAddr {
        NcAddr::new(s.parse().unwrap())
    }

    /// The exact mapping table of Fig 2.
    fn fig2_table() -> VmNcTable {
        let mut t = VmNcTable::new();
        let vpc_a = Vni::from_const(100);
        let vpc_b = Vni::from_const(200);
        t.insert(vpc_a, "192.168.10.2".parse().unwrap(), nc("10.1.1.11"))
            .unwrap();
        t.insert(vpc_a, "192.168.10.3".parse().unwrap(), nc("10.1.1.12"))
            .unwrap();
        t.insert(vpc_b, "192.168.30.5".parse().unwrap(), nc("10.1.1.15"))
            .unwrap();
        t
    }

    #[test]
    fn fig2_lookups() {
        let t = fig2_table();
        assert_eq!(
            t.lookup(Vni::from_const(100), "192.168.10.3".parse().unwrap()),
            Some(nc("10.1.1.12"))
        );
        assert_eq!(
            t.lookup(Vni::from_const(200), "192.168.30.5".parse().unwrap()),
            Some(nc("10.1.1.15"))
        );
        // Same IP under the wrong VNI misses: multi-tenant isolation.
        assert_eq!(
            t.lookup(Vni::from_const(200), "192.168.10.3".parse().unwrap()),
            None
        );
    }

    #[test]
    fn overlapping_tenant_address_spaces() {
        // Two tenants use the identical private address; the VNI keeps the
        // mappings distinct.
        let mut t = VmNcTable::new();
        let ip: IpAddr = "192.168.0.10".parse().unwrap();
        t.insert(Vni::from_const(1), ip, nc("10.0.0.1")).unwrap();
        t.insert(Vni::from_const(2), ip, nc("10.0.0.2")).unwrap();
        assert_eq!(t.lookup(Vni::from_const(1), ip), Some(nc("10.0.0.1")));
        assert_eq!(t.lookup(Vni::from_const(2), ip), Some(nc("10.0.0.2")));
    }

    #[test]
    fn duplicate_vm_rejected() {
        let mut t = fig2_table();
        assert_eq!(
            t.insert(
                Vni::from_const(100),
                "192.168.10.2".parse().unwrap(),
                nc("10.1.1.99")
            ),
            Err(Error::Duplicate)
        );
    }

    #[test]
    fn dual_stack_vms() {
        let mut t = VmNcTable::new();
        let vni = Vni::from_const(9);
        t.insert(vni, "10.0.0.1".parse().unwrap(), nc("10.1.1.1"))
            .unwrap();
        t.insert(vni, "2001:db8::1".parse().unwrap(), nc("10.1.1.1"))
            .unwrap();
        assert_eq!(t.family_counts(), (1, 1));
        assert_eq!(
            t.lookup(vni, "2001:db8::1".parse().unwrap()),
            Some(nc("10.1.1.1"))
        );
    }

    /// Two v6 addresses whose digests collide under VNI 1: the first
    /// repeat among the digests of 0, 1, 2, ….
    fn colliding_v6_pair() -> (u128, u128) {
        let mut seen = std::collections::HashMap::new();
        (0..600_000u128)
            .find_map(|addr| Some((seen.insert(digest32(1, addr), addr)?, addr)))
            .expect("birthday paradox: a collision exists in 600k keys")
    }

    #[test]
    fn mixed_run_resolves_every_key_to_its_own_nc_in_every_plane() {
        let (a, b) = colliding_v6_pair();
        let key = |ip: IpAddr| VmKey::new(Vni::from_const(1), ip);
        let v4 = |addr: u32| key(IpAddr::V4(Ipv4Addr::from(addr)));
        let v6 = |addr: u128| key(IpAddr::V6(Ipv6Addr::from(addr)));
        let keys = [
            (v4(0x0a00_0001), DigestLookup::HitMain),
            // Same 32 address bits as the colliding pair's tag, other
            // family label.
            (v4(digest32(1, a)), DigestLookup::HitMain),
            (v6(0x2001_0db8 << 96 | 7), DigestLookup::HitMain),
            (v6(a), DigestLookup::HitMain),
            (v6(b), DigestLookup::HitConflict),
            (v4(0x0a00_0002), DigestLookup::HitMain),
        ];
        let ncs: Arc<[NcAddr]> = (0..keys.len())
            .map(|i| nc(&format!("10.9.0.{i}")))
            .collect();
        // Ids in another order than the keys, so a slot's id is not its
        // position in the run.
        let run: Vec<(VmKey, NcId)> = (0u32..)
            .zip(&keys)
            .map(|(i, (key, _))| (*key, NcId(keys.len() as u32 - 1 - i)))
            .collect();
        let bulk = VmNcTable::from_run(Arc::clone(&ncs), &run).unwrap();
        let mut one_by_one = VmNcTable::new();
        for (key, id) in &run {
            one_by_one.insert(key.vni, key.ip, ncs[id.index()]).unwrap();
        }
        for table in [&bulk, &one_by_one] {
            for ((key, plane), (_, id)) in keys.iter().zip(&run) {
                assert_eq!(
                    table.lookup_traced(key.vni, key.ip),
                    (Some(ncs[id.index()]), *plane),
                    "{key}"
                );
            }
            assert_eq!(
                table.lookup_traced(Vni::from_const(2), v6(a).ip),
                (None, DigestLookup::Miss)
            );
            let mut listed: Vec<(VmKey, NcAddr)> = table.iter().map(|(k, nc)| (k, *nc)).collect();
            let mut want: Vec<(VmKey, NcAddr)> = run
                .iter()
                .map(|(key, id)| (*key, ncs[id.index()]))
                .collect();
            let order = |(k, _): &(VmKey, NcAddr)| (k.vni, k.ip);
            listed.sort_by_key(order);
            want.sort_by_key(order);
            assert_eq!(listed, want, "every key exactly once");
            assert_eq!(
                table.digest_stats(),
                DigestStats {
                    main_entries: keys.len() - 1,
                    conflict_entries: 1,
                }
            );
        }
    }

    #[test]
    fn bulk_load_refuses_an_nc_the_inventory_lacks() {
        let ncs: Arc<[NcAddr]> = [nc("10.1.1.1")].into();
        let key = VmKey::new(Vni::from_const(1), "10.0.0.1".parse().unwrap());
        assert!(VmNcTable::from_run(Arc::clone(&ncs), &[(key, NcId(0))]).is_ok());
        assert_eq!(
            VmNcTable::from_run(ncs, &[(key, NcId(1))]).map(|t| t.len()),
            Err(Error::NotFound)
        );
    }
}
