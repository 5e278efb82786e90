//! The VM-NC mapping table.
//!
//! "The VM-NC mapping table finds the exact physical server address where
//! the destination VM is hosted" (§2.1, Fig 2). Exact match on
//! `(VNI, VM IP)`; the value is the NC (Node Controller) underlay address.
//!
//! The logical table is backed by the key-digest compressor of
//! [`crate::digest`] so its layout statistics directly feed the §4.4
//! "compressing longer table entries" accounting.

use core::net::IpAddr;

use sailfish_net::Vni;

use crate::digest::{DigestExactTable, DigestLookup, DigestStats};
use crate::error::Result;
use crate::types::{NcAddr, VmKey};

/// The logical VM-NC mapping table.
#[derive(Debug, Default, Clone)]
pub struct VmNcTable {
    inner: DigestExactTable<NcAddr>,
}

impl VmNcTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the table from a run of mappings in one go — what an
    /// epoch install does per cluster. Equal to inserting them in order
    /// into a table with room reserved; a VM appearing twice is an error.
    pub fn from_run(run: &[(VmKey, NcAddr)]) -> Result<Self> {
        Ok(VmNcTable {
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

    /// Registers a VM on its hosting NC.
    pub fn insert(&mut self, vni: Vni, vm_ip: IpAddr, nc: NcAddr) -> Result<()> {
        self.inner.insert(VmKey::new(vni, vm_ip), nc)
    }

    /// Finds the NC hosting a VM.
    pub fn lookup(&self, vni: Vni, vm_ip: IpAddr) -> Option<NcAddr> {
        self.inner.get(&VmKey::new(vni, vm_ip)).copied()
    }

    /// Finds the NC hosting a VM, reporting which digest plane resolved
    /// the key (main vs conflict table) for dataplane counters.
    //
    // Always inlined so the key never round-trips through memory; see
    // `DigestExactTable::get_traced`.
    #[inline(always)]
    pub fn lookup_traced(&self, vni: Vni, vm_ip: IpAddr) -> (Option<NcAddr>, DigestLookup) {
        let (v, trace) = self.inner.get_traced(&VmKey::new(vni, vm_ip));
        (v.copied(), trace)
    }

    /// Removes a VM (migration or release).
    pub fn remove(&mut self, vni: Vni, vm_ip: IpAddr) -> Option<NcAddr> {
        self.inner.remove(&VmKey::new(vni, vm_ip))
    }

    /// Digest-compression statistics (main vs conflict entries).
    pub fn digest_stats(&self) -> DigestStats {
        self.inner.stats()
    }

    /// Iterates all mappings.
    pub fn iter(&self) -> impl Iterator<Item = (&VmKey, &NcAddr)> {
        self.inner.iter()
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
    use crate::error::Error;

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
    fn vm_migration_remove_then_insert() {
        let mut t = fig2_table();
        let vni = Vni::from_const(100);
        let ip: IpAddr = "192.168.10.2".parse().unwrap();
        assert_eq!(t.remove(vni, ip), Some(nc("10.1.1.11")));
        t.insert(vni, ip, nc("10.1.1.44")).unwrap();
        assert_eq!(t.lookup(vni, ip), Some(nc("10.1.1.44")));
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
}
