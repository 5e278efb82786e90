//! The on-chip table set.
//!
//! "XGW-H stores a few key tables frequently hit by the majority of
//! traffic" (§4.2): the VXLAN routing table (as pooled ALPM, §4.4) and the
//! VM-NC mapping table (digest-compressed, §4.4), plus the per-SLA service
//! tables (ACL, meters).

use core::net::IpAddr;
use std::sync::Arc;

use sailfish_net::hash::MixMap;
use sailfish_net::{IpPrefix, Vni};
use sailfish_tables::acl::{AclAction, AclTable};
use sailfish_tables::alpm::{AlpmConfig, AlpmStats};
use sailfish_tables::error::Result;
use sailfish_tables::pooled::PooledAlpm;
use sailfish_tables::types::{NcAddr, NcId, RouteTarget, VmKey, VxlanRouteKey};
use sailfish_tables::vm_nc::VmNcTable;

/// Maximum peer-VPC hops in hardware; mirrors the software bound. Each
/// hop is a pipeline recirculation, so [`HardwareTables::walk`] bounds
/// the chain tightly.
pub const MAX_PEER_HOPS: usize = 8;

/// The hardware VXLAN routing table: per-VNI pooled ALPM.
///
/// Keeping one compressed table per VNI mirrors the physical layout —
/// the VNI is an exact-match component of the key, so partitions never
/// span VPCs, and "the VPC is the smallest split granularity" (§4.4).
/// The controller provisions the VNIs, so the index hashes them with the
/// fixed-key [`sailfish_net::hash::MixState`].
#[derive(Debug, Default)]
pub struct HwRoutingTable {
    per_vni: MixMap<Vni, PooledAlpm<RouteTarget>>,
    alpm_config: AlpmConfig,
}

impl HwRoutingTable {
    /// Creates an empty table with the given ALPM partition size.
    pub fn new(alpm_config: AlpmConfig) -> Self {
        HwRoutingTable {
            per_vni: MixMap::default(),
            alpm_config,
        }
    }

    /// Total route entries.
    pub fn len(&self) -> usize {
        self.per_vni.values().map(|t| t.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `additional` more VNIs ahead of a bulk install.
    pub fn reserve_vnis(&mut self, additional: usize) {
        self.per_vni.reserve(additional);
    }

    /// Installs a route.
    pub fn insert(
        &mut self,
        key: VxlanRouteKey,
        target: RouteTarget,
    ) -> Result<Option<RouteTarget>> {
        self.per_vni
            .entry(key.vni)
            .or_insert_with(|| PooledAlpm::new(self.alpm_config))
            .insert(key.prefix, target)
    }

    /// Installs one VNI's routes in one go, in the run's order: one index
    /// probe for the whole run, and the small per-VNI table built while it
    /// is still in cache. The layout is the one [`HwRoutingTable::insert`]
    /// builds route by route. An empty run creates no table.
    ///
    /// The routes go into `scratch` — the VNI's table as it stands,
    /// copied into arrays a caller reuses from one VNI to the next — and
    /// the table is stored as an exact-size copy of the result, so no
    /// plane keeps the room its arrays grew into. A refused route leaves
    /// the VNI's table as it was.
    pub fn install_vni(
        &mut self,
        vni: Vni,
        run: &[(IpPrefix, RouteTarget)],
        scratch: &mut PooledAlpm<RouteTarget>,
    ) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        let table = self
            .per_vni
            .entry(vni)
            .or_insert_with(|| PooledAlpm::new(self.alpm_config));
        scratch.clone_from(table);
        for (prefix, target) in run {
            scratch.insert(*prefix, *target)?;
        }
        *table = scratch.clone();
        Ok(())
    }

    /// The VNI's compressed table — the exact-match half of the key.
    pub fn table(&self, vni: Vni) -> Option<&PooledAlpm<RouteTarget>> {
        self.per_vni.get(&vni)
    }

    /// Single-step LPM within one VNI, through the compressed path.
    pub fn lookup(&self, vni: Vni, dst: IpAddr) -> Option<RouteTarget> {
        self.table(vni)?.lookup(dst).map(|(_, t)| *t)
    }

    /// Physical-layout statistics with **VNI grouping**.
    ///
    /// The physical first-level TCAM matches the full ternary
    /// `(VNI, pooled address)` key, so partitions are not forced to be
    /// per-VPC: small VPCs share a partition whose TCAM entry covers an
    /// aligned *VNI range* with a wildcarded address, and only VPCs whose
    /// route sets exceed one bucket partition further by address (their
    /// measured per-VNI ALPM layout). This method carves the 24-bit VNI
    /// space exactly like ALPM carves address space and returns the
    /// resulting layout statistics. Lookup behaviour is unchanged — a
    /// grouped bucket stores `(VNI, prefix)` records and the in-bucket
    /// match already compares the exact VNI.
    pub fn grouped_alpm_stats(&self) -> AlpmStats {
        let bucket = self.alpm_config.bucket_capacity;
        // Sorted (vni, route count) pairs.
        let mut counts: Vec<(u32, usize)> = self
            .per_vni
            .iter()
            .map(|(v, t)| (v.value(), t.len()))
            .collect();
        counts.sort_unstable();

        let mut stats = AlpmStats {
            tcam_entries: 0,
            bucket_entries: 0,
            default_entries: 0,
            allocated_slots: 0,
            avg_fill: 0.0,
        };
        // Recursive carve over VNI ranges [lo, hi) aligned to powers of 2.
        fn carve(
            table: &HwRoutingTable,
            counts: &[(u32, usize)],
            lo: u32,
            len: u32,
            bucket: usize,
            stats: &mut AlpmStats,
        ) {
            if counts.is_empty() {
                return;
            }
            let total: usize = counts.iter().map(|(_, c)| c).sum();
            if total == 0 {
                return;
            }
            if total <= bucket {
                // One shared partition for every VPC in this VNI range.
                stats.tcam_entries += 1;
                stats.bucket_entries += total;
                stats.allocated_slots += bucket;
                return;
            }
            if len == 1 {
                // A single large VPC: use its measured per-address layout.
                // `lo` is below 2^24 here, one of the VNIs counted.
                let [_, hi, mid, low] = lo.to_be_bytes();
                if let Some(t) = table.per_vni.get(&Vni::from_be_bytes([hi, mid, low])) {
                    let s = t.stats();
                    stats.tcam_entries += s.tcam_entries;
                    stats.bucket_entries += s.bucket_entries;
                    stats.default_entries += s.default_entries;
                    stats.allocated_slots += s.allocated_slots;
                }
                return;
            }
            let half = len / 2;
            let split = counts.partition_point(|(v, _)| *v < lo + half);
            carve(table, &counts[..split], lo, half, bucket, stats);
            carve(
                table,
                &counts[split..],
                lo + half,
                len - half,
                bucket,
                stats,
            );
        }
        carve(self, &counts, 0, 1 << 24, bucket, &mut stats);
        stats.avg_fill = if stats.allocated_slots == 0 {
            0.0
        } else {
            stats.bucket_entries as f64 / stats.allocated_slots as f64
        };
        stats
    }

    /// Aggregated ALPM layout statistics across VNIs (they share the
    /// physical TCAM/SRAM pools).
    pub fn alpm_stats(&self) -> AlpmStats {
        let mut tcam = 0;
        let mut buckets = 0;
        let mut defaults = 0;
        let mut slots = 0;
        for t in self.per_vni.values() {
            let s = t.stats();
            tcam += s.tcam_entries;
            buckets += s.bucket_entries;
            defaults += s.default_entries;
            slots += s.allocated_slots;
        }
        AlpmStats {
            tcam_entries: tcam,
            bucket_entries: buckets,
            default_entries: defaults,
            allocated_slots: slots,
            avg_fill: if slots == 0 {
                0.0
            } else {
                buckets as f64 / slots as f64
            },
        }
    }

    /// Invariant audit over every VNI's compressed structure.
    pub fn audit(&self) -> core::result::Result<(), String> {
        for (vni, t) in &self.per_vni {
            t.audit().map_err(|e| format!("{vni}: {e}"))?;
        }
        Ok(())
    }

    /// The ALPM partition configuration in force.
    pub fn alpm_config(&self) -> AlpmConfig {
        self.alpm_config
    }

    /// VNIs present, ascending.
    pub fn vnis(&self) -> Vec<Vni> {
        let mut v: Vec<Vni> = self.per_vni.keys().copied().collect();
        v.sort();
        v
    }

    /// Entries for one VNI.
    pub fn len_for_vni(&self, vni: Vni) -> usize {
        self.per_vni.get(&vni).map_or(0, |t| t.len())
    }
}

/// All tables resident on the hardware gateway.
#[derive(Debug)]
pub struct HardwareTables {
    /// VXLAN routing (pooled ALPM).
    pub routes: HwRoutingTable,
    /// VM-NC mapping (digest-compressed exact match).
    pub vm_nc: VmNcTable,
    /// Per-SLA ACLs.
    pub acl: AclTable,
}

impl HardwareTables {
    /// Empty hardware tables with default-permit ACL.
    pub fn new(alpm_config: AlpmConfig) -> Self {
        HardwareTables {
            routes: HwRoutingTable::new(alpm_config),
            vm_nc: VmNcTable::new(),
            acl: AclTable::new(AclAction::Permit, None),
        }
    }

    /// Replaces the VM-NC table with one built from a cluster's whole run
    /// of mappings, naming NCs by their place in `ncs` (see
    /// [`VmNcTable::from_run`]). On error the table is left as it was.
    pub fn load_vms(&mut self, ncs: Arc<[NcAddr]>, run: &[(VmKey, NcId)]) -> Result<()> {
        self.vm_nc = VmNcTable::from_run(ncs, run)?;
        Ok(())
    }

    /// Convenience: register a VM (route + mapping already split by the
    /// controller; this only touches the mapping table).
    pub fn add_vm(&mut self, vni: Vni, vm_ip: IpAddr, nc: NcAddr) -> Result<()> {
        self.vm_nc.insert(vni, vm_ip, nc)
    }
}

impl Default for HardwareTables {
    fn default() -> Self {
        Self::new(AlpmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{WalkEvent, WalkSink};
    use sailfish_net::packet::GatewayPacketBuilder;
    use sailfish_tables::types::{Reason, Verdict};

    fn key(vni: u32, p: &str) -> VxlanRouteKey {
        VxlanRouteKey::new(Vni::from_const(vni), p.parse::<IpPrefix>().unwrap())
    }

    /// Records the single-step route lookups of a walk.
    #[derive(Default)]
    struct RouteSteps(Vec<Option<RouteTarget>>);

    impl WalkSink for RouteSteps {
        fn on(&mut self, event: WalkEvent) {
            if let WalkEvent::Route(matched) = event {
                self.0.push(matched);
            }
        }
    }

    fn packet(vni: u32, dst: &str) -> sailfish_net::GatewayPacket {
        GatewayPacketBuilder::new(
            Vni::from_const(vni),
            "10.0.0.2".parse().unwrap(),
            dst.parse().unwrap(),
        )
        .build()
    }

    fn walk(
        tables: &HardwareTables,
        packet: &sailfish_net::GatewayPacket,
        sink: &mut RouteSteps,
    ) -> Verdict {
        tables.walk(packet.vni, &packet.five_tuple(), sink)
    }

    #[test]
    fn resolve_through_compressed_path() {
        let mut tables = HardwareTables::new(AlpmConfig { bucket_capacity: 2 });
        let t = &mut tables.routes;
        t.insert(
            key(1, "192.168.0.0/16"),
            RouteTarget::Peer(Vni::from_const(2)),
        )
        .unwrap();
        t.insert(key(2, "192.168.0.0/16"), RouteTarget::Local)
            .unwrap();
        // Enough routes to force partition splits and re-carving in VNI 1.
        for i in 0..32u8 {
            t.insert(key(1, &format!("10.{i}.0.0/16")), RouteTarget::Local)
                .unwrap();
        }
        t.audit().unwrap();
        let stats = t.alpm_stats();
        assert!(stats.tcam_entries > 0);
        assert!(stats.tcam_entries < t.len());

        let nc = NcAddr::new("10.1.1.12".parse().unwrap());
        tables
            .add_vm(Vni::from_const(2), "192.168.3.4".parse().unwrap(), nc)
            .unwrap();
        let mut steps = RouteSteps::default();
        // One peer hop, then the final match in the peer's VNI.
        assert_eq!(
            walk(&tables, &packet(1, "192.168.3.4"), &mut steps),
            Verdict::ToNc {
                nc,
                vni: Vni::from_const(2)
            }
        );
        assert_eq!(
            steps.0,
            [
                Some(RouteTarget::Peer(Vni::from_const(2))),
                Some(RouteTarget::Local)
            ]
        );
    }

    #[test]
    fn routing_loop_bounded() {
        let mut tables = HardwareTables::default();
        let t = &mut tables.routes;
        t.insert(key(1, "10.0.0.0/8"), RouteTarget::Peer(Vni::from_const(2)))
            .unwrap();
        t.insert(key(2, "10.0.0.0/8"), RouteTarget::Peer(Vni::from_const(1)))
            .unwrap();
        let mut steps = RouteSteps::default();
        assert_eq!(
            walk(&tables, &packet(1, "10.1.1.1"), &mut steps),
            Verdict::Drop(Reason::RoutingLoop)
        );
        assert_eq!(steps.0.len(), MAX_PEER_HOPS + 1);
    }

    #[test]
    fn grouped_stats_share_partitions_across_small_vpcs() {
        let mut t = HwRoutingTable::new(AlpmConfig {
            bucket_capacity: 16,
        });
        // 64 tiny VPCs with 2 routes each.
        for v in 0..64u32 {
            t.insert(key(v, "10.0.0.0/24"), RouteTarget::Local).unwrap();
            t.insert(key(v, "10.0.1.0/24"), RouteTarget::Local).unwrap();
        }
        let per_vni = t.alpm_stats();
        let grouped = t.grouped_alpm_stats();
        // Per-VNI layout needs one partition per VPC; grouped packs ~8
        // VPCs (16 entries) per partition.
        assert!(per_vni.tcam_entries >= 64);
        assert!(grouped.tcam_entries <= 20, "{grouped:?}");
        assert!(grouped.tcam_entries >= 8, "{grouped:?}");
        // Entry accounting is conserved either way.
        assert_eq!(grouped.bucket_entries, 128);
        assert!(grouped.avg_fill > 0.5, "{grouped:?}");
    }

    #[test]
    fn grouped_stats_fall_back_to_internal_partitioning_for_big_vpcs() {
        let mut t = HwRoutingTable::new(AlpmConfig { bucket_capacity: 4 });
        for i in 0..64u8 {
            t.insert(key(7, &format!("10.{i}.0.0/16")), RouteTarget::Local)
                .unwrap();
        }
        let grouped = t.grouped_alpm_stats();
        // One big VPC: grouping cannot help; the measured internal layout
        // is used (16+ partitions for 64 entries at capacity 4).
        assert!(grouped.tcam_entries >= 16, "{grouped:?}");
        assert_eq!(grouped.bucket_entries, 64);
    }

    #[test]
    fn per_vni_isolation() {
        let mut t = HwRoutingTable::default();
        t.insert(key(1, "10.0.0.0/8"), RouteTarget::Local).unwrap();
        assert!(t
            .lookup(Vni::from_const(2), "10.1.1.1".parse().unwrap())
            .is_none());
    }
}
