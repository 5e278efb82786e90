//! Integration test: the hardware routing table at region scale.
//!
//! Two checks on one `HwRoutingTable` holding every route of
//! `TopologyConfig::region_scale()`:
//!
//! - a **golden** layout — the four `AlpmStats` numbers every Fig 17 /
//!   Table 3 artifact is derived from — so a drift in the partition policy
//!   (carve, split-on-overflow, the rebuild trigger, default replication)
//!   fails here, at its source, rather than as a JSON diff;
//! - a **differential** — `HwRoutingTable::lookup`, walked level by
//!   level the way the batch miss path warms it (`table` → `plane` →
//!   `deepest_root` → `match_in`), against the logical
//!   `VxlanRoutingTable` (LPM by its definition over one flat
//!   `(VNI, family, length, masked address)` map — nothing of ALPM's
//!   carving), fed the same routes, on every route's network address and
//!   on 50 000 seeded VM addresses.

use std::sync::OnceLock;

use core::net::IpAddr;

use sailfish::prelude::*;
use sailfish_tables::pooled::plane_addr;
use sailfish_tables::vxlan_route::VxlanRoutingTable;
use sailfish_util::rand::rngs::StdRng;
use sailfish_util::rand::{Rng, SeedableRng};
use sailfish_xgw_h::tables::HwRoutingTable;

fn region() -> &'static (Topology, HwRoutingTable) {
    static REGION: OnceLock<(Topology, HwRoutingTable)> = OnceLock::new();
    REGION.get_or_init(|| {
        let topology = Topology::generate(TopologyConfig::region_scale());
        let mut table = HwRoutingTable::new(AlpmConfig::default());
        for (key, target) in &topology.routes {
            assert_eq!(table.insert(*key, *target).unwrap(), None, "{key:?}");
        }
        (topology, table)
    })
}

#[test]
fn region_layout_is_pinned() {
    let (topology, table) = region();
    table.audit().unwrap();
    assert_eq!(table.len(), topology.routes.len());
    let stats = table.alpm_stats();
    assert_eq!(
        (
            stats.tcam_entries,
            stats.bucket_entries,
            stats.default_entries,
            stats.allocated_slots,
        ),
        (92_888, 224_661, 7_385, 2_229_312),
    );
}

/// One single-step lookup as its four levels, checked against their
/// composition.
fn lookup_by_levels(table: &HwRoutingTable, vni: Vni, dst: IpAddr) -> Option<RouteTarget> {
    let by_levels = table.table(vni).and_then(|per_vni| {
        let plane = per_vni.plane(dst.is_ipv4());
        let addr = plane_addr(dst);
        let root = plane.deepest_root(addr, 128)?;
        plane.match_in(root, addr).map(|(_, target)| *target)
    });
    assert_eq!(by_levels, table.lookup(vni, dst), "{vni} {dst}");
    by_levels
}

#[test]
fn region_lookups_match_per_vni_tries() {
    let (topology, table) = region();
    // The logical table: one `Lpm128` per VNI and family, fed the same
    // routes, sharing no code with the ALPM.
    let mut oracle = VxlanRoutingTable::new();
    for (key, target) in &topology.routes {
        oracle.insert(*key, *target);
    }

    for (key, _) in &topology.routes {
        let dst = key.prefix.addr();
        assert_eq!(
            lookup_by_levels(table, key.vni, dst),
            oracle.lookup(key.vni, dst),
            "{key:?}"
        );
    }

    let mut rng = StdRng::seed_from_u64(0x5a11_f154);
    let mut hits = 0usize;
    for _ in 0..50_000 {
        let vm = &topology.vms[rng.gen_range(0..topology.vms.len())];
        // The VM's own VPC (always routed) and a random other one (mostly
        // a miss or a default route).
        let other = topology.vpcs[rng.gen_range(0..topology.vpcs.len())].vni;
        for vni in [vm.vni, other] {
            let got = lookup_by_levels(table, vni, vm.ip);
            assert_eq!(got, oracle.lookup(vni, vm.ip), "{vni} {}", vm.ip);
            hits += usize::from(got.is_some());
        }
    }
    assert!(hits >= 50_000, "every VM is routed in its own VPC: {hits}");
}
