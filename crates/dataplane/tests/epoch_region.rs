//! One epoch build at region scale, pinned.
//!
//! `tests/alpm_region.rs` pins the routing layout of one table holding
//! every route; this is the same for what an install actually builds —
//! `EpochState::build` over `TopologyConfig::region_scale()`, four
//! clusters — so a change to how the builder groups, orders or bulk-loads
//! its input fails here rather than as a moved Fig 17 / Table 3 artifact:
//!
//! - per cluster, the ALPM layout (per-VNI and VNI-grouped) and the
//!   digest-plane occupancy against the committed numbers — the per-VNI
//!   ones sum to `alpm_region`'s `92 888 / 224 661 / 7 385 / 2 229 312`;
//! - every VM of the topology resolved through its serving cluster: an
//!   on-chip mapping returns its NC from the main or the conflict plane,
//!   every `hw_vm_stride`-th misses;
//! - every route's network address looked up in its serving cluster
//!   against the logical `VxlanRoutingTable` (LPM by its definition over
//!   one flat `(VNI, family, length, masked address)` map, independent of
//!   ALPM).

use sailfish_dataplane::{DataplaneConfig, EpochState};
use sailfish_sim::{Topology, TopologyConfig};
use sailfish_tables::digest::{DigestLookup, DigestStats};
use sailfish_tables::vxlan_route::VxlanRoutingTable;

/// `(tcam, bucket, default, allocated)` per VNI, the same VNI-grouped,
/// and main-plane VM mappings, for clusters 0–3.
const PINNED: [([usize; 4], [usize; 4], usize); 4] = [
    (
        [23_230, 56_624, 1_897, 557_520],
        [3_714, 56_624, 32, 89_136],
        196_148,
    ),
    (
        [23_145, 55_765, 1_878, 555_480],
        [3_655, 55_765, 2, 87_720],
        58_197,
    ),
    (
        [23_682, 56_911, 1_808, 568_368],
        [3_777, 56_911, 4, 90_648],
        106_089,
    ),
    (
        [22_831, 55_361, 1_802, 547_944],
        [3_660, 55_361, 5, 87_840],
        78_485,
    ),
];

#[test]
fn region_epoch_layout_and_contents_are_pinned() {
    let topology = Topology::generate(TopologyConfig::region_scale());
    let config = DataplaneConfig::default();
    let state = EpochState::build(&topology, &config, 1);
    assert!(state.tags_consistent());

    assert_eq!(state.clusters.len(), PINNED.len());
    for (c, (cluster, (per_vni, grouped, vms))) in state.clusters.iter().zip(PINNED).enumerate() {
        let routes = &cluster.tables.routes;
        routes.audit().unwrap();
        let flat = |s: sailfish_tables::alpm::AlpmStats| {
            [
                s.tcam_entries,
                s.bucket_entries,
                s.default_entries,
                s.allocated_slots,
            ]
        };
        assert_eq!(flat(routes.alpm_stats()), per_vni, "cluster {c}");
        assert_eq!(flat(routes.grouped_alpm_stats()), grouped, "cluster {c}");
        assert_eq!(
            cluster.tables.vm_nc.digest_stats(),
            DigestStats {
                main_entries: vms,
                conflict_entries: 0
            },
            "cluster {c}"
        );
    }

    let serving = |vni| {
        let cluster = state.directory.cluster_for(vni).expect("every VNI placed");
        &state.clusters[cluster].tables
    };
    for (i, vm) in topology.vms.iter().enumerate() {
        let (nc, plane) = serving(vm.vni).vm_nc.lookup_traced(vm.vni, vm.ip);
        if i % config.hw_vm_stride == 0 {
            assert_eq!((nc, plane), (None, DigestLookup::Miss), "VM {i}");
        } else {
            assert_eq!(nc, Some(vm.nc), "VM {i}");
            assert_ne!(plane, DigestLookup::Miss, "VM {i}");
        }
    }

    let mut oracle = VxlanRoutingTable::new();
    for (key, target) in &topology.routes {
        oracle.insert(*key, *target);
    }
    for (key, _) in &topology.routes {
        let dst = key.prefix.addr();
        assert_eq!(
            serving(key.vni).routes.lookup(key.vni, dst),
            oracle.lookup(key.vni, dst),
            "{key:?}"
        );
    }
}
