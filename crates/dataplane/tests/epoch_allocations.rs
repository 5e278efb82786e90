//! Allocation budget of an epoch build.
//!
//! `EpochState::build` runs on every install, recovery and re-shard
//! phase, and whatever it allocates the retiring epoch later frees — at
//! region scale that free used to be most of an install. The budget here
//! is a count, not a timing, so it repeats exactly, and it has two parts:
//!
//! - at most [`ALLOCATIONS_PER_ROUTE`] heap allocations per installed
//!   route, at the default scale and at region scale (measured 0.71 and
//!   0.42: two exact-size arrays per family plane of each per-VNI table,
//!   copied from the one scratch table the builder fills them in; 0.78
//!   and 0.53 when each plane's roots grew by doubling, 0.68
//!   route-by-route, 24 with the pointer-trie ALPM);
//! - at most [`VM_PLANE_ALLOCATIONS_PER_CLUSTER`] for a cluster's whole
//!   VM-NC plane — the slot array and the bulk build's three scratch
//!   arrays, plus the builder's one run buffer — *however many VMs there
//!   are*: 5 000 or 459 000, the count is the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sailfish_dataplane::{DataplaneConfig, EpochState};
use sailfish_sim::{Topology, TopologyConfig};

const ALLOCATIONS_PER_ROUTE: u64 = 1;
const VM_PLANE_ALLOCATIONS_PER_CLUSTER: u64 = 5;

struct CountingAllocator;

thread_local! {
    // Per thread, so the harness's own threads never count; `const`
    // initialisation keeps the allocator from recursing into a lazy init.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` with the caller's layout
// and pointer unchanged; the only addition is a thread-local counter
// bump, which touches no allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: pointer, layout and size are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, routes installed)` of one build of `topology`.
fn allocations_per_build(topology: &Topology, dataplane: &DataplaneConfig) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let state = EpochState::build(topology, dataplane, 1);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let routes: usize = state.clusters.iter().map(|c| c.tables.routes.len()).sum();
    assert_eq!(routes, topology.routes.len(), "every route installed once");
    (allocations, routes as u64)
}

#[test]
fn epoch_build_stays_within_its_allocation_budget() {
    let dataplane = DataplaneConfig::default();
    // Stride 1 withholds every VM mapping from the chip: what is left is
    // the build without its VM-NC planes.
    let without_vms = DataplaneConfig {
        hw_vm_stride: 1,
        ..DataplaneConfig::default()
    };
    let mut vm_plane = Vec::new();
    for (scale, config) in [
        ("default", TopologyConfig::default()),
        ("region", TopologyConfig::region_scale()),
    ] {
        let topology = Topology::generate(config);
        let (allocations, routes) = allocations_per_build(&topology, &dataplane);
        let (bare, _) = allocations_per_build(&topology, &without_vms);
        println!(
            "{scale}: {allocations} allocations for {routes} routes and {} VMs, {bare} without the VM planes",
            topology.vms.len()
        );
        assert!(
            allocations <= ALLOCATIONS_PER_ROUTE * routes,
            "{scale}: {allocations} allocations for {routes} routes"
        );
        assert!(
            allocations - bare <= VM_PLANE_ALLOCATIONS_PER_CLUSTER * dataplane.clusters as u64,
            "{scale}: {} allocations for the VM planes",
            allocations - bare
        );
        vm_plane.push(allocations - bare);
    }
    assert!(
        vm_plane.windows(2).all(|w| w[0] == w[1]),
        "VM-plane allocations grew with the VM count: {vm_plane:?}"
    );
}
