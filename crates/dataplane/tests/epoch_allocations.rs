//! Allocation budget of an epoch build.
//!
//! `EpochState::build` runs on every install, recovery and re-shard
//! phase, and whatever it allocates the retiring epoch later frees — at
//! region scale that free used to be most of an install. The budget here
//! is a count, not a timing, so it repeats exactly: at most
//! [`ALLOCATIONS_PER_ROUTE`] heap allocations per installed route, at the
//! default scale and at region scale. The pointer-trie ALPM this replaced
//! made 24.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sailfish_dataplane::{DataplaneConfig, EpochState};
use sailfish_sim::{Topology, TopologyConfig};

const ALLOCATIONS_PER_ROUTE: u64 = 3;

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

fn allocations_per_build(config: TopologyConfig) -> (u64, u64) {
    let topology = Topology::generate(config);
    let dataplane = DataplaneConfig::default();
    let before = ALLOCATIONS.with(Cell::get);
    let state = EpochState::build(&topology, &dataplane, 1);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let routes: usize = state.clusters.iter().map(|c| c.tables.routes.len()).sum();
    assert_eq!(routes, topology.routes.len(), "every route installed once");
    (allocations, routes as u64)
}

#[test]
fn epoch_build_stays_within_its_allocation_budget() {
    for (scale, config) in [
        ("default", TopologyConfig::default()),
        ("region", TopologyConfig::region_scale()),
    ] {
        let (allocations, routes) = allocations_per_build(config);
        println!("{scale}: {allocations} allocations for {routes} routes");
        assert!(
            allocations <= ALLOCATIONS_PER_ROUTE * routes,
            "{scale}: {allocations} allocations for {routes} routes"
        );
    }
}
