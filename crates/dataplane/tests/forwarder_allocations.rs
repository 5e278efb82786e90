//! Allocation budget of the x86 forwarder's set-up.
//!
//! `software_forwarder` fills the x86 tier's full copy of the routing
//! and VM-NC tables from a topology; every benchmark set-up and every
//! experiment that punts builds one, and whatever it allocates is later
//! freed. The budget is a count, not a timing, so it repeats exactly: at
//! most [`ALLOCATION_BUDGET`] heap allocations at the default scale and at
//! region scale alike, since every route sits in one map sized up front
//! and the VM plane is one bulk load (a one-`Box`-per-prefix-bit trie
//! and VM-by-VM inserts made 11.6 per route at region scale; two hash
//! maps per VNI made 0.59).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sailfish_dataplane::executor::software_forwarder;
use sailfish_sim::{Topology, TopologyConfig};

const ALLOCATION_BUDGET: u64 = 64;

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

#[test]
fn software_forwarder_stays_within_its_allocation_budget() {
    for (scale, config) in [
        ("default", TopologyConfig::default()),
        ("region", TopologyConfig::region_scale()),
    ] {
        let topology = Topology::generate(config);
        let routes = topology.routes.len() as u64;
        let before = ALLOCATIONS.with(Cell::get);
        let forwarder = software_forwarder(&topology);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        drop(forwarder);
        println!(
            "{scale}: {allocations} allocations for {routes} routes and {} VMs",
            topology.vms.len()
        );
        assert!(
            allocations <= ALLOCATION_BUDGET,
            "{scale}: {allocations} allocations for {routes} routes"
        );
    }
}
