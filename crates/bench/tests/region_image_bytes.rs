//! Memory budget of a region's gateway clusters.
//!
//! The devices of a cluster "maintain the same table entries" (§4.3), so
//! they share one table image, and a backup shares its primary's. At the
//! Figs 20–22 region (four 3-device clusters plus four backups) the
//! clusters then hold four images, not 24 table copies. The entry-by-entry
//! installer that kept one copy per device held 9.9 MiB here; the budget
//! is a third of that.
//!
//! The four XGW-x86 fallback nodes likewise share one full-region image,
//! and each SNAT table hands its port pool out lazily. One table set per
//! node, each with its pool listed up front, held 23 537 568 bytes here;
//! the budget is a quarter of that.
//!
//! At region scale (25k VPCs, ≈229k routes, ≈459k VMs) every table
//! image is stored at the bytes its entries need: each per-VNI ALPM
//! plane as an exact-size copy of the scratch table it was filled in,
//! and each VM-NC slot as the tag, the address bits and the value. An
//! `EpochState` held 80.4 MiB and the x86 image 61.9 MiB while ALPM
//! arrays kept the room they grew into and a slot held a second copy of
//! the key; now they hold 52.2 and 54.0. The x86 image's routes then
//! lived in a pair of hash maps per VNI (≈25k VNIs, 24.9 MiB in 131,866
//! allocations); they now share one flat route map and a small record per
//! VNI, and the image holds 38.9 MiB (seeds 2021 and 7 alike). The
//! budgets are those plus about 2%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sailfish_bench::scale;
use sailfish_cluster::cluster::software_image;
use sailfish_dataplane::{DataplaneConfig, EpochState};
use sailfish_sim::{Topology, TopologyConfig};

const BUDGET_BYTES: u64 = 9_900 * 1024 * 1024 / 1000 / 3;
const SW_BUDGET_BYTES: u64 = 23_537_568 / 4;
const EPOCH_BUDGET_MIB: f64 = 53.2;
const X86_IMAGE_BUDGET_MIB: f64 = 39.6;

struct CountingAllocator;

thread_local! {
    // Per thread, so the harness's own threads never count; `const`
    // initialisation keeps the allocator from recursing into a lazy init.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn charge(bytes: usize, sign: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + sign * bytes as i64));
}

// SAFETY: every call is forwarded to `System` with the caller's layout
// and pointer unchanged; the only addition is a thread-local counter,
// which touches no allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), 1);
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size(), 1);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(layout.size(), -1);
        // SAFETY: `ptr` came from `System` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(layout.size(), -1);
        charge(new_size, 1);
        // SAFETY: pointer, layout and size are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn region_clusters_hold_one_image_each() {
    let (mut region, _flows) = scale::sailfish_region(0.0);
    // What the clusters hold is what dropping them frees.
    let before = LIVE_BYTES.with(Cell::get);
    drop(std::mem::take(&mut region.hw));
    let held = (before - LIVE_BYTES.with(Cell::get)) as u64;
    println!(
        "region.hw holds {held} bytes ({:.2} MiB), budget {BUDGET_BYTES}",
        held as f64 / (1024.0 * 1024.0)
    );
    assert!(held <= BUDGET_BYTES, "region.hw holds {held} bytes");
}

#[test]
fn region_x86_fleet_holds_one_image() {
    let (region, _flows) = scale::sailfish_region(0.0);
    let before = LIVE_BYTES.with(Cell::get);
    drop(region.sw);
    let held = (before - LIVE_BYTES.with(Cell::get)) as u64;
    println!(
        "region.sw holds {held} bytes ({:.2} MiB), budget {SW_BUDGET_BYTES}",
        held as f64 / (1024.0 * 1024.0)
    );
    assert!(held <= SW_BUDGET_BYTES, "region.sw holds {held} bytes");
}

/// Live bytes `build` leaves allocated on this thread, in MiB.
fn held_mib<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE_BYTES.with(Cell::get);
    let built = build();
    let held = LIVE_BYTES.with(Cell::get) - before;
    (built, held as f64 / (1024.0 * 1024.0))
}

#[test]
fn region_images_hold_the_bytes_their_entries_need() {
    let topology = Topology::generate(TopologyConfig::region_scale());
    let (state, epoch_mib) =
        held_mib(|| EpochState::build(&topology, &DataplaneConfig::default(), 1));
    drop(state);
    let (image, x86_mib) = held_mib(|| software_image(&topology));
    assert!(image.is_ok(), "the region's VM run is refused");
    println!(
        "region EpochState holds {epoch_mib:.2} MiB (budget {EPOCH_BUDGET_MIB}), \
         x86 image {x86_mib:.2} MiB (budget {X86_IMAGE_BUDGET_MIB})"
    );
    assert!(
        epoch_mib <= EPOCH_BUDGET_MIB,
        "EpochState holds {epoch_mib:.2} MiB"
    );
    assert!(
        x86_mib <= X86_IMAGE_BUDGET_MIB,
        "x86 image holds {x86_mib:.2} MiB"
    );
}
