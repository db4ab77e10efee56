//! Allocation footprint guards for pristine devices.
//!
//! A pristine paper-scale device (262,144 blocks of 196 pages) must cost
//! kilobytes: the flash array keeps records for touched blocks only. A dense
//! per-block or per-page column would put tens of MiB back on every fresh
//! device and every checkpoint import, and these tests would catch it. A
//! counting global allocator sums the bytes each step requests on the
//! calling thread (frees are not subtracted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use conduit_sim::{DeviceState, SsdDevice, DEVICE_STATE_MAGIC};
use conduit_types::SsdConfig;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// destructor-free thread-local, so touching it cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates on this thread, with its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const BUDGET: u64 = 1 << 20;

#[test]
fn a_pristine_paper_scale_device_allocates_under_a_mebibyte() {
    let cfg = SsdConfig::default();
    assert_eq!(
        cfg.flash.capacity_bytes() / cfg.flash.page_bytes,
        262_144 * 196
    );
    let (device, bytes) = allocated_by(|| SsdDevice::new(&cfg).unwrap());
    assert!(
        bytes < BUDGET,
        "SsdDevice::new allocated {bytes} B at paper scale"
    );
    drop(device);
}

#[test]
fn importing_a_pristine_checkpoint_allocates_under_a_mebibyte() {
    let cfg = SsdConfig::default();
    let blob = DeviceState::new(&cfg).unwrap().to_bytes();
    assert_eq!(blob[..4], DEVICE_STATE_MAGIC);
    let (state, bytes) = allocated_by(|| DeviceState::from_bytes(&cfg, &blob).unwrap());
    assert!(
        bytes < BUDGET,
        "CDS3 import allocated {bytes} B at paper scale"
    );
    drop(state);
}
