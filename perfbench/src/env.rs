//! The run environment printed with every result, and the process's memory
//! figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use conduit_types::SsdConfig;

use crate::cli::Config;

/// The host's available parallelism (1 when it cannot be queried).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line describing the host, the run settings and the simulated SSD.
pub fn describe(cfg: &Config, ssd: &SsdConfig, shards: usize, workers_per_shard: usize) -> String {
    let f = &ssd.flash;
    let scale = if cfg.reduced {
        "test (1,1)"
    } else {
        "paper (4,1)"
    };
    format!(
        "# env: workload {} seed {} seconds {} trace {} available_parallelism {} \
         workers {} shards {shards} workers_per_shard {workers_per_shard} revision {} \
         scale {scale} geometry {}ch x {}die x {}plane x {}blk x {}pg x {}B",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cores(),
        cfg.workers,
        revision(),
        f.channels,
        f.dies_per_channel,
        f.planes_per_die,
        f.blocks_per_plane,
        f.pages_per_block,
        f.page_bytes,
    )
}

/// The git revision of the working directory, read from `.git` without
/// running git; `unknown` outside a repository.
fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_owned())
            .or_else(|_| packed_ref(reference))
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn packed_ref(reference: &str) -> Result<String, std::io::Error> {
    let packed = std::fs::read_to_string(".git/packed-refs")?;
    packed
        .lines()
        .find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == reference).then(|| rev.to_owned())
        })
        .ok_or_else(|| std::io::Error::other("ref not found"))
}

/// The system allocator, counting live and peak heap bytes. The live heap
/// between passes repeats from run to run, where the resident set (`VmHWM`)
/// swings by tens of percent.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters are statistics that publish no other data, so `Relaxed`
// suffices.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the bookkeeping only touches
// atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

/// Live heap of this process now, in MiB.
pub fn live_heap_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak live heap of this process so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
