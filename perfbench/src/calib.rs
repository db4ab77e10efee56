//! Host-speed calibration.
//!
//! A shared host runs the same code at speeds that drift by 20% and more
//! within seconds and between runs, far more than a run's medians absorb.
//! The benchmark therefore runs a fixed reference probe, which uses no
//! simulator code, right after every set-up and every timed pass, and
//! reports host times in *reference seconds*: the pass's host seconds
//! times [`REFERENCE_SECS`] over the probe's time measured beside it. A
//! change to the simulator cannot move the probe, so it moves the reported
//! times as it moves the raw ones; a slower or faster host moves the pass
//! and the probe alike and mostly cancels out. The `# host speed` line
//! prints the raw figures beside the scaled ones.
//!
//! The probe is the geometric mean of two kernels that slow down under
//! host contention in different ways, because the workloads do too: hashed
//! map updates over a working set of a few hundred KiB (the FTL's tables
//! are std `HashMap`s), and a string-formatting, `BTreeMap` and sorting mix
//! that allocates and runs much library code.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The probe's typical time on the reference host, a 2-vCPU Intel Xeon
/// container at 2.1 GHz. One reference second is the time in which that
/// host runs the probe `1 / REFERENCE_SECS` times.
pub const REFERENCE_SECS: f64 = 0.004;

/// Distinct keys of the hashed-map kernel.
const KEYS: u64 = 1 << 14;

/// Map updates per run of the hashed-map kernel.
const MAP_STEPS: u64 = 120_000;

/// Strings formatted per run of the library-code kernel.
const WORDS: u64 = 6_000;

/// The probe's state, allocated once so that the hashed-map kernel neither
/// allocates nor faults in fresh pages.
pub struct Calibrator {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut calibrator = Calibrator {
            map: HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default()),
        };
        // Warm the caches and the allocator before the first real sample.
        calibrator.probe();
        calibrator
    }
}

impl Calibrator {
    /// Reference seconds per host second now: 1 on the reference host,
    /// below 1 on a slower one.
    pub fn speed(&mut self) -> f64 {
        REFERENCE_SECS / self.probe()
    }

    /// The probe's host seconds: the geometric mean of the two kernels.
    fn probe(&mut self) -> f64 {
        (self.hashed_map() * self.library_code()).sqrt()
    }

    /// Hashed map updates at pseudo-random keys, a data-dependent branch
    /// and floating-point arithmetic, from a fixed seed and a fixed-key
    /// hasher.
    fn hashed_map(&mut self) -> f64 {
        let start = Instant::now();
        self.map.clear();
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut acc = 0.0_f64;
        for step in 0..MAP_STEPS {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let slot = self.map.entry(z % KEYS).or_insert(step);
            *slot = slot.wrapping_add(z >> 7);
            if *slot & 1 == 0 {
                acc += (*slot as f64).sqrt();
            } else {
                acc -= (z % KEYS) as f64 * 0.5;
            }
        }
        black_box((acc, self.map.len()));
        start.elapsed().as_secs_f64()
    }

    /// Formats, counts, sorts and deduplicates a fixed sequence of short
    /// strings.
    fn library_code(&mut self) -> f64 {
        let start = Instant::now();
        let mut counts = BTreeMap::new();
        let mut words = Vec::with_capacity(WORDS as usize);
        let mut state = 0x1234_5678_u64;
        for i in 0..WORDS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let word = format!("t{}-{:x}", i % 97, state >> 40);
            *counts.entry(word.clone()).or_insert(0_u64) += state >> 60;
            words.push(word);
        }
        words.sort_unstable();
        words.dedup();
        black_box((words.len(), counts.len()));
        start.elapsed().as_secs_f64()
    }
}
