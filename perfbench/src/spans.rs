//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans are aggregated in memory per layer name (total host time and call
//! count) and read out when the run ends. With tracing off every method is
//! a no-op, so the untraced sections time the bare calls.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its host time to the span `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Adds one call of `secs` host seconds to the span `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        if self.enabled {
            let entry = self.totals.entry(name).or_default();
            entry.0 += secs;
            entry.1 += 1;
        }
    }

    /// Folds another recorder's spans (a mirror thread's) into this one.
    pub fn merge(&mut self, other: &Spans) {
        for (name, (secs, calls)) in &other.totals {
            let entry = self.totals.entry(name).or_default();
            entry.0 += secs;
            entry.1 += calls;
        }
    }

    /// Divides every span recorded so far by `n`: the set-up spans of `n`
    /// repeated set-ups become per-set-up figures.
    pub fn scale_setup(&mut self, n: f64) {
        for entry in self.totals.values_mut() {
            entry.0 /= n;
            entry.1 = (entry.1 as f64 / n).round() as u64;
        }
    }

    /// Total host seconds of the span `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |e| e.1)
    }

    /// Every span as `(name, seconds, calls)`.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        self.totals
            .iter()
            .map(|(name, (secs, calls))| (*name, *secs, *calls))
    }
}
