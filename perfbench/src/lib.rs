//! The repository benchmark for the Conduit NDP-SSD reproduction.
//!
//! Three workloads time the simulator through its public API:
//!
//! * `fresh-sweep` — every paper workload × policy pair as one
//!   `Session::submit_batch` on fresh devices (the `repro all` path);
//! * `warm-rw` — a closed loop of lone `Session::submit` calls on aged,
//!   reduced-capacity warm devices whose tenants alternate Conduit and
//!   HostCpu, so every switch flushes dirty pages through the FTL;
//! * `fleet-replay` — a seeded multi-tenant CTR1 trace replayed through a
//!   two-shard `Fleet`, with a mid-trace `Fleet::rebalance`.
//!
//! A run sets up [`SETUPS`] times (the median is `setup_s`), measures for
//! the requested number of seconds, checks the simulated outputs, and
//! returns an [`Outcome`] whose metrics the binary prints as one JSON line.
//! End-to-end host times are in reference seconds (see [`calib`]): each
//! set-up and pass is scaled by a host-speed probe run right after it.
//! With tracing on, half the time is measured untraced and half traced: the
//! traced half wraps spans around the calls into each layer and, for
//! `fresh-sweep` and `warm-rw`, re-executes every request through the
//! engine's public functions (device construction, `prepare`, strip
//! planning, the run loop) to attribute host time per layer.

pub mod calib;
pub mod cli;
pub mod env;
mod fleet;
mod fresh;
pub mod metrics;
mod spans;
mod warm;

use std::time::{Duration as HostDuration, Instant};

use calib::Calibrator;
use conduit::OffloadMix;
use conduit_sim::{CostBreakdown, DeviceSnapshot};
use conduit_types::{Duration, SsdConfig, VectorProgram};
use conduit_vectorizer::Vectorizer;
use conduit_workloads::{Scale, Workload as PaperWorkload};

pub use cli::{Config, Workload};

#[global_allocator]
static ALLOCATOR: env::CountingAlloc = env::CountingAlloc;
use metrics::Metrics;
use spans::Spans;

/// How many times a run builds its set-up; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// The paper's headline ratios that `repro headline` prints, as
/// `(label, paper value)`.
pub const PAPER_HEADLINE: [(&str, f64); 4] = [
    ("Conduit/CPU speedup", 4.2),
    ("Conduit/DM-Offloading speedup", 1.8),
    ("Conduit/DM-Offloading energy", 0.54),
    ("Ideal/Conduit time", 0.62),
];

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed and every metric was emitted.
    pub correct: bool,
    /// Layer calls attempted in the timed sections.
    pub attempted: u64,
    /// Layer calls in the timed sections that returned `Err`.
    pub failed: u64,
    /// Every metric of the run's mode, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines (environment, reference results, failures,
    /// check results) printed before the JSON line.
    pub report: Vec<String>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// FNV-1a digest of the simulated outputs of one pass: equal across
    /// passes, traced and untraced runs, and worker counts.
    pub sim_digest: u64,
    /// Digest of the generated inputs (the fleet trace's CTR1 bytes, the
    /// warm schedule, the fresh submission order).
    pub input_digest: u64,
}

/// Shared state of one run: configuration, spans, call accounting, checks.
pub(crate) struct Ctx {
    pub cfg: Config,
    pub spans: Spans,
    pub metrics: Metrics,
    pub report: Vec<String>,
    pub problems: Vec<String>,
    /// Layer-call accounting of the timed sections (see [`Ctx::call`]).
    pub attempted: u64,
    pub failed: u64,
    counting: bool,
    pub sim_digest: u64,
    pub input_digest: u64,
    /// Live heap samples between passes (see [`Ctx::mark_heap`]).
    pub heap_samples: Vec<f64>,
    calibrator: Calibrator,
    /// The heap the probe keeps, left out of the heap samples.
    probe_heap_mb: f64,
    /// Every host-speed factor [`Ctx::host_speed`] returned.
    speeds: Vec<f64>,
}

impl Ctx {
    fn new(cfg: Config) -> Self {
        let before = env::live_heap_mb();
        let calibrator = Calibrator::default();
        let probe_heap_mb = env::live_heap_mb() - before;
        Ctx {
            spans: Spans::new(cfg.trace),
            cfg,
            metrics: Metrics::default(),
            report: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            counting: false,
            sim_digest: 0,
            input_digest: 0,
            heap_samples: Vec::new(),
            calibrator,
            probe_heap_mb,
            speeds: Vec::new(),
        }
    }

    /// Runs the host-speed probe and returns the factor that converts the
    /// host seconds just measured into reference seconds. Call it right
    /// after a timed interval, never inside one.
    pub fn host_speed(&mut self) -> f64 {
        let speed = self.calibrator.speed();
        self.speeds.push(speed);
        speed
    }

    /// Samples the live heap at a quiescent point (after set-up or a pass):
    /// what the process retains between requests — devices, caches,
    /// registries — without the in-flight buffers whose overlap depends on
    /// thread timing. The host-speed probe's own heap is left out.
    pub fn mark_heap(&mut self) {
        self.heap_samples
            .push(env::live_heap_mb() - self.probe_heap_mb);
    }

    /// The workload scale: paper scale, or the reduced self-test scale.
    pub fn scale(&self) -> Scale {
        if self.cfg.reduced {
            Scale::test()
        } else {
            Scale::new(4, 1)
        }
    }

    /// Accounts one layer call's result. Calls made while a timed section
    /// is open count towards `attempted`/`failed`; an error outside one
    /// (set-up, checks) is a failed check.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        if self.counting {
            self.attempted += 1;
        }
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                if self.counting {
                    self.failed += 1;
                } else {
                    self.problem(format!("{what} failed: {e}"));
                }
                None
            }
        }
    }

    /// Opens or closes a timed section's call accounting.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    pub fn problem(&mut self, line: String) {
        if self.problems.len() < 32 {
            self.problems.push(line);
        }
    }

    /// Checks `a == b`, recording `what` as a failed check otherwise.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.problem(format!("{what}: {a:?} != {b:?}"));
        }
    }

    /// Records the simulated-output digest of one pass; every later pass
    /// must reproduce it.
    pub fn pass_digest(&mut self, digest: u64) {
        if self.sim_digest == 0 {
            self.sim_digest = digest;
        } else if self.sim_digest != digest {
            self.problem(format!(
                "simulated outputs differ between passes: {:#018x} != {digest:#018x}",
                self.sim_digest
            ));
        }
    }

    /// Reports the headline ratios this workload measures beside the paper's.
    pub fn reference(&mut self, measured: &[(usize, f64)]) -> f64 {
        self.report.push(
            "# reference: the paper's headline numbers beside the simulated ones; \
             the model is otherwise unvalidated"
                .into(),
        );
        let mut errors = Vec::new();
        for &(i, sim) in measured {
            let (label, paper) = PAPER_HEADLINE[i];
            let err = (sim / paper).ln().abs();
            errors.push(err);
            self.report.push(format!(
                "# reference: {label}: sim {sim:.4} paper {paper} |ln(sim/paper)| {err:.4}"
            ));
        }
        mean(&errors)
    }
}

/// Runs one benchmark invocation.
pub fn run(cfg: Config) -> Outcome {
    let mut ctx = Ctx::new(cfg);
    if ctx.cfg.trace {
        // Layers a workload does not exercise report 0.
        for def in metrics::PER_LAYER {
            ctx.metrics.set(def.name, 0.0);
        }
    }
    let workload = ctx.cfg.workload;
    let result = match workload {
        Workload::FreshSweep => fresh::run(&mut ctx),
        Workload::WarmRw => warm::run(&mut ctx),
        Workload::FleetReplay => fleet::run(&mut ctx),
    };
    if let Err(e) = result {
        ctx.problem(format!("{workload}: {e}"));
    }
    if !ctx.cfg.trace {
        // Untraced runs count only the untraced section's calls.
        let failed = ratio(ctx.failed as f64, ctx.attempted as f64);
        ctx.metrics.set("ok_frac", 1.0 - failed);
        ctx.metrics.set("heap_mb", median(&ctx.heap_samples));
    }
    if !ctx.speeds.is_empty() {
        ctx.report.push(format!(
            "# host speed: {} probes, reference seconds per host second: median {:.4}, \
             quartiles {:.4} and {:.4}",
            ctx.speeds.len(),
            median(&ctx.speeds),
            quantile(&ctx.speeds, 0.25),
            quantile(&ctx.speeds, 0.75)
        ));
    }
    ctx.report.push(format!(
        "# memory: live heap between passes {:.3} MiB (median), peak live heap {:.3} MiB, \
         peak resident set {:.3} MiB",
        median(&ctx.heap_samples),
        env::peak_heap_mb(),
        env::peak_rss_mb()
    ));
    let (metrics, missing) = ctx.metrics.finish(ctx.cfg.trace);
    for line in missing {
        ctx.problem(line);
    }
    Outcome {
        correct: ctx.problems.is_empty(),
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        report: ctx.report,
        problems: ctx.problems,
        sim_digest: ctx.sim_digest,
        input_digest: ctx.input_digest,
    }
}

/// Builds a set-up [`SETUPS`] times and returns the last one with the
/// median set-up time in reference seconds.
pub(crate) fn repeated_setup<T>(
    ctx: &mut Ctx,
    mut build: impl FnMut(&mut Ctx) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(last.take());
        let start = Instant::now();
        let built = build(ctx)?;
        let host_secs = secs(start.elapsed());
        times.push(host_secs * ctx.host_speed());
        ctx.mark_heap();
        last = Some(built);
    }
    ctx.spans.scale_setup(SETUPS as f64);
    let built = last.ok_or("no set-up was built")?;
    Ok((built, median(&times)))
}

/// The time budget of the untraced and traced sections of a run.
pub(crate) fn sections(cfg: &Config) -> (HostDuration, HostDuration) {
    let total = HostDuration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        (total / 2, total / 2)
    } else {
        (total, HostDuration::ZERO)
    }
}

/// The simulated SSD for `fresh-sweep` and `fleet-replay`.
pub(crate) fn full_ssd(ctx: &Ctx) -> SsdConfig {
    if ctx.cfg.reduced {
        SsdConfig::small_for_tests()
    } else {
        SsdConfig::default()
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (0 for an empty slice).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of `numerator / denominator` over the pairs whose parts
/// are both positive.
pub(crate) fn gmean_ratio(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(n, d)| *n > 0.0 && *d > 0.0)
        .map(|(n, d)| n / d)
        .collect();
    conduit::gmean(&ratios)
}

pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Simulated milliseconds at quantile `q` of a set of durations.
pub(crate) fn sim_quantile_ms(times: &[Duration], q: f64) -> f64 {
    let ms: Vec<f64> = times.iter().map(|t| t.as_ms()).collect();
    quantile(&ms, q)
}

/// `part / whole`, or 0 when `whole` is 0.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// splitmix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Incremental FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(conduit_types::bytes::fnv1a(bytes))
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the simulated fields of a run summary.
pub(crate) fn digest_summary(d: &mut Digest, s: &conduit::RunSummary) {
    d.u64(s.instructions as u64)
        .u64(s.total_time.as_ps())
        .u64(s.queueing_time.as_ps())
        .f64(s.total_energy.as_nj())
        .u64(s.offload_mix.host)
        .u64(s.offload_mix.isp)
        .u64(s.offload_mix.pud)
        .u64(s.offload_mix.ifp)
        .u64(s.breakdown.compute.as_ps())
        .u64(s.breakdown.host_data_movement.as_ps())
        .u64(s.breakdown.internal_data_movement.as_ps())
        .u64(s.breakdown.flash_array.as_ps())
        .u64(s.latency.percentile(0.99).as_ps())
        .u64(s.device_delta.device_ops)
        .u64(s.device_delta.rewrites)
        .u64(s.device_delta.gc_invocations)
        .u64(s.device_delta.coherence_syncs);
}

/// Checks that a mirrored engine run reproduces the session's summary.
pub(crate) fn check_mirror(
    ctx: &mut Ctx,
    what: &str,
    summary: &conduit::RunSummary,
    report: &conduit::RunReport,
    device_ops: u64,
) {
    let same = report.instructions == summary.instructions
        && report.total_time == summary.service_time
        && report.energy.total() == summary.total_energy
        && report.offload_mix == summary.offload_mix
        && report.breakdown == summary.breakdown
        && report.latency == summary.latency
        && device_ops == summary.device_delta.device_ops;
    if !same {
        ctx.problem(format!(
            "{what}: the engine mirror diverged from Session::submit ({} vs {} sim ms)",
            report.total_time.as_ms(),
            summary.service_time.as_ms()
        ));
    }
}

/// Builds a paper workload's kernel and vectorizes it, timing both as the
/// vectorizer layer.
pub(crate) fn vectorize(ctx: &mut Ctx, workload: PaperWorkload) -> Result<VectorProgram, String> {
    let scale = ctx.scale();
    ctx.spans
        .time("vectorizer", || {
            Vectorizer::default().vectorize(&workload.kernel(scale))
        })
        .map(|out| out.program)
        .map_err(|e| format!("vectorizing {workload}: {e}"))
}

/// Device-side work summed over requests, from snapshot differences.
#[derive(Debug, Default, Clone)]
pub(crate) struct DeviceWork {
    pub requests: f64,
    pub instructions: f64,
    pub pages_placed: f64,
    pub rewrites: f64,
    pub coherence_syncs: f64,
    pub gc_invocations: f64,
    pub gc_pages_migrated: f64,
    pub gc_blocks_erased: f64,
    pub wear_swaps: f64,
    pub l2p_hits: f64,
    pub l2p_misses: f64,
    pub device_ops: f64,
    pub out_of_space: f64,
    /// Conduit requests' placements and time breakdown.
    pub offload: OffloadMix,
    pub breakdown: CostBreakdown,
}

impl DeviceWork {
    /// Adds the work a device did between two snapshots.
    pub fn add_delta(&mut self, before: &DeviceSnapshot, after: &DeviceSnapshot) {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        self.rewrites += d(after.rewrites, before.rewrites);
        self.coherence_syncs += d(after.coherence_syncs, before.coherence_syncs);
        self.gc_invocations += d(after.gc_invocations, before.gc_invocations);
        self.gc_pages_migrated += d(after.gc_pages_migrated, before.gc_pages_migrated);
        self.gc_blocks_erased += d(after.gc_blocks_erased, before.gc_blocks_erased);
        self.wear_swaps += d(after.wear_leveling_swaps, before.wear_leveling_swaps);
        self.l2p_hits += d(after.l2p_hits, before.l2p_hits);
        self.l2p_misses += d(after.l2p_misses, before.l2p_misses);
        self.device_ops += d(after.device_ops, before.device_ops);
    }

    /// Adds a Conduit request's placement mix and time breakdown.
    pub fn add_conduit(&mut self, offload: &OffloadMix, breakdown: &CostBreakdown) {
        self.offload.host += offload.host;
        self.offload.isp += offload.isp;
        self.offload.pud += offload.pud;
        self.offload.ifp += offload.ifp;
        self.breakdown.accumulate(*breakdown);
    }

    /// Publishes the per-request FTL/simulator counters and the Conduit
    /// placement and breakdown fractions.
    pub fn publish(&self, metrics: &mut Metrics) {
        let per_req = |v: f64| ratio(v, self.requests);
        metrics.set("ftl.pages_placed", per_req(self.pages_placed));
        metrics.set("ftl.rewrites", per_req(self.rewrites));
        metrics.set("ftl.coherence_syncs", per_req(self.coherence_syncs));
        metrics.set("ftl.gc_invocations", per_req(self.gc_invocations));
        metrics.set("ftl.gc_pages_migrated", per_req(self.gc_pages_migrated));
        metrics.set("ftl.gc_blocks_erased", per_req(self.gc_blocks_erased));
        metrics.set("ftl.wear_swaps", per_req(self.wear_swaps));
        metrics.set("ftl.out_of_space", per_req(self.out_of_space));
        metrics.set(
            "ftl.l2p_miss_rate",
            ratio(self.l2p_misses, self.l2p_hits + self.l2p_misses),
        );
        metrics.set("sim.device_ops", per_req(self.device_ops));
        metrics.set(
            "sim.ops_per_inst",
            ratio(self.device_ops, self.instructions),
        );
        let o = &self.offload;
        let placed = (o.host + o.isp + o.pud + o.ifp) as f64;
        metrics.set("core.offload.host", ratio(o.host as f64, placed));
        metrics.set("core.offload.isp", ratio(o.isp as f64, placed));
        metrics.set("core.offload.pud", ratio(o.pud as f64, placed));
        metrics.set("core.offload.ifp", ratio(o.ifp as f64, placed));
        let (compute, host_dm, internal_dm, flash) = self.breakdown.fractions();
        metrics.set("core.breakdown.compute", compute);
        metrics.set("core.breakdown.host_dm", host_dm);
        metrics.set("core.breakdown.internal_dm", internal_dm);
        metrics.set("core.breakdown.flash", flash);
    }
}

/// Per-pass host figures of a timed section.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Pass {
    /// Reference seconds: `host_secs` times the host-speed factor measured
    /// right after the pass.
    pub secs: f64,
    pub host_secs: f64,
    pub instructions: f64,
    pub device_ops: f64,
    pub requests: f64,
}

/// A pass's host time, converted to reference seconds chunk by chunk: the
/// host-speed probe runs after each chunk of calls and scales that chunk,
/// so a pass longer than the host's speed swings is still tracked.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RefClock {
    pub host_secs: f64,
    pub ref_secs: f64,
    chunk: f64,
}

impl RefClock {
    /// Adds a timed call's host seconds to the open chunk.
    pub fn add(&mut self, host_secs: f64) {
        self.host_secs += host_secs;
        self.chunk += host_secs;
    }

    /// Closes the open chunk and returns the host-speed factor that scaled
    /// it. Call it between timed calls, never inside one.
    pub fn close(&mut self, ctx: &mut Ctx) -> f64 {
        let speed = ctx.host_speed();
        self.ref_secs += self.chunk * speed;
        self.chunk = 0.0;
        speed
    }
}

/// Publishes the host throughput metrics as medians over passes, in
/// reference seconds, and reports `inst_per_s` in host seconds beside them.
pub(crate) fn publish_throughput(ctx: &mut Ctx, passes: &[Pass]) {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let metrics = &mut ctx.metrics;
    metrics.set("inst_per_s", per(&|p| ratio(p.instructions, p.secs)));
    metrics.set("ns_per_op", per(&|p| ratio(p.secs * 1e9, p.device_ops)));
    metrics.set("req_per_s", per(&|p| ratio(p.requests, p.secs)));
    ctx.report.push(format!(
        "# host speed: inst_per_s {:.1} per reference second, {:.1} per host second",
        per(&|p| ratio(p.instructions, p.secs)),
        per(&|p| ratio(p.instructions, p.host_secs)),
    ));
}

/// Publishes the host time per request, `req_p50_ms` and `req_p99_ms`.
///
/// Passes `k` and `k + period` serve the same requests in the same order,
/// so each request's host time is first taken as its median over the
/// passes that serve it; the quantiles are then over requests. A burst of
/// host interference in a few passes thus moves no request's time.
pub(crate) fn publish_request_latency(metrics: &mut Metrics, per_pass: &[Vec<f64>], period: usize) {
    let mut typical = Vec::new();
    for class in 0..period.min(per_pass.len()) {
        let passes: Vec<&Vec<f64>> = per_pass.iter().skip(class).step_by(period).collect();
        let len = passes.iter().map(|p| p.len()).min().unwrap_or(0);
        typical.extend((0..len).map(|j| median(&passes.iter().map(|p| p[j]).collect::<Vec<_>>())));
    }
    metrics.set("req_p50_ms", quantile(&typical, 0.5));
    metrics.set("req_p99_ms", quantile(&typical, 0.99));
}

/// Median instructions per host second over passes.
pub(crate) fn inst_rate(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| ratio(p.instructions, p.secs))
            .collect::<Vec<_>>(),
    )
}

/// Publishes `trace.overhead_pct`: how much slower the traced section's
/// session path ran than the untraced section, in percent.
pub(crate) fn publish_overhead(metrics: &mut Metrics, untraced: &[Pass], traced: &[Pass]) {
    let traced_rate = inst_rate(traced);
    metrics.set(
        "trace.overhead_pct",
        (ratio(inst_rate(untraced), traced_rate) - 1.0) * 100.0,
    );
}

/// Host seconds as `f64`.
pub(crate) fn secs(d: HostDuration) -> f64 {
    d.as_secs_f64()
}
