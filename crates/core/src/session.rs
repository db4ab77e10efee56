//! The service-level execution API: [`Session`], [`RunRequest`],
//! [`RunSummary`].
//!
//! The runtime engine ([`crate::RuntimeEngine`]) simulates one program on one
//! device; a *server* wants to compile (vectorize) a program once and then
//! execute it under many policies, configurations and request streams. This
//! module is that server surface:
//!
//! * a [`Session`] owns the device/host configuration, a persistent
//!   **program registry**, and a **pool of named warm devices**;
//! * programs are registered once ([`Session::register`] →
//!   [`ProgramId`]) and can be persisted across processes via the compact
//!   registry serialization ([`Session::export_registry`] /
//!   [`Session::import_registry`]), so vectorizer output is never recomputed;
//! * a [`RunRequest`] is a cheap, cloneable description of one run: policy,
//!   cost-function ablation, repeat count, *collection flags* (timeline
//!   on/off, percentile set, energy split), and the device it runs on;
//! * results are split into an always-cheap [`RunSummary`] (times, energy,
//!   offload mix, histogram-backed latency percentiles — constant memory)
//!   and opt-in [`RunArtifacts`] (the full per-instruction timeline);
//! * **fresh** runs (the default) each simulate on a pristine device, so
//!   [`Session::submit_batch`] fans them out across the pool with results
//!   **bit-identical** to running them serially;
//! * **warm** runs target a named device from the session's pool
//!   ([`Session::create_device`] → [`DeviceHandle`],
//!   [`RunRequest::on_device`]): each device's persistent
//!   [`conduit_sim::DeviceState`] (FTL mappings, coherence directory, GC
//!   debt, wear) ages across its request stream. In a batch, each device is
//!   a **FIFO lane** — serial within the device, parallel across devices
//!   and alongside the fresh fan-out — and outcomes stay bit-identical to a
//!   single-worker submission of the same batch. Lane tasks are taken
//!   before fresh ones, so a lane never waits behind the fresh backlog;
//! * requests can arrive **open-loop**: [`RunRequest::arriving_at`] places
//!   a request's arrival on the batch timeline, the device's stream clock
//!   advances to `max(previous finish, arrival)`, and
//!   [`RunSummary::queueing_time`] (arrival-relative waiting behind earlier
//!   requests in the lane) is separated from [`RunSummary::service_time`]
//!   (the run's own execution). The default arrival — the instant the batch
//!   is submitted — preserves closed-loop semantics: request *i* issues at
//!   request *i−1*'s finish time;
//! * device aging is **checkpointable**: [`Session::export_device`]
//!   serializes a device (stream clock + complete
//!   [`conduit_sim::DeviceState`]) into a compact versioned byte stream and
//!   [`Session::import_device`] revives it — in the same session or another
//!   process — with bit-identical replay.
//!
//! # Examples
//!
//! ```
//! use conduit::{Policy, RunRequest, Session};
//! use conduit_types::{OpType, Operand, SsdConfig, VectorProgram};
//!
//! let mut prog = VectorProgram::new("demo");
//! let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
//! prog.push_binary(OpType::Add, Operand::result(x), Operand::page(0));
//!
//! let mut session = Session::builder(SsdConfig::small_for_tests()).build();
//! let id = session.register(prog)?;
//!
//! let outcome = session.submit(&RunRequest::new(id, Policy::Conduit))?;
//! assert_eq!(outcome.summary.instructions, 2);
//! assert!(outcome.artifacts.is_none()); // timelines are opt-in
//!
//! // A pool of named warm devices, one per tenant: each ages independently.
//! let tenant_a = session.create_device("tenant-a");
//! let tenant_b = session.create_device("tenant-b");
//! let batch = session.submit_batch(&[
//!     RunRequest::new(id, Policy::Conduit).on_device(tenant_a),
//!     RunRequest::new(id, Policy::Conduit).on_device(tenant_b),
//!     RunRequest::new(id, Policy::HostCpu).on_device(tenant_a),
//!     RunRequest::new(id, Policy::Ideal), // fresh, fans out alongside
//! ])?;
//! // Lane scheduling: tenant-a's two requests ran serially (the second
//! // queued behind the first on the stream clock); tenant-b ran in
//! // parallel on its own device.
//! assert!(batch[2].summary.queueing_time > conduit_types::Duration::ZERO);
//! assert_eq!(batch[1].summary.queueing_time, conduit_types::Duration::ZERO);
//!
//! // Device-aging checkpoints persist across processes.
//! let bytes = session.export_device(tenant_a)?;
//! let mut other = Session::builder(SsdConfig::small_for_tests()).build();
//! let revived = other.import_device("tenant-a", &bytes)?;
//! assert_eq!(
//!     other.device_snapshot(revived),
//!     session.device_snapshot(tenant_a)
//! );
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use conduit_sim::{
    CostBreakdown, DeviceDelta, DeviceSnapshot, DeviceState, LatencyStats, SsdDevice,
};
use conduit_types::bytes::{put_u16, put_u32, put_u64, Reader};
use conduit_types::{
    ConduitError, Duration, Energy, FaultConfig, HostConfig, Result, SimTime, SsdConfig,
    VectorProgram,
};

use crate::cost::CostFunction;
use crate::engine::{RunOptions, RuntimeEngine};
use crate::policy::Policy;
use crate::report::{EnergySummary, OffloadMix, OverheadReport, RunReport, TimelineEntry};

/// Magic bytes identifying a serialized [`ProgramRegistry`].
pub const REGISTRY_MAGIC: [u8; 4] = *b"CPR1";

/// Current registry serialization format version.
pub const REGISTRY_FORMAT_VERSION: u16 = 1;

/// Magic bytes identifying a device checkpoint exported by
/// [`Session::export_device`] (configuration fingerprint + stream clock +
/// embedded [`conduit_sim::DeviceState`] image).
pub const DEVICE_CHECKPOINT_MAGIC: [u8; 4] = *b"CDK1";

/// Current device-checkpoint format version. Version 3 wraps the version-3
/// [`conduit_sim::DeviceState`] image (sparse resource timelines, the
/// fault-injection plan cursor, retired-block accounting and device health),
/// so a degraded device survives export/import bit-identically. Like
/// version 2 it embeds the exporting session's combined configuration
/// fingerprint ([`SsdConfig::fingerprint`] +
/// [`conduit_types::HostConfig::fingerprint`] — host rooflines shape a warm
/// stream's clocks too), so importing a checkpoint into a session with
/// *any* configuration difference — even one with the same geometry, where
/// the shape checks cannot tell — is a hard
/// [`ConduitError::CorruptCheckpoint`] instead of a silent timing mismatch.
pub const DEVICE_CHECKPOINT_FORMAT_VERSION: u16 = 3;

/// Format version of legacy fingerprinted checkpoints wrapping a version-2
/// device-state image (no fault state, dense resource timelines). Still
/// importable; no longer written.
pub const DEVICE_CHECKPOINT_FORMAT_VERSION_V2: u16 = 2;

/// Format version of legacy checkpoints without a configuration
/// fingerprint. Still importable ([`Session::import_device`] falls back to
/// the structural shape check); no longer written.
pub const DEVICE_CHECKPOINT_FORMAT_VERSION_V1: u16 = 1;

/// The percentile set collected when a request does not override it.
pub const DEFAULT_PERCENTILES: [f64; 3] = [0.50, 0.99, 0.9999];

/// Handle to a program registered in a [`Session`]'s [`ProgramRegistry`].
///
/// Ids are dense indices in registration order, so they stay valid across
/// [`Session::export_registry`] / [`Session::import_registry`] round trips
/// into a fresh session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramId(u32);

impl ProgramId {
    /// The dense registration-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProgramId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Handle to a named warm device in a [`Session`]'s device pool.
///
/// Minted by [`Session::create_device`] / [`Session::import_device`].
/// Handles are dense indices in creation order and are only meaningful
/// within the session that minted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceHandle(u32);

impl DeviceHandle {
    /// The dense creation-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An ordered, **content-addressed** collection of validated, reusable
/// [`VectorProgram`]s.
///
/// Programs are stored behind [`Arc`] so batch fan-out shares them across
/// worker threads without copying instruction streams. Registration dedupes
/// by content: registering (or importing) a program whose serialized bytes
/// match an already-registered one returns the existing [`ProgramId`]
/// instead of storing a second copy, so a fleet of sessions importing the
/// same program store converges on one entry per distinct program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramRegistry {
    programs: Vec<Arc<VectorProgram>>,
    /// Content hash (FNV-1a over [`VectorProgram::to_bytes`]) → ids with
    /// that hash. Collisions are resolved by comparing the programs.
    by_hash: HashMap<u64, Vec<ProgramId>>,
}

/// FNV-1a over a program's compact serialization: the content address used
/// by [`ProgramRegistry`] deduplication (the shared workspace hash, also
/// behind [`SsdConfig::fingerprint`]).
fn content_hash(bytes: &[u8]) -> u64 {
    conduit_types::bytes::fnv1a(bytes)
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ProgramRegistry::default()
    }

    /// Validates and registers a program, returning its handle. If an
    /// identical program (same serialized content) is already registered,
    /// its existing handle is returned and nothing is stored.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] if the program fails
    /// [`VectorProgram::validate`].
    pub fn register(&mut self, program: VectorProgram) -> Result<ProgramId> {
        program.validate().map_err(ConduitError::invalid_program)?;
        Ok(self.insert_deduped(Arc::new(program)))
    }

    /// Stores `program` unless an identical one already exists; returns the
    /// canonical id either way.
    fn insert_deduped(&mut self, program: Arc<VectorProgram>) -> ProgramId {
        let hash = content_hash(&program.to_bytes());
        if let Some(candidates) = self.by_hash.get(&hash) {
            for &id in candidates {
                if *self.programs[id.index()] == *program {
                    return id;
                }
            }
        }
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(program);
        self.by_hash.entry(hash).or_default().push(id);
        id
    }

    /// Stores `program` unconditionally at the next id. Used when decoding
    /// a serialized registry: version-1 byte streams written before content
    /// addressing may legally contain duplicates, and callers that
    /// persisted [`ProgramId`]s alongside the bytes rely on ids staying
    /// positional — deduplication happens at the [`Session`] boundary
    /// ([`Session::import_registry`]), which returns the id mapping.
    fn insert_positional(&mut self, program: Arc<VectorProgram>) {
        let hash = content_hash(&program.to_bytes());
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(program);
        self.by_hash.entry(hash).or_default().push(id);
    }

    /// The program behind a handle, if registered.
    pub fn get(&self, id: ProgramId) -> Option<&Arc<VectorProgram>> {
        self.programs.get(id.index())
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Iterator over `(id, program)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ProgramId, &VectorProgram)> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProgramId(i as u32), p.as_ref()))
    }

    /// Serializes every registered program into one compact byte stream
    /// (magic + version + count, then each program via
    /// [`VectorProgram::to_bytes`] behind a `u32` length).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&REGISTRY_MAGIC);
        put_u16(&mut out, REGISTRY_FORMAT_VERSION);
        put_u32(&mut out, self.programs.len() as u32);
        for program in &self.programs {
            let bytes = program.to_bytes();
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Decodes a registry serialized by [`ProgramRegistry::to_bytes`].
    /// Programs keep their serialized positions (ids are stable even for
    /// pre-content-addressing streams that contain duplicates); merging
    /// with deduplication is [`Session::import_registry`]'s job.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for a bad magic/version,
    /// truncation, trailing bytes, or any embedded program that fails to
    /// decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramRegistry> {
        let corrupt =
            |reason: &str| ConduitError::invalid_program(format!("serialized registry: {reason}"));
        if bytes.len() < 4 || bytes[..4] != REGISTRY_MAGIC {
            return Err(corrupt("bad magic"));
        }
        // The shared Reader reports truncation as CorruptCheckpoint; this
        // decoder's contract is InvalidProgram for any malformed input.
        let mut r = Reader::new(&bytes[4..]);
        let mut decode = || -> Result<ProgramRegistry> {
            let version = r.u16()?;
            if version != REGISTRY_FORMAT_VERSION {
                return Err(corrupt("unsupported format version"));
            }
            let count = r.u32()? as usize;
            let mut registry = ProgramRegistry::new();
            for _ in 0..count {
                let len = r.u32()? as usize;
                let program = VectorProgram::from_bytes(r.take(len)?)?;
                registry.insert_positional(Arc::new(program));
            }
            if !r.finished() {
                return Err(corrupt("trailing bytes"));
            }
            Ok(registry)
        };
        decode().map_err(|e| match e {
            ConduitError::CorruptCheckpoint { .. } => corrupt("truncated"),
            other => other,
        })
    }
}

/// Where a [`RunRequest`]'s program comes from.
#[derive(Debug, Clone, PartialEq)]
enum ProgramSource {
    /// A program registered in the session's registry (the normal, reusable
    /// path).
    Registered(ProgramId),
    /// A one-shot program carried by the request itself (throwaway
    /// experiments that never reuse the program).
    Inline(Arc<VectorProgram>),
}

/// A declarative description of one run: which program, which policy, which
/// device, when it arrives, and what to collect. Cheap to clone; built
/// builder-style.
///
/// Subsumes the engine-level [`RunOptions`]: policy, cost-function ablation
/// and overhead charging map straight through, while the collection flags
/// control how much the result carries — summaries are always cheap,
/// timelines ([`RunArtifacts`]) are opt-in.
///
/// # Examples
///
/// ```
/// use conduit::{Policy, RunRequest, Session};
/// use conduit_types::{OpType, Operand, SsdConfig, VectorProgram};
///
/// let mut prog = VectorProgram::new("r");
/// prog.push_binary(OpType::And, Operand::page(0), Operand::page(4));
/// let mut session = Session::builder(SsdConfig::small_for_tests()).build();
/// let id = session.register(prog)?;
///
/// let request = RunRequest::new(id, Policy::Conduit)
///     .repeat(3)
///     .percentiles(&[0.5, 0.999])
///     .with_timeline();
/// let outcome = session.submit(&request)?;
/// assert_eq!(outcome.summary.repeats, 3);
/// assert_eq!(outcome.summary.percentiles.len(), 2);
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    source: ProgramSource,
    policy: Policy,
    cost_function: CostFunction,
    charge_overheads: bool,
    repeats: u32,
    collect_timeline: bool,
    collect_energy_split: bool,
    percentiles: Vec<f64>,
    /// `None` runs fresh (a pristine device per run/repeat); `Some` targets
    /// a pooled warm device.
    device: Option<DeviceHandle>,
    /// The request's arrival on the batch timeline ([`SimTime::ZERO`] = the
    /// instant the batch is submitted, i.e. closed-loop).
    arrival: SimTime,
    /// Weighted-fair-queueing flow this request belongs to (see
    /// [`RunRequest::weighted`]). Requests on one device lane with the same
    /// flow id form one FIFO sub-queue of that lane's scheduler.
    flow: u32,
    /// The flow's scheduling weight. Lanes whose requests all carry the same
    /// weight serve in plain arrival/request-order FIFO; mixed weights turn
    /// the lane into a deficit-round-robin scheduler.
    weight: u32,
}

impl RunRequest {
    /// A request to run a registered program under `policy` with default
    /// collection: no timeline, energy split on, the
    /// [`DEFAULT_PERCENTILES`] set.
    pub fn new(program: ProgramId, policy: Policy) -> Self {
        Self::with_source(ProgramSource::Registered(program), policy)
    }

    /// A request carrying a one-shot program that is not (and will not be)
    /// registered. Accepts an owned program or an `Arc` (so several requests
    /// can share one program without copying it). Prefer
    /// [`Session::register`] + [`RunRequest::new`] when the program runs
    /// more than once.
    pub fn inline(program: impl Into<Arc<VectorProgram>>, policy: Policy) -> Self {
        Self::with_source(ProgramSource::Inline(program.into()), policy)
    }

    fn with_source(source: ProgramSource, policy: Policy) -> Self {
        RunRequest {
            source,
            policy,
            cost_function: CostFunction::conduit(),
            charge_overheads: true,
            repeats: 1,
            collect_timeline: false,
            collect_energy_split: true,
            percentiles: DEFAULT_PERCENTILES.to_vec(),
            device: None,
            arrival: SimTime::ZERO,
            flow: 0,
            weight: 1,
        }
    }

    /// Builder-style: replaces the cost function (for ablations).
    pub fn cost_function(mut self, cf: CostFunction) -> Self {
        self.cost_function = cf;
        self
    }

    /// Builder-style: disables the offloader overhead charges (§4.5).
    pub fn without_overheads(mut self) -> Self {
        self.charge_overheads = false;
        self
    }

    /// Builder-style: simulates the program `repeats` times (clamped to at
    /// least one). On a fresh device every repeat gets its own pristine
    /// device, so repeats are bit-identical under the deterministic
    /// simulator — the knob exists for throughput measurement and soak-style
    /// stress. On a warm device the repeats run back to back on the
    /// device's stream clock, so each one ages it further.
    pub fn repeat(mut self, repeats: u32) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Builder-style: runs this request on a named warm device from the
    /// session's pool ([`Session::create_device`]). Requests on the same
    /// device execute serially in request order (a FIFO lane); requests on
    /// different devices execute in parallel in a batch.
    pub fn on_device(mut self, device: DeviceHandle) -> Self {
        self.device = Some(device);
        self
    }

    /// Builder-style: the request **arrives open-loop** at `arrival` on the
    /// batch timeline — time zero is the instant the batch is submitted
    /// (for a warm lane, the device's stream clock at submission; for a
    /// fresh run, the engine's time origin).
    ///
    /// On a warm device the request issues at `max(previous finish,
    /// arrival)`: arriving while the lane is still serving earlier requests
    /// accrues arrival-relative [`RunSummary::queueing_time`], arriving
    /// after the lane drained leaves the device idle for the gap (visible
    /// in [`conduit_sim::DeviceSnapshot::lane_idle_time`]). The default —
    /// `SimTime::ZERO` — reproduces closed-loop semantics: every request is
    /// already waiting when the batch starts.
    ///
    /// On a fresh run the arrival is a pure translation of the timeline
    /// (service time, energy and placement are unchanged) and queueing
    /// stays zero: there is no lane to wait in.
    pub fn arriving_at(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Builder-style: assigns the request to weighted-fair **flow** `flow`
    /// with scheduling weight `weight` (clamped to at least one).
    ///
    /// Within a device lane in [`Session::submit_batch`], requests sharing a
    /// flow id form one FIFO sub-queue. While every request on the lane
    /// carries the *same* weight (the default is weight 1), the lane is the
    /// plain FIFO it has always been — bit-identical to pre-flow scheduling.
    /// As soon as weights differ, the lane serves its sub-queues by **deficit
    /// round robin**: each round every backlogged flow's credit grows by
    /// `quantum × weight` ([`DRR_QUANTUM`]) and a flow serves
    /// requests while its credit lasts, with the *actual* simulated service
    /// time charged against it. Over a saturated stretch each flow's lane
    /// busy-time share converges to its weight share.
    pub fn weighted(mut self, flow: u32, weight: u32) -> Self {
        self.flow = flow;
        self.weight = weight.max(1);
        self
    }

    /// Builder-style: sets whether the full instruction → resource timeline
    /// is collected into [`RunArtifacts`] (default: off).
    pub fn timeline(mut self, collect: bool) -> Self {
        self.collect_timeline = collect;
        self
    }

    /// Builder-style sugar for [`RunRequest::timeline`]`(true)`.
    pub fn with_timeline(self) -> Self {
        self.timeline(true)
    }

    /// Builder-style: sets whether the summary carries the data-movement /
    /// compute energy split in addition to the total (default: on).
    pub fn energy_split(mut self, collect: bool) -> Self {
        self.collect_energy_split = collect;
        self
    }

    /// Builder-style: replaces the percentile set materialized into
    /// [`RunSummary::percentiles`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any value is outside `[0, 1]`.
    pub fn percentiles(mut self, set: &[f64]) -> Self {
        debug_assert!(
            set.iter().all(|p| (0.0..=1.0).contains(p)),
            "percentiles must be in [0, 1]"
        );
        self.percentiles = set.to_vec();
        self
    }

    /// The policy this request runs under.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of repeats.
    pub fn repeats(&self) -> u32 {
        self.repeats
    }

    /// Whether the timeline will be collected.
    pub fn collects_timeline(&self) -> bool {
        self.collect_timeline
    }

    /// The named device this request targets; `None` means a fresh run.
    pub fn requested_device(&self) -> Option<DeviceHandle> {
        self.device
    }

    /// The request's arrival on the batch timeline (see
    /// [`RunRequest::arriving_at`]).
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The weighted-fair flow this request belongs to (see
    /// [`RunRequest::weighted`]; default flow 0).
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// The flow's scheduling weight (see [`RunRequest::weighted`]; default
    /// 1).
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// The engine-level options this request maps to.
    fn run_options(&self) -> RunOptions {
        let mut options = RunOptions::new(self.policy).cost_function(self.cost_function);
        if !self.charge_overheads {
            options = options.without_overheads();
        }
        if !self.collect_timeline {
            options = options.without_timeline();
        }
        options
    }
}

/// The always-collected, constant-memory result of a run: everything the
/// figure pipeline and a serving stack's metrics need, and nothing that
/// grows with program length.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload (vector program) name.
    pub workload: String,
    /// The policy that was used.
    pub policy: Policy,
    /// Number of vector instructions executed per repeat.
    pub instructions: usize,
    /// How many times the program was simulated (see [`RunRequest::repeat`]).
    pub repeats: u32,
    /// End-to-end time of the run as the submitter saw it:
    /// [`RunSummary::queueing_time`] + [`RunSummary::service_time`].
    pub total_time: Duration,
    /// Time the request spent waiting in its device's FIFO lane between its
    /// **arrival** ([`RunRequest::arriving_at`]; by default the instant the
    /// batch was submitted) and the issue of its first instruction, measured
    /// on the device's stream clock. Always zero for fresh-device runs and
    /// for warm requests that arrived after their lane drained.
    pub queueing_time: Duration,
    /// The run's own execution time: from the instant its first instruction
    /// issued (the device's stream clock) to its last completion.
    pub service_time: Duration,
    /// Total energy of one run.
    pub total_energy: Energy,
    /// Energy split into data movement and computation, when collected.
    pub energy_split: Option<EnergySummary>,
    /// Where the execution time went.
    pub breakdown: CostBreakdown,
    /// Instruction placement counts.
    pub offload_mix: OffloadMix,
    /// Histogram of per-instruction end-to-end latencies (constant memory;
    /// query any quantile via [`LatencyStats::percentile`]).
    pub latency: LatencyStats,
    /// The percentiles requested by the run's [`RunRequest::percentiles`]
    /// set, materialized as `(p, latency)` pairs in request order.
    pub percentiles: Vec<(f64, Duration)>,
    /// Offloader overhead statistics.
    pub overhead: OverheadReport,
    /// The device-side work this run performed (GC invocations, pages
    /// migrated, coherence syncs, wear spread, …): on a fresh device the
    /// run's absolute footprint, on a warm device the *additional* aging it
    /// caused on top of what earlier requests left behind. Repeats
    /// accumulate (see [`conduit_sim::DeviceDelta::accumulate`]).
    pub device_delta: DeviceDelta,
}

impl RunSummary {
    /// Speedup of this run relative to `baseline` (>1 means this run is
    /// faster).
    pub fn speedup_over(&self, baseline: &RunSummary) -> f64 {
        let own = self.total_time.as_ns();
        if own == 0.0 {
            return f64::INFINITY;
        }
        baseline.total_time.as_ns() / own
    }

    /// This run's energy as a fraction of `baseline`'s (<1 means this run
    /// uses less energy).
    pub fn energy_vs(&self, baseline: &RunSummary) -> f64 {
        let base = baseline.total_energy.as_nj();
        if base == 0.0 {
            return 0.0;
        }
        self.total_energy.as_nj() / base
    }

    /// The `p`-quantile per-instruction latency from the histogram (any
    /// quantile, not just the requested set).
    pub fn percentile(&self, p: f64) -> Duration {
        self.latency.percentile(p)
    }
}

/// Opt-in bulky outputs of a run — everything that grows with program
/// length. Requested via [`RunRequest::with_timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// The full per-instruction trace: instruction → execution site with
    /// dispatch/completion times (Figure 10).
    pub timeline: Vec<TimelineEntry>,
}

/// A run's summary plus its optional artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The cheap, always-present summary.
    pub summary: RunSummary,
    /// Bulky opt-in outputs; `None` unless the request asked for them.
    pub artifacts: Option<RunArtifacts>,
}

impl RunOutcome {
    /// Converts into the engine-level [`RunReport`] shape (for code
    /// migrating incrementally onto the session API). The timeline is empty
    /// unless the run collected artifacts; the device delta is dropped, as
    /// the engine-level report predates warm devices.
    pub fn into_run_report(self) -> RunReport {
        let energy = self.summary.energy_split.unwrap_or(EnergySummary {
            data_movement: Energy::ZERO,
            compute: self.summary.total_energy,
        });
        RunReport {
            workload: self.summary.workload,
            policy: self.summary.policy,
            instructions: self.summary.instructions,
            total_time: self.summary.total_time,
            energy,
            breakdown: self.summary.breakdown,
            offload_mix: self.summary.offload_mix,
            latency: self.summary.latency,
            timeline: self.artifacts.map(|a| a.timeline).unwrap_or_default(),
            overhead: self.summary.overhead,
        }
    }
}

/// How a planned run executes: on a pristine device, or on one of the
/// session's pooled warm devices (by slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanMode {
    Fresh,
    Device(usize),
}

/// One unit of work in a [`Session::submit_batch`] call.
#[derive(Debug, PartialEq)]
enum BatchTask {
    /// A device lane: slot, request indices, and the stream clock its
    /// requests arrive relative to.
    Lane(usize, Vec<usize>, SimTime),
    Fresh(usize),
}

/// Everything needed to execute one request with no reference back to the
/// session.
struct RunPlan {
    program: Arc<VectorProgram>,
    options: RunOptions,
    repeats: u32,
    collect_energy_split: bool,
    percentiles: Vec<f64>,
    mode: PlanMode,
    /// Arrival offset on the batch timeline ([`RunRequest::arriving_at`]).
    arrival: Duration,
    /// Weighted-fair flow and weight ([`RunRequest::weighted`]).
    flow: u32,
    weight: u32,
}

/// One named warm device of the pool: its lazily-built simulated device and
/// the explicit stream clock of its request lane.
#[derive(Debug)]
struct DeviceSlot {
    name: String,
    /// The fault-injection plan the device is built with on first use
    /// (imported devices carry their own plan inside the checkpoint).
    faults: FaultConfig,
    lane: Mutex<DeviceLane>,
}

impl DeviceSlot {
    fn new(name: impl Into<String>, faults: FaultConfig) -> Self {
        DeviceSlot {
            name: name.into(),
            faults,
            lane: Mutex::new(DeviceLane {
                device: None,
                clock: SimTime::ZERO,
            }),
        }
    }
}

#[derive(Debug)]
struct DeviceLane {
    /// The warm device (immutable models + persistent state), created
    /// lazily on the first run so unused pool members cost nothing.
    device: Option<SsdDevice>,
    /// The stream clock: the finish time of the last request on this
    /// device. The next request issues here.
    clock: SimTime,
}

/// Assembles the outcome from the final run report plus the device work the
/// request performed and the lane wait it observed.
fn build_outcome(
    report: RunReport,
    plan: &RunPlan,
    device_delta: DeviceDelta,
    queueing_time: Duration,
) -> RunOutcome {
    let percentiles = plan
        .percentiles
        .iter()
        .map(|&p| (p, report.latency.percentile(p)))
        .collect();
    let service_time = report.total_time;
    let summary = RunSummary {
        workload: report.workload,
        policy: report.policy,
        instructions: report.instructions,
        repeats: plan.repeats,
        total_time: queueing_time + service_time,
        queueing_time,
        service_time,
        total_energy: report.energy.total(),
        energy_split: plan.collect_energy_split.then_some(report.energy),
        breakdown: report.breakdown,
        offload_mix: report.offload_mix,
        latency: report.latency,
        percentiles,
        overhead: report.overhead,
        device_delta,
    };
    let artifacts = plan.options.record_timeline.then_some(RunArtifacts {
        timeline: report.timeline,
    });
    RunOutcome { summary, artifacts }
}

/// Executes a fresh-mode plan: every repeat on its own pristine device, so
/// runs are independent and batches stay bit-identical at every worker
/// count.
fn execute_fresh(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    faults: FaultConfig,
    plan: &RunPlan,
) -> Result<RunOutcome> {
    let pristine = DeviceSnapshot::default();
    // An open-loop arrival translates the fresh run's timeline (timestamps
    // shift, service time and energy do not); there is no lane to queue in.
    let options = plan.options.starting_at(SimTime::ZERO + plan.arrival);
    let mut report: Option<RunReport> = None;
    let mut delta = DeviceDelta::default();
    for _ in 0..plan.repeats {
        // A fresh device per repeat keeps every run independent and the
        // whole batch bit-identical to serial execution. Each repeat's
        // device restarts the session's fault plan from its seed.
        let mut device = SsdDevice::with_faults(ssd, faults)?;
        engine.prepare(&mut device, &plan.program)?;
        let run = engine.run(&mut device, &plan.program, &options)?;
        delta.accumulate(device.snapshot().delta_since(&pristine));
        report = Some(run);
    }
    let report = report.expect("repeats is clamped to at least one");
    Ok(build_outcome(report, plan, delta, Duration::ZERO))
}

/// Executes a warm plan on one device lane. The request **arrives** at the
/// batch base (the lane's stream clock when the batch was submitted) plus
/// its open-loop arrival offset, and
/// issues at `max(previous finish, arrival)`: the stream clock advances
/// through any idle gap, the arrival-relative wait becomes the outcome's
/// queueing time, and each repeat then issues at its predecessor's finish.
///
/// The lane mutex is what serializes a device's requests: within a device
/// runs execute strictly in the order they take the lock (the lane's
/// scheduling order, see [`run_lane`]), which keeps every per-device
/// stream deterministic and replayable while distinct devices proceed in
/// parallel.
fn execute_on_lane(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    slot: &DeviceSlot,
    plan: &RunPlan,
    batch_base: SimTime,
) -> Result<RunOutcome> {
    let mut lane = slot.lane.lock().expect("device-lane mutex poisoned");
    let lane = &mut *lane;
    if lane.device.is_none() {
        lane.device = Some(SsdDevice::with_faults(ssd, slot.faults)?);
    }
    let device = lane.device.as_mut().expect("device was just installed");
    // SimTime + Duration saturates, so a pathological arrival offset clamps
    // at the end of representable time instead of wrapping the clock.
    let arrival = batch_base + plan.arrival;
    let before = device.snapshot();
    // Queueing ends when the request's *first* repeat issues; later repeats
    // are part of its own service, not lane wait. An arrival past the
    // previous finish instead leaves the device idle for the gap.
    let queueing_time = lane.clock.saturating_since(arrival);
    let idle_gap = arrival.saturating_since(lane.clock);
    lane.clock = lane.clock.max(arrival);
    let issue = lane.clock;
    let mut report: Result<Option<RunReport>> = Ok(None);
    for _ in 0..plan.repeats {
        let start = lane.clock;
        let options = plan.options.starting_at(start);
        // Re-preparing is idempotent for pages the warm device already
        // mapped; only genuinely new pages get placed.
        report = engine
            .prepare(device, &plan.program)
            .and_then(|()| engine.run(device, &plan.program, &options))
            .map(Some);
        match &report {
            Ok(Some(run)) => lane.clock = start + run.total_time,
            // The (possibly partially advanced) device stays with the
            // session so the stream can continue or be inspected.
            _ => break,
        }
    }
    // Lane accounting happens even on a failed request: the device may have
    // partially advanced, and the idle gap was real either way.
    device.record_lane_request(idle_gap, queueing_time, lane.clock.saturating_since(issue));
    let delta = device.snapshot().delta_since(&before);
    let report = report?.expect("repeats is clamped to at least one");
    Ok(build_outcome(report, plan, delta, queueing_time))
}

/// One flow's FIFO sub-queue inside a mixed-weight lane: the request
/// indices in request order, a cursor, and the flow's deficit credit in
/// picoseconds (negative = the flow overdrew its share and sits out rounds
/// until the per-round top-ups pay the debt back).
struct LaneFlow {
    queue: Vec<usize>,
    head: usize,
    credit: i128,
}

impl LaneFlow {
    fn head_index(&self) -> Option<usize> {
        self.queue.get(self.head).copied()
    }
}

/// Serves one device lane's share of a batch, delivering each outcome to
/// `deliver(request index, outcome)`. A failed request does not stop the
/// lane: later requests still run and report in their own slots.
///
/// While every request on the lane carries the same weight — the default —
/// the lane is the plain FIFO it has always been: requests execute in
/// request order, bit for bit identical to pre-weight scheduling. Mixed
/// weights switch the lane to **deficit round robin** over per-flow FIFO
/// sub-queues ([`RunRequest::weighted`]):
///
/// * each round visits the flows in first-appearance order; a flow whose
///   head has *arrived* (on the lane's simulated stream clock) earns
///   `quantum × weight` of credit and serves requests while its credit
///   stays positive, with each request's **actual simulated service time**
///   charged against the credit afterwards (so no a-priori cost model is
///   needed — an expensive request just drives the flow's credit negative
///   and it sits out following rounds);
/// * a flow that drains its queue forfeits leftover credit (standard DRR:
///   credit never accumulates across backlog periods);
/// * when no flow has an arrived head, the lane has gone idle: credits
///   reset (a new busy period starts) and the earliest-arriving head is
///   served, advancing the stream clock through the idle gap — the lane
///   stays work-conserving.
///
/// Everything the scheduler consults — arrivals, the stream clock, service
/// times — is simulated time, so the dispatch order is deterministic and
/// identical at every worker count. Over a saturated stretch each flow's
/// lane busy-time share converges to `weight / Σ weights`.
fn run_lane(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    slot: &DeviceSlot,
    plans: &[RunPlan],
    indices: &[usize],
    base: SimTime,
    mut deliver: impl FnMut(usize, Result<RunOutcome>),
) {
    let uniform = indices
        .windows(2)
        .all(|w| plans[w[0]].weight == plans[w[1]].weight);
    if uniform {
        for &i in indices {
            deliver(i, execute_on_lane(engine, ssd, slot, &plans[i], base));
        }
        return;
    }

    // Per-flow sub-queues in order of first appearance (deterministic in
    // request order).
    let mut flows: Vec<(u32, LaneFlow)> = Vec::new();
    for &i in indices {
        let key = plans[i].flow;
        match flows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, flow)) => flow.queue.push(i),
            None => flows.push((
                key,
                LaneFlow {
                    queue: vec![i],
                    head: 0,
                    credit: 0,
                },
            )),
        }
    }
    let quantum_ps = DRR_QUANTUM.as_ps() as i128;
    let arrival = |i: usize| base + plans[i].arrival;
    let clock = || slot.lane.lock().expect("device-lane mutex poisoned").clock;
    // Serves request `i`, the head of `flow`.
    let mut serve = |flow: &mut LaneFlow, i: usize| {
        let outcome = execute_on_lane(engine, ssd, slot, &plans[i], base);
        let service = outcome
            .as_ref()
            .map_or(Duration::ZERO, |o| o.summary.service_time);
        flow.head += 1;
        flow.credit -= service.as_ps() as i128;
        deliver(i, outcome);
    };

    let mut remaining = indices.len();
    while remaining > 0 {
        let mut served_this_round = false;
        for (_, flow) in &mut flows {
            let Some(head) = flow.head_index() else {
                continue;
            };
            if arrival(head) > clock() {
                // Not backlogged right now: no top-up, no service. The flow
                // keeps any leftover credit for when its stream resumes.
                continue;
            }
            let weight = plans[head].weight.max(1) as i128;
            flow.credit += quantum_ps * weight;
            while flow.credit > 0 {
                let Some(i) = flow.head_index() else {
                    break;
                };
                if arrival(i) > clock() {
                    break;
                }
                serve(flow, i);
                remaining -= 1;
                served_this_round = true;
            }
            if flow.head_index().is_none() {
                // A drained flow forfeits leftover credit.
                flow.credit = 0;
            }
        }
        if served_this_round || remaining == 0 {
            continue;
        }
        let now = clock();
        let any_eligible = flows
            .iter()
            .any(|(_, f)| f.head_index().is_some_and(|i| arrival(i) <= now));
        if any_eligible {
            // Backlogged flows exist but are all in credit debt: rounds cost
            // no simulated time, so just keep topping up until one goes
            // positive.
            continue;
        }
        // The lane went idle: every remaining head arrives in the future.
        // The busy period is over — credits reset — and the next one opens
        // with the earliest-arriving head (ties break by flow position).
        for (_, flow) in &mut flows {
            flow.credit = 0;
        }
        let (_, next, i) = flows
            .iter()
            .enumerate()
            .filter_map(|(fi, (_, f))| f.head_index().map(|i| (arrival(i), fi, i)))
            .min()
            .expect("remaining > 0 implies a nonempty flow");
        serve(&mut flows[next].1, i);
        remaining -= 1;
    }
}

/// The deficit-round-robin quantum of weighted device lanes: the per-round
/// credit a weight-1 flow earns (see [`RunRequest::weighted`]). Small
/// relative to typical service times, so shares track weights smoothly; the
/// exact value only shapes interleaving granularity, not the long-run
/// weight shares.
pub const DRR_QUANTUM: Duration = Duration::from_ps(10_000_000); // 10 µs

/// Configures and builds a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    ssd: SsdConfig,
    host: HostConfig,
    faults: FaultConfig,
    workers: Option<usize>,
}

impl SessionBuilder {
    /// Starts a builder for the given SSD configuration (default host
    /// configuration, one batch worker per CPU core, fresh devices, no
    /// fault injection).
    pub fn new(ssd: SsdConfig) -> Self {
        SessionBuilder {
            ssd,
            host: HostConfig::default(),
            faults: FaultConfig::default(),
            workers: None,
        }
    }

    /// Replaces the host configuration.
    pub fn host(mut self, host: HostConfig) -> Self {
        self.host = host;
        self
    }

    /// Sets the session's default fault-injection plan: every fresh run and
    /// every device created without an explicit plan
    /// ([`Session::create_device_with_faults`]) draws its faults from this
    /// seeded, replayable configuration. The default is inert (no faults),
    /// which is bit-identical to a session without fault support.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the batch worker-thread count (default: one per available
    /// CPU core; clamped to at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Shorthand for `workers(1)`: [`Session::submit_batch`] runs every
    /// request on the calling thread. Results are bit-identical at every
    /// worker count.
    pub fn serial(self) -> Self {
        self.workers(1)
    }

    /// Builds the session. Batches spawn their worker threads for the
    /// duration of one [`Session::submit_batch`] call, so an idle session
    /// holds no threads.
    pub fn build(self) -> Session {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Session {
            ssd: self.ssd,
            host: self.host,
            faults: self.faults,
            workers,
            registry: ProgramRegistry::new(),
            devices: Vec::new(),
            engine: OnceLock::new(),
        }
    }
}

/// A long-lived execution service: device/host configuration, the program
/// registry, and a **pool of named warm devices**.
///
/// Fresh runs execute on a pristine simulated device, so they are
/// independent, deterministic, and identical whether submitted one at a
/// time or batched across threads. Warm runs target a device from the pool
/// ([`Session::create_device`], [`RunRequest::on_device`]); each device's
/// persistent [`conduit_sim::DeviceState`] ages across its request stream,
/// modelling one tenant's long-lived SSD.
///
/// # Lane scheduling and the stream clock
///
/// In [`Session::submit_batch`], every device forms a **FIFO lane**:
/// requests targeting the same device run serially in request order (they
/// share that device's mutable state), while different devices' lanes — and
/// the fresh requests — run in parallel on the batch's worker threads.
/// Outcomes are bit-identical at every worker count.
///
/// Each device carries an explicit **stream clock**. By default requests are
/// closed-loop — request *i* issues at request *i−1*'s finish time — while
/// [`RunRequest::arriving_at`] turns the stream open-loop: the clock
/// advances to `max(previous finish, arrival)`, so the device can sit idle
/// between arrivals. [`RunSummary::queueing_time`] reports how long a
/// request waited in its lane between its arrival and its first issue, and
/// [`RunSummary::service_time`] its own execution time; `total_time` is
/// their sum. Cumulative per-device state is available via
/// [`Session::device_snapshot`] and resettable via
/// [`Session::reset_device`], and whole devices can be checkpointed across
/// processes with [`Session::export_device`] /
/// [`Session::import_device`]. See the [crate documentation](crate) for a
/// quick start.
#[derive(Debug)]
pub struct Session {
    ssd: SsdConfig,
    host: HostConfig,
    /// Default fault-injection plan for fresh runs and new devices.
    faults: FaultConfig,
    workers: usize,
    registry: ProgramRegistry,
    /// The warm-device pool, minted by [`Session::create_device`] /
    /// [`Session::import_device`].
    devices: Vec<DeviceSlot>,
    /// The engine is stateless and a pure function of the configs; built
    /// once on first use.
    engine: OnceLock<RuntimeEngine>,
}

/// The counters [`Session::plan_cache_stats`] returns, which are always zero
/// because the engine keeps no plan cache. Kept only because the repository
/// benchmark still reads them; removed in the next benchmark PR.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
}

impl Session {
    /// Starts a [`SessionBuilder`] for the given SSD configuration.
    pub fn builder(ssd: SsdConfig) -> SessionBuilder {
        SessionBuilder::new(ssd)
    }

    /// A session with all defaults for the given SSD configuration.
    pub fn new(ssd: SsdConfig) -> Session {
        SessionBuilder::new(ssd).build()
    }

    /// The SSD configuration every run uses.
    pub fn ssd_config(&self) -> &SsdConfig {
        &self.ssd
    }

    /// The host configuration every run uses.
    pub fn host_config(&self) -> &HostConfig {
        &self.host
    }

    /// Number of worker threads batches fan out over (1 = serial).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Validates and registers a program for reuse across runs.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for structurally invalid
    /// programs.
    pub fn register(&mut self, program: VectorProgram) -> Result<ProgramId> {
        self.registry.register(program)
    }

    /// The program behind a handle, if registered.
    pub fn program(&self, id: ProgramId) -> Option<&VectorProgram> {
        self.registry.get(id).map(Arc::as_ref)
    }

    /// The program registry.
    pub fn registry(&self) -> &ProgramRegistry {
        &self.registry
    }

    /// Serializes the whole registry so another process can
    /// [`Session::import_registry`] it instead of re-running the vectorizer.
    pub fn export_registry(&self) -> Vec<u8> {
        self.registry.to_bytes()
    }

    /// Merges every program from a serialized registry into this session's
    /// registry, returning the assigned ids in the same order. Content
    /// addressing applies: a program identical to one already registered
    /// maps to the existing id instead of being stored again.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for corrupt bytes; on error
    /// the session's registry is left unchanged.
    pub fn import_registry(&mut self, bytes: &[u8]) -> Result<Vec<ProgramId>> {
        let imported = ProgramRegistry::from_bytes(bytes)?;
        Ok(imported
            .programs
            .into_iter()
            .map(|program| self.registry.insert_deduped(program))
            .collect())
    }

    // ------------------------------------------------------------------
    // The device pool
    // ------------------------------------------------------------------

    /// Creates (or finds) a named warm device in the session's pool and
    /// returns its handle. Device creation is idempotent: asking for an
    /// existing name returns the existing device's handle, so tenants can
    /// be addressed by name without extra bookkeeping. The simulated device
    /// itself is built lazily on first use.
    pub fn create_device(&mut self, name: &str) -> DeviceHandle {
        self.create_device_with_faults(name, self.faults)
    }

    /// Like [`Session::create_device`], but with an explicit per-device
    /// fault-injection plan instead of the session default
    /// ([`SessionBuilder::faults`]). For an existing name the existing
    /// device (and its original plan) is returned unchanged — a device's
    /// fault plan is fixed for its lifetime so its stream stays replayable.
    pub fn create_device_with_faults(&mut self, name: &str, faults: FaultConfig) -> DeviceHandle {
        if let Some(existing) = self.find_device(name) {
            return existing;
        }
        let handle = DeviceHandle(self.devices.len() as u32);
        self.devices.push(DeviceSlot::new(name, faults));
        handle
    }

    /// The handle of the named device, if it exists.
    pub fn find_device(&self, name: &str) -> Option<DeviceHandle> {
        self.devices
            .iter()
            .position(|slot| slot.name == name)
            .map(|i| DeviceHandle(i as u32))
    }

    /// Iterator over every device in the pool, `(handle, name)`, in
    /// creation order.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceHandle, &str)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, slot)| (DeviceHandle(i as u32), slot.name.as_str()))
    }

    /// The name a device was created under.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_name(&self, device: DeviceHandle) -> &str {
        &self.slot(device).name
    }

    fn slot(&self, device: DeviceHandle) -> &DeviceSlot {
        self.devices
            .get(device.index())
            .expect("DeviceHandle was minted by a different session")
    }

    /// Cumulative counters of a pooled device: everything its request
    /// stream has done to it so far (GC, migration, coherence traffic,
    /// wear, energy). All-zero until the device's first run.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_snapshot(&self, device: DeviceHandle) -> DeviceSnapshot {
        self.slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned")
            .device
            .as_ref()
            .map(SsdDevice::snapshot)
            .unwrap_or_default()
    }

    /// A device's stream clock: the finish time of the last request it
    /// served (zero while pristine).
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_clock(&self, device: DeviceHandle) -> SimTime {
        self.slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned")
            .clock
    }

    /// Discards a pooled device's state and resets its stream clock,
    /// returning the final snapshot; the device's next run starts from a
    /// pristine device. Other devices and fresh runs are unaffected.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn reset_device(&self, device: DeviceHandle) -> DeviceSnapshot {
        let mut lane = self
            .slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned");
        let snapshot = lane
            .device
            .take()
            .map(|device| device.snapshot())
            .unwrap_or_default();
        lane.clock = SimTime::ZERO;
        snapshot
    }

    /// Serializes a pooled device — its stream clock plus the complete
    /// [`conduit_sim::DeviceState`] (FTL image, contention timelines,
    /// residency, energy) — into a compact versioned byte stream. Another
    /// session (or process) can [`Session::import_device`] it and continue
    /// the stream with bit-identical results, like a device-aging
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates device-construction errors for a never-used device (whose
    /// pristine state is built on demand so the checkpoint is well-formed).
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn export_device(&self, device: DeviceHandle) -> Result<Vec<u8>> {
        let mut lane = self
            .slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned");
        if lane.device.is_none() {
            lane.device = Some(SsdDevice::with_faults(&self.ssd, self.slot(device).faults)?);
        }
        let state = lane.device.as_ref().expect("device was just installed");
        let mut out = Vec::new();
        out.extend_from_slice(&DEVICE_CHECKPOINT_MAGIC);
        put_u16(&mut out, DEVICE_CHECKPOINT_FORMAT_VERSION);
        // The configuration fingerprint pins the exact timings/energies the
        // stream was simulated under, not just the shape the state decoder
        // can check structurally.
        put_u64(&mut out, self.config_fingerprint());
        put_u64(&mut out, lane.clock.as_ps());
        out.extend_from_slice(&state.state().to_bytes());
        Ok(out)
    }

    /// The combined fingerprint device checkpoints embed: FNV-1a over the
    /// SSD and host configuration fingerprints. Both sides matter — warm
    /// stream clocks depend on host rooflines (host-policy service times)
    /// as much as on the device's own timings.
    fn config_fingerprint(&self) -> u64 {
        let mut canonical = Vec::with_capacity(16);
        put_u64(&mut canonical, self.ssd.fingerprint());
        put_u64(&mut canonical, self.host.fingerprint());
        conduit_types::bytes::fnv1a(&canonical)
    }

    /// Revives a device checkpoint produced by [`Session::export_device`]
    /// under `name`, returning its handle. If the name already exists in
    /// the pool, the imported checkpoint **replaces** that device's state
    /// (restoring a tenant in place); otherwise a new device is created.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] for a bad magic/version,
    /// truncation, or a checkpoint that does not match this session's SSD
    /// configuration. Version-2 checkpoints embed the exporting session's
    /// combined SSD + host configuration fingerprint
    /// ([`SsdConfig::fingerprint`],
    /// [`conduit_types::HostConfig::fingerprint`]), so **any**
    /// configuration difference — including same-shape timing or energy
    /// changes the structural checks cannot see — is a hard error; legacy
    /// version-1 checkpoints fall back to the structural shape check. On
    /// error the pool is left unchanged.
    pub fn import_device(&mut self, name: &str, bytes: &[u8]) -> Result<DeviceHandle> {
        if bytes.len() < 6 || bytes[..4] != DEVICE_CHECKPOINT_MAGIC {
            return Err(ConduitError::corrupt_checkpoint(
                "bad device-checkpoint magic",
            ));
        }
        let tail = &bytes[4..];
        let mut r = Reader::new(tail);
        let version = r.u16()?;
        match version {
            DEVICE_CHECKPOINT_FORMAT_VERSION | DEVICE_CHECKPOINT_FORMAT_VERSION_V2 => {
                let fingerprint = r.u64()?;
                let expected = self.config_fingerprint();
                if fingerprint != expected {
                    return Err(ConduitError::corrupt_checkpoint(format!(
                        "device checkpoint was exported under a different \
                         SSD/host configuration (fingerprint \
                         {fingerprint:#018x}, this session's is \
                         {expected:#018x}); replaying it here would silently \
                         change the stream's timings"
                    )));
                }
            }
            // Legacy checkpoints predate the fingerprint; the structural
            // shape check in DeviceState::from_bytes still applies.
            DEVICE_CHECKPOINT_FORMAT_VERSION_V1 => {}
            _ => {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "unsupported device-checkpoint format version {version} \
                     (expected {DEVICE_CHECKPOINT_FORMAT_VERSION}, \
                     {DEVICE_CHECKPOINT_FORMAT_VERSION_V2} or \
                     {DEVICE_CHECKPOINT_FORMAT_VERSION_V1})"
                )));
            }
        }
        let clock = SimTime::from_ps(r.counter()?);
        let consumed = tail.len() - r.remaining();
        let state = DeviceState::from_bytes(&self.ssd, &tail[consumed..])?;
        let device = SsdDevice::with_state(&self.ssd, state)?;
        let handle = self.create_device(name);
        let mut lane = self
            .slot(handle)
            .lane
            .lock()
            .expect("device-lane mutex poisoned");
        lane.device = Some(device);
        lane.clock = clock;
        drop(lane);
        Ok(handle)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn plan(&self, request: &RunRequest) -> Result<RunPlan> {
        let program = match &request.source {
            ProgramSource::Registered(id) => {
                Arc::clone(self.registry.get(*id).ok_or_else(|| {
                    ConduitError::invalid_program(format!(
                        "program {id} is not registered in this session"
                    ))
                })?)
            }
            ProgramSource::Inline(program) => Arc::clone(program),
        };
        let mode = match request.device {
            None => PlanMode::Fresh,
            Some(handle) => {
                if handle.index() >= self.devices.len() {
                    return Err(ConduitError::invalid_config(format!(
                        "device {handle} is not part of this session's pool"
                    )));
                }
                PlanMode::Device(handle.index())
            }
        };
        Ok(RunPlan {
            program,
            options: request.run_options(),
            repeats: request.repeats,
            collect_energy_split: request.collect_energy_split,
            percentiles: request.percentiles.clone(),
            mode,
            arrival: request.arrival.saturating_since(SimTime::ZERO),
            flow: request.flow,
            weight: request.weight.max(1),
        })
    }

    fn engine(&self) -> &RuntimeEngine {
        self.engine
            .get_or_init(|| RuntimeEngine::with_host(&self.ssd, &self.host))
    }

    /// All-zero counters (see [`PlanCacheStats`]). Kept only because the
    /// repository benchmark still calls it; removed in the next benchmark
    /// PR.
    #[doc(hidden)]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats::default()
    }

    /// Executes one request on the calling thread (fresh runs on a pristine
    /// device; warm runs continue on their pooled device's persistent
    /// state). A lone submit is a batch of one ([`Session::submit_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates unknown program/device handles, preparation and
    /// simulation errors.
    pub fn submit(&self, request: &RunRequest) -> Result<RunOutcome> {
        let mut outcomes = self.submit_batch(std::slice::from_ref(request))?;
        Ok(outcomes.pop().expect("a batch of one has one outcome"))
    }

    /// Orders a batch's work: one task per device lane (in order of the
    /// lane's first request, its requests in request order), then one task
    /// per fresh request. Workers take tasks in this order, so a lane never
    /// waits behind fresh requests submitted earlier in the batch.
    fn batch_tasks(&self, plans: &[RunPlan]) -> Vec<BatchTask> {
        // Per-device FIFO lanes, keyed by slot, requests in request order.
        let mut lanes: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if let PlanMode::Device(slot) = plan.mode {
                match lanes.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, indices)) => indices.push(i),
                    None => lanes.push((slot, vec![i])),
                }
            }
        }
        // Each lane's window restarts with the batch, and every request
        // "arrives" relative to its device's stream clock at submission —
        // both settled here, before any worker runs.
        let mut tasks: Vec<BatchTask> = lanes
            .into_iter()
            .map(|(slot, indices)| {
                let mut lane = self.devices[slot]
                    .lane
                    .lock()
                    .expect("device-lane mutex poisoned");
                if let Some(device) = lane.device.as_mut() {
                    device.reset_lane_window();
                }
                BatchTask::Lane(slot, indices, lane.clock)
            })
            .collect();
        tasks.extend(
            (0..plans.len())
                .filter(|&i| plans[i].mode == PlanMode::Fresh)
                .map(BatchTask::Fresh),
        );
        tasks
    }

    /// Executes a batch of independent requests and returns the outcomes in
    /// request order. Warm requests are grouped into **per-device lanes** —
    /// serial within a device (they share its state and stream clock),
    /// parallel across devices and alongside the fresh requests. A lane
    /// serves in plain request-order FIFO unless its requests carry mixed
    /// weights, in which case it serves by deficit round robin over
    /// per-flow sub-queues ([`RunRequest::weighted`]).
    ///
    /// The batch is one task list — a task per device lane in order of
    /// first appearance, then a task per fresh request — drained by
    /// `min(workers, tasks)` scoped threads, the calling thread among them
    /// (so a one-worker session spawns nothing). Workers take tasks in list
    /// order, so lanes start ahead of the fresh backlog.
    ///
    /// Every fresh run simulates on a fresh device and every lane serves
    /// its device's requests in a deterministic, simulated-time-driven
    /// order, so the outcomes are **bit-identical** at every worker count —
    /// only the wall-clock time changes (`tests/integration_determinism.rs`
    /// and `tests/integration_device_pool.rs` assert this).
    ///
    /// # Errors
    ///
    /// Resolves every request's program and device up front (failing fast
    /// on unknown handles). Every task then runs even if another fails, so
    /// devices age the same at every worker count, and the first error by
    /// request order is returned. A panic inside a task propagates to the
    /// caller.
    pub fn submit_batch(&self, requests: &[RunRequest]) -> Result<Vec<RunOutcome>> {
        let plans: Vec<RunPlan> = requests
            .iter()
            .map(|r| self.plan(r))
            .collect::<Result<_>>()?;
        let tasks = self.batch_tasks(&plans);
        let engine = self.engine();
        let outcomes: Vec<OnceLock<Result<RunOutcome>>> =
            plans.iter().map(|_| OnceLock::new()).collect();
        let deliver = |i: usize, outcome: Result<RunOutcome>| {
            assert!(
                outcomes[i].set(outcome).is_ok(),
                "request {i} executed twice"
            );
        };
        // The cursor only hands out task indices; it publishes no data (the
        // task list is built before the workers start, and outcomes are
        // published through their `OnceLock`s), so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                match task {
                    BatchTask::Lane(slot, indices, base) => run_lane(
                        engine,
                        &self.ssd,
                        &self.devices[*slot],
                        &plans,
                        indices,
                        *base,
                        deliver,
                    ),
                    BatchTask::Fresh(i) => deliver(
                        *i,
                        execute_fresh(engine, &self.ssd, self.faults, &plans[*i]),
                    ),
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.workers.min(tasks.len()) {
                scope.spawn(work);
            }
            work();
        });
        outcomes
            .into_iter()
            .map(|outcome| outcome.into_inner().expect("every request executes"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::{OpType, Operand};

    fn program(name: &str) -> VectorProgram {
        let mut prog = VectorProgram::new(name);
        let a = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
        prog.push_binary(OpType::Add, Operand::result(a), Operand::page(8));
        prog
    }

    fn session() -> Session {
        Session::builder(SsdConfig::small_for_tests()).build()
    }

    #[test]
    fn register_and_submit_summary_only() {
        let mut s = session();
        let id = s.register(program("s")).unwrap();
        let outcome = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        assert_eq!(outcome.summary.instructions, 2);
        assert_eq!(outcome.summary.workload, "s");
        assert!(outcome.summary.total_time > Duration::ZERO);
        assert_eq!(outcome.summary.total_time, outcome.summary.service_time);
        assert_eq!(outcome.summary.queueing_time, Duration::ZERO);
        assert!(outcome.summary.total_energy > Energy::ZERO);
        assert!(outcome.summary.energy_split.is_some());
        assert_eq!(outcome.summary.latency.len(), 2);
        assert_eq!(outcome.summary.percentiles.len(), DEFAULT_PERCENTILES.len());
        // Timelines are opt-in.
        assert!(outcome.artifacts.is_none());
    }

    #[test]
    fn collection_flags_are_honoured() {
        let mut s = session();
        let id = s.register(program("flags")).unwrap();
        let outcome = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .with_timeline()
                    .energy_split(false)
                    .percentiles(&[0.5]),
            )
            .unwrap();
        let timeline = &outcome.artifacts.as_ref().unwrap().timeline;
        assert_eq!(timeline.len(), 2);
        assert!(outcome.summary.energy_split.is_none());
        assert_eq!(outcome.summary.percentiles.len(), 1);
        assert_eq!(outcome.summary.percentiles[0].0, 0.5);
    }

    #[test]
    fn unknown_program_id_is_rejected() {
        let mut a = session();
        let mut b = session();
        let _ = a.register(program("a")).unwrap();
        let id_b = b.register(program("b")).unwrap();
        let _ = b.register(program("b2")).unwrap();
        // An id minted by another session with more programs is unknown
        // here.
        let foreign = ProgramId(7);
        assert!(a
            .submit(&RunRequest::new(foreign, Policy::Conduit))
            .is_err());
        // Unknown handles fail the whole batch up front, before anything
        // runs.
        assert!(a
            .submit_batch(&[
                RunRequest::new(id_b, Policy::Conduit),
                RunRequest::new(foreign, Policy::Conduit),
            ])
            .is_err());
    }

    #[test]
    fn foreign_device_handle_is_rejected() {
        let mut a = session();
        let mut b = session();
        let _ = b.create_device("x");
        let _ = b.create_device("y");
        let foreign = b.create_device("z");
        let id = a.register(program("d")).unwrap();
        assert!(a
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(foreign))
            .is_err());
    }

    #[test]
    fn invalid_program_is_rejected_at_registration() {
        let mut s = session();
        let mut bad = VectorProgram::new("bad");
        bad.push(conduit_types::VectorInst::with_srcs(
            0,
            OpType::Add,
            vec![Operand::page(0)],
        ));
        assert!(s.register(bad).is_err());
    }

    #[test]
    fn repeats_are_deterministic() {
        let mut s = session();
        let id = s.register(program("rep")).unwrap();
        let once = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let thrice = s
            .submit(&RunRequest::new(id, Policy::Conduit).repeat(3))
            .unwrap();
        assert_eq!(thrice.summary.repeats, 3);
        assert_eq!(once.summary.total_time, thrice.summary.total_time);
        assert_eq!(once.summary.offload_mix, thrice.summary.offload_mix);
    }

    #[test]
    fn batch_matches_serial_submission() {
        let mut s = Session::builder(SsdConfig::small_for_tests())
            .workers(4)
            .build();
        let id = s.register(program("batch")).unwrap();
        let requests: Vec<RunRequest> = [Policy::HostCpu, Policy::Conduit, Policy::Ideal]
            .into_iter()
            .map(|p| RunRequest::new(id, p))
            .collect();
        let batched = s.submit_batch(&requests).unwrap();
        let serial: Vec<RunOutcome> = requests.iter().map(|r| s.submit(r).unwrap()).collect();
        assert_eq!(batched, serial);
    }

    #[test]
    fn batch_executes_every_task_on_every_worker_count() {
        let run = |workers: usize| {
            let mut s = Session::builder(SsdConfig::small_for_tests())
                .workers(workers)
                .build();
            let id = s.register(program("tasks")).unwrap();
            let devices: Vec<DeviceHandle> =
                (0..3).map(|d| s.create_device(&format!("d{d}"))).collect();
            // Three fresh requests interleaved with lanes of 1, 3 and 2.
            let targets = [
                None,
                Some(0),
                Some(1),
                None,
                Some(1),
                Some(2),
                None,
                Some(2),
                Some(1),
            ];
            let requests: Vec<RunRequest> = targets
                .iter()
                .map(|target| {
                    let request = RunRequest::new(id, Policy::Conduit);
                    match target {
                        Some(d) => request.on_device(devices[*d]),
                        None => request,
                    }
                })
                .collect();
            let outcomes = s.submit_batch(&requests).unwrap();
            let lanes: Vec<u64> = devices
                .iter()
                .map(|&d| s.device_snapshot(d).lane_requests)
                .collect();
            (outcomes, lanes)
        };
        let (outcomes, lanes) = run(1);
        assert_eq!(outcomes.len(), 9);
        assert_eq!(lanes, [1, 3, 2]);
        // More workers than tasks, too: every task still runs once.
        for workers in [2, 3, 16] {
            assert_eq!(run(workers), (outcomes.clone(), lanes.clone()));
        }
    }

    #[test]
    fn zero_workers_are_clamped_to_one() {
        let mut s = Session::builder(SsdConfig::small_for_tests())
            .workers(0)
            .build();
        assert_eq!(s.workers(), 1);
        let id = s.register(program("clamp")).unwrap();
        let requests = [Policy::HostCpu, Policy::Conduit].map(|p| RunRequest::new(id, p));
        assert_eq!(s.submit_batch(&requests).unwrap().len(), 2);
    }

    /// Lane tasks are queued ahead of fresh requests that came earlier in
    /// the batch, so a ready lane never waits behind the fresh backlog.
    /// Asserted on the task list itself — the one part of the schedule that
    /// is deterministic under OS thread scheduling.
    #[test]
    fn lane_tasks_overtake_the_earlier_fresh_backlog() {
        let mut s = session();
        let id = s.register(program("order")).unwrap();
        let d0 = s.create_device("d0");
        let d1 = s.create_device("d1");
        let fresh = RunRequest::new(id, Policy::Conduit);
        let requests = [
            fresh.clone(),
            fresh.clone(),
            fresh.clone(),
            fresh.clone().on_device(d1),
            fresh.clone(),
            fresh.clone().on_device(d0),
            fresh.clone().on_device(d1),
        ];
        let plans: Vec<RunPlan> = requests
            .iter()
            .map(|r| s.plan(r))
            .collect::<Result<_>>()
            .unwrap();
        let slot = |i: usize| match plans[i].mode {
            PlanMode::Device(slot) => slot,
            PlanMode::Fresh => unreachable!("request {i} targets a device"),
        };
        assert_eq!(
            s.batch_tasks(&plans),
            vec![
                BatchTask::Lane(slot(3), vec![3, 6], SimTime::ZERO),
                BatchTask::Lane(slot(5), vec![5], SimTime::ZERO),
                BatchTask::Fresh(0),
                BatchTask::Fresh(1),
                BatchTask::Fresh(2),
                BatchTask::Fresh(4),
            ],
            "lanes must be queued ahead of the earlier-submitted fresh requests"
        );
    }

    #[test]
    fn registry_roundtrips_through_bytes() {
        let mut s = session();
        let id = s.register(program("persist")).unwrap();
        let bytes = s.export_registry();

        let mut other = session();
        let ids = other.import_registry(&bytes).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(other.program(ids[0]), s.program(id));

        let a = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let b = other
            .submit(&RunRequest::new(ids[0], Policy::Conduit))
            .unwrap();
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn corrupt_registry_bytes_are_rejected() {
        let mut s = session();
        let _ = s.register(program("c")).unwrap();
        let mut bytes = s.export_registry();
        assert!(ProgramRegistry::from_bytes(&bytes[..5]).is_err());
        bytes[0] = b'X';
        assert!(ProgramRegistry::from_bytes(&bytes).is_err());
        let mut t = session();
        assert!(t.import_registry(&[1, 2, 3]).is_err());
        assert!(t.registry().is_empty());
    }

    #[test]
    fn inline_requests_run_without_registration() {
        let s = session();
        let outcome = s
            .submit(&RunRequest::inline(program("inline"), Policy::HostCpu))
            .unwrap();
        assert_eq!(outcome.summary.policy, Policy::HostCpu);
        assert!(s.registry().is_empty());
    }

    #[test]
    fn registry_dedupes_identical_programs() {
        let mut s = session();
        let a = s.register(program("same")).unwrap();
        let b = s.register(program("same")).unwrap();
        assert_eq!(a, b, "identical content must map to one id");
        assert_eq!(s.registry().len(), 1);
        // A different name changes the content, so it gets its own entry.
        let c = s.register(program("other")).unwrap();
        assert_ne!(a, c);
        assert_eq!(s.registry().len(), 2);
        // Importing an already-registered program maps to the existing id.
        let bytes = s.export_registry();
        let ids = s.import_registry(&bytes).unwrap();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(s.registry().len(), 2);
    }

    #[test]
    fn legacy_byte_streams_with_duplicates_keep_positional_ids() {
        // Registries serialized before content addressing could legally
        // contain duplicate programs; decoding must keep every program at
        // its serialized position so persisted ProgramIds stay valid.
        let dup = program("dup");
        let other = program("other");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REGISTRY_MAGIC);
        bytes.extend_from_slice(&REGISTRY_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        for p in [&dup, &dup, &other] {
            let body = p.to_bytes();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        let registry = ProgramRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(registry.len(), 3);
        let decoded: Vec<&VectorProgram> = registry.iter().map(|(_, p)| p).collect();
        assert_eq!(decoded[0], &dup);
        assert_eq!(decoded[1], &dup);
        assert_eq!(decoded[2], &other);
        // Importing the same stream into a session dedupes, with the id
        // mapping making the collapse explicit.
        let mut s = session();
        let ids = s.import_registry(&bytes).unwrap();
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_eq!(s.registry().len(), 2);
    }

    #[test]
    fn warm_device_carries_state_across_submissions() {
        let mut s = session();
        let default = s.create_device("tenant");
        let request = RunRequest::inline(program("warm"), Policy::Conduit).on_device(default);
        let first = s.submit(&request).unwrap();
        let snap_after_first = s.device_snapshot(default);
        assert!(snap_after_first.device_ops > 0);
        assert_eq!(
            first.summary.device_delta.device_ops,
            snap_after_first.device_ops
        );
        let second = s.submit(&request).unwrap();
        let snap_after_second = s.device_snapshot(default);
        // The warm device accumulates: the second run starts where the
        // first ended.
        assert!(snap_after_second.device_ops > snap_after_first.device_ops);
        assert_eq!(
            second.summary.device_delta.device_ops,
            snap_after_second.device_ops - snap_after_first.device_ops
        );
        // The stream clock advanced past both runs.
        assert_eq!(
            s.device_clock(default).as_ps(),
            first.summary.service_time.as_ps() + second.summary.service_time.as_ps()
        );
        // Resetting discards the state; the next snapshot is pristine.
        let last = s.reset_device(default);
        assert_eq!(last, snap_after_second);
        assert_eq!(
            s.device_snapshot(default),
            conduit_sim::DeviceSnapshot::default()
        );
        assert_eq!(s.device_clock(default), SimTime::ZERO);
    }

    #[test]
    fn named_devices_age_independently() {
        let mut s = session();
        let id = s.register(program("tenants")).unwrap();
        let a = s.create_device("tenant-a");
        let b = s.create_device("tenant-b");
        assert_ne!(a, b);
        assert_eq!(s.create_device("tenant-a"), a, "creation is idempotent");
        assert_eq!(s.find_device("tenant-b"), Some(b));
        assert_eq!(s.device_name(a), "tenant-a");
        assert_eq!(s.devices().count(), 2, "two tenants");

        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(a))
            .unwrap();
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(a))
            .unwrap();
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(b))
            .unwrap();
        let snap_a = s.device_snapshot(a);
        let snap_b = s.device_snapshot(b);
        assert!(snap_a.device_ops > snap_b.device_ops);
        // Resetting one tenant leaves the other aging.
        s.reset_device(a);
        assert_eq!(s.device_snapshot(a), DeviceSnapshot::default());
        assert_eq!(s.device_snapshot(b), snap_b);
    }

    #[test]
    fn lane_requests_split_queueing_from_service() {
        let mut s = Session::builder(SsdConfig::small_for_tests())
            .workers(4)
            .build();
        let id = s.register(program("lane")).unwrap();
        let dev = s.create_device("tenant");
        let batch = s
            .submit_batch(&[
                RunRequest::new(id, Policy::Conduit).on_device(dev),
                RunRequest::new(id, Policy::Conduit).on_device(dev),
            ])
            .unwrap();
        assert_eq!(batch[0].summary.queueing_time, Duration::ZERO);
        // The second request queued behind the first's service time.
        assert_eq!(
            batch[1].summary.queueing_time,
            batch[0].summary.service_time
        );
        assert_eq!(
            batch[1].summary.total_time,
            batch[1].summary.queueing_time + batch[1].summary.service_time
        );
        // A lone submit finds the lane idle: no queueing.
        let lone = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        assert_eq!(lone.summary.queueing_time, Duration::ZERO);
        // Repeats are the request's own service, not lane wait: a repeated
        // request on an idle lane still reports zero queueing while its
        // repeats advance the stream clock.
        let clock_before = s.device_clock(dev);
        let repeated = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .repeat(3),
            )
            .unwrap();
        assert_eq!(repeated.summary.queueing_time, Duration::ZERO);
        assert!(s.device_clock(dev) > clock_before);
    }

    #[test]
    fn fresh_runs_are_unaffected_by_warm_history() {
        let mut s = session();
        let id = s.register(program("iso")).unwrap();
        let dev = s.create_device("history");
        let fresh = RunRequest::new(id, Policy::Conduit);
        let before = s.submit(&fresh).unwrap();
        for _ in 0..3 {
            s.submit(&fresh.clone().on_device(dev)).unwrap();
        }
        let after = s.submit(&fresh).unwrap();
        assert_eq!(before, after, "fresh runs must not see warm-device state");
        // Fresh runs also report their own device footprint — but no lane
        // accounting, because there is no lane.
        assert!(before.summary.device_delta.device_ops > 0);
        assert_eq!(before.summary.device_delta.lane_requests, 0);
    }

    #[test]
    fn open_loop_arrivals_drive_queueing_and_idle_gaps() {
        let mut s = session();
        let id = s.register(program("arrivals")).unwrap();
        let dev = s.create_device("open-loop");

        // Probe the service time of one request on this device when fresh.
        let probe = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let service = probe.summary.service_time;
        s.reset_device(dev);

        // Request 1 arrives at t=0; request 2 arrives mid-service of
        // request 1: its queueing is arrival-relative, not batch-relative.
        let mid = SimTime::ZERO + service / 2;
        let batch = s
            .submit_batch(&[
                RunRequest::new(id, Policy::Conduit).on_device(dev),
                RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .arriving_at(mid),
            ])
            .unwrap();
        assert_eq!(batch[0].summary.queueing_time, Duration::ZERO);
        assert_eq!(
            batch[1].summary.queueing_time,
            batch[0].summary.service_time - (mid.saturating_since(SimTime::ZERO)),
            "queueing counts from the request's own arrival"
        );

        // A request arriving after the lane drained leaves the device idle
        // for the gap: zero queueing, stream clock jumps to the arrival.
        let clock = s.device_clock(dev);
        let late_by = Duration::from_us(250.0);
        let snap_before = s.device_snapshot(dev);
        let late = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .arriving_at(SimTime::ZERO + late_by),
            )
            .unwrap();
        assert_eq!(late.summary.queueing_time, Duration::ZERO);
        assert_eq!(
            s.device_clock(dev),
            clock + late_by + late.summary.service_time,
            "the stream clock advances to max(prev finish, arrival) + service"
        );
        let snap = s.device_snapshot(dev);
        assert_eq!(
            snap.lane_idle_time,
            snap_before.lane_idle_time + late_by,
            "the idle gap is accounted on the device"
        );
        assert_eq!(late.summary.device_delta.lane_idle_time, late_by);
        assert_eq!(late.summary.device_delta.lane_requests, 1);
        assert!(snap.lane_occupancy() < 1.0);
        assert_eq!(snap.lane_requests, 3);

        // Closed-loop lanes report full occupancy.
        let mut closed = session();
        let cid = closed.register(program("arrivals")).unwrap();
        let cdev = closed.create_device("closed-loop");
        for _ in 0..2 {
            closed
                .submit(&RunRequest::new(cid, Policy::Conduit).on_device(cdev))
                .unwrap();
        }
        assert_eq!(closed.device_snapshot(cdev).lane_occupancy(), 1.0);
    }

    #[test]
    fn fresh_arrivals_translate_without_changing_results() {
        let mut s = session();
        let id = s.register(program("shift")).unwrap();
        let base = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let shifted = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .arriving_at(SimTime::ZERO + Duration::from_us(700.0)),
            )
            .unwrap();
        assert_eq!(shifted.summary.queueing_time, Duration::ZERO);
        assert_eq!(shifted.summary, base.summary);
    }

    #[test]
    fn device_checkpoint_roundtrips_between_sessions() {
        let mut s = session();
        let id = s.register(program("ckpt")).unwrap();
        let dev = s.create_device("aging");
        for policy in [Policy::Conduit, Policy::PudSsd, Policy::HostCpu] {
            s.submit(&RunRequest::new(id, policy).on_device(dev))
                .unwrap();
        }
        let bytes = s.export_device(dev).unwrap();

        let mut other = session();
        let other_id = other.register(program("ckpt")).unwrap();
        let revived = other.import_device("aging", &bytes).unwrap();
        assert_eq!(other.device_snapshot(revived), s.device_snapshot(dev));
        assert_eq!(other.device_clock(revived), s.device_clock(dev));

        // Replay after the checkpoint is bit-identical to continuing the
        // original stream.
        let continued = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let replayed = other
            .submit(&RunRequest::new(other_id, Policy::Conduit).on_device(revived))
            .unwrap();
        assert_eq!(continued, replayed);

        // Corrupt checkpoints are rejected.
        assert!(other.import_device("bad", &bytes[..10]).is_err());
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert!(other.import_device("bad", &flipped).is_err());
    }

    #[test]
    fn checkpoint_import_rejects_a_mismatched_configuration() {
        let mut s = session();
        let id = s.register(program("fp")).unwrap();
        let dev = s.create_device("tenant");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let bytes = s.export_device(dev).unwrap();

        // Same geometry — the structural shape checks cannot tell these
        // apart — but a different flash read latency: the embedded
        // fingerprint must reject the import as corrupt.
        let mut slow_read = SsdConfig::small_for_tests();
        slow_read.flash.t_read = Duration::from_us(95.0);
        let mut other = Session::builder(slow_read).build();
        let err = other.import_device("tenant", &bytes).unwrap_err();
        assert!(
            matches!(err, ConduitError::CorruptCheckpoint { .. }),
            "got {err:?}"
        );
        assert!(other.find_device("tenant").is_none(), "pool unchanged");

        // A different *host* configuration is just as fatal: host-policy
        // service times shape the stream clock too.
        let mut fast_host = conduit_types::HostConfig::default();
        fast_host.cpu.freq_hz *= 2.0;
        let mut hosty = Session::builder(SsdConfig::small_for_tests())
            .host(fast_host)
            .build();
        assert!(matches!(
            hosty.import_device("tenant", &bytes),
            Err(ConduitError::CorruptCheckpoint { .. })
        ));

        // The exporting configuration still accepts it.
        let mut same = session();
        assert!(same.import_device("tenant", &bytes).is_ok());
    }

    #[test]
    fn pathological_arrival_offsets_saturate_instead_of_wrapping() {
        let mut s = session();
        let id = s.register(program("sat")).unwrap();
        let dev = s.create_device("edge");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let clock = s.device_clock(dev);
        // An absurd arrival must not panic or wrap the stream clock
        // backwards; the clock clamps at the end of representable time.
        let outcome = s.submit(
            &RunRequest::new(id, Policy::Conduit)
                .on_device(dev)
                .arriving_at(SimTime::from_ps(u64::MAX - 1)),
        );
        assert!(outcome.is_ok());
        assert!(s.device_clock(dev) >= clock, "clock must never move back");
    }

    #[test]
    fn importing_over_an_existing_name_replaces_the_device() {
        let mut s = session();
        let id = s.register(program("replace")).unwrap();
        let dev = s.create_device("tenant");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let checkpoint = s.export_device(dev).unwrap();
        // Age the device further, then restore the earlier checkpoint in
        // place.
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let aged = s.device_snapshot(dev);
        let restored = s.import_device("tenant", &checkpoint).unwrap();
        assert_eq!(restored, dev, "the handle is stable across restores");
        assert_ne!(s.device_snapshot(dev), aged);
    }

    #[test]
    fn exporting_a_pristine_device_roundtrips() {
        let mut s = session();
        let dev = s.create_device("unused");
        let bytes = s.export_device(dev).unwrap();
        let mut other = session();
        let revived = other.import_device("unused", &bytes).unwrap();
        assert_eq!(other.device_snapshot(revived), DeviceSnapshot::default());
        assert_eq!(other.device_clock(revived), SimTime::ZERO);
    }

    #[test]
    fn outcome_converts_to_run_report() {
        let mut s = session();
        let id = s.register(program("report")).unwrap();
        let outcome = s
            .submit(&RunRequest::new(id, Policy::Conduit).with_timeline())
            .unwrap();
        let summary = outcome.summary.clone();
        let report = outcome.into_run_report();
        assert_eq!(report.total_time, summary.total_time);
        assert_eq!(report.energy.total(), summary.total_energy);
        assert_eq!(report.timeline.len(), 2);
    }
}
