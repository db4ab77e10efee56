//! # conduit-fleet
//!
//! A fleet front-end over N independent [`Session`] shards: one logical
//! serving surface for many tenants, with deterministic tenant routing,
//! SLO-aware admission control and checkpoint-based work migration.
//!
//! * **Sharded sessions** — a [`Fleet`] owns `shards` fully independent
//!   [`Session`]s (same SSD/host/fault configuration, same batch worker
//!   count). Tenants are placed on shards by **rendezvous (HRW) hashing**
//!   over the tenant name, seeded by the fleet seed: the same tenant set
//!   and seed always produce the same assignment, and adding shards only
//!   moves the tenants that hash to the new shard.
//! * **Health-aware placement** — new tenants are steered away from shards
//!   holding a [`DeviceHealth::Degraded`] device: the HRW ranking is
//!   walked in score order and the first healthy shard wins (falling back
//!   to the raw HRW winner only when every shard is degraded). Tenants
//!   that name an already-placed device colocate with it regardless of
//!   health, because sharing a device's FIFO lane is the point of naming
//!   it.
//! * **Admission control** — [`Fleet::run_trace`] replays a
//!   [`Trace`] in fixed admission windows. At each window boundary every
//!   tenant's [`SloTarget`] is checked against the *previous* window's
//!   lane occupancy ([`DeviceSnapshot::window_occupancy`]) and the
//!   tenant's lifetime p99 (once at least `min_slo_samples` samples
//!   exist). A tenant that trips its SLO has that window's requests
//!   **shed**: counted per tenant, reported as typed
//!   [`ConduitError::AdmissionRejected`] events, never a panic.
//! * **Work migration** — [`Fleet::rebalance`] moves a tenant's device to
//!   another shard through the versioned device-checkpoint format
//!   ([`Session::export_device`] / [`Session::import_device`]): the
//!   stream clock and complete device state travel with the checkpoint,
//!   so the continued stream is bit-identical to never having moved.
//!   Forged or corrupt payloads reject as
//!   [`ConduitError::CorruptCheckpoint`] and leave the fleet unchanged.
//!
//! Determinism contract: everything is driven by simulated time and the
//! fleet seed. Per-device request streams are identical whatever shard
//! their device lands on, so merged fleet results are independent of the
//! shard count for single-tenant streams and bit-identical at every session
//! worker count.
//!
//! ```
//! use conduit_fleet::Fleet;
//! use conduit_traffic::{ArrivalSpec, TenantSpec, TrafficMix};
//! use conduit_types::{Duration, SsdConfig};
//! use conduit_workloads::{Scale, Workload};
//! use conduit::Policy;
//!
//! let mix = TrafficMix::new(Scale::test()).tenant(TenantSpec::new(
//!     "tenant-a",
//!     "lane-a",
//!     Workload::XorFilter,
//!     Policy::Conduit,
//!     ArrivalSpec::Deterministic {
//!         interarrival: Duration::from_us(200.0),
//!         phase: Duration::ZERO,
//!     },
//! ));
//! let trace = mix.generate(Duration::from_us(1000.0))?;
//!
//! let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
//!     .shards(4)
//!     .build();
//! let report = fleet.run_trace(&trace)?;
//! assert_eq!(report.served, trace.records.len() as u64);
//! assert_eq!(report.shed, 0);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

use conduit::{DeviceHandle, ProgramId, RunOutcome, RunRequest, Session};
use conduit_sim::{DeviceSnapshot, LaneStats, LatencyStats};
use conduit_traffic::{TenantSpec, Trace};
use conduit_types::bytes::{fnv1a, put_u64};
use conduit_types::{ConduitError, Duration, FaultConfig, HostConfig, Result, SimTime, SsdConfig};
use conduit_workloads::Scale;

#[cfg(doc)]
use conduit_traffic::SloTarget;
#[cfg(doc)]
use conduit_types::DeviceHealth;

/// Default admission-window length: one millisecond of simulated time.
/// Long enough for the windowed lane counters to mean something, short
/// enough that a saturating tenant is cut off after a bounded backlog.
pub const DEFAULT_ADMISSION_WINDOW: Duration = Duration::from_ps(1_000_000_000);

/// Default minimum number of latency samples before a tenant's p99 SLO is
/// enforced (a p99 over a handful of samples is noise, not a signal).
pub const DEFAULT_MIN_SLO_SAMPLES: usize = 16;

/// Default fleet routing seed.
pub const DEFAULT_FLEET_SEED: u64 = 0xF1EE_7000;

/// Opaque per-fleet tenant identifier, minted by
/// [`Fleet::register_tenant`] in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// Position of the tenant in the fleet's registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Rendezvous (highest-random-weight) score of `name` on `shard`: FNV-1a
/// over the fleet seed, the tenant name and the shard index — in that
/// order. The shard bytes must come *last*: FNV-1a is a weak sequential
/// mixer, and hashing a shared suffix after the differing shard bytes
/// correlates the per-shard ranking across every name (one shard wins the
/// whole fleet). With the shard trailing, each shard scores independently
/// per name, so resizing the fleet only remaps the tenants whose
/// top-scoring shard changed.
fn hrw_score(seed: u64, shard: usize, name: &str) -> u64 {
    let mut key = Vec::with_capacity(16 + name.len());
    put_u64(&mut key, seed);
    key.extend_from_slice(name.as_bytes());
    put_u64(&mut key, shard as u64);
    fnv1a(&key)
}

/// Builder for a [`Fleet`]; see [`Fleet::builder`].
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    ssd: SsdConfig,
    host: Option<HostConfig>,
    faults: FaultConfig,
    shards: usize,
    workers: Option<usize>,
    seed: u64,
    window: Duration,
    min_slo_samples: usize,
}

impl FleetBuilder {
    fn new(ssd: SsdConfig) -> Self {
        FleetBuilder {
            ssd,
            host: None,
            faults: FaultConfig::default(),
            shards: 1,
            workers: None,
            seed: DEFAULT_FLEET_SEED,
            window: DEFAULT_ADMISSION_WINDOW,
            min_slo_samples: DEFAULT_MIN_SLO_SAMPLES,
        }
    }

    /// Host (CPU/GPU/link) configuration shared by every shard.
    pub fn host(mut self, host: HostConfig) -> Self {
        self.host = Some(host);
        self
    }

    /// Fault-injection plan shared by every shard's devices.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Number of independent session shards (clamped to at least one).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Batch worker threads per shard's session (default: one per
    /// available CPU core; see [`conduit::SessionBuilder::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Shorthand for `workers(1)`: every shard runs its batches on the
    /// calling thread.
    pub fn serial(self) -> Self {
        self.workers(1)
    }

    /// Routing seed: same seed + same tenant names = same placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Admission-window length (clamped to at least one picosecond).
    pub fn admission_window(mut self, window: Duration) -> Self {
        self.window = Duration::from_ps(window.as_ps().max(1));
        self
    }

    /// Minimum latency samples before the p99 SLO is enforced.
    pub fn min_slo_samples(mut self, samples: usize) -> Self {
        self.min_slo_samples = samples;
        self
    }

    /// Builds the fleet: `shards` identically-configured sessions.
    pub fn build(self) -> Fleet {
        let shards = (0..self.shards)
            .map(|_| {
                let mut b = Session::builder(self.ssd.clone()).faults(self.faults);
                if let Some(host) = &self.host {
                    b = b.host(host.clone());
                }
                if let Some(workers) = self.workers {
                    b = b.workers(workers);
                }
                b.build()
            })
            .collect();
        Fleet {
            shards,
            seed: self.seed,
            window: self.window,
            min_slo_samples: self.min_slo_samples,
            tenants: Vec::new(),
            by_name: HashMap::new(),
            device_home: HashMap::new(),
        }
    }
}

/// One registered tenant: its spec, where it lives, and its lifetime
/// serving record.
struct TenantEntry {
    spec: TenantSpec,
    scale: Scale,
    shard: usize,
    device: DeviceHandle,
    program: ProgramId,
    latency: LatencyStats,
    served: u64,
    shed: u64,
}

/// A fleet of independent [`Session`] shards behind one submit surface.
/// See the crate docs for the routing, admission and migration contracts.
pub struct Fleet {
    shards: Vec<Session>,
    seed: u64,
    window: Duration,
    min_slo_samples: usize,
    tenants: Vec<TenantEntry>,
    by_name: HashMap<String, u32>,
    /// Device name → (shard, handle): tenants naming the same device are
    /// colocated with it so they genuinely share its lane.
    device_home: HashMap<String, (usize, DeviceHandle)>,
}

impl Fleet {
    /// Starts building a fleet over `ssd`-configured shards.
    pub fn builder(ssd: SsdConfig) -> FleetBuilder {
        FleetBuilder::new(ssd)
    }

    /// Number of session shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only view of one shard's session.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Session {
        &self.shards[shard]
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.by_name.get(name).map(|&i| TenantId(i))
    }

    fn entry(&self, tenant: TenantId) -> &TenantEntry {
        &self.tenants[tenant.index()]
    }

    /// The shard a tenant currently lives on.
    ///
    /// # Panics
    ///
    /// Panics on a [`TenantId`] minted by a different fleet.
    pub fn tenant_shard(&self, tenant: TenantId) -> usize {
        self.entry(tenant).shard
    }

    /// Requests served for this tenant so far (trace windows and single
    /// submits combined).
    pub fn tenant_served(&self, tenant: TenantId) -> u64 {
        self.entry(tenant).served
    }

    /// Requests shed by admission control for this tenant so far.
    pub fn tenant_shed(&self, tenant: TenantId) -> u64 {
        self.entry(tenant).shed
    }

    /// The tenant's lifetime arrival-to-completion latency histogram (the
    /// record the p99 SLO is enforced against).
    pub fn tenant_latency(&self, tenant: TenantId) -> &LatencyStats {
        &self.entry(tenant).latency
    }

    /// Whether any device on `shard` has degraded health (ran out of
    /// spare blocks under fault injection). New tenants are steered away
    /// from such shards.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_is_degraded(&self, shard: usize) -> bool {
        let session = &self.shards[shard];
        let handles: Vec<DeviceHandle> = session.devices().map(|(h, _)| h).collect();
        handles
            .into_iter()
            .any(|h| session.device_snapshot(h).health.is_degraded())
    }

    /// The shard a brand-new tenant named `name` would be placed on:
    /// shards ranked by rendezvous score, the first non-degraded one
    /// wins; if every shard is degraded the raw rendezvous winner is
    /// used (degraded capacity beats no capacity).
    pub fn placement_shard(&self, name: &str) -> usize {
        let mut ranked: Vec<usize> = (0..self.shards.len()).collect();
        ranked.sort_by(|&a, &b| {
            hrw_score(self.seed, b, name)
                .cmp(&hrw_score(self.seed, a, name))
                .then(a.cmp(&b))
        });
        let hrw_winner = ranked[0];
        ranked
            .into_iter()
            .find(|&s| !self.shard_is_degraded(s))
            .unwrap_or(hrw_winner)
    }

    /// Registers a tenant: places its device (colocating with an
    /// already-placed device of the same name, else by health-aware
    /// rendezvous hashing), registers its workload program on the owning
    /// shard, and returns the tenant's fleet-wide id.
    ///
    /// Re-registering an identical spec at the same scale is idempotent
    /// and returns the existing id.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidConfig`] when the name is already
    /// registered with a different spec or scale, and propagates workload
    /// generation / program validation errors.
    pub fn register_tenant(&mut self, spec: &TenantSpec, scale: Scale) -> Result<TenantId> {
        if let Some(&existing) = self.by_name.get(&spec.name) {
            let entry = &self.tenants[existing as usize];
            if entry.spec == *spec && entry.scale == scale {
                return Ok(TenantId(existing));
            }
            return Err(ConduitError::invalid_config(format!(
                "tenant {} is already registered with a different spec",
                spec.name
            )));
        }
        let (shard, device) = match self.device_home.get(&spec.device) {
            Some(&(shard, device)) => (shard, device),
            None => {
                let shard = self.placement_shard(&spec.name);
                let device = self.shards[shard].create_device(&spec.device);
                self.device_home
                    .insert(spec.device.clone(), (shard, device));
                (shard, device)
            }
        };
        let program = self.shards[shard].register(spec.workload.program(scale)?)?;
        let id = u32::try_from(self.tenants.len())
            .map_err(|_| ConduitError::invalid_config("fleet tenant table overflowed u32 ids"))?;
        self.tenants.push(TenantEntry {
            spec: spec.clone(),
            scale,
            shard,
            device,
            program,
            latency: LatencyStats::new(),
            served: 0,
            shed: 0,
        });
        self.by_name.insert(spec.name.clone(), id);
        Ok(TenantId(id))
    }

    /// Submits one request for `tenant` arriving at the fleet-global
    /// instant `arrival`, routing it to the tenant's shard and device.
    /// The arrival is rebased onto the device's stream clock (an arrival
    /// in the device's past queues immediately; queueing before the
    /// rebase point is carried into the recorded latency), and the
    /// tenant's lifetime latency record is updated.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the shard session.
    ///
    /// # Panics
    ///
    /// Panics on a [`TenantId`] minted by a different fleet.
    pub fn submit(&mut self, tenant: TenantId, arrival: SimTime) -> Result<RunOutcome> {
        let entry = &self.tenants[tenant.index()];
        let session = &self.shards[entry.shard];
        let base = session.device_clock(entry.device);
        let request = RunRequest::new(entry.program, entry.spec.policy)
            .on_device(entry.device)
            .arriving_at(SimTime::ZERO + arrival.saturating_since(base))
            .weighted(tenant.0, entry.spec.weight);
        let outcome = session.submit(&request)?;
        let carried = base.saturating_since(arrival);
        let entry = &mut self.tenants[tenant.index()];
        entry.latency.record(carried + outcome.summary.total_time);
        entry.served += 1;
        Ok(outcome)
    }

    /// Checks `tenant`'s SLO against the previous admission window,
    /// returning the typed rejection when it trips.
    fn admission_check(&self, tenant: TenantId) -> Option<ConduitError> {
        let entry = self.entry(tenant);
        let slo = &entry.spec.slo;
        if let Some(cap) = slo.max_lane_occupancy {
            let snap = self.shards[entry.shard].device_snapshot(entry.device);
            if snap.window_requests > 0 {
                let occupancy = snap.window_occupancy();
                if occupancy > cap {
                    return Some(ConduitError::admission_rejected(
                        &entry.spec.name,
                        format!("windowed lane occupancy {occupancy:.3} > {cap:.3}"),
                    ));
                }
            }
        }
        if let Some(limit) = slo.max_p99 {
            if entry.latency.len() >= self.min_slo_samples {
                let p99 = entry.latency.percentile(0.99);
                if p99 > limit {
                    return Some(ConduitError::admission_rejected(
                        &entry.spec.name,
                        format!(
                            "p99 {:.3} ms > SLO {:.3} ms over {} samples",
                            p99.as_ms(),
                            limit.as_ms(),
                            entry.latency.len()
                        ),
                    ));
                }
            }
        }
        None
    }

    /// Replays a traffic trace through the fleet in admission windows.
    ///
    /// Tenants are registered (idempotently) from the trace's mix, every
    /// record is routed to its tenant's shard, and each window boundary
    /// re-evaluates every appearing tenant's SLO against the previous
    /// window (see the crate docs). Shed requests are never executed;
    /// they are counted per tenant and reported as typed
    /// [`ShedEvent`]s. Within a window each shard serves its records as
    /// one batch (bit-identical at every worker count).
    ///
    /// # Errors
    ///
    /// Propagates tenant registration and simulation errors. SLO trips
    /// are *not* errors: they surface as [`FleetReport::sheds`].
    pub fn run_trace(&mut self, trace: &Trace) -> Result<FleetReport> {
        let mut ids = Vec::with_capacity(trace.mix.tenants.len());
        for spec in &trace.mix.tenants {
            ids.push(self.register_tenant(spec, trace.mix.scale)?);
        }

        // Bucket records into fixed windows by arrival; BTreeMap keeps the
        // windows in time order whatever order the records came in.
        let window_ps = self.window.as_ps().max(1);
        let mut windows: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, record) in trace.records.iter().enumerate() {
            windows
                .entry(record.arrival.as_ps() / window_ps)
                .or_default()
                .push(i);
        }

        let mut run_latency: Vec<LatencyStats> = ids.iter().map(|_| LatencyStats::new()).collect();
        let mut run_served = vec![0u64; ids.len()];
        let mut run_shed = vec![0u64; ids.len()];
        let mut sheds = Vec::new();
        let window_count = windows.len();

        for (window, records) in windows {
            // Admission verdict per tenant appearing in this window,
            // evaluated once at the window boundary.
            let mut verdicts: HashMap<u16, Option<ConduitError>> = HashMap::new();
            for &r in &records {
                let t = trace.records[r].tenant;
                verdicts
                    .entry(t)
                    .or_insert_with(|| self.admission_check(ids[t as usize]));
            }

            // Route admitted records to their shards, shed the rest.
            let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            let mut shed_counts: HashMap<u16, u64> = HashMap::new();
            for &r in &records {
                let t = trace.records[r].tenant;
                match &verdicts[&t] {
                    None => per_shard[self.entry(ids[t as usize]).shard].push(r),
                    Some(_) => *shed_counts.entry(t).or_default() += 1,
                }
            }
            for (&t, &count) in &shed_counts {
                let id = ids[t as usize];
                self.tenants[id.index()].shed += count;
                run_shed[t as usize] += count;
            }
            // Typed shed events, in tenant order for determinism.
            let mut shed_tenants: Vec<u16> = shed_counts.keys().copied().collect();
            shed_tenants.sort_unstable();
            for t in shed_tenants {
                let error = verdicts[&t]
                    .clone()
                    .expect("shed tenants have a rejection verdict");
                sheds.push(ShedEvent {
                    window,
                    tenant: trace.mix.tenants[t as usize].name.clone(),
                    requests: shed_counts[&t],
                    error,
                });
            }

            // Serve each shard's share of the window as one batch. Shards
            // are fully independent; serving them in index order keeps
            // the report deterministic.
            for (shard, batch) in per_shard.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                // Rebase global arrivals onto each device's stream clock
                // (captured before the batch; submit_batch re-reads the
                // same clocks when it starts).
                let mut bases: HashMap<u16, SimTime> = HashMap::new();
                let mut requests = Vec::with_capacity(batch.len());
                for &r in &batch {
                    let record = &trace.records[r];
                    let entry = self.entry(ids[record.tenant as usize]);
                    let base = *bases
                        .entry(record.tenant)
                        .or_insert_with(|| self.shards[shard].device_clock(entry.device));
                    requests.push(
                        RunRequest::new(entry.program, entry.spec.policy)
                            .on_device(entry.device)
                            .arriving_at(SimTime::ZERO + record.arrival.saturating_since(base))
                            .weighted(u32::from(record.tenant), entry.spec.weight),
                    );
                }
                let outcomes = self.shards[shard].submit_batch(&requests)?;
                for (&r, outcome) in batch.iter().zip(&outcomes) {
                    let record = &trace.records[r];
                    let carried = bases[&record.tenant].saturating_since(record.arrival);
                    let latency = carried + outcome.summary.total_time;
                    let id = ids[record.tenant as usize];
                    self.tenants[id.index()].latency.record(latency);
                    self.tenants[id.index()].served += 1;
                    run_latency[record.tenant as usize].record(latency);
                    run_served[record.tenant as usize] += 1;
                }
            }
        }

        // Merge per-tenant histograms into the fleet-wide view and
        // assemble the per-shard lane picture.
        let mut latency = LatencyStats::new();
        for stats in &run_latency {
            latency.merge(stats);
        }
        let tenants = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| TenantReport {
                name: trace.mix.tenants[t].name.clone(),
                shard: self.entry(id).shard,
                served: run_served[t],
                shed: run_shed[t],
                latency: run_latency[t].clone(),
            })
            .collect();
        let shards = (0..self.shards.len())
            .map(|s| self.shard_report(s))
            .collect();
        Ok(FleetReport {
            latency,
            served: run_served.iter().sum(),
            shed: run_shed.iter().sum(),
            windows: window_count,
            tenants,
            shards,
            sheds,
        })
    }

    /// Aggregates one shard's device lanes into a [`ShardReport`].
    fn shard_report(&self, shard: usize) -> ShardReport {
        let session = &self.shards[shard];
        let handles: Vec<DeviceHandle> = session.devices().map(|(h, _)| h).collect();
        let mut lanes = LaneStats::default();
        let mut degraded = false;
        for handle in &handles {
            let snap = session.device_snapshot(*handle);
            lanes.merge(&lane_stats_of(&snap));
            degraded |= snap.health.is_degraded();
        }
        ShardReport {
            devices: handles.len(),
            lanes,
            degraded,
        }
    }

    /// Serializes `tenant`'s device (stream clock + complete device
    /// state) into a migration checkpoint; see
    /// [`Session::export_device`].
    ///
    /// # Errors
    ///
    /// Propagates device-construction errors for a never-used device.
    pub fn export_tenant(&self, tenant: TenantId) -> Result<Vec<u8>> {
        let entry = self.entry(tenant);
        self.shards[entry.shard].export_device(entry.device)
    }

    /// Restores `tenant`'s device in place from a checkpoint produced by
    /// [`Fleet::export_tenant`] (or [`Session::export_device`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] for forged, truncated
    /// or configuration-mismatched payloads; the fleet is unchanged on
    /// error.
    pub fn restore_tenant(&mut self, tenant: TenantId, bytes: &[u8]) -> Result<()> {
        let (shard, name) = {
            let entry = self.entry(tenant);
            (entry.shard, entry.spec.device.clone())
        };
        self.shards[shard].import_device(&name, bytes)?;
        Ok(())
    }

    /// Migrates the device of `tenant` — and with it every tenant
    /// colocated on the same device name — to `to_shard` via an
    /// export/import checkpoint round trip. The device's stream clock
    /// and state travel intact, so the continued request stream is
    /// bit-identical to never having moved. A no-op when the tenant is
    /// already on `to_shard`.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidConfig`] for an out-of-range
    /// shard and propagates checkpoint errors; the source shard is only
    /// reset after the import succeeded.
    pub fn rebalance(&mut self, tenant: TenantId, to_shard: usize) -> Result<()> {
        if to_shard >= self.shards.len() {
            return Err(ConduitError::invalid_config(format!(
                "cannot rebalance to shard {to_shard}: the fleet has {} shards",
                self.shards.len()
            )));
        }
        let (from, old_device, name) = {
            let entry = self.entry(tenant);
            (entry.shard, entry.device, entry.spec.device.clone())
        };
        if from == to_shard {
            return Ok(());
        }
        let checkpoint = self.shards[from].export_device(old_device)?;
        let new_device = self.shards[to_shard].import_device(&name, &checkpoint)?;
        // The import succeeded: the target owns the stream now. Drop the
        // source copy so the device state never exists twice.
        self.shards[from].reset_device(old_device);
        self.device_home
            .insert(name.clone(), (to_shard, new_device));
        for i in 0..self.tenants.len() {
            if self.tenants[i].spec.device != name {
                continue;
            }
            // Re-register the colocated tenant's program on the target
            // (content-addressed, so repeats are free).
            let program = self.shards[to_shard].register(
                self.tenants[i]
                    .spec
                    .workload
                    .program(self.tenants[i].scale)?,
            )?;
            let entry = &mut self.tenants[i];
            entry.shard = to_shard;
            entry.device = new_device;
            entry.program = program;
        }
        Ok(())
    }
}

/// Cumulative lane statistics of a device snapshot, as a mergeable
/// [`LaneStats`].
fn lane_stats_of(snap: &DeviceSnapshot) -> LaneStats {
    LaneStats {
        requests: snap.lane_requests,
        busy: snap.lane_busy_time,
        idle: snap.lane_idle_time,
        queued: snap.lane_queued_time,
    }
}

/// One admission-control shed: a tenant-window pair whose requests were
/// rejected, with the typed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedEvent {
    /// Admission-window index (global arrival time / window length).
    pub window: u64,
    /// The shed tenant's name.
    pub tenant: String,
    /// How many of the tenant's requests fell in the shed window.
    pub requests: u64,
    /// The typed rejection ([`ConduitError::AdmissionRejected`]).
    pub error: ConduitError,
}

/// One tenant's share of a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name (from its [`TenantSpec`]).
    pub name: String,
    /// Shard the tenant ended the run on.
    pub shard: usize,
    /// Requests served during this run.
    pub served: u64,
    /// Requests shed by admission control during this run.
    pub shed: u64,
    /// Arrival-to-completion latencies of this run's served requests.
    pub latency: LatencyStats,
}

/// One shard's share of a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Devices pooled on the shard.
    pub devices: usize,
    /// The shard's device lanes merged into one cumulative view.
    pub lanes: LaneStats,
    /// Whether any of the shard's devices is degraded.
    pub degraded: bool,
}

/// The merged outcome of [`Fleet::run_trace`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet-wide arrival-to-completion histogram (every tenant merged).
    pub latency: LatencyStats,
    /// Requests served across the fleet during this run.
    pub served: u64,
    /// Requests shed across the fleet during this run.
    pub shed: u64,
    /// Admission windows the trace spanned (non-empty ones).
    pub windows: usize,
    /// Per-tenant breakdown, in trace tenant order.
    pub tenants: Vec<TenantReport>,
    /// Per-shard lane aggregates, in shard order.
    pub shards: Vec<ShardReport>,
    /// Typed admission rejections, in (window, tenant) order.
    pub sheds: Vec<ShedEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit::Policy;
    use conduit_traffic::{ArrivalSpec, TrafficMix};
    use conduit_workloads::Workload;

    fn spec(name: &str, device: &str, gap: Duration) -> TenantSpec {
        TenantSpec::new(
            name,
            device,
            Workload::XorFilter,
            Policy::Conduit,
            ArrivalSpec::Deterministic {
                interarrival: gap,
                phase: Duration::ZERO,
            },
        )
    }

    fn small_fleet(shards: usize) -> Fleet {
        Fleet::builder(SsdConfig::small_for_tests())
            .shards(shards)
            .serial()
            .build()
    }

    #[test]
    fn placement_is_deterministic_and_seed_sensitive() {
        let fleet_a = small_fleet(8);
        let fleet_b = small_fleet(8);
        let names: Vec<String> = (0..64).map(|i| format!("tenant-{i}")).collect();
        let placed_a: Vec<usize> = names.iter().map(|n| fleet_a.placement_shard(n)).collect();
        let placed_b: Vec<usize> = names.iter().map(|n| fleet_b.placement_shard(n)).collect();
        assert_eq!(placed_a, placed_b, "same seed must place identically");
        // All eight shards should receive someone (HRW spreads 32 names
        // well enough for this to hold at the fixed default seed).
        for shard in 0..8 {
            assert!(placed_a.contains(&shard), "shard {shard} got no tenant");
        }
        let reseeded = Fleet::builder(SsdConfig::small_for_tests())
            .shards(8)
            .seed(1)
            .serial()
            .build();
        let placed_c: Vec<usize> = names.iter().map(|n| reseeded.placement_shard(n)).collect();
        assert_ne!(placed_a, placed_c, "the seed must matter");
    }

    #[test]
    fn tenants_sharing_a_device_colocate() {
        let mut fleet = small_fleet(4);
        let gap = Duration::from_us(100.0);
        let a = fleet
            .register_tenant(&spec("alpha", "shared-lane", gap), Scale::test())
            .unwrap();
        let b = fleet
            .register_tenant(&spec("beta", "shared-lane", gap), Scale::test())
            .unwrap();
        assert_eq!(fleet.tenant_shard(a), fleet.tenant_shard(b));
        let c = fleet
            .register_tenant(&spec("gamma", "own-lane", gap), Scale::test())
            .unwrap();
        assert_eq!(fleet.placement_shard("gamma"), fleet.tenant_shard(c));
    }

    #[test]
    fn reregistration_is_idempotent_and_conflicts_are_rejected() {
        let mut fleet = small_fleet(2);
        let gap = Duration::from_us(100.0);
        let first = fleet
            .register_tenant(&spec("alpha", "lane", gap), Scale::test())
            .unwrap();
        let again = fleet
            .register_tenant(&spec("alpha", "lane", gap), Scale::test())
            .unwrap();
        assert_eq!(first, again);
        let conflict = fleet.register_tenant(&spec("alpha", "other-lane", gap), Scale::test());
        assert!(matches!(conflict, Err(ConduitError::InvalidConfig { .. })));
    }

    fn single_tenant_trace(gap: Duration, horizon: Duration) -> Trace {
        TrafficMix::new(Scale::test())
            .tenant(spec("solo", "solo-lane", gap))
            .generate(horizon)
            .unwrap()
    }

    #[test]
    fn merged_results_are_independent_of_shard_count_and_workers() {
        let gap = Duration::from_us(50.0);
        let trace = single_tenant_trace(gap, Duration::from_us(2000.0));
        let mut baseline = None;
        for shards in [1usize, 2, 4, 8] {
            for workers in [0usize, 2, 4, 8] {
                let mut builder = Fleet::builder(SsdConfig::small_for_tests()).shards(shards);
                builder = if workers == 0 {
                    builder.serial()
                } else {
                    builder.workers(workers)
                };
                let mut fleet = builder.build();
                let report = fleet.run_trace(&trace).unwrap();
                let signature = (
                    report.served,
                    report.shed,
                    report.latency.percentile(0.50),
                    report.latency.percentile(0.99),
                    report.latency.percentile(0.999),
                    report.latency.mean(),
                );
                match &baseline {
                    None => baseline = Some(signature),
                    Some(b) => assert_eq!(
                        *b, signature,
                        "fleet results must not depend on shards={shards} workers={workers}"
                    ),
                }
            }
        }
        assert_eq!(baseline.unwrap().1, 0, "no SLOs set, nothing may shed");
    }

    #[test]
    fn occupancy_slo_sheds_and_is_typed() {
        // One tenant hammering its lane at 1/10th of its service time:
        // occupancy ~1.0 from the first window on, so with a 0.5 cap
        // every window after the first sheds.
        let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
            .serial()
            .admission_window(Duration::from_us(100.0))
            .build();
        let mut hog = spec("hog", "hog-lane", Duration::from_us(2.0));
        hog.slo.max_lane_occupancy = Some(0.5);
        let trace = TrafficMix::new(Scale::test())
            .tenant(hog)
            .generate(Duration::from_us(400.0))
            .unwrap();
        let report = fleet.run_trace(&trace).unwrap();
        assert!(report.shed > 0, "a saturating tenant must shed: {report:?}");
        assert!(report.served > 0, "the first window is always admitted");
        assert_eq!(
            report.served + report.shed,
            trace.records.len() as u64,
            "every record is either served or shed"
        );
        for shed in &report.sheds {
            assert_eq!(shed.tenant, "hog");
            assert!(matches!(shed.error, ConduitError::AdmissionRejected { .. }));
        }
        let id = fleet.tenant_id("hog").unwrap();
        assert_eq!(fleet.tenant_shed(id), report.shed);
    }

    #[test]
    fn unconstrained_tenants_never_shed() {
        let trace = single_tenant_trace(Duration::from_us(2.0), Duration::from_us(400.0));
        let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
            .serial()
            .admission_window(Duration::from_us(100.0))
            .build();
        let report = fleet.run_trace(&trace).unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.served, trace.records.len() as u64);
    }

    #[test]
    fn p99_slo_sheds_once_sampled() {
        // Impossible SLO (1 ps): sheds exactly when the sample guard is
        // met at a window boundary.
        let mut tenant = spec("strict", "strict-lane", Duration::from_us(40.0));
        tenant.slo.max_p99 = Some(Duration::from_ps(1));
        let trace = TrafficMix::new(Scale::test())
            .tenant(tenant)
            .generate(Duration::from_us(2000.0))
            .unwrap();
        let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
            .serial()
            .admission_window(Duration::from_us(200.0))
            .min_slo_samples(4)
            .build();
        let report = fleet.run_trace(&trace).unwrap();
        assert!(report.shed > 0, "an impossible p99 SLO must shed");
        assert!(
            report
                .sheds
                .iter()
                .all(|s| matches!(s.error, ConduitError::AdmissionRejected { .. })),
            "{report:?}"
        );
        // The guard keeps the first windows admitted.
        assert!(report.served >= 4, "{report:?}");
    }

    #[test]
    fn rebalance_is_bit_identical_to_staying_put() {
        let gap = Duration::from_us(50.0);
        let horizon = Duration::from_us(1000.0);
        let trace = single_tenant_trace(gap, horizon);

        // Uninterrupted run on one shard.
        let mut stay = small_fleet(1);
        let report_stay = stay.run_trace(&trace).unwrap();

        // Same trace replayed twice with a migration in between: first
        // half on the placement shard, then moved to the other shard.
        let (first, second): (Vec<_>, Vec<_>) = {
            let cut = trace.records.len() / 2;
            (trace.records[..cut].to_vec(), trace.records[cut..].to_vec())
        };
        let mut moved = small_fleet(2);
        let mut half = trace.clone();
        half.records = first;
        let report_a = moved.run_trace(&half).unwrap();
        let id = moved.tenant_id("solo").unwrap();
        let from = moved.tenant_shard(id);
        let to = 1 - from;
        moved.rebalance(id, to).unwrap();
        assert_eq!(moved.tenant_shard(id), to);
        half.records = second;
        let report_b = moved.run_trace(&half).unwrap();

        assert_eq!(report_stay.served, report_a.served + report_b.served);
        let mut merged = LatencyStats::new();
        merged.merge(&report_a.latency);
        merged.merge(&report_b.latency);
        for p in [0.50, 0.99, 0.999] {
            assert_eq!(
                report_stay.latency.percentile(p),
                merged.percentile(p),
                "migration must not change the stream (p{p})"
            );
        }
        assert_eq!(report_stay.latency.mean(), merged.mean());
        // The whole device state moved: the source shard's lane is idle,
        // the target carries the full stream.
        let final_report = moved.run_trace(&{
            let mut empty = trace.clone();
            empty.records = Vec::new();
            empty
        });
        let final_report = final_report.unwrap();
        assert_eq!(final_report.shards[from].lanes.requests, 0);
        assert_eq!(final_report.shards[to].lanes.requests, report_stay.served);
    }

    #[test]
    fn forged_migration_payloads_are_rejected() {
        let mut fleet = small_fleet(2);
        let trace = single_tenant_trace(Duration::from_us(50.0), Duration::from_us(500.0));
        fleet.run_trace(&trace).unwrap();
        let id = fleet.tenant_id("solo").unwrap();
        let served = fleet.tenant_served(id);

        let good = fleet.export_tenant(id).unwrap();
        // Truncation, magic corruption, a forged format version and a
        // forged configuration fingerprint must all reject as
        // CorruptCheckpoint and leave the fleet serving.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let mut bad_fingerprint = good.clone();
        bad_fingerprint[6] ^= 0x01;
        for payload in [
            &good[..good.len() / 2],
            &bad_magic[..],
            &bad_version[..],
            &bad_fingerprint[..],
        ] {
            assert!(matches!(
                fleet.restore_tenant(id, payload),
                Err(ConduitError::CorruptCheckpoint { .. })
            ));
        }
        // The good checkpoint still restores in place.
        fleet.restore_tenant(id, &good).unwrap();
        assert_eq!(fleet.tenant_served(id), served);
    }

    #[test]
    fn degraded_shards_stop_receiving_placements() {
        // An aggressive fault plan with no spares degrades a device after
        // a short burst of writes.
        let faults = FaultConfig {
            seed: 7,
            program_fail_rate: 0.2,
            erase_fail_rate: 0.2,
            spare_blocks: 0,
            ..FaultConfig::default()
        };
        let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
            .shards(2)
            .faults(faults)
            .serial()
            .build();
        // Pick a tenant name that lands on shard 0, then degrade shard 0
        // by hammering its device.
        let victim_name = (0..64)
            .map(|i| format!("victim-{i}"))
            .find(|n| fleet.placement_shard(n) == 0)
            .expect("some name hashes to shard 0");
        let victim = fleet
            .register_tenant(
                &spec(&victim_name, "victim-lane", Duration::from_us(10.0)),
                Scale::test(),
            )
            .unwrap();
        let mut at = SimTime::ZERO;
        for _ in 0..10_000 {
            if fleet.shard_is_degraded(0) {
                break;
            }
            match fleet.submit(victim, at) {
                Ok(_) => {}
                // The run that exhausts the spare budget surfaces the
                // typed degradation error; the health gauge flips with it.
                Err(ConduitError::DeviceDegraded { .. }) => break,
                Err(e) => panic!("unexpected fault-path error: {e}"),
            }
            at += Duration::from_us(10.0);
        }
        assert!(
            fleet.shard_is_degraded(0),
            "fault plan must degrade shard 0"
        );
        // Every new placement must now steer to shard 1, even names whose
        // rendezvous winner is shard 0.
        let mut diverted = 0;
        for i in 0..32 {
            let name = format!("late-{i}");
            let hrw = [0, 1]
                .into_iter()
                .max_by_key(|&s| (hrw_score(fleet.seed, s, &name), usize::MAX - s))
                .unwrap();
            assert_eq!(fleet.placement_shard(&name), 1, "shard 0 is degraded");
            if hrw == 0 {
                diverted += 1;
            }
        }
        assert!(diverted > 0, "the test must exercise actual steering");
    }
}
