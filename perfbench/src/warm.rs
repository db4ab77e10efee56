//! `warm-rw`: the write-heavy warm-device path.
//!
//! Two named warm devices on a reduced-capacity geometry each hold one
//! program and two tenants: one runs it under Conduit, one under HostCpu,
//! so every tenant switch flushes the dirty pages through the FTL's
//! out-of-place rewrite path. Set-up places the programs and ages every
//! device until it has programmed [`AGE_FRACTION`] of its raw flash pages,
//! then exports a CDS3 checkpoint of each.
//!
//! The timed section runs rounds. A round restores every device from its
//! checkpoint and then sends [`ROUND`] lone `Session::submit` calls in a
//! closed loop (one client), in a seeded order of devices and tenant
//! switches. In one round the jacobi-1d device rewrites about twice its
//! raw capacity, so it reaches the FTL's `OutOfSpace` failure several
//! times; the XOR-filter device, with fewer and smaller flushes, does not.
//! A failed request is counted as failed and reported, and its device is
//! restored from the checkpoint before the stream continues. Every round is
//! identical, so every counter is too.
//!
//! The traced section mirrors each request through the engine's public
//! functions on cloned devices: `RuntimeEngine::prepare` (an idempotent
//! re-walk) and `RuntimeEngine::run_pooled` with the session's worker
//! count, the intra-run pooled evaluator a lone submit takes.

use std::sync::Arc;
use std::time::Instant;

use conduit::{
    CostFunction, DeviceHandle, Policy, RunOptions, RunReport, RunRequest, RuntimeEngine, Session,
    StripPlan, ThreadPool,
};
use conduit_sim::{DeviceSnapshot, SsdDevice};
use conduit_types::{ConduitError, Duration, FaultConfig, SimTime, SsdConfig, VectorProgram};
use conduit_workloads::Workload as PaperWorkload;

use crate::spans::Spans;
use crate::{
    check_mirror, digest_summary, gmean_ratio, publish_overhead, publish_request_latency,
    publish_throughput, ratio, repeated_setup, secs, sections, sim_quantile_ms, vectorize, Ctx,
    DeviceWork, Digest, Pass, RefClock, Rng,
};

/// The warm devices, the program each one holds, and how many runs of
/// each tenant it serves per round (see [`RUN_LENGTHS`]).
const DEVICES: [(&str, PaperWorkload, usize); 2] = [
    ("warm-jacobi", PaperWorkload::Jacobi1d, 9),
    ("warm-xor", PaperWorkload::XorFilter, 3),
];

/// A tenant's consecutive requests on its device come in runs of these
/// lengths; the first request of a run follows a switch and flushes the
/// other tenant's dirty pages.
const RUN_LENGTHS: [usize; 4] = [1, 1, 1, 2];

/// The two tenants of every device: an SSD-side policy and the host.
const TENANTS: [Policy; 2] = [Policy::Conduit, Policy::HostCpu];

/// Requests between two host-speed probes in a round (see [`RefClock`]).
const PROBE_EVERY: usize = 30;

/// Share of a device's raw flash pages programmed when aging stops.
const AGE_FRACTION: f64 = 0.5;

/// Requests per round.
const ROUND: usize = {
    let mut total = 0;
    let mut i = 0;
    while i < DEVICES.len() {
        let mut k = 0;
        while k < RUN_LENGTHS.len() {
            total += 2 * DEVICES[i].2 * RUN_LENGTHS[k];
            k += 1;
        }
        i += 1;
    }
    total
};

/// The reduced-capacity geometry: the test geometry with fewer blocks.
fn warm_ssd(reduced: bool) -> SsdConfig {
    let mut ssd = SsdConfig::small_for_tests();
    ssd.flash.blocks_per_plane = if reduced { 8 } else { 32 };
    ssd
}

fn raw_pages(ssd: &SsdConfig) -> u64 {
    ssd.flash.capacity_bytes() / ssd.flash.page_bytes
}

struct Device {
    name: &'static str,
    handle: DeviceHandle,
    program: Arc<VectorProgram>,
    requests: [RunRequest; 2],
    checkpoint: Vec<u8>,
    /// Requests the device served while aging.
    aged: usize,
}

struct Warm {
    ssd: SsdConfig,
    session: Session,
    devices: Vec<Device>,
    /// The aging steps, `(device, tenant)`, in order.
    aging: Vec<(usize, usize)>,
    /// One round's steps, `(device, tenant)`: seeded device order and
    /// tenant switches.
    schedule: Vec<(usize, usize)>,
}

/// One round's steps. Each device serves the same multiset of runs for
/// both tenants, alternating tenants run by run, so every round has the
/// same number of switches and plain requests per device and tenant; the
/// seed shuffles the run order of each tenant and the order in which the
/// devices' requests interleave.
fn schedule(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, 2);
    let mut order = Vec::with_capacity(ROUND);
    let mut streams = Vec::new();
    for (d, &(_, _, runs)) in DEVICES.iter().enumerate() {
        let runs = runs * RUN_LENGTHS.len();
        let per_tenant = [(); 2].map(|()| {
            let mut lengths: Vec<usize> = RUN_LENGTHS.iter().copied().cycle().take(runs).collect();
            rng.shuffle(&mut lengths);
            lengths
        });
        let first = rng.below(2);
        let mut stream = Vec::new();
        for (&a, &b) in per_tenant[first].iter().zip(&per_tenant[1 - first]) {
            stream.extend(std::iter::repeat_n(first, a));
            stream.extend(std::iter::repeat_n(1 - first, b));
        }
        order.extend(std::iter::repeat_n(d, stream.len()));
        stream.reverse();
        streams.push(stream);
    }
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|d| (d, streams[d].pop().expect("each device serves its share")))
        .collect()
}

fn setup(ctx: &mut Ctx) -> Result<Warm, String> {
    let ssd = warm_ssd(ctx.cfg.reduced);
    let mut session = Session::builder(ssd.clone())
        .workers(ctx.cfg.workers)
        .build();
    let mut devices = Vec::new();
    for (name, workload, _) in DEVICES {
        let program = vectorize(ctx, workload)?;
        let id = session
            .register(program.clone())
            .map_err(|e| format!("registering {workload}: {e}"))?;
        let handle = session.create_device(name);
        devices.push(Device {
            name,
            handle,
            program: Arc::new(program),
            requests: TENANTS.map(|policy| RunRequest::new(id, policy).on_device(handle)),
            checkpoint: Vec::new(),
            aged: 0,
        });
    }
    // Age each device by alternating its tenants until it has programmed
    // the target share of its raw pages.
    let target = (raw_pages(&ssd) as f64 * AGE_FRACTION) as u64;
    let mut aging = Vec::new();
    for (d, device) in devices.iter_mut().enumerate() {
        while session.device_snapshot(device.handle).pages_mapped < target {
            let tenant = device.aged % 2;
            session
                .submit(&device.requests[tenant])
                .map_err(|e| format!("aging {}: {e}", device.name))?;
            aging.push((d, tenant));
            device.aged += 1;
        }
        device.checkpoint = ctx
            .spans
            .time("codec.cds3_export", || session.export_device(device.handle))
            .map_err(|e| format!("exporting {}: {e}", device.name))?;
    }
    Ok(Warm {
        schedule: schedule(ctx.cfg.seed),
        ssd,
        session,
        devices,
        aging,
    })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    pass: Pass,
    digest: Digest,
    latency_ms: Vec<f64>,
    sim_times: Vec<Duration>,
    /// Service time sums per `(device, tenant)`.
    service: Vec<[(f64, f64); 2]>,
    failures: Vec<String>,
}

/// Restores `device` in the session from its checkpoint.
/// Returns the host seconds the import took.
fn restore(ctx: &mut Ctx, session: &mut Session, device: &Device) -> f64 {
    let t = Instant::now();
    let result = session.import_device(device.name, &device.checkpoint);
    let elapsed = secs(t.elapsed());
    ctx.spans.add("codec.cds3_import", elapsed);
    ctx.call("Session::import_device", result);
    elapsed
}

/// One round of lone submits. `mirror` re-executes each request through
/// the engine (traced section).
fn round(ctx: &mut Ctx, warm: &mut Warm, mut mirror: Option<&mut Mirror>) -> Round {
    for device in &warm.devices {
        restore(ctx, &mut warm.session, device);
    }
    // Quiescent point: the previous round's last run has long returned.
    ctx.mark_heap();
    if let Some(m) = mirror.as_deref_mut() {
        m.devices.clone_from(&m.aged);
    }
    let mut out = Round {
        service: vec![[(0.0, 0.0); 2]; warm.devices.len()],
        ..Round::default()
    };
    let mut since_restore = vec![0usize; warm.devices.len()];
    // Host time of the session calls (submits and failure restores); the
    // mirror and the bookkeeping between them are excluded.
    let mut busy = RefClock::default();
    let mut chunk_start = 0;
    for (i, &(d, tenant)) in warm.schedule.iter().enumerate() {
        let device = &warm.devices[d];
        let lane_before = mirror
            .is_some()
            .then(|| warm.session.device_snapshot(device.handle));
        let t = Instant::now();
        let result = warm.session.submit(&device.requests[tenant]);
        let elapsed = secs(t.elapsed());
        busy.add(elapsed);
        let error = result.as_ref().err().map(ConduitError::to_string);
        let outcome = ctx.call("Session::submit", result);
        since_restore[d] += 1;
        if let Some(m) = mirror.as_deref_mut() {
            ctx.spans.add("core.session", elapsed);
            let after = warm.session.device_snapshot(device.handle);
            if let Some(before) = lane_before {
                m.lane_busy += after.lane_busy_time.as_ms() - before.lane_busy_time.as_ms();
                m.lane_idle += after.lane_idle_time.as_ms() - before.lane_idle_time.as_ms();
                m.lane_queued += after.lane_queued_time.as_ms() - before.lane_queued_time.as_ms();
            }
            m.step(ctx, d, tenant, device, outcome.as_ref().map(|o| &o.summary));
        }
        match outcome {
            Some(o) => {
                let s = &o.summary;
                out.latency_ms.push(elapsed * 1e3);
                out.sim_times.push(s.total_time);
                out.pass.instructions += s.instructions as f64;
                out.pass.device_ops += s.device_delta.device_ops as f64;
                out.pass.requests += 1.0;
                let entry = &mut out.service[d][tenant];
                entry.0 += s.service_time.as_ms();
                entry.1 += 1.0;
                digest_summary(&mut out.digest, s);
            }
            None => {
                let snap = warm.session.device_snapshot(device.handle);
                out.failures.push(format!(
                    "# known FTL defect: {} on {} at round request {i} \
                     (device request {} since set-up placed it): live pages {}, \
                     rewrites {}, GC invocations {}, GC blocks erased {}",
                    error.as_deref().unwrap_or("error"),
                    device.name,
                    device.aged + since_restore[d],
                    snap.pages_mapped.saturating_sub(snap.rewrites),
                    snap.rewrites,
                    snap.gc_invocations,
                    snap.gc_blocks_erased,
                ));
                out.digest.u64(u64::MAX).u64(i as u64);
                busy.add(restore(ctx, &mut warm.session, device));
                since_restore[d] = 0;
                if let Some(m) = mirror.as_deref_mut() {
                    m.devices[d] = m.aged[d].clone();
                }
            }
        }
        if (i + 1) % PROBE_EVERY == 0 || i + 1 == warm.schedule.len() {
            let speed = busy.close(ctx);
            for ms in &mut out.latency_ms[chunk_start..] {
                *ms *= speed;
            }
            chunk_start = out.latency_ms.len();
        }
    }
    out.pass.secs = busy.ref_secs;
    out.pass.host_secs = busy.host_secs;
    out
}

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (mut warm, setup_s) = repeated_setup(ctx, setup)?;
    ctx.report.push(crate::env::describe(
        &ctx.cfg,
        &warm.ssd,
        1,
        ctx.cfg.workers,
    ));
    let mut input = Digest::default();
    for &(d, tenant) in &warm.schedule {
        input.u64(d as u64).u64(tenant as u64);
    }
    ctx.input_digest = input.finish();
    let instructions: usize = warm.devices.iter().map(|d| d.program.len()).sum();
    ctx.metrics.set("vectorizer.insts", instructions as f64);
    ctx.metrics
        .set("vectorizer.ms", ctx.spans.secs("vectorizer") * 1e3);
    let checkpoint_bytes: usize = warm.devices.iter().map(|d| d.checkpoint.len()).sum();
    ctx.metrics.set(
        "codec.cds3_bytes",
        checkpoint_bytes as f64 / warm.devices.len() as f64,
    );
    let mut mirror = if ctx.cfg.trace {
        Some(Mirror::new(ctx, &warm)?)
    } else {
        None
    };

    let (untraced_budget, traced_budget) = sections(&ctx.cfg);
    let cache_before = warm.session.plan_cache_stats();
    let mut rounds = Vec::new();
    ctx.set_counting(true);
    let start = Instant::now();
    loop {
        let r = round(ctx, &mut warm, None);
        ctx.pass_digest(r.digest.finish());
        rounds.push(r);
        if start.elapsed() >= untraced_budget {
            break;
        }
    }
    ctx.set_counting(false);
    let first = &rounds[0];
    ctx.report.extend(first.failures.iter().cloned());

    let passes: Vec<Pass> = rounds.iter().map(|r| r.pass).collect();
    publish_throughput(ctx, &passes);
    let latency: Vec<Vec<f64>> = rounds.iter().map(|r| r.latency_ms.clone()).collect();
    publish_request_latency(&mut ctx.metrics, &latency, 1);
    ctx.metrics.set("setup_s", setup_s);
    ctx.metrics.set("admit_frac", 1.0);
    ctx.metrics
        .set("sim_p50_ms", sim_quantile_ms(&first.sim_times, 0.5));
    ctx.metrics
        .set("sim_p99_ms", sim_quantile_ms(&first.sim_times, 0.99));
    // Conduit's warm speedup over HostCpu: mean HostCpu service time over
    // mean Conduit service time, per device, geometric mean over devices.
    let mean = |(sum, n): (f64, f64)| ratio(sum, n);
    let pairs: Vec<(f64, f64)> = first
        .service
        .iter()
        .map(|[conduit, cpu]| (mean(*cpu), mean(*conduit)))
        .collect();
    for (device, [conduit, cpu]) in warm.devices.iter().zip(&first.service) {
        ctx.report.push(format!(
            "# warm: {} mean service {:.3} sim ms over {} Conduit and {:.3} over {} HostCpu requests",
            device.name,
            mean(*conduit),
            conduit.1,
            mean(*cpu),
            cpu.1
        ));
    }
    let speedup = gmean_ratio(&pairs);
    ctx.metrics.set("sim_speedup_cpu", speedup);
    let err = ctx.reference(&[(0, speedup)]);
    ctx.metrics.set("paper_log_err", err);

    if let Some(m) = mirror.as_mut() {
        let hits_before = warm.session.plan_cache_stats().hits;
        let mut traced = Vec::new();
        ctx.set_counting(true);
        let start = Instant::now();
        loop {
            let r = round(ctx, &mut warm, Some(m));
            ctx.pass_digest(r.digest.finish());
            traced.push(r.pass);
            if start.elapsed() >= traced_budget {
                break;
            }
        }
        ctx.set_counting(false);
        let hits = warm.session.plan_cache_stats().hits - hits_before;
        m.publish(ctx, &passes, &traced, hits);
    }
    let cache = warm.session.plan_cache_stats();
    ctx.expect_eq(
        "plan-cache misses after set-up",
        cache.misses,
        cache_before.misses,
    );
    Ok(())
}

/// A device re-executed through the engine: its state and stream clock.
#[derive(Clone)]
struct MirrorDevice {
    device: SsdDevice,
    clock: SimTime,
}

/// The traced section's engine mirror of the warm devices.
struct Mirror {
    engine: RuntimeEngine,
    pool: Option<ThreadPool>,
    /// Strip plans per `(device, tenant)`.
    plans: Vec<[Arc<StripPlan>; 2]>,
    devices: Vec<MirrorDevice>,
    /// The devices as aging left them (the checkpoint's state).
    aged: Vec<MirrorDevice>,
    work: DeviceWork,
    lane_busy: f64,
    lane_idle: f64,
    lane_queued: f64,
}

impl Mirror {
    /// Builds the mirror devices by replaying the aging steps.
    fn new(ctx: &mut Ctx, warm: &Warm) -> Result<Mirror, String> {
        let workers = ctx.cfg.workers;
        let plans = warm
            .devices
            .iter()
            .map(|d| {
                TENANTS.map(|policy| {
                    ctx.spans.time("core.plan", || {
                        Arc::new(StripPlan::plan(&d.program, policy, CostFunction::conduit()))
                    })
                })
            })
            .collect();
        let mut mirror = Mirror {
            engine: RuntimeEngine::with_host(&warm.ssd, warm.session.host_config()),
            pool: (workers > 1).then(|| ThreadPool::new(workers)),
            plans,
            devices: Vec::new(),
            aged: Vec::new(),
            work: DeviceWork::default(),
            lane_busy: 0.0,
            lane_idle: 0.0,
            lane_queued: 0.0,
        };
        ctx.metrics
            .set("core.plan_ms", ctx.spans.secs("core.plan") * 1e3);
        for _ in &warm.devices {
            let device = SsdDevice::with_faults(&warm.ssd, FaultConfig::default())
                .map_err(|e| format!("building a mirror device: {e}"))?;
            mirror.devices.push(MirrorDevice {
                device,
                clock: SimTime::ZERO,
            });
        }
        let mut scratch = Spans::new(false);
        for &(d, tenant) in &warm.aging {
            let (result, _, _, _) = mirror.execute(d, tenant, &warm.devices[d], &mut scratch);
            result.map_err(|e| format!("aging the mirror of {}: {e}", warm.devices[d].name))?;
        }
        mirror.aged.clone_from(&mirror.devices);
        Ok(mirror)
    }

    /// Runs one request on a mirror device: `prepare`, then the pooled run
    /// loop from the device's stream clock. Returns the report, the device
    /// snapshots around it and the pages `prepare` newly placed.
    fn execute(
        &mut self,
        d: usize,
        tenant: usize,
        device: &Device,
        spans: &mut Spans,
    ) -> (
        Result<RunReport, ConduitError>,
        DeviceSnapshot,
        DeviceSnapshot,
        u64,
    ) {
        let m = &mut self.devices[d];
        let before = m.device.snapshot();
        let prepared = spans.time("core.prepare", || {
            self.engine.prepare(&mut m.device, &device.program)
        });
        let placed = m.device.ftl().stats().pages_mapped - before.pages_mapped;
        let result = prepared.and_then(|()| {
            let options = RunOptions::new(TENANTS[tenant])
                .without_timeline()
                .starting_at(m.clock);
            spans.time("core.run", || {
                self.engine.run_pooled(
                    &mut m.device,
                    &device.program,
                    &options,
                    Some(&self.plans[d][tenant]),
                    self.pool.as_ref(),
                )
            })
        });
        if let Ok(report) = &result {
            m.clock += report.total_time;
        }
        let after = m.device.snapshot();
        (result, before, after, placed)
    }

    /// Mirrors one traced request and checks it against the session's.
    fn step(
        &mut self,
        ctx: &mut Ctx,
        d: usize,
        tenant: usize,
        device: &Device,
        session: Option<&conduit::RunSummary>,
    ) {
        let (result, before, after, placed) = self.execute(d, tenant, device, &mut ctx.spans);
        self.work.requests += 1.0;
        self.work.pages_placed += placed as f64;
        self.work.add_delta(&before, &after);
        let what = format!("warm {} {}", device.name, TENANTS[tenant]);
        match (result, session) {
            (Ok(report), Some(summary)) => {
                check_mirror(
                    ctx,
                    &what,
                    summary,
                    &report,
                    after.device_ops - before.device_ops,
                );
                self.work.instructions += report.instructions as f64;
                if TENANTS[tenant] == Policy::Conduit {
                    self.work
                        .add_conduit(&report.offload_mix, &report.breakdown);
                }
            }
            (Err(ConduitError::OutOfSpace), None) => self.work.out_of_space += 1.0,
            (mirror, session) => ctx.problem(format!(
                "{what}: the engine mirror returned {:?} but Session::submit {}",
                mirror.map(|r| r.total_time),
                if session.is_some() {
                    "succeeded"
                } else {
                    "failed"
                }
            )),
        }
    }

    fn publish(&self, ctx: &mut Ctx, untraced: &[Pass], traced: &[Pass], plan_hits: u64) {
        let requests = self.work.requests;
        let per_req_ms = |secs: f64| ratio(secs * 1e3, requests);
        let spans = &ctx.spans;
        let session = spans.secs("core.session");
        let prepare = spans.secs("core.prepare");
        let run = spans.secs("core.run");
        let import_ms = ratio(
            spans.secs("codec.cds3_import") * 1e3,
            spans.calls("codec.cds3_import") as f64,
        );
        let export_ms = ratio(
            spans.secs("codec.cds3_export") * 1e3,
            spans.calls("codec.cds3_export") as f64,
        );
        let prepare_calls = ratio(spans.calls("core.prepare") as f64, requests);
        let m = &mut ctx.metrics;
        m.set("core.prepare_ms", per_req_ms(prepare));
        m.set("core.prepare_calls", prepare_calls);
        m.set("core.run_ms", per_req_ms(run));
        m.set(
            "core.run_ns_per_inst",
            ratio(run * 1e9, self.work.instructions),
        );
        m.set("core.session_ms", per_req_ms(session));
        m.set("core.session_self_ms", per_req_ms(session - prepare - run));
        m.set("core.plan_cache_hits", ratio(plan_hits as f64, requests));
        m.set("codec.cds3_import_ms", import_ms);
        m.set("codec.cds3_export_ms", export_ms);
        m.set(
            "sim.lane_occupancy",
            ratio(self.lane_busy, self.lane_busy + self.lane_idle),
        );
        m.set("sim.lane_queued_ms", ratio(self.lane_queued, requests));
        self.work.publish(m);
        publish_overhead(m, untraced, traced);
    }
}
