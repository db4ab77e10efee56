//! `fleet-replay`: the read-mostly warm serving path.
//!
//! Set-up probes each tenant's service time on a warm device, builds a
//! six-tenant mix in the style of `repro fleet-sweep` — Poisson tenants at
//! 0.5× (jacobi-1d) and 0.3× (XOR filter) their probed service rate, a 4:1
//! weighted Poisson pair sharing one DRR lane at 0.5× its rate, an
//! SLO-capped periodic hog offered at 2× that admission sheds,
//! and a Markov-modulated on/off (MMPP) tenant at 2/3 of its rate while on
//! and half the time on — with every arrival stream
//! seeded from the benchmark seed, generates the trace, and round-trips it
//! through the CTR1 codec. The fleet has two shards.
//!
//! The trace is cut into [`SEGMENTS`] segments of equal length, each
//! shifted to start at time zero. A pass restores every device from a
//! pristine CDS3 checkpoint and replays one segment, one admission window
//! per `Fleet::run_trace` call, as fast as the host can (arrivals are
//! open-loop in simulated time); halfway through, one tenant moves to the
//! other shard with `Fleet::rebalance`. Passes cycle through the segments,
//! so a run holds many short passes while the simulated figures come from a
//! whole cycle (the full trace). Each tenant keeps one policy, so there is
//! no GC.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use conduit::{Policy, RunRequest, Session};
use conduit_fleet::{Fleet, FleetReport, TenantId};
use conduit_sim::{DeviceSnapshot, LaneStats, LatencyStats};
use conduit_traffic::{ArrivalSpec, SloTarget, TenantSpec, Trace, TraceRecord, TrafficMix};
use conduit_types::{Duration, SimTime, SsdConfig, VectorProgram};
use conduit_workloads::Workload as PaperWorkload;

use crate::spans::Spans;
use crate::{
    full_ssd, gmean_ratio, publish_overhead, publish_request_latency, publish_throughput, ratio,
    repeated_setup, secs, sections, vectorize, Ctx, DeviceWork, Digest, Pass, RefClock, Rng,
};

const SHARDS: usize = 2;

/// Admission windows over the trace horizon; the replay feeds one window
/// per `Fleet::run_trace` call.
const WINDOWS: u64 = 64;

/// Segments the trace is cut into; one pass replays one segment.
const SEGMENTS: usize = 4;

/// Consecutive windows whose host time is shared out over their served
/// requests for `req_p50_ms`/`req_p99_ms`: one window holds too few
/// requests for its mean to be steady.
const TIMING_GROUP: usize = 4;

/// The horizon in units of the slowest probed service time.
const HORIZON_UNITS: u64 = 128;

/// The tenant that migrates halfway through a pass.
const MOVER: &str = "steady-a";

/// A slice of the trace shifted to start at time zero, whole and split by
/// admission window.
struct Segment {
    trace: Trace,
    windows: Vec<Trace>,
}

struct Replay {
    ssd: SsdConfig,
    workers_per_shard: usize,
    window: Duration,
    trace: Trace,
    ctr1_bytes: usize,
    segments: Vec<Segment>,
    fleet: Fleet,
    tenants: Vec<TenantId>,
    /// Instructions of each tenant's program, in mix order.
    instructions: Vec<f64>,
    /// Instructions the vectorizer emitted in set-up.
    vectorized: usize,
    /// One tenant per device with the device's pristine checkpoint.
    checkpoints: Vec<(TenantId, Vec<u8>)>,
    mover: TenantId,
    /// Probed `(HostCpu, Conduit)` service times of the Conduit tenants'
    /// workloads.
    speedups: Vec<(f64, f64)>,
}

/// The service time of a `policy` run of `program` on a warm device: the
/// second request on a device whose first request placed the data.
fn probe(ssd: &SsdConfig, program: &VectorProgram, policy: Policy) -> Result<Duration, String> {
    let mut session = Session::builder(ssd.clone()).serial().build();
    let id = session
        .register(program.clone())
        .map_err(|e| format!("registering a probe: {e}"))?;
    let request = RunRequest::new(id, policy).on_device(session.create_device("probe"));
    session
        .submit(&request)
        .and_then(|_| session.submit(&request))
        .map(|o| o.summary.service_time)
        .map_err(|e| format!("probing {} under {policy}: {e}", program.name()))
}

/// `(name, device, workload, policy)` of the mix's tenants.
const MIX: [(&str, &str, PaperWorkload, Policy); 6] = [
    (MOVER, "lane-a", PaperWorkload::Jacobi1d, Policy::Conduit),
    (
        "steady-b",
        "lane-b",
        PaperWorkload::XorFilter,
        Policy::Conduit,
    ),
    ("wfq-hi", "wfq-lane", PaperWorkload::Aes, Policy::Conduit),
    ("wfq-lo", "wfq-lane", PaperWorkload::Aes, Policy::Conduit),
    (
        "hog",
        "hog-lane",
        PaperWorkload::LlmTraining,
        Policy::HostCpu,
    ),
    (
        "bursty",
        "burst-lane",
        PaperWorkload::Heat3d,
        Policy::Conduit,
    ),
];

fn setup(ctx: &mut Ctx) -> Result<Replay, String> {
    let ssd = full_ssd(ctx);
    let scale = ctx.scale();
    let mut programs: BTreeMap<PaperWorkload, VectorProgram> = BTreeMap::new();
    let mut service = Vec::new();
    let mut speedups = Vec::new();
    for (_, _, workload, policy) in MIX {
        if let Entry::Vacant(slot) = programs.entry(workload) {
            slot.insert(vectorize(ctx, workload)?);
        }
        let program = &programs[&workload];
        let own = probe(&ssd, program, policy)?;
        if policy == Policy::Conduit && !service.iter().any(|(w, _)| *w == workload) {
            let cpu = probe(&ssd, program, Policy::HostCpu)?;
            speedups.push((cpu.as_ns(), own.as_ns()));
        }
        service.push((workload, own));
    }
    let svc = |i: usize| service[i].1;
    let unit = service
        .iter()
        .map(|(_, s)| *s)
        .max()
        .unwrap_or(Duration::ZERO);
    let horizon = unit * HORIZON_UNITS;
    let window = horizon / WINDOWS;

    let mut rng = Rng::new(ctx.cfg.seed, 4);
    let seeds: [u64; 6] = std::array::from_fn(|_| rng.next_u64());
    let poisson = |i: usize, mean: Duration| ArrivalSpec::Poisson {
        mean_interarrival: mean,
        seed: seeds[i],
    };
    let hog_gap = svc(4) / 2;
    let arrivals = [
        poisson(0, svc(0) * 2),
        poisson(1, svc(1) * 10 / 3),
        poisson(2, svc(2) * 4),
        poisson(3, svc(3) * 4),
        // The hog's arrivals are periodic with a seeded phase, so how many
        // of its requests land before admission sheds it does not swing
        // with the seed.
        ArrivalSpec::Deterministic {
            interarrival: hog_gap,
            phase: Duration::from_ps(seeds[4] % hog_gap.as_ps().max(1)),
        },
        ArrivalSpec::MarkovOnOff {
            burst_interarrival: svc(5) * 3 / 2,
            mean_on: svc(5) * 6,
            mean_off: svc(5) * 6,
            seed: seeds[5],
        },
    ];
    let mut mix = TrafficMix::new(scale);
    for ((name, device, workload, policy), arrivals) in MIX.into_iter().zip(arrivals) {
        let spec = TenantSpec::new(name, device, workload, policy, arrivals);
        mix = mix.tenant(match name {
            "wfq-hi" => spec.weighted(4),
            "wfq-lo" => spec.weighted(1),
            "hog" => spec.with_slo(SloTarget {
                max_p99: None,
                max_lane_occupancy: Some(0.8),
            }),
            _ => spec,
        });
    }
    let generated = ctx
        .spans
        .time("traffic.generate", || mix.generate(horizon))
        .map_err(|e| format!("generating the trace: {e}"))?;
    let bytes = ctx
        .spans
        .time("traffic.ctr1_encode", || generated.to_bytes());
    let trace = ctx
        .spans
        .time("traffic.ctr1_decode", || Trace::from_bytes(&bytes))
        .map_err(|e| format!("decoding the trace: {e}"))?;
    if trace != generated {
        return Err("the CTR1 round trip changed the trace".into());
    }

    let window_ps = window.as_ps().max(1);
    let per_segment = WINDOWS / SEGMENTS as u64;
    let mut buckets: BTreeMap<(u64, u64), Vec<TraceRecord>> = BTreeMap::new();
    for record in &trace.records {
        let w = record.arrival.as_ps() / window_ps;
        let segment = (w / per_segment).min(SEGMENTS as u64 - 1);
        let start = segment * per_segment * window_ps;
        let shifted = TraceRecord {
            arrival: SimTime::from_ps(record.arrival.as_ps() - start),
            ..*record
        };
        buckets
            .entry((segment, w - segment * per_segment))
            .or_default()
            .push(shifted);
    }
    let mut segments: Vec<Segment> = (0..SEGMENTS)
        .map(|_| Segment {
            trace: Trace {
                mix: trace.mix.clone(),
                records: Vec::new(),
            },
            windows: Vec::new(),
        })
        .collect();
    for ((segment, _), records) in buckets {
        let segment = &mut segments[segment as usize];
        segment.trace.records.extend_from_slice(&records);
        segment.windows.push(Trace {
            mix: trace.mix.clone(),
            records,
        });
    }

    let workers_per_shard = (ctx.cfg.workers / SHARDS).max(1);
    let mut fleet = fleet_of(&ssd, workers_per_shard, window);
    let mut tenants = Vec::new();
    let mut checkpoints = Vec::new();
    for spec in &trace.mix.tenants {
        let id = fleet
            .register_tenant(spec, scale)
            .map_err(|e| format!("registering {}: {e}", spec.name))?;
        tenants.push(id);
        if !checkpoints
            .iter()
            .any(|(t, _): &(TenantId, _)| trace.mix.tenants[t.index()].device == spec.device)
        {
            let pristine = fleet
                .export_tenant(id)
                .map_err(|e| format!("exporting {}: {e}", spec.name))?;
            checkpoints.push((id, pristine));
        }
    }
    let instructions = MIX
        .iter()
        .map(|(_, _, w, _)| programs[w].len() as f64)
        .collect();
    let mut replay = Replay {
        vectorized: programs.values().map(VectorProgram::len).sum(),
        ssd,
        workers_per_shard,
        window,
        ctr1_bytes: bytes.len(),
        segments,
        mover: fleet
            .tenant_id(MOVER)
            .ok_or("the mover is not registered")?,
        trace,
        fleet,
        tenants,
        instructions,
        checkpoints,
        speedups,
    };
    // Warm-up: one request per tenant on its home shard and one for the
    // mover on the other shard fill both shards' strip-plan caches; every
    // pass restores the devices first.
    let fleet = &mut replay.fleet;
    for &id in &replay.tenants {
        fleet
            .submit(id, SimTime::ZERO)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let home = fleet.tenant_shard(replay.mover);
    let warm_up = fleet
        .rebalance(replay.mover, (home + 1) % SHARDS)
        .and_then(|()| fleet.submit(replay.mover, SimTime::ZERO))
        .and_then(|_| fleet.rebalance(replay.mover, home));
    warm_up.map_err(|e| format!("warm-up: {e}"))?;
    Ok(replay)
}

fn fleet_of(ssd: &SsdConfig, workers_per_shard: usize, window: Duration) -> Fleet {
    Fleet::builder(ssd.clone())
        .shards(SHARDS)
        .workers(workers_per_shard)
        .admission_window(window)
        .build()
}

/// What one pass measured.
#[derive(Default, Clone)]
struct PassResult {
    pass: Pass,
    latency: LatencyStats,
    served: u64,
    shed: u64,
    windows: usize,
    tenant_served: Vec<u64>,
    tenant_shed: Vec<u64>,
    tenant_latency: Vec<LatencyStats>,
    /// Host milliseconds per served request.
    request_ms: Vec<f64>,
    /// Per-shard lane statistics at the end of the pass.
    lanes: Vec<LaneStats>,
    work: DeviceWork,
    export_bytes: usize,
}

impl PassResult {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u64(self.served).u64(self.shed).u64(self.windows as u64);
        d.u64(self.latency.len() as u64)
            .u64(self.latency.mean().as_ps());
        for q in [0.5, 0.9, 0.99, 0.999] {
            d.u64(self.latency.percentile(q).as_ps());
        }
        for (served, shed) in self.tenant_served.iter().zip(&self.tenant_shed) {
            d.u64(*served).u64(*shed);
        }
        d.finish()
    }

    fn add(&mut self, report: &FleetReport, instructions: &[f64]) {
        self.latency.merge(&report.latency);
        self.served += report.served;
        self.shed += report.shed;
        self.windows += report.windows;
        self.tenant_served.resize(report.tenants.len(), 0);
        self.tenant_shed.resize(report.tenants.len(), 0);
        self.tenant_latency
            .resize(report.tenants.len(), LatencyStats::new());
        for (i, tenant) in report.tenants.iter().enumerate() {
            self.tenant_served[i] += tenant.served;
            self.tenant_shed[i] += tenant.shed;
            self.tenant_latency[i].merge(&tenant.latency);
            self.pass.instructions += tenant.served as f64 * instructions[i];
        }
        self.lanes = report.shards.iter().map(|s| s.lanes).collect();
    }

    /// Folds a later pass into this one (a cycle over the segments).
    fn absorb(&mut self, other: &PassResult) {
        self.latency.merge(&other.latency);
        self.served += other.served;
        self.shed += other.shed;
        self.windows += other.windows;
        for (i, latency) in other.tenant_latency.iter().enumerate() {
            self.tenant_served[i] += other.tenant_served[i];
            self.tenant_shed[i] += other.tenant_shed[i];
            self.tenant_latency[i].merge(latency);
        }
        for (mine, theirs) in self.lanes.iter_mut().zip(&other.lanes) {
            mine.merge(theirs);
        }
        let w = &mut self.work;
        let o = &other.work;
        w.requests += o.requests;
        w.instructions += o.instructions;
        w.pages_placed += o.pages_placed;
        w.rewrites += o.rewrites;
        w.coherence_syncs += o.coherence_syncs;
        w.gc_invocations += o.gc_invocations;
        w.gc_pages_migrated += o.gc_pages_migrated;
        w.gc_blocks_erased += o.gc_blocks_erased;
        w.wear_swaps += o.wear_swaps;
        w.l2p_hits += o.l2p_hits;
        w.l2p_misses += o.l2p_misses;
        w.device_ops += o.device_ops;
    }
}

/// One replay of trace segment `segment`. `spans` times the layer calls
/// (traced section) and, when tracing, the rebalance's codec steps are
/// mirrored to time them.
fn pass(
    ctx: &mut Ctx,
    replay: &mut Replay,
    segment: usize,
    spans: &mut Spans,
) -> Result<PassResult, String> {
    for (tenant, bytes) in &replay.checkpoints {
        let restored = replay.fleet.restore_tenant(*tenant, bytes);
        ctx.call("Fleet::restore_tenant", restored);
    }
    let mut out = PassResult::default();
    let mut busy = RefClock::default();
    let windows = &replay.segments[segment].windows;
    let half = windows.len() / 2;
    let mut group = (0.0, 0);
    for (k, window) in windows.iter().enumerate() {
        if k == half {
            let to = (replay.fleet.tenant_shard(replay.mover) + 1) % SHARDS;
            if ctx.cfg.trace {
                // Time the codec steps the rebalance performs, on a copy.
                let export = spans.time("codec.cds3_export", || {
                    replay.fleet.export_tenant(replay.mover)
                });
                if let Some(bytes) = ctx.call("Fleet::export_tenant", export) {
                    out.export_bytes = bytes.len();
                    let mut scratch = Session::builder(replay.ssd.clone()).serial().build();
                    let import =
                        spans.time("codec.cds3_import", || scratch.import_device(MOVER, &bytes));
                    ctx.call("Session::import_device", import);
                }
            }
            let t = Instant::now();
            let moved = replay.fleet.rebalance(replay.mover, to);
            busy.add(secs(t.elapsed()));
            ctx.call("Fleet::rebalance", moved);
        }
        let t = Instant::now();
        let result = replay.fleet.run_trace(window);
        let elapsed = secs(t.elapsed());
        busy.add(elapsed);
        spans.add("fleet.run_trace", elapsed);
        if let Some(report) = ctx.call("Fleet::run_trace", result) {
            out.add(&report, &replay.instructions);
            group.0 += elapsed;
            group.1 += report.served;
        }
        // Each served request is charged the mean time of its group of
        // windows; the host-speed probe runs after every group.
        if (k + 1) % TIMING_GROUP == 0 || k + 1 == windows.len() {
            let speed = busy.close(ctx);
            let per_request = group.0 * speed * 1e3 / group.1.max(1) as f64;
            out.request_ms.extend((0..group.1).map(|_| per_request));
            group = (0.0, 0);
        }
    }
    out.pass.secs = busy.ref_secs;
    out.pass.host_secs = busy.host_secs;
    out.pass.requests = out.served as f64;
    let pristine = DeviceSnapshot::default();
    for shard in 0..SHARDS {
        let session = replay.fleet.shard(shard);
        for (handle, _) in session.devices() {
            let snap = session.device_snapshot(handle);
            out.work.add_delta(&pristine, &snap);
            out.work.pages_placed += snap.pages_mapped.saturating_sub(snap.rewrites) as f64;
        }
    }
    out.pass.device_ops = out.work.device_ops;
    out.work.requests = out.served as f64;
    out.work.instructions = out.pass.instructions;
    Ok(out)
}

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (mut replay, setup_s) = repeated_setup(ctx, setup)?;
    ctx.report.push(crate::env::describe(
        &ctx.cfg,
        &replay.ssd,
        SHARDS,
        replay.workers_per_shard,
    ));
    ctx.input_digest = Digest::default().bytes(&replay.trace.to_bytes()).finish();
    ctx.report.push(format!(
        "# fleet: {} records over {} windows of {:.3} sim ms in {SEGMENTS} segments, \
         {} tenants on {} devices",
        replay.trace.records.len(),
        replay
            .segments
            .iter()
            .map(|s| s.windows.len())
            .sum::<usize>(),
        replay.window.as_ms(),
        replay.tenants.len(),
        replay.checkpoints.len(),
    ));
    for (span, metric) in [
        ("vectorizer", "vectorizer.ms"),
        ("traffic.generate", "traffic.generate_ms"),
        ("traffic.ctr1_encode", "traffic.ctr1_encode_ms"),
        ("traffic.ctr1_decode", "traffic.ctr1_decode_ms"),
    ] {
        ctx.metrics.set(metric, ctx.spans.secs(span) * 1e3);
    }
    ctx.metrics
        .set("traffic.ctr1_bytes", replay.ctr1_bytes as f64);
    ctx.metrics
        .set("vectorizer.insts", replay.vectorized as f64);

    let (untraced_budget, traced_budget) = sections(&ctx.cfg);
    let misses_before = plan_misses(&replay.fleet);
    let mut untimed = Spans::new(false);
    ctx.set_counting(true);
    let passes = run_passes(ctx, &mut replay, untraced_budget, &mut untimed)?;
    ctx.set_counting(false);
    let digests: Vec<u64> = passes[..SEGMENTS].iter().map(PassResult::digest).collect();
    let mut cycle_digest = Digest::default();
    for d in &digests {
        cycle_digest.u64(*d);
    }
    ctx.pass_digest(cycle_digest.finish());
    check_segments(ctx, &passes, &digests);
    // The simulated figures cover one cycle: the whole trace.
    let mut cycle = passes[0].clone();
    for p in &passes[1..SEGMENTS] {
        cycle.absorb(p);
    }
    for (i, spec) in replay.trace.mix.tenants.iter().enumerate() {
        let latency = &cycle.tenant_latency[i];
        ctx.report.push(format!(
            "# fleet: tenant {} served {} shed {} sim p50 {:.3} p99 {:.3} ms",
            spec.name,
            cycle.tenant_served[i],
            cycle.tenant_shed[i],
            latency.percentile(0.5).as_ms(),
            latency.percentile(0.99).as_ms(),
        ));
    }
    let records = replay.trace.records.len() as u64;
    ctx.expect_eq(
        "served + shed = offered records",
        cycle.served + cycle.shed,
        records,
    );

    let host: Vec<Pass> = passes.iter().map(|p| p.pass).collect();
    publish_throughput(ctx, &host);
    let samples: Vec<Vec<f64>> = passes.iter().map(|p| p.request_ms.clone()).collect();
    publish_request_latency(&mut ctx.metrics, &samples, SEGMENTS);
    ctx.metrics.set("setup_s", setup_s);
    ctx.metrics
        .set("admit_frac", ratio(cycle.served as f64, records as f64));
    ctx.metrics
        .set("sim_p50_ms", cycle.latency.percentile(0.5).as_ms());
    ctx.metrics
        .set("sim_p99_ms", cycle.latency.percentile(0.99).as_ms());
    let speedup = gmean_ratio(&replay.speedups);
    ctx.metrics.set("sim_speedup_cpu", speedup);
    let err = ctx.reference(&[(0, speedup)]);
    ctx.metrics.set("paper_log_err", err);
    check_against_single_replay(ctx, &replay, &cycle)?;

    let segments = SEGMENTS as f64;
    let m = &mut ctx.metrics;
    m.set("fleet.windows", cycle.windows as f64 / segments);
    m.set("fleet.served", cycle.served as f64 / segments);
    m.set("fleet.shed", cycle.shed as f64 / segments);
    let occupancy: Vec<f64> = cycle.lanes.iter().map(LaneStats::occupancy).collect();
    let max = occupancy.iter().copied().fold(0.0, f64::max);
    let min = occupancy.iter().copied().fold(max, f64::min);
    m.set("fleet.shard_occupancy_spread", max - min);
    let mut lanes = LaneStats::default();
    for shard in &cycle.lanes {
        lanes.merge(shard);
    }
    m.set("sim.lane_occupancy", lanes.occupancy());
    m.set(
        "sim.lane_queued_ms",
        ratio(lanes.queued.as_ms(), cycle.served as f64),
    );
    cycle.work.publish(m);

    if ctx.cfg.trace {
        let mut spans = Spans::new(true);
        let hits_before = plan_hits(&replay.fleet);
        ctx.set_counting(true);
        let runs = run_passes(ctx, &mut replay, traced_budget, &mut spans)?;
        ctx.set_counting(false);
        check_segments(ctx, &runs, &digests);
        let traced: Vec<Pass> = runs.iter().map(|p| p.pass).collect();
        let served: f64 = traced.iter().map(|p| p.requests).sum();
        let m = &mut ctx.metrics;
        m.set(
            "fleet.run_trace_ms",
            spans.secs("fleet.run_trace") * 1e3 / traced.len() as f64,
        );
        for (span, metric) in [
            ("codec.cds3_export", "codec.cds3_export_ms"),
            ("codec.cds3_import", "codec.cds3_import_ms"),
        ] {
            m.set(
                metric,
                ratio(spans.secs(span) * 1e3, spans.calls(span) as f64),
            );
        }
        let bytes = runs.iter().map(|p| p.export_bytes as f64).sum::<f64>() / runs.len() as f64;
        m.set("codec.cds3_bytes", bytes);
        m.set(
            "core.plan_cache_hits",
            ratio((plan_hits(&replay.fleet) - hits_before) as f64, served),
        );
        publish_overhead(m, &host, &traced);
    }
    ctx.expect_eq(
        "plan-cache misses after set-up",
        plan_misses(&replay.fleet),
        misses_before,
    );
    ctx.metrics.set(
        "core.plan_cache_misses",
        (plan_misses(&replay.fleet) - misses_before) as f64,
    );
    Ok(())
}

/// Runs passes over the segments in turn until `budget` has passed and at
/// least one whole cycle ran.
fn run_passes(
    ctx: &mut Ctx,
    replay: &mut Replay,
    budget: std::time::Duration,
    spans: &mut Spans,
) -> Result<Vec<PassResult>, String> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < SEGMENTS || start.elapsed() < budget {
        out.push(pass(ctx, replay, out.len() % SEGMENTS, spans)?);
        ctx.mark_heap();
    }
    Ok(out)
}

/// Every pass over a segment must reproduce the first cycle's outputs.
fn check_segments(ctx: &mut Ctx, passes: &[PassResult], digests: &[u64]) {
    for (k, p) in passes.iter().enumerate() {
        let expected = digests[k % SEGMENTS];
        if p.digest() != expected {
            ctx.problem(format!(
                "fleet segment {} replayed differently in pass {k}",
                k % SEGMENTS
            ));
        }
    }
}

fn plan_hits(fleet: &Fleet) -> u64 {
    (0..fleet.shard_count())
        .map(|s| fleet.shard(s).plan_cache_stats().hits)
        .sum()
}

fn plan_misses(fleet: &Fleet) -> u64 {
    (0..fleet.shard_count())
        .map(|s| fleet.shard(s).plan_cache_stats().misses)
        .sum()
}

/// The windowed replay with its rebalance must serve exactly what one
/// `run_trace` over each whole segment, without the rebalance, serves.
fn check_against_single_replay(
    ctx: &mut Ctx,
    replay: &Replay,
    cycle: &PassResult,
) -> Result<(), String> {
    let mut latency = LatencyStats::new();
    let (mut served, mut shed) = (0, 0);
    let mut tenant_served = vec![0; replay.tenants.len()];
    for segment in &replay.segments {
        let mut fleet = fleet_of(&replay.ssd, replay.workers_per_shard, replay.window);
        let report = fleet
            .run_trace(&segment.trace)
            .map_err(|e| format!("single replay: {e}"))?;
        latency.merge(&report.latency);
        served += report.served;
        shed += report.shed;
        for (total, tenant) in tenant_served.iter_mut().zip(&report.tenants) {
            *total += tenant.served;
        }
    }
    ctx.expect_eq("served without the rebalance", served, cycle.served);
    ctx.expect_eq("shed without the rebalance", shed, cycle.shed);
    if latency != cycle.latency {
        ctx.problem(format!(
            "merged latency differs from a replay without the rebalance: p99 {} vs {} sim ms",
            latency.percentile(0.99).as_ms(),
            cycle.latency.percentile(0.99).as_ms()
        ));
    }
    ctx.expect_eq(
        "per-tenant served without the rebalance",
        tenant_served,
        cycle.tenant_served.clone(),
    );
    Ok(())
}
