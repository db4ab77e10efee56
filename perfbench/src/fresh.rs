//! `fresh-sweep`: the figure-regeneration path.
//!
//! Each pass submits every paper workload × policy pair (66 requests) as one
//! `Session::submit_batch` on a session with one worker per core. Every run
//! gets a fresh device, so device construction and full placement happen
//! per request. The seed permutes the submission order only.
//!
//! The traced section re-executes each pass through the engine's public
//! functions — `SsdDevice::with_faults`, `RuntimeEngine::prepare` and
//! `RuntimeEngine::run_with_plan` with a strip plan made in set-up — fanned
//! out over the same number of threads as the session's batch, which runs
//! exactly these calls on its workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use conduit::{
    gmean, CostFunction, Policy, RunOptions, RunOutcome, RunReport, RunRequest, RuntimeEngine,
    Session, StripPlan,
};
use conduit_sim::{DeviceSnapshot, SsdDevice};
use conduit_types::{ConduitError, FaultConfig, SsdConfig, VectorProgram};
use conduit_workloads::Workload as PaperWorkload;

use crate::spans::Spans;
use crate::{
    check_mirror, full_ssd, publish_overhead, publish_request_latency, publish_throughput, ratio,
    repeated_setup, secs, sections, sim_quantile_ms, vectorize, Ctx, DeviceWork, Digest, Pass, Rng,
};

/// One (workload, policy) pair of the sweep, in submission order.
struct Pair {
    /// Index into [`PaperWorkload::ALL`] and [`Sweep::programs`].
    index: usize,
    workload: PaperWorkload,
    policy: Policy,
    program: Arc<VectorProgram>,
    /// The mirror's strip plan (traced runs only).
    plan: Option<Arc<StripPlan>>,
}

struct Sweep {
    ssd: SsdConfig,
    session: Session,
    programs: Vec<Arc<VectorProgram>>,
    pairs: Vec<Pair>,
    requests: Vec<RunRequest>,
}

/// The sweep's pairs in the seeded submission order.
fn submission_order(seed: u64) -> Vec<(usize, Policy)> {
    let mut order: Vec<(usize, Policy)> = (0..PaperWorkload::ALL.len())
        .flat_map(|w| Policy::ALL.into_iter().map(move |p| (w, p)))
        .collect();
    Rng::new(seed, 1).shuffle(&mut order);
    order
}

fn setup(ctx: &mut Ctx) -> Result<Sweep, String> {
    let ssd = full_ssd(ctx);
    let mut session = Session::builder(ssd.clone())
        .workers(ctx.cfg.workers)
        .build();
    let mut programs = Vec::new();
    for workload in PaperWorkload::ALL {
        let program = vectorize(ctx, workload)?;
        let id = session
            .register(program.clone())
            .map_err(|e| format!("registering {workload}: {e}"))?;
        programs.push((id, Arc::new(program)));
    }
    let order = submission_order(ctx.cfg.seed);
    let requests: Vec<RunRequest> = order
        .iter()
        .map(|&(w, policy)| RunRequest::new(programs[w].0, policy))
        .collect();
    // Warm-up pass: fills the session's plan cache and the engine's scratch
    // arenas before timing starts.
    session
        .submit_batch(&requests)
        .map_err(|e| format!("warm-up pass: {e}"))?;
    let trace = ctx.cfg.trace;
    let pairs = order
        .iter()
        .map(|&(w, policy)| {
            let program = Arc::clone(&programs[w].1);
            let plan = trace.then(|| {
                ctx.spans.time("core.plan", || {
                    Arc::new(StripPlan::plan(&program, policy, CostFunction::conduit()))
                })
            });
            Pair {
                index: w,
                workload: PaperWorkload::ALL[w],
                policy,
                program,
                plan,
            }
        })
        .collect();
    Ok(Sweep {
        ssd,
        session,
        programs: programs.into_iter().map(|(_, program)| program).collect(),
        pairs,
        requests,
    })
}

pub(crate) fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (sweep, setup_s) = repeated_setup(ctx, setup)?;
    ctx.report.push(crate::env::describe(
        &ctx.cfg,
        &sweep.ssd,
        1,
        ctx.cfg.workers,
    ));
    let mut input = Digest::default();
    for pair in &sweep.pairs {
        input
            .bytes(pair.workload.name().as_bytes())
            .bytes(pair.policy.to_string().as_bytes());
    }
    ctx.input_digest = input.finish();
    let instructions: usize = sweep.programs.iter().map(|p| p.len()).sum();
    ctx.metrics.set("vectorizer.insts", instructions as f64);
    ctx.metrics
        .set("vectorizer.ms", ctx.spans.secs("vectorizer") * 1e3);
    ctx.metrics
        .set("core.plan_ms", ctx.spans.secs("core.plan") * 1e3);

    let (untraced_budget, traced_budget) = sections(&ctx.cfg);
    let cache_before = sweep.session.plan_cache_stats();
    let mut first: Option<Vec<RunOutcome>> = None;
    let mut untraced = Vec::new();
    let mut samples = Vec::new();
    ctx.set_counting(true);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let result = sweep.session.submit_batch(&sweep.requests);
        let elapsed = secs(t.elapsed());
        let speed = ctx.host_speed();
        if let Some(outcomes) = ctx.call("Session::submit_batch", result) {
            let pass = pass_of(elapsed, speed, &outcomes);
            // A batch reports one host time; each request gets the share of
            // it in proportion to its simulated device operations.
            samples.push(
                outcomes
                    .iter()
                    .map(|o| {
                        let ops = o.summary.device_delta.device_ops as f64;
                        pass.secs * 1e3 * ratio(ops, pass.device_ops)
                    })
                    .collect(),
            );
            untraced.push(pass);
            ctx.pass_digest(digest(&outcomes));
            first.get_or_insert(outcomes);
        }
        ctx.mark_heap();
        if start.elapsed() >= untraced_budget {
            break;
        }
    }
    ctx.set_counting(false);
    let first = first.ok_or("no fresh-sweep pass succeeded")?;

    publish_throughput(ctx, &untraced);
    publish_request_latency(&mut ctx.metrics, &samples, 1);
    ctx.metrics.set("setup_s", setup_s);
    ctx.metrics.set("admit_frac", 1.0);
    sim_metrics(ctx, &sweep, &first);
    check_single_worker(ctx, &sweep, &first)?;

    if ctx.cfg.trace {
        traced(ctx, &sweep, &untraced, traced_budget)?;
    }
    let cache = sweep.session.plan_cache_stats();
    ctx.expect_eq(
        "plan-cache misses after set-up",
        cache.misses,
        cache_before.misses,
    );
    Ok(())
}

/// A pass of `host_secs` host seconds, scaled to reference seconds by
/// `speed`.
fn pass_of(host_secs: f64, speed: f64, outcomes: &[RunOutcome]) -> Pass {
    Pass {
        secs: host_secs * speed,
        host_secs,
        instructions: outcomes.iter().map(|o| o.summary.instructions as f64).sum(),
        device_ops: outcomes
            .iter()
            .map(|o| o.summary.device_delta.device_ops as f64)
            .sum(),
        requests: outcomes.len() as f64,
    }
}

fn digest(outcomes: &[RunOutcome]) -> u64 {
    let mut d = Digest::default();
    for outcome in outcomes {
        crate::digest_summary(&mut d, &outcome.summary);
    }
    d.finish()
}

/// Simulated latency percentiles and the paper headline ratios.
fn sim_metrics(ctx: &mut Ctx, sweep: &Sweep, outcomes: &[RunOutcome]) {
    let times: Vec<_> = outcomes.iter().map(|o| o.summary.total_time).collect();
    ctx.metrics.set("sim_p50_ms", sim_quantile_ms(&times, 0.5));
    ctx.metrics.set("sim_p99_ms", sim_quantile_ms(&times, 0.99));
    let find = |workload: PaperWorkload, policy: Policy| {
        sweep
            .pairs
            .iter()
            .zip(outcomes)
            .find(|(p, _)| p.workload == workload && p.policy == policy)
            .map(|(_, o)| &o.summary)
    };
    let (mut vs_cpu, mut vs_dm, mut energy_dm, mut ideal) = (vec![], vec![], vec![], vec![]);
    for w in PaperWorkload::ALL {
        let (Some(cpu), Some(dm), Some(conduit), Some(best)) = (
            find(w, Policy::HostCpu),
            find(w, Policy::DmOffloading),
            find(w, Policy::Conduit),
            find(w, Policy::Ideal),
        ) else {
            ctx.problem(format!("fresh-sweep is missing a headline policy for {w}"));
            return;
        };
        vs_cpu.push(conduit.speedup_over(cpu));
        vs_dm.push(conduit.speedup_over(dm));
        energy_dm.push(conduit.energy_vs(dm));
        ideal.push(best.total_time.as_ns() / conduit.total_time.as_ns());
    }
    let speedup = gmean(&vs_cpu);
    ctx.metrics.set("sim_speedup_cpu", speedup);
    let err = ctx.reference(&[
        (0, speedup),
        (1, gmean(&vs_dm)),
        (2, gmean(&energy_dm)),
        (3, gmean(&ideal)),
    ]);
    ctx.metrics.set("paper_log_err", err);
}

/// One pass on a single-worker session must give identical summaries.
fn check_single_worker(
    ctx: &mut Ctx,
    sweep: &Sweep,
    outcomes: &[RunOutcome],
) -> Result<(), String> {
    let mut serial = Session::builder(sweep.ssd.clone()).workers(1).build();
    let ids = sweep
        .programs
        .iter()
        .map(|program| serial.register(VectorProgram::clone(program)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("registering on the 1-worker session: {e}"))?;
    let requests: Vec<RunRequest> = sweep
        .pairs
        .iter()
        .map(|pair| RunRequest::new(ids[pair.index], pair.policy))
        .collect();
    let serial_outcomes = serial
        .submit_batch(&requests)
        .map_err(|e| format!("1-worker pass: {e}"))?;
    let same = serial_outcomes.len() == outcomes.len()
        && serial_outcomes
            .iter()
            .zip(outcomes)
            .all(|(a, b)| a.summary == b.summary);
    if !same {
        ctx.problem(format!(
            "fresh-sweep summaries differ between 1 and {} workers",
            ctx.cfg.workers
        ));
    }
    Ok(())
}

/// One request re-executed through the engine's public functions.
struct MirrorRun {
    report: RunReport,
    pages_placed: u64,
    after: DeviceSnapshot,
}

fn mirror_one(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    pair: &Pair,
    spans: &mut Spans,
) -> Result<MirrorRun, ConduitError> {
    let mut device = spans.time("sim.device_new", || {
        SsdDevice::with_faults(ssd, FaultConfig::default())
    })?;
    spans.time("core.prepare", || {
        engine.prepare(&mut device, &pair.program)
    })?;
    let pages_placed = device.ftl().stats().pages_mapped;
    let options = RunOptions::new(pair.policy).without_timeline();
    let report = spans.time("core.run", || {
        engine.run_with_plan(&mut device, &pair.program, &options, pair.plan.as_deref())
    })?;
    Ok(MirrorRun {
        report,
        pages_placed,
        after: device.snapshot(),
    })
}

type MirrorResults = Vec<Option<Result<MirrorRun, ConduitError>>>;

/// Re-executes one pass on `workers` threads that take requests in
/// submission order, as the session's bulk fan-out does.
fn mirror_pass(engine: &RuntimeEngine, sweep: &Sweep, workers: usize) -> (MirrorResults, Spans) {
    let next = AtomicUsize::new(0);
    let results: Mutex<MirrorResults> = Mutex::new((0..sweep.pairs.len()).map(|_| None).collect());
    let spans = Mutex::new(Spans::new(true));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Spans::new(true);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(pair) = sweep.pairs.get(i) else {
                        break;
                    };
                    let run = mirror_one(engine, &sweep.ssd, pair, &mut local);
                    results.lock().expect("a mirror thread panicked")[i] = Some(run);
                }
                spans
                    .lock()
                    .expect("a mirror thread panicked")
                    .merge(&local);
            });
        }
    });
    (
        results.into_inner().expect("a mirror thread panicked"),
        spans.into_inner().expect("a mirror thread panicked"),
    )
}

fn traced(
    ctx: &mut Ctx,
    sweep: &Sweep,
    untraced: &[Pass],
    budget: std::time::Duration,
) -> Result<(), String> {
    let engine = RuntimeEngine::with_host(&sweep.ssd, sweep.session.host_config());
    let workers = ctx.cfg.workers;
    let cache_before = sweep.session.plan_cache_stats();
    let mut passes = Vec::new();
    let mut layers = Spans::new(true);
    let mut work = DeviceWork::default();
    let pristine = DeviceSnapshot::default();
    ctx.set_counting(true);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let result = sweep.session.submit_batch(&sweep.requests);
        let elapsed = secs(t.elapsed());
        let speed = ctx.host_speed();
        let outcomes = ctx
            .call("Session::submit_batch", result)
            .ok_or("a traced fresh-sweep pass failed")?;
        ctx.spans.add("core.session", elapsed);
        passes.push(pass_of(elapsed, speed, &outcomes));
        ctx.pass_digest(digest(&outcomes));

        let (runs, spans) = mirror_pass(&engine, sweep, workers);
        layers.merge(&spans);
        for ((pair, outcome), run) in sweep.pairs.iter().zip(&outcomes).zip(runs) {
            let what = format!("fresh {} {}", pair.workload, pair.policy);
            let Some(run) = ctx.call(&what, run.ok_or("the mirror skipped a request")?) else {
                continue;
            };
            check_mirror(
                ctx,
                &what,
                &outcome.summary,
                &run.report,
                run.after.device_ops,
            );
            work.requests += 1.0;
            work.instructions += run.report.instructions as f64;
            work.pages_placed += run.pages_placed as f64;
            work.add_delta(&pristine, &run.after);
            if pair.policy == Policy::Conduit {
                work.add_conduit(&run.report.offload_mix, &run.report.breakdown);
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    ctx.set_counting(false);
    let cache = sweep.session.plan_cache_stats();
    let requests = work.requests;
    let session_secs = ctx.spans.secs("core.session");
    // Mirror spans are thread time on `workers` threads; dividing by the
    // worker count gives their wall-clock share of a saturated pool.
    let wall = |name: &str| layers.secs(name) / workers as f64;
    let per_req_ms = |secs: f64| ratio(secs * 1e3, requests);
    let m = &mut ctx.metrics;
    m.set("sim.device_new_ms", per_req_ms(wall("sim.device_new")));
    m.set(
        "sim.device_new_calls",
        ratio(layers.calls("sim.device_new") as f64, requests),
    );
    m.set("core.prepare_ms", per_req_ms(wall("core.prepare")));
    m.set(
        "core.prepare_calls",
        ratio(layers.calls("core.prepare") as f64, requests),
    );
    m.set("core.run_ms", per_req_ms(wall("core.run")));
    m.set(
        "core.run_ns_per_inst",
        ratio(layers.secs("core.run") * 1e9, work.instructions),
    );
    m.set("core.session_ms", per_req_ms(session_secs));
    let mirrored = wall("sim.device_new") + wall("core.prepare") + wall("core.run");
    m.set("core.session_self_ms", per_req_ms(session_secs - mirrored));
    m.set(
        "core.plan_cache_hits",
        ratio((cache.hits - cache_before.hits) as f64, requests),
    );
    m.set(
        "core.plan_cache_misses",
        (cache.misses - cache_before.misses) as f64,
    );
    work.publish(m);
    publish_overhead(m, untraced, &passes);
    for (name, secs, calls) in layers.entries() {
        ctx.report.push(format!(
            "# span: {name} {:.3} ms thread time over {calls} calls",
            secs * 1e3
        ));
    }
    Ok(())
}
