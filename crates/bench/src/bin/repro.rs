//! Regenerates the tables and figures of the Conduit evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p conduit-bench --bin repro -- <target> [--quick]
//! ```
//!
//! where `<target>` is an entry of the `TARGETS` table below (run with an
//! unknown target to get the full annotated list).
//!
//! Flags:
//!
//! * `--quick` uses the reduced test scale (useful for smoke runs;
//!   `--smoke` is an alias, used by the CI warm-pool step),
//! * `--serial` runs the (workload, policy) fan-out on one worker (the
//!   default runs one simulation per CPU core; results are bit-identical),
//! * `warm-pool` runs a multi-tenant request mix on four **named warm
//!   devices** (per-device FIFO lanes, parallel across devices) and prints
//!   each request's queueing/service split plus every device's cumulative
//!   FTL/coherence/GC/wear state,
//! * `arrival-sweep` sweeps **open-loop offered load** per tenant
//!   (`RunRequest::arriving_at` at a fixed inter-arrival interval) and
//!   prints the queueing-delay-vs-load curve with per-lane occupancy,
//! * `fault-sweep` sweeps the **raw flash failure rate** under a seeded
//!   fault plan on a write-heavy warm device and prints tail latency,
//!   retry/remap counters and the request index at which the spare-block
//!   budget ran out (time-to-degraded); the zero-rate row is bit-identical
//!   to a session without fault injection,
//! * `interference` co-schedules two latency-sensitive victim tenants
//!   against a bursty Markov-modulated antagonist on a shared vs isolated
//!   warm device (via a replayable `conduit-traffic` trace), sweeping the
//!   antagonist's in-burst offered load and printing victim p50/p99/p999,
//!   lane occupancy/queueing and GC/coherence counters per point,
//! * `fleet-sweep` replays one multi-tenant CTR1 trace through the
//!   `conduit-fleet` front-end at shard counts {1, 2, 4, 8}, printing
//!   fleet-wide p50/p99/p999, per-shard device/occupancy spread and
//!   admission-control shed counts (merged rows are bit-identical across
//!   shard counts),
//! * `ablation` prints Conduit's end-to-end time on heat-3d with each
//!   cost-function term dropped in turn,
//! * `perf-baseline` counts the Conduit runs' simulated work and writes
//!   `BENCH_sim_throughput.json` in the current directory,
//! * `perf-gate` gates on that deterministic **simulated-work counter**
//!   (device operations per vector instruction) against the committed
//!   `BENCH_sim_throughput.json` baseline and **fails (exit 1)** if the
//!   counter deviates more than 15% in *either* direction — more work per
//!   instruction is a perf regression, less usually means device operations
//!   silently stopped being issued. The counter is machine-independent, so
//!   the gate is immune to CI machine variance. Wall-clock numbers come from
//!   `perfbench/`.

use conduit_bench::throughput::{baseline_ops_per_instruction, baseline_scale, PerfBaseline};

/// The committed baseline `perf-gate` reads, relative to the current
/// directory.
const BASELINE_PATH: &str = "BENCH_sim_throughput.json";

/// How far `perf-gate` lets device ops per instruction move from the
/// baseline, in either direction.
const GATE_TOLERANCE: f64 = 0.15;

/// Every target the binary accepts, with a one-line description. The
/// usage line and the unknown-target listing are both generated from this
/// table, so adding a target here is the whole registration step (the
/// free-text help drifted out of date more than once before).
const TARGETS: &[(&str, &str)] = &[
    ("fig4", "per-instruction offload mix case study"),
    ("fig5", "motivation: naive IFP+ISP vs host baselines"),
    ("fig7", "speedup and energy, both panels"),
    ("fig7a", "speedup over host CPU"),
    ("fig7b", "energy vs host CPU"),
    ("fig8", "tail latency CDFs"),
    ("fig9", "offload-ratio sweep"),
    ("fig10", "execution timelines"),
    ("table3", "per-workload characterization"),
    ("overheads", "runtime latency/storage overheads"),
    ("headline", "paper-abstract headline numbers"),
    ("warm-pool", "multi-tenant warm-device pool report"),
    ("arrival-sweep", "open-loop offered-load sweep"),
    ("fault-sweep", "raw flash failure-rate sweep"),
    ("interference", "bursty antagonist vs victim tenants"),
    (
        "fleet-sweep",
        "sharded fleet at fixed load, shard count swept",
    ),
    ("ablation", "cost-function ablation on heat-3d"),
    ("perf-baseline", "write the device ops/instruction baseline"),
    ("perf-gate", "gate on device ops/instruction vs baseline"),
    ("all", "every figure and table from fig4 to headline"),
];

fn print_usage() {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}> [--quick|--smoke] [--serial]",
        names.join("|")
    );
}

fn print_targets() {
    eprintln!("available targets:");
    for (name, what) in TARGETS {
        eprintln!("  {name:<15} {what}");
    }
}

fn perf_gate(quick: bool) -> ! {
    let baseline_doc = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perf-gate: could not read baseline {BASELINE_PATH}: {e}");
            std::process::exit(2);
        }
    };
    let Some(baseline_ops) = baseline_ops_per_instruction(&baseline_doc) else {
        eprintln!(
            "perf-gate: {BASELINE_PATH} has no ops_per_instruction field; regenerate the \
             baseline with `repro perf-baseline`"
        );
        std::process::exit(2);
    };
    // Refuse apples-to-oranges comparisons: the measurement scale must
    // match the baseline's. Documents from before the scale field existed
    // are paper-scale.
    let baseline_scale = baseline_scale(&baseline_doc).unwrap_or("paper");
    let measured_scale = if quick { "quick" } else { "paper" };
    if baseline_scale != measured_scale {
        eprintln!(
            "perf-gate: baseline {BASELINE_PATH} was measured at {baseline_scale} scale but \
             this run is {measured_scale} scale; rerun {}",
            if quick {
                "without --quick (or regenerate the baseline with `repro perf-baseline --quick`)"
            } else {
                "with --quick (or regenerate the baseline with `repro perf-baseline`)"
            }
        );
        std::process::exit(2);
    }

    let report = PerfBaseline::measure(quick);
    print!("{}", report.summary());
    let measured = report.ops_per_instruction;
    let ceiling = baseline_ops * (1.0 + GATE_TOLERANCE);
    let floor = baseline_ops * (1.0 - GATE_TOLERANCE);
    println!(
        "perf-gate: measured {measured:.4} device ops/instruction vs baseline {baseline_ops:.4} \
         (allowed [{floor:.4}, {ceiling:.4}] at {:.0}% tolerance)",
        GATE_TOLERANCE * 100.0
    );
    if measured > ceiling {
        eprintln!(
            "perf-gate: FAIL — the simulator performs {:.1}% more work per instruction than \
             the committed baseline",
            (measured / baseline_ops - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    // The counter is deterministic, so a *drop* is just as suspicious as a
    // rise: it usually means device operations (coherence flushes, GC,
    // transfers) silently stopped being issued, which would skew every
    // figure while "improving" throughput. Intentional optimizations must
    // regenerate the baseline to acknowledge the new counter.
    if measured < floor {
        eprintln!(
            "perf-gate: FAIL — the simulator performs {:.1}% less work per instruction than \
             the committed baseline; if intentional, regenerate the baseline with \
             `repro perf-baseline`",
            (1.0 - measured / baseline_ops) * 100.0
        );
        std::process::exit(1);
    }
    println!("perf-gate: OK");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let serial = args.iter().any(|a| a == "--serial");
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let target = positional.next().cloned();

    let Some(target) = target else {
        print_usage();
        std::process::exit(2);
    };

    if target == "perf-baseline" {
        let report = PerfBaseline::measure(quick);
        print!("{}", report.summary());
        match std::fs::write(BASELINE_PATH, report.to_json()) {
            Ok(()) => println!("wrote {BASELINE_PATH}"),
            Err(e) => {
                eprintln!("could not write {BASELINE_PATH}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if target == "perf-gate" {
        perf_gate(quick);
    }

    let workers = serial.then_some(1);
    match conduit_bench::render_target(&target, quick, workers) {
        Some(output) => print!("{output}"),
        None => {
            eprintln!("repro: unknown target `{target}`");
            print_targets();
            std::process::exit(2);
        }
    }
}
