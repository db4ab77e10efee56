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
//! * `--serial` disables the parallel (workload, policy) fan-out (the
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
//! * `sim-throughput` measures simulator throughput and writes
//!   `BENCH_sim_throughput.json` next to the current directory,
//! * `perf-gate` gates on the deterministic **simulated-work counter**
//!   (device operations per vector instruction) against the committed
//!   `BENCH_sim_throughput.json` baseline and **fails (exit 1)** if the
//!   counter deviates more than `--threshold` (default 15%) in *either*
//!   direction — more work per instruction is a perf regression, less
//!   usually means device operations silently stopped being issued. The
//!   counter is machine-independent, so the gate is immune to CI machine
//!   variance; wall-clock throughput is printed for information only.
//!   `--baseline <path>` overrides the baseline.

use conduit_bench::throughput::{
    baseline_instructions_per_sec, baseline_ops_per_instruction, baseline_scale, ThroughputReport,
};

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
    ("sim-throughput", "measure simulator throughput baseline"),
    ("perf-gate", "gate on device ops/instruction vs baseline"),
    ("all", "every figure and table above"),
];

fn print_usage() {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}> [--quick|--smoke] [--serial] [--baseline <path>] [--threshold <fraction>]",
        names.join("|")
    );
}

fn print_targets() {
    eprintln!("available targets:");
    for (name, what) in TARGETS {
        eprintln!("  {name:<15} {what}");
    }
}

/// The value following a `--flag` option, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn perf_gate(args: &[String], quick: bool) -> ! {
    let baseline_path =
        flag_value(args, "--baseline").unwrap_or_else(|| "BENCH_sim_throughput.json".to_string());
    let threshold: f64 = match flag_value(args, "--threshold") {
        None => 0.15,
        Some(t) => match t.parse() {
            Ok(v) if (0.0..1.0).contains(&v) => v,
            _ => {
                eprintln!(
                    "perf-gate: --threshold takes a fraction in [0, 1), e.g. 0.15; got `{t}`"
                );
                std::process::exit(2);
            }
        },
    };

    let baseline_doc = match std::fs::read_to_string(&baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perf-gate: could not read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let Some(baseline_ops) = baseline_ops_per_instruction(&baseline_doc) else {
        eprintln!(
            "perf-gate: {baseline_path} has no ops_per_instruction field; regenerate the \
             baseline with `repro sim-throughput` (the gate moved from wall-clock throughput \
             to deterministic simulated-work counters)"
        );
        std::process::exit(2);
    };
    let baseline_wall = baseline_instructions_per_sec(&baseline_doc);
    // Refuse apples-to-oranges comparisons: the measurement scale must
    // match the baseline's. Documents from before the scale field existed
    // are paper-scale.
    let baseline_scale = baseline_scale(&baseline_doc).unwrap_or("paper");
    let measured_scale = if quick { "quick" } else { "paper" };
    if baseline_scale != measured_scale {
        eprintln!(
            "perf-gate: baseline {baseline_path} was measured at {baseline_scale} scale but \
             this run is {measured_scale} scale; rerun {}",
            if quick {
                "without --quick (or regenerate the baseline with `repro sim-throughput --quick`)"
            } else {
                "with --quick (or regenerate the baseline with `repro sim-throughput`)"
            }
        );
        std::process::exit(2);
    }

    // Counters only: the gate never reads the sweep timings, so skip the
    // serial+parallel figure sweeps the figure-smoke CI step already runs.
    let report = ThroughputReport::measure_counters_only(quick);
    print!("{}", report.summary());
    if let Some(wall) = baseline_wall {
        // Informational only: wall clock depends on the machine.
        println!(
            "perf-gate: wall-clock {:.0} inst/s vs baseline {wall:.0} inst/s (informational)",
            report.instructions_per_sec
        );
    }
    let measured = report.ops_per_instruction;
    let ceiling = baseline_ops * (1.0 + threshold);
    let floor = baseline_ops * (1.0 - threshold);
    println!(
        "perf-gate: measured {measured:.4} device ops/instruction vs baseline {baseline_ops:.4} \
         (allowed [{floor:.4}, {ceiling:.4}] at {:.0}% tolerance)",
        threshold * 100.0
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
             `repro sim-throughput`",
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

    if target == "sim-throughput" {
        let report = ThroughputReport::measure(quick);
        print!("{}", report.summary());
        let path = "BENCH_sim_throughput.json";
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if target == "perf-gate" {
        perf_gate(&args, quick);
    }

    match conduit_bench::render_target(&target, quick, !serial) {
        Some(output) => print!("{output}"),
        None => {
            eprintln!("repro: unknown target `{target}`");
            print_targets();
            std::process::exit(2);
        }
    }
}
