//! Self-test of the benchmark at reduced scale: every declared metric is
//! emitted, deterministic metrics repeat for a seed, different seeds give
//! different fleet traces, and `BENCHMARK.json` declares what the code
//! emits.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Outcome, Workload};

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.2,
        trace,
        workers: perfbench::env::cores().min(2),
        reduced: true,
    }
}

fn checked(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(config(workload, seed, trace));
    assert!(
        outcome.correct,
        "{workload} seed {seed} trace {trace}: {:?}",
        outcome.problems
    );
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| *v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_emits(outcome: &Outcome, defs: &[MetricDef]) {
    let emitted: Vec<(&str, &str)> = outcome.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    let declared: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(emitted, declared);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        assert_emits(&checked(workload, 1, false), END_TO_END);
        assert_emits(&checked(workload, 1, true), PER_LAYER);
    }
}

/// Metrics that depend only on the seed, not on host speed.
const DETERMINISTIC_END_TO_END: [&str; 6] = [
    "ok_frac",
    "admit_frac",
    "sim_p50_ms",
    "sim_p99_ms",
    "sim_speedup_cpu",
    "paper_log_err",
];

/// Per-layer counters that depend only on the seed.
const DETERMINISTIC_PER_LAYER: [&str; 30] = [
    "vectorizer.insts",
    "traffic.ctr1_bytes",
    "sim.device_new_calls",
    "core.prepare_calls",
    "ftl.pages_placed",
    "core.plan_cache_hits",
    "core.plan_cache_misses",
    "sim.device_ops",
    "sim.ops_per_inst",
    "core.offload.host",
    "core.offload.isp",
    "core.offload.pud",
    "core.offload.ifp",
    "core.breakdown.compute",
    "core.breakdown.host_dm",
    "core.breakdown.internal_dm",
    "core.breakdown.flash",
    "ftl.rewrites",
    "ftl.coherence_syncs",
    "ftl.gc_invocations",
    "ftl.gc_pages_migrated",
    "ftl.gc_blocks_erased",
    "ftl.wear_swaps",
    "ftl.l2p_miss_rate",
    "ftl.out_of_space",
    "sim.lane_occupancy",
    "fleet.windows",
    "fleet.served",
    "fleet.shed",
    "codec.cds3_bytes",
];

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let a = checked(workload, 7, false);
        let b = checked(workload, 7, false);
        assert_eq!(a.sim_digest, b.sim_digest, "{workload}");
        assert_eq!(a.input_digest, b.input_digest, "{workload}");
        for name in DETERMINISTIC_END_TO_END {
            assert_eq!(value(&a, name), value(&b, name), "{workload} {name}");
        }
        let ta = checked(workload, 7, true);
        let tb = checked(workload, 7, true);
        assert_eq!(
            ta.sim_digest, a.sim_digest,
            "{workload}: traced vs untraced"
        );
        for name in DETERMINISTIC_PER_LAYER {
            assert_eq!(value(&ta, name), value(&tb, name), "{workload} {name}");
        }
    }
}

#[test]
fn the_layer_split_matches_the_workload_design() {
    let fresh = checked(Workload::FreshSweep, 3, true);
    let warm = checked(Workload::WarmRw, 3, true);
    let fleet = checked(Workload::FleetReplay, 3, true);
    assert_eq!(value(&fresh, "sim.device_new_calls"), 1.0);
    assert_eq!(value(&warm, "sim.device_new_calls"), 0.0);
    assert_eq!(value(&fleet, "sim.device_new_calls"), 0.0);
    assert!(value(&warm, "ftl.gc_invocations") > 0.0);
    assert_eq!(value(&fresh, "ftl.gc_invocations"), 0.0);
    assert_eq!(value(&fleet, "ftl.gc_invocations"), 0.0);
    assert!(value(&fleet, "fleet.shed") > 0.0);
    assert_eq!(value(&fleet, "core.plan_cache_misses"), 0.0);
}

#[test]
fn different_seeds_give_different_fleet_traces() {
    let a = checked(Workload::FleetReplay, 11, false);
    let b = checked(Workload::FleetReplay, 12, false);
    assert_ne!(a.input_digest, b.input_digest);
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let squashed: String = json.split_whitespace().collect();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            def.name, def.unit, def.better
        );
        assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(squashed.contains(&format!("{{\"name\":\"{workload}\"")));
    }
    let entries = squashed.matches("\"unit\":").count();
    assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn more_workers_than_cores_is_refused() {
    let args: Vec<String> = [
        "--workload",
        "fresh-sweep",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--workers",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([(perfbench::env::cores() + 1).to_string()])
    .collect();
    assert!(perfbench::cli::parse(&args).is_err());
}
