//! The deterministic simulated-work counter behind `repro perf-gate`.
//!
//! The gate compares *simulated device operations per vector instruction*
//! against the committed `BENCH_sim_throughput.json` at the repository root
//! (written by `repro perf-baseline`). The counter grows exactly when a
//! change makes the simulator do more work per instruction (extra data
//! movement, redundant reservations, duplicated model calls), and it is
//! identical on every machine, so the gate is immune to CI host variance.
//!
//! Wall-clock throughput is not measured here: `perfbench/` (the repository
//! benchmark declared in `BENCHMARK.json`) is the one sampled wall-clock
//! harness.

use conduit::{Policy, RunRequest, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

/// The simulated work of one Conduit run of every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// Whether this was a quick-scale (test-sized) measurement rather than
    /// paper scale. Recorded in the JSON so `repro perf-gate` refuses to
    /// compare measurements taken at different scales.
    pub quick: bool,
    /// Vector instructions simulated.
    pub instructions: u64,
    /// Simulated device operations (contended-timeline reservations) those
    /// instructions performed.
    pub sim_device_ops: u64,
    /// `sim_device_ops / instructions`, the metric `repro perf-gate` gates
    /// on.
    pub ops_per_instruction: f64,
}

impl PerfBaseline {
    /// Runs [`Workload::ALL`] under [`Policy::Conduit`] on a serial session,
    /// at the reduced test scale (`quick`) or at paper scale, and counts the
    /// instructions and device operations.
    pub fn measure(quick: bool) -> PerfBaseline {
        let (cfg, scale) = if quick {
            (SsdConfig::small_for_tests(), Scale::test())
        } else {
            (SsdConfig::default(), Scale::new(4, 1))
        };
        let mut session = Session::builder(cfg).serial().build();
        let mut instructions = 0u64;
        let mut sim_device_ops = 0u64;
        for workload in Workload::ALL {
            let program = workload.program(scale).expect("generators always succeed");
            let id = session
                .register(program)
                .expect("generated programs always validate");
            let outcome = session
                .submit(&RunRequest::new(id, Policy::Conduit))
                .expect("simulation cannot fail");
            instructions += outcome.summary.instructions as u64;
            sim_device_ops += outcome.summary.device_delta.device_ops;
        }
        PerfBaseline {
            quick,
            instructions,
            sim_device_ops,
            ops_per_instruction: sim_device_ops as f64 / instructions.max(1) as f64,
        }
    }

    fn scale_name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "paper"
        }
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "# Simulated work ({} scale)\n\
             instructions simulated: {}\n\
             sim device ops:         {}\n\
             ops/instruction:        {:.4}\n",
            self.scale_name(),
            self.instructions,
            self.sim_device_ops,
            self.ops_per_instruction
        )
    }

    /// The JSON document written to `BENCH_sim_throughput.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scale\": \"{}\",\n  \"instructions\": {},\n  \"sim_device_ops\": {},\n  \
             \"ops_per_instruction\": {:.6}\n}}\n",
            self.scale_name(),
            self.instructions,
            self.sim_device_ops,
            self.ops_per_instruction
        )
    }
}

/// The `ops_per_instruction` field of a `BENCH_sim_throughput.json`
/// document: the deterministic simulated-work metric `repro perf-gate`
/// compares against. Returns `None` if the field is missing or malformed (no
/// JSON parser is available offline; [`PerfBaseline::to_json`] writes the
/// field as a bare number).
pub fn baseline_ops_per_instruction(json: &str) -> Option<f64> {
    let key = "\"ops_per_instruction\":";
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `scale` field (`"paper"` or `"quick"`) from a
/// `BENCH_sim_throughput.json` document. Documents written before the field
/// existed return `None`; callers should treat that as paper scale, which is
/// what the committed baseline has always been.
pub fn baseline_scale(json: &str) -> Option<&str> {
    let key = "\"scale\":";
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_consistent_numbers() {
        let r = PerfBaseline::measure(true);
        assert!(r.instructions > 0);
        assert!(r.sim_device_ops > 0);
        assert!(r.ops_per_instruction > 0.0);
        assert!(r.summary().contains("ops/instruction"));
        // The perf gate can read back what we wrote.
        let json = r.to_json();
        let ops = baseline_ops_per_instruction(&json).expect("field is present");
        assert!((ops - r.ops_per_instruction).abs() <= 1e-5);
        // The counter is deterministic.
        assert_eq!(r, PerfBaseline::measure(true));
    }

    #[test]
    fn baseline_parser_handles_real_and_bad_documents() {
        assert_eq!(
            baseline_ops_per_instruction("{\n  \"ops_per_instruction\": 2.901635\n}"),
            Some(2.901635)
        );
        assert_eq!(
            baseline_ops_per_instruction("{\"ops_per_instruction\": 6}"),
            Some(6.0)
        );
        assert_eq!(baseline_ops_per_instruction("{}"), None);
        // Pre-counter baselines report None.
        assert_eq!(
            baseline_ops_per_instruction("{\"instructions_per_sec\": 1.0}"),
            None
        );
        assert_eq!(
            baseline_ops_per_instruction("{\"ops_per_instruction\": \"oops\"}"),
            None
        );
    }

    #[test]
    fn scale_field_roundtrips_and_parses() {
        assert_eq!(baseline_scale("{\"scale\": \"paper\",}"), Some("paper"));
        assert_eq!(baseline_scale("{\"scale\": \"quick\"}"), Some("quick"));
        // Pre-scale-field documents report None.
        assert_eq!(baseline_scale("{\"instructions_per_sec\": 1.0}"), None);
        let quick = PerfBaseline {
            quick: true,
            instructions: 1,
            sim_device_ops: 1,
            ops_per_instruction: 1.0,
        };
        assert_eq!(baseline_scale(&quick.to_json()), Some("quick"));
    }
}
