//! The declared metrics and the map a run fills in.
//!
//! `BENCHMARK.json` lists the same names and units; the self-test checks
//! that the two agree.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, emitted by untraced runs. Host times are the
/// simulator's wall clock; `sim_ms` is the modelled SSD's time.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("inst_per_s", "1/s", "higher"),
    m("ns_per_op", "ns", "lower"),
    m("req_per_s", "1/s", "higher"),
    m("req_p50_ms", "ms", "lower"),
    m("req_p99_ms", "ms", "lower"),
    m("heap_mb", "MiB", "lower"),
    m("ok_frac", "ratio", "higher"),
    m("admit_frac", "ratio", "higher"),
    m("sim_p50_ms", "sim_ms", "lower"),
    m("sim_p99_ms", "sim_ms", "lower"),
    m("sim_speedup_cpu", "x", "higher"),
    m("paper_log_err", "ln", "lower"),
];

/// Per-layer metrics, emitted by traced runs. A layer a workload does not
/// exercise (or whose traced run does not mirror it) reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("vectorizer.ms", "ms", "lower"),
    m("vectorizer.insts", "count", "lower"),
    m("traffic.generate_ms", "ms", "lower"),
    m("traffic.ctr1_encode_ms", "ms", "lower"),
    m("traffic.ctr1_decode_ms", "ms", "lower"),
    m("traffic.ctr1_bytes", "bytes", "lower"),
    m("sim.device_new_ms", "ms/req", "lower"),
    m("sim.device_new_calls", "calls/req", "lower"),
    m("core.prepare_ms", "ms/req", "lower"),
    m("core.prepare_calls", "calls/req", "lower"),
    m("ftl.pages_placed", "pages/req", "lower"),
    m("core.plan_ms", "ms", "lower"),
    m("core.plan_cache_hits", "hits/req", "higher"),
    m("core.plan_cache_misses", "count", "lower"),
    m("core.run_ms", "ms/req", "lower"),
    m("core.run_ns_per_inst", "ns", "lower"),
    m("core.session_ms", "ms/req", "lower"),
    m("core.session_self_ms", "ms/req", "lower"),
    m("sim.device_ops", "ops/req", "lower"),
    m("sim.ops_per_inst", "ratio", "lower"),
    m("core.offload.host", "ratio", "lower"),
    m("core.offload.isp", "ratio", "higher"),
    m("core.offload.pud", "ratio", "higher"),
    m("core.offload.ifp", "ratio", "higher"),
    m("core.breakdown.compute", "ratio", "lower"),
    m("core.breakdown.host_dm", "ratio", "lower"),
    m("core.breakdown.internal_dm", "ratio", "lower"),
    m("core.breakdown.flash", "ratio", "lower"),
    m("ftl.rewrites", "pages/req", "lower"),
    m("ftl.coherence_syncs", "1/req", "lower"),
    m("ftl.gc_invocations", "1/req", "lower"),
    m("ftl.gc_pages_migrated", "pages/req", "lower"),
    m("ftl.gc_blocks_erased", "blocks/req", "lower"),
    m("ftl.wear_swaps", "1/req", "lower"),
    m("ftl.l2p_miss_rate", "ratio", "lower"),
    m("ftl.out_of_space", "1/req", "lower"),
    m("sim.lane_occupancy", "ratio", "lower"),
    m("sim.lane_queued_ms", "sim_ms/req", "lower"),
    m("fleet.run_trace_ms", "ms/pass", "lower"),
    m("fleet.windows", "1/pass", "lower"),
    m("fleet.served", "req/pass", "higher"),
    m("fleet.shed", "req/pass", "lower"),
    m("fleet.shard_occupancy_spread", "ratio", "lower"),
    m("codec.cds3_export_ms", "ms/call", "lower"),
    m("codec.cds3_import_ms", "ms/call", "lower"),
    m("codec.cds3_bytes", "bytes", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// The metric values a run has measured so far.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metrics of the run's mode in declaration order, plus one line
    /// per declared metric that is missing or not finite and per measured
    /// metric that is declared for neither mode.
    pub fn finish(&self, trace: bool) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(defs.len());
        let mut problems = Vec::new();
        for def in defs {
            match self.values.get(def.name) {
                Some(v) if v.is_finite() => out.push((def.name, *v, def.unit)),
                Some(v) => problems.push(format!("metric {} is not finite: {v}", def.name)),
                None => problems.push(format!("metric {} was not measured", def.name)),
            }
        }
        for name in self.values.keys() {
            if !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *name) {
                problems.push(format!("metric {name} is not declared"));
            }
        }
        (out, problems)
    }
}
