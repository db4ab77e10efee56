//! Command-line parsing.

use std::fmt;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FreshSweep,
    WarmRw,
    FleetReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FreshSweep,
        Workload::WarmRw,
        Workload::FleetReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshSweep => "fresh-sweep",
            Workload::WarmRw => "warm-rw",
            Workload::FleetReplay => "fleet-replay",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Session worker threads; at most the host's core count.
    pub workers: usize,
    /// Reduced scale (test-scale programs on the small test geometry); the
    /// self-test sets it.
    pub reduced: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <fresh-sweep|warm-rw|fleet-replay> \
     --seed <n> --seconds <s> --trace <0|1> [--workers <n>]";

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a message for unknown or missing arguments, bad values, and a
/// worker count above the host's available parallelism.
pub fn parse(args: &[String]) -> Result<Config, String> {
    let cores = crate::env::cores();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workers = cores;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--workers" => {
                workers = value
                    .parse::<usize>()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if workers == 0 || workers > cores {
        return Err(format!(
            "refusing {workers} worker threads on a host with {cores} available cores"
        ));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
        reduced: false,
    })
}
