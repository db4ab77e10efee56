//! Runs one benchmark invocation and prints its result.
//!
//! ```text
//! perfbench --workload <fresh-sweep|warm-rw|fleet-replay> --seed <n> \
//!     --seconds <s> --trace <0|1> [--workers <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it give
//! the run environment, the paper reference results and any failed check.
//! The exit code is 0 only when every check passed.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfbench::cli::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(cfg);
    for line in &outcome.report {
        println!("{line}");
    }
    println!(
        "# sim_digest {:#018x} input_digest {:#018x}",
        outcome.sim_digest, outcome.input_digest
    );
    for problem in &outcome.problems {
        println!("# check failed: {problem}");
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", to_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn to_json(outcome: &perfbench::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
