//! Output goldens: the quick-scale figure sweep, the cost-function ablation
//! and the five report smokes,
//! rebuilt through the `conduit-bench` library and diffed byte-for-byte
//! against the files committed under `tests/golden/`. Each golden is exactly
//! what `repro <target> --quick` prints, so a change in any simulated number
//! shows up here as a line diff.
//!
//! A model-visible change regenerates them deliberately (and explains the
//! change in CHANGES.md):
//!
//! ```text
//! CONDUIT_REGEN_GOLDEN=1 cargo test --test integration_golden
//! ```

use std::path::PathBuf;

use conduit_bench::render_target;

fn check_golden(target: &str, file: &str) {
    let output = render_target(target, true, None).expect("a figure or report target");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("CONDUIT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &output).unwrap();
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with CONDUIT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    if output != committed {
        let diff: Vec<String> = committed
            .lines()
            .zip(output.lines())
            .enumerate()
            .filter(|(_, (want, got))| want != got)
            .take(10)
            .map(|(i, (want, got))| format!("line {}:\n  golden: {want}\n  now:    {got}", i + 1))
            .collect();
        panic!(
            "`repro {target} --quick` drifted from tests/golden/{file} ({} vs {} lines):\n{}\n\
             if the change is intentional, regenerate with CONDUIT_REGEN_GOLDEN=1",
            committed.lines().count(),
            output.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn figure_sweep_matches_golden() {
    check_golden("all", "repro_all_quick.txt");
}

#[test]
fn ablation_matches_golden() {
    check_golden("ablation", "ablation_quick.txt");
}

#[test]
fn fault_sweep_matches_golden() {
    check_golden("fault-sweep", "fault_sweep_smoke.txt");
}

#[test]
fn interference_matches_golden() {
    check_golden("interference", "interference_smoke.txt");
}

#[test]
fn fleet_sweep_matches_golden() {
    check_golden("fleet-sweep", "fleet_sweep_smoke.txt");
}

#[test]
fn warm_pool_matches_golden() {
    check_golden("warm-pool", "warm_pool_smoke.txt");
}

#[test]
fn arrival_sweep_matches_golden() {
    check_golden("arrival-sweep", "arrival_sweep_smoke.txt");
}
