//! `routelab simulate` rejects a bad run count with an `error:` line and
//! exit code 1, writing nothing: an overflowing count must not run until it
//! is killed, and a non-numeric one must not fall back to the default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn simulate(runs: &str, results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routelab"))
        .args(["simulate", "fig6", "R1O", runs])
        .env("ROUTELAB_RESULTS_DIR", results)
        .output()
        .expect("the routelab binary runs")
}

/// A fresh, absent results directory for `name`.
fn results_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_run_counts_are_typed_errors() {
    let results = results_dir("cli_simulate_bad_counts");
    for runs in ["abc", "18446744073709551615", "0", "100001", "-3"] {
        let out = simulate(runs, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{runs}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error:")), "{runs}: {stderr}");
        assert!(!stderr.contains("panicked"), "{runs}: {stderr}");
        assert!(out.stdout.is_empty(), "{runs}: {}", String::from_utf8_lossy(&out.stdout));
    }
    assert!(!results.exists(), "{} was written", results.display());
}

#[test]
fn a_valid_run_count_simulates() {
    let out = simulate("3", &results_dir("cli_simulate_valid"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("R1O: ") && stdout.contains("/3 runs converged"), "{stdout}");
}

#[test]
fn a_bad_threads_variable_is_a_usage_error() {
    for raw in ["abc", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_routelab"))
            .args(["simulate", "DISAGREE", "RMS", "5"])
            .env("ROUTELAB_THREADS", raw)
            .env("ROUTELAB_RESULTS_DIR", results_dir("cli_simulate_bad_threads"))
            .output()
            .expect("the routelab binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{raw}: {stderr}");
        let want = format!("routelab: ROUTELAB_THREADS needs a positive integer, got {raw:?}");
        assert_eq!(stderr.trim_end(), want, "{raw}");
        assert!(!stderr.contains("panicked"), "{raw}: {stderr}");
    }
}
