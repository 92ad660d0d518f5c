//! `routelab check` honours the shared `--threads` and `--no-reduce` flags:
//! the common parser strips them from the arguments, and the explorer must
//! still run on the worker count and in the mode they ask for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn check(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routelab"))
        .args(["check", "DISAGREE", "R1O"])
        .args(args)
        .env("ROUTELAB_RESULTS_DIR", results)
        .env_remove("ROUTELAB_THREADS")
        .output()
        .expect("the routelab binary runs")
}

/// A fresh, absent results directory for `name`.
fn results_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The explored-state count of a `check` verdict line, `… N explored)`.
fn explored(out: &Output) -> usize {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count = stdout.split(" explored)").next().and_then(|s| s.rsplit(' ').next());
    count.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no state count in {stdout:?}"))
}

#[test]
fn threads_reach_the_explorer() {
    let results = results_dir("cli_check_threads");
    assert_eq!(explored(&check(&["--threads", "1", "--obs"], &results)), 9);
    let mut gauges = Vec::new();
    for entry in std::fs::read_dir(results.join("telemetry")).expect("telemetry was written") {
        let text = std::fs::read_to_string(entry.expect("a telemetry file").path()).unwrap();
        for line in text.lines().filter(|l| l.contains(r#""name":"explore.threads""#)) {
            let value = line.rsplit(r#""value":"#).next().unwrap().trim_end_matches('}');
            gauges.push(value.parse::<u64>().unwrap_or_else(|_| panic!("{line}")));
        }
    }
    assert_eq!(gauges, vec![1]);
}

#[test]
fn no_reduce_reaches_the_explorer() {
    let results = results_dir("cli_check_no_reduce");
    assert_eq!(explored(&check(&[], &results)), 9);
    let raw = explored(&check(&["--no-reduce"], &results));
    assert_ne!(raw, 9, "--no-reduce explored the reduced quotient");
}
