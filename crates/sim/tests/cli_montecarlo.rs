//! `exp-montecarlo` rejects a run count outside 1..=100000, and
//! `--family gao-rexford` a family of fewer than two nodes, with an
//! `error:` line and exit code 2, writing no results, instead of running an
//! empty or endless grid or panicking in the generator.

use std::path::Path;
use std::process::{Command, Output};

fn run(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp-montecarlo"))
        .args(args)
        .env("ROUTELAB_RESULTS_DIR", results)
        .output()
        .expect("the exp-montecarlo binary runs")
}

fn family(nodes: &str, results: &Path) -> Output {
    run(&["1", "--family", "gao-rexford", "--nodes", nodes, "--quiet"], results)
}

/// Asserts that `out` is a typed usage error: exit code 2 and an `error:`
/// line, without a panic.
fn assert_typed_error(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error:")), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn bad_run_counts_are_typed_errors() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_montecarlo_bad_runs");
    let _ = std::fs::remove_dir_all(&results);
    for runs in ["0", "100001", "18446744073709551615", "abc"] {
        let out = run(&[runs, "--quiet"], &results);
        assert_typed_error(runs, &out);
        assert!(out.stdout.is_empty(), "{runs}: {}", String::from_utf8_lossy(&out.stdout));
    }
    assert!(!results.exists(), "{} was written", results.display());
}

#[test]
fn families_of_fewer_than_two_nodes_are_typed_errors() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_montecarlo_too_few");
    let _ = std::fs::remove_dir_all(&results);
    for nodes in ["0", "1"] {
        assert_typed_error(nodes, &family(nodes, &results));
    }
    assert!(!results.exists(), "{} was written", results.display());
}

#[test]
fn a_two_node_family_runs() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_montecarlo_two");
    let out = family("2", &results);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(results.join("exp-montecarlo-family.json").exists());
}
