//! `routelab exp` exits 2 with an `error:` line on an argument an
//! experiment does not take, writing no results: `montecarlo` rejects a run
//! count outside 1..=100000, and `--family gao-rexford` a family of fewer
//! than two nodes, instead of running an empty or endless grid or panicking
//! in the generator. A missing or unknown experiment name lists the names.

use std::path::Path;
use std::process::{Command, Output};

fn exp(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routelab"))
        .arg("exp")
        .args(args)
        .env("ROUTELAB_RESULTS_DIR", results)
        .output()
        .expect("the routelab binary runs")
}

fn run(args: &[&str], results: &Path) -> Output {
    exp(&[&["montecarlo"], args].concat(), results)
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

#[test]
fn arguments_an_experiment_does_not_take_are_typed_errors() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_exp_unused_args");
    let _ = std::fs::remove_dir_all(&results);
    let cases: &[&[&str]] = &[
        // The grid lane takes neither a node count nor a step budget.
        &["montecarlo", "1", "--max-steps", "0"],
        &["montecarlo", "1", "--nodes", "5"],
        // The family lane's step budget is a positive count.
        &["montecarlo", "1", "--family", "gao-rexford", "--nodes", "5", "--max-steps", "0"],
        &["fig3", "x"],
        &["fig4", "x"],
        &["timers", "x"],
        &["transform", "x"],
        &["examples", "a9"],
    ];
    for args in cases {
        let out = exp(&[args, &["--quiet"][..]].concat(), &results);
        assert_typed_error(&args.join(" "), &out);
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    assert!(!results.exists(), "{} was written", results.display());
}

#[test]
fn a_missing_or_unknown_name_lists_the_experiments() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_exp_names");
    for args in [&[][..], &["fig5"]] {
        let out = exp(args, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let names = [
            "fig3",
            "fig4",
            "examples",
            "survey",
            "transform",
            "montecarlo",
            "hetero",
            "beyond",
            "timers",
        ];
        for name in names {
            assert!(stderr.contains(name), "{args:?}: {name} missing from {stderr}");
        }
    }
}
