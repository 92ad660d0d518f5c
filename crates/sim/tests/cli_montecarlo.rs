//! `exp-montecarlo --family gao-rexford` rejects a family of fewer than two
//! nodes with an `error:` line and exit code 2, writing no results, instead
//! of panicking in the generator.

use std::path::Path;
use std::process::{Command, Output};

fn family(nodes: &str, results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp-montecarlo"))
        .args(["1", "--family", "gao-rexford", "--nodes", nodes, "--quiet"])
        .env("ROUTELAB_RESULTS_DIR", results)
        .output()
        .expect("the exp-montecarlo binary runs")
}

#[test]
fn families_of_fewer_than_two_nodes_are_typed_errors() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_montecarlo_too_few");
    let _ = std::fs::remove_dir_all(&results);
    for nodes in ["0", "1"] {
        let out = family(nodes, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{nodes}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error:")), "{nodes}: {stderr}");
        assert!(!stderr.contains("panicked"), "{nodes}: {stderr}");
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
