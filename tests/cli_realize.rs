//! `routelab realize` rejects a bad step count with an `error:` line and
//! exit code 1: an overflowing count must not panic, and a non-numeric one
//! must not fall back to the default.

use std::process::Command;

fn realize(steps: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_routelab"))
        .args(["realize", "FIG6", "REA", "UMS", steps])
        .output()
        .expect("the routelab binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_step_counts_are_typed_errors() {
    for steps in ["18446744073709551615", "abc", "0", "100001"] {
        let (code, stderr) = realize(steps);
        assert_eq!(code, Some(1), "{steps}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error:")), "{steps}: {stderr}");
        assert!(!stderr.contains("panicked"), "{steps}: {stderr}");
    }
}

#[test]
fn a_valid_step_count_realizes() {
    let out = Command::new(env!("CARGO_BIN_EXE_routelab"))
        .args(["realize", "FIG6", "REA", "UMS", "14"])
        .output()
        .expect("the routelab binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("14 -> 14 steps"), "{stdout}");
    assert!(stdout.contains("holds: true"), "{stdout}");
}
