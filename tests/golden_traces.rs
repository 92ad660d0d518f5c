//! Golden-trace snapshot tests: the Appendix A step tables (Examples
//! A.1–A.5), rendered through the same code path as `routelab exp examples`
//! (`routelab::sim::examples::step_table`), compared byte-for-byte against
//! the snapshots under `tests/golden/`.
//!
//! To regenerate after an intentional rendering change:
//!
//! ```text
//! ROUTELAB_BLESS=1 cargo test --test golden_traces
//! ```

use std::fs;
use std::path::PathBuf;

use routelab::engine::paper_runs::{self, PaperRun};
use routelab::sim::examples::step_table;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn check(name: &str, run: &PaperRun) {
    let r = step_table(run);
    assert!(r.matches_paper, "{}: step table diverges from the paper:\n{}", run.name, r.table);
    let path = golden_path(name);
    if std::env::var_os("ROUTELAB_BLESS").is_some() {
        fs::write(&path, &r.table).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `ROUTELAB_BLESS=1 cargo test --test golden_traces`",
            path.display()
        )
    });
    assert_eq!(
        r.table, want,
        "{name}: rendered step table differs from the golden snapshot; if the \
         change is intentional, regenerate with `ROUTELAB_BLESS=1 cargo test \
         --test golden_traces` and commit the diff"
    );
}

#[test]
fn a1_step_table_matches_golden() {
    check("a1_steps", &paper_runs::a1_r1o().0);
}

#[test]
fn a2_step_table_matches_golden() {
    check("a2_steps", &paper_runs::a2_reo().0);
}

#[test]
fn a3_step_table_matches_golden() {
    check("a3_steps", &paper_runs::a3_reo());
}

#[test]
fn a4_step_table_matches_golden() {
    check("a4_steps", &paper_runs::a4_rea());
}

#[test]
fn a5_step_table_matches_golden() {
    check("a5_steps", &paper_runs::a5_rea());
}
