//! Shared rendering of the Appendix A example executions.
//!
//! Both `routelab exp examples` and the golden-trace snapshot tests
//! (`tests/golden_traces.rs`) render step tables through this module, so
//! the published tables and the goldens cannot drift apart: a byte changed
//! here shows up in the snapshot diff, and vice versa.

use routelab_engine::paper_runs::PaperRun;
use routelab_engine::runner::Runner;

use crate::table::Table;

/// A rendered step table plus whether it matches the paper's column.
#[derive(Debug, Clone)]
pub struct RenderedSteps {
    /// The rendered `t / U(t) / pi_U(t)(t) / paper` table.
    pub table: String,
    /// Every computed entry equals the paper's published value.
    pub matches_paper: bool,
}

/// Replays `run`'s activation sequence step by step, rendering the updated
/// node's chosen route at each step next to the paper's published value.
pub fn step_table(run: &PaperRun) -> RenderedSteps {
    let mut runner = Runner::new(&run.instance);
    let mut table =
        Table::new(vec!["t".into(), "U(t)".into(), "pi_U(t)(t)".into(), "paper".into()]);
    let mut ok = true;
    for (t, (step, (node, want))) in run.seq.iter().zip(&run.expected).enumerate() {
        runner.step(step);
        let v = run.instance.node_by_name(node).expect("node");
        let got = run.instance.fmt_route(runner.state().chosen(v));
        ok &= got == *want;
        table.row(vec![(t + 1).to_string(), node.to_string(), got, want.to_string()]);
    }
    RenderedSteps { table: table.to_string(), matches_paper: ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_engine::paper_runs;

    #[test]
    fn all_appendix_step_tables_match_the_paper() {
        let runs = [
            paper_runs::a1_r1o().0,
            paper_runs::a2_reo().0,
            paper_runs::a3_reo(),
            paper_runs::a4_rea(),
            paper_runs::a5_rea(),
        ];
        for run in &runs {
            let r = step_table(run);
            assert!(r.matches_paper, "step table for {} diverges:\n{}", run.name, r.table);
            assert_eq!(
                r.table.lines().count(),
                run.seq.len() + 2,
                "header + rule + one row per step"
            );
        }
    }
}
