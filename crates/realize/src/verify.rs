//! End-to-end verification of realizations: execute the source sequence,
//! transform, execute the result, and check the Definition 3.2 relation.

use std::fmt;

use routelab_core::lattice::Strength;
use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_core::validate::check_sequence;
use routelab_engine::runner::Runner;
use routelab_engine::trace::{relation, TraceRelation};
use routelab_spp::{NodeId, RouteId, SppInstance};

use crate::compose::{self, Edge, TransformKind};
use crate::plan::{plan_route, verify_route};
use crate::registry::Registry;
use crate::transform::{Tables, TransformError};

/// The result of verifying one realization.
#[derive(Debug, Clone)]
pub struct Report {
    /// Source model.
    pub from: CommModel,
    /// Target model.
    pub to: CommModel,
    /// Strength the construction claims.
    pub claimed: Strength,
    /// Relation actually observed between the traces.
    pub achieved: TraceRelation,
    /// `true` when the source sequence was legal in `from`.
    pub source_legal: bool,
    /// `true` when the produced sequence is legal in `to`.
    pub target_legal: bool,
    /// `false` when the transformation had to skip an unrepresentable no-op.
    pub lossless: bool,
    /// Input / output sequence lengths.
    pub steps: (usize, usize),
}

/// Numeric level of an observed relation on the Definition 3.2 scale.
fn relation_level(r: TraceRelation) -> u8 {
    match r {
        TraceRelation::Exact => 4,
        TraceRelation::Repetition => 3,
        TraceRelation::Subsequence => 2,
        TraceRelation::None => 0,
    }
}

impl Report {
    /// `true` when the construction delivered what it claims: legal target
    /// sequence and an observed relation at least as strong as claimed
    /// (only demanded of lossless transformations).
    pub fn holds(&self) -> bool {
        self.source_legal
            && self.target_legal
            && (!self.lossless || relation_level(self.achieved) >= self.claimed.level())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} inside {}: claimed {}, achieved {:?}, {} -> {} steps{}{}",
            self.from,
            self.to,
            self.claimed,
            self.achieved,
            self.steps.0,
            self.steps.1,
            if self.target_legal { "" } else { " [ILLEGAL TARGET]" },
            if self.lossless { "" } else { " [lossy]" },
        )
    }
}

/// Verifies a single foundational transformation from `from` to `to`.
///
/// # Errors
///
/// Propagates [`TransformError`].
pub fn verify_edge(
    inst: &SppInstance,
    seq: &ActivationSeq,
    kind: TransformKind,
    from: CommModel,
    to: CommModel,
) -> Result<Report, TransformError> {
    let strength = match kind {
        TransformKind::Identity | TransformKind::Pad | TransformKind::Coalesce => Strength::Exact,
        TransformKind::Split | TransformKind::Elide => Strength::Repetition,
        TransformKind::Flag => Strength::Subsequence,
    };
    let edge = Edge { realized: from, realizer: to, strength, kind };
    let tables = Tables::new(inst);
    let out = compose::apply_edge(&edge, &tables, seq)?;
    Ok(report_for(&tables, seq, &out.seq, from, to, out.claimed, out.lossless))
}

/// Verifies the composed realization of `from` inside `to` along the
/// strongest registered route ([`plan_route`], then [`verify_route`]).
/// Returns `None` when no route exists.
///
/// # Errors
///
/// Propagates [`TransformError`].
pub fn verify_path(
    inst: &SppInstance,
    seq: &ActivationSeq,
    from: CommModel,
    to: CommModel,
) -> Result<Option<Report>, TransformError> {
    let Ok(route) = plan_route(Registry::global(), from, to) else { return Ok(None) };
    verify_route(inst, seq, &route).map(Some)
}

/// Executes `seq` and records its path-assignment trace as interned ids:
/// the initial π, then π after every step, one row of `node_count` ids each.
fn id_trace(tables: &Tables<'_>, seq: &ActivationSeq) -> Vec<RouteId> {
    let n = tables.inst.node_count();
    let mut runner = tables.runner();
    let mut ids = Vec::with_capacity((seq.len() + 1) * n);
    let mut record = |runner: &Runner<'_>| {
        let pi = runner.state();
        ids.extend((0..n).map(|v| pi.chosen_id(NodeId(v as u32))));
    };
    record(&runner);
    for step in seq {
        runner.step_fast(step);
        record(&runner);
    }
    ids
}

/// Builds a verification [`Report`] for an already-transformed pair of
/// sequences: executes both, compares traces (Definition 3.2), and checks
/// model legality on each side. This is the registered `verify` check.
///
/// Both traces are compared as rows of interned route ids from the shared
/// table, which holds every route once, so rows are equal exactly when the
/// route-valued assignments of [`Runner::trace_of`] are.
pub fn report_for(
    tables: &Tables<'_>,
    source: &ActivationSeq,
    target: &ActivationSeq,
    from: CommModel,
    to: CommModel,
    claimed: Strength,
    lossless: bool,
) -> Report {
    let inst = tables.inst;
    let n = inst.node_count();
    let base = id_trace(tables, source);
    let cand = id_trace(tables, target);
    let achieved = relation(
        &base.chunks_exact(n).collect::<Vec<_>>(),
        &cand.chunks_exact(n).collect::<Vec<_>>(),
    );
    Report {
        from,
        to,
        claimed,
        achieved,
        source_legal: check_sequence(from, inst.graph(), source).is_ok(),
        target_legal: check_sequence(to, inst.graph(), target).is_ok(),
        lossless,
        steps: (source.len(), target.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::fair_prefix;
    use routelab_engine::outcome::{drive, RunOutcome};
    use routelab_engine::schedule::{RoundRobin, Scheduler};
    use routelab_spp::gadgets;

    #[test]
    fn all_foundational_edges_hold_on_round_robin_runs() {
        // For every foundational edge, generate a fair run of the realized
        // model on several gadgets and verify the construction end to end.
        let corpus = [gadgets::disagree(), gadgets::fig6(), gadgets::bad_gadget()];
        for edge in compose::foundational_edges() {
            for inst in &corpus {
                let steps = 4 * inst.node_count();
                let seq = fair_prefix(inst, edge.realized, steps);
                let report = verify_edge(inst, &seq, edge.kind, edge.realized, edge.realizer)
                    .unwrap_or_else(|e| panic!("{} -> {}: {e}", edge.realized, edge.realizer));
                assert!(report.holds(), "{} via {:?}: {report}", edge.realized, edge.kind);
            }
        }
    }

    #[test]
    fn composed_paths_hold_for_interesting_pairs() {
        let inst = gadgets::fig6();
        let cases = [
            ("REO", "UMS"), // queueing model realizes the A.2 oscillator model
            ("REA", "R1S"), // polling inside single-channel queueing
            ("RMO", "R1O"), // Thm 3.5 via message passing
            ("U1O", "RMS"), // unreliable into the queueing model
            ("REA", "R1O"), // only subsequence is possible (Prop 3.11)
        ];
        for (from, to) in cases {
            let from: CommModel = from.parse().unwrap();
            let to: CommModel = to.parse().unwrap();
            let seq = fair_prefix(&inst, from, 3 * inst.node_count());
            let report = verify_path(&inst, &seq, from, to)
                .unwrap()
                .unwrap_or_else(|| panic!("no chain {from} -> {to}"));
            assert!(report.holds(), "{report}");
        }
    }

    #[test]
    fn composed_strength_matches_closure() {
        // Spot-check claimed strengths of composed paths.
        let inst = gadgets::disagree();
        let check = |from: &str, to: &str, expect: Strength| {
            let from: CommModel = from.parse().unwrap();
            let to: CommModel = to.parse().unwrap();
            let seq = fair_prefix(&inst, from, 8);
            let report = verify_path(&inst, &seq, from, to).unwrap().unwrap();
            assert_eq!(report.claimed, expect, "{from} -> {to}");
            assert!(report.holds(), "{report}");
        };
        check("REA", "RMS", Strength::Exact);
        check("RMS", "R1S", Strength::Repetition);
        check("R1S", "R1O", Strength::Subsequence);
        check("U1O", "R1S", Strength::Exact);
    }

    #[test]
    fn oscillation_transfer_a1_to_queueing() {
        // Realize A.1's oscillating R1O prefix inside RMS and confirm the
        // realized run has not converged either (oscillation preservation in
        // action): drive the transformed prefix, then check the network is
        // still in motion by comparing assignments.
        let (run, cycle) = routelab_engine::paper_runs::a1_r1o();
        let mut seq = run.seq.clone();
        for _ in 0..4 {
            seq.extend(cycle.iter().cloned());
        }
        let rms: CommModel = "RMS".parse().unwrap();
        let report =
            verify_path(&run.instance, &seq, "R1O".parse().unwrap(), rms).unwrap().unwrap();
        assert!(report.holds(), "{report}");
        assert_eq!(report.achieved, TraceRelation::Exact);
    }

    #[test]
    fn report_display_mentions_models() {
        let inst = gadgets::line2();
        let seq = fair_prefix(&inst, "REA".parse().unwrap(), 4);
        let report = verify_path(&inst, &seq, "REA".parse().unwrap(), "RMS".parse().unwrap())
            .unwrap()
            .unwrap();
        let s = report.to_string();
        assert!(s.contains("REA"), "{s}");
        assert!(s.contains("RMS"), "{s}");
    }

    #[test]
    fn converged_run_realizes_and_converges_everywhere() {
        // GOOD-GADGET converges under REA round-robin; realizing the run in
        // RMS preserves the final assignment.
        let inst = gadgets::good_gadget();
        let mut runner = Runner::new(&inst);
        let mut sched = RoundRobin::new(&inst, "REA".parse().unwrap());
        let mut seq = Vec::new();
        loop {
            if runner.state().is_quiescent() {
                break;
            }
            let s = sched.next_step(&runner.state()).unwrap();
            runner.step(&s);
            seq.push(s);
            assert!(seq.len() < 1000);
        }
        let report = verify_path(&inst, &seq, "REA".parse().unwrap(), "RMS".parse().unwrap())
            .unwrap()
            .unwrap();
        assert!(report.holds(), "{report}");
        // Drive the realized sequence and confirm the same fixed point.
        let mut r2 = Runner::new(&inst);
        let route =
            plan_route(Registry::global(), "REA".parse().unwrap(), "RMS".parse().unwrap()).unwrap();
        let out = crate::plan::apply_route(&inst, &seq, &route).unwrap();
        let mut sched2 = routelab_engine::schedule::Scripted::new(out.seq.into_owned());
        let outcome = drive(&mut r2, &mut sched2, 10_000);
        assert!(
            matches!(outcome, RunOutcome::Converged { .. } | RunOutcome::ScheduleExhausted { .. }),
            "{outcome:?}"
        );
        assert!(r2.state().is_quiescent());
        let rendered: Vec<String> =
            r2.state().assignment().iter().map(|r| inst.fmt_route(r)).collect();
        assert_eq!(rendered, vec!["d", "1d", "2d", "3d"]);
    }
}
