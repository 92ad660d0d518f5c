//! Differential suite for the realization-lattice planner: every ordered
//! pair of the 24 communication models is decided, every route the planner
//! claims is validated end to end by `realize::verify` semantics on the full
//! gadget library and equals a report rebuilt from route-valued traces, and
//! every `NoRoute` verdict is closure-sound. The source runs themselves,
//! `fair_prefix`, equal round robin drawn against an executing runner.

#[path = "../../engine/tests/support/relation_oracle.rs"]
mod relation_oracle;

use relation_oracle::relation_dp;
use routelab_core::closure::derive_bounds;
use routelab_core::edges::foundational_facts;
use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_core::validate::check_sequence;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RoundRobin, Scheduler};
use routelab_engine::trace::PathTrace;
use routelab_realize::plan::{apply_route, fair_prefix, plan_route, verify_route};
use routelab_realize::registry::Registry;
use routelab_spp::{gadgets, Route, SppInstance};

#[test]
fn planner_decides_all_576_ordered_pairs() {
    let reg = Registry::global();
    let mut reachable = 0;
    let mut unreachable = 0;
    for from in CommModel::all() {
        for to in CommModel::all() {
            match plan_route(reg, from, to) {
                Ok(route) => {
                    assert_eq!(route.from, from);
                    assert_eq!(route.to, to);
                    // The route is a contiguous chain through the lattice.
                    let mut cur = from;
                    for step in &route.steps {
                        assert_eq!(step.edge.realized, cur, "{route}");
                        cur = step.edge.realizer;
                    }
                    assert_eq!(cur, to, "{route}");
                    reachable += 1;
                }
                Err(e) => {
                    assert_eq!((e.from, e.to), (from, to));
                    unreachable += 1;
                }
            }
        }
    }
    assert_eq!(reachable + unreachable, 576);
    // The 24 trivial pairs are reachable; plenty of real routes exist too.
    assert!(reachable > 24, "only {reachable} reachable pairs");
    assert!(unreachable > 0, "Thm 3.8 pairs must be unreachable");
}

/// A round-robin prefix drawn the way a drive loop draws it: each step from
/// `next_step` against the state of a runner that executes it.
fn executed_prefix(inst: &SppInstance, model: CommModel, steps: usize) -> ActivationSeq {
    let mut sched = RoundRobin::new(inst, model);
    let mut runner = Runner::new(inst).tracing(false);
    let mut seq = Vec::with_capacity(steps);
    for _ in 0..steps {
        let step = sched.next_step(&runner.state()).expect("round robin is infinite");
        runner.step_fast(&step);
        seq.push(step);
    }
    seq
}

#[test]
fn fair_prefix_equals_the_executed_round_robin_prefix() {
    for (name, inst) in gadgets::corpus() {
        let steps = 10 * inst.node_count();
        for model in CommModel::all() {
            let want = executed_prefix(&inst, model, steps);
            assert_eq!(fair_prefix(&inst, model, steps), want, "{name} {model}");
        }
    }
}

/// A trace's assignments, the rows the relation oracle compares.
fn rows(trace: &PathTrace) -> Vec<&Vec<Route>> {
    trace.iter().collect()
}

#[test]
fn every_reachable_route_verifies_on_the_full_gadget_library() {
    let reg = Registry::global();
    let corpus = gadgets::corpus();
    let mut verified = 0;
    for from in CommModel::all() {
        for to in CommModel::all() {
            let Ok(route) = plan_route(reg, from, to) else { continue };
            for (name, inst) in &corpus {
                let seq = fair_prefix(inst, from, 3 * inst.node_count());
                let report = verify_route(inst, &seq, &route)
                    .unwrap_or_else(|e| panic!("{name}: {route}: {e}"));
                assert!(report.holds(), "{name}: {route}: {report}");
                assert_eq!(report.claimed, route.bottleneck(), "{name}: {route}");
                // `verify_route` compares interned route ids: every field
                // must equal one rebuilt from the route-valued traces and the
                // dynamic-program relation.
                let out = apply_route(inst, &seq, &route).unwrap();
                let base = Runner::trace_of(inst, &seq);
                let cand = Runner::trace_of(inst, &out.seq);
                let graph = inst.graph();
                let want = (
                    (from, to),
                    relation_dp(&rows(&base), &rows(&cand)),
                    check_sequence(from, graph, &seq).is_ok(),
                    check_sequence(to, graph, &out.seq).is_ok(),
                    (out.claimed, out.lossless),
                    (seq.len(), out.seq.len()),
                );
                let got = (
                    (report.from, report.to),
                    report.achieved,
                    report.source_legal,
                    report.target_legal,
                    (report.claimed, report.lossless),
                    report.steps,
                );
                assert_eq!(got, want, "{name}: {route}");
                verified += 1;
            }
        }
    }
    // Every reachable ordered pair times every corpus gadget was verified.
    assert!(verified >= 24 * corpus.len(), "only {verified} verifications ran");
}

#[test]
fn unreachable_pairs_have_no_single_registered_edge() {
    // Closure soundness of NoRoute: if no composite chain exists, then in
    // particular no single registered transform may bridge the pair.
    let reg = Registry::global();
    for from in CommModel::all() {
        for to in CommModel::all() {
            if plan_route(reg, from, to).is_ok() {
                continue;
            }
            for (name, edge) in reg.transform_arcs() {
                assert!(
                    !(edge.realized == from && edge.realizer == to),
                    "{from} -> {to}: NoRoute, but `{name}` bridges it directly"
                );
            }
        }
    }
}

#[test]
fn planner_reachability_and_bottlenecks_match_the_positive_closure() {
    // The planner must agree exactly with the derived closure of the
    // paper's foundational facts: reachable iff lower bound > 0, and the
    // route's bottleneck strength equals the lower bound.
    let reg = Registry::global();
    let bounds = derive_bounds(&foundational_facts());
    for from in CommModel::all() {
        for to in CommModel::all() {
            if from == to {
                continue;
            }
            let lower = bounds.get(from, to).lower;
            match plan_route(reg, from, to) {
                Ok(route) => {
                    assert_eq!(
                        route.bottleneck().level(),
                        lower,
                        "{from} -> {to}: planner bottleneck vs closure lower bound"
                    );
                }
                Err(_) => assert_eq!(lower, 0, "{from} -> {to}: closure reachable, planner not"),
            }
        }
    }
}

#[test]
fn compose_plan_facade_agrees_with_the_planner() {
    let reg = Registry::global();
    for from in CommModel::all() {
        for to in CommModel::all() {
            let via_compose = routelab_realize::compose::plan(from, to);
            let via_planner = plan_route(reg, from, to).ok().map(|r| r.edges());
            assert_eq!(via_compose, via_planner, "{from} -> {to}");
        }
    }
}
