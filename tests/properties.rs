//! Property-based tests over the whole stack: random instances, random fair
//! schedules, transformation soundness, and engine invariants.

use proptest::prelude::*;
use routelab::core::model::CommModel;
use routelab::core::validate::{check_sequence, check_step};
use routelab::engine::runner::Runner;
use routelab::engine::schedule::{RandomFair, RoundRobin, Scheduler};
use routelab::engine::trace::{is_repetition, is_subsequence, strongest_relation, TraceRelation};
use routelab::realize::plan::foundational_edges;
use routelab::realize::verify::verify_edge;
use routelab::spp::generator::{random_instance, RandomSppConfig};
use routelab::spp::solve::{enumerate_stable_assignments, is_stable};
use routelab::spp::SppInstance;

fn arb_instance() -> impl Strategy<Value = SppInstance> {
    (3usize..8, 0usize..5, 1u64..2_000).prop_map(|(nodes, extra, seed)| {
        random_instance(&RandomSppConfig {
            nodes,
            extra_edges: extra,
            max_paths_per_node: 3,
            max_path_len: 5,
            seed,
        })
        .expect("generator output validates")
    })
}

fn arb_model() -> impl Strategy<Value = CommModel> {
    prop::sample::select(CommModel::all())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn generated_instances_validate(inst in arb_instance()) {
        prop_assert!(inst.validate().is_ok());
    }

    #[test]
    fn stable_assignments_found_by_solver_are_stable(inst in arb_instance()) {
        if let Ok(solutions) = enumerate_stable_assignments(&inst, 200_000) {
            for pi in solutions {
                prop_assert!(is_stable(&inst, &pi));
            }
        }
    }

    #[test]
    fn random_fair_schedules_are_legal_and_message_conserving(
        inst in arb_instance(),
        model in arb_model(),
        seed in 0u64..1_000,
    ) {
        let mut sched = RandomFair::new(&inst, model, seed);
        let mut runner = Runner::new(&inst);
        for _ in 0..40 {
            let step = sched.next_step(&runner.state()).expect("infinite schedule");
            prop_assert!(check_step(model, inst.graph(), &step).is_ok());
            runner.step(&step);
            // Conservation: messages sent - consumed = in flight.
            let s = runner.stats();
            prop_assert_eq!(
                s.sent - s.consumed,
                runner.state().messages_in_flight()
            );
        }
        // The trace has one entry per step plus the initial assignment.
        prop_assert_eq!(runner.trace().len(), 41);
    }

    #[test]
    fn quiescence_really_is_a_fixpoint(
        inst in arb_instance(),
        model in arb_model(),
        seed in 0u64..1_000,
    ) {
        let mut sched = RandomFair::new(&inst, model, seed).with_drop_prob(0.0);
        let mut runner = Runner::new(&inst);
        for _ in 0..400 {
            if runner.state().is_quiescent() {
                break;
            }
            let step = sched.next_step(&runner.state()).expect("infinite schedule");
            runner.step(&step);
        }
        if runner.state().is_quiescent() {
            let frozen = runner.state().assignment();
            for _ in 0..20 {
                let step = sched.next_step(&runner.state()).expect("infinite schedule");
                runner.step(&step);
                prop_assert_eq!(&runner.state().assignment(), &frozen);
            }
        }
    }

    #[test]
    fn foundational_transformations_hold_on_random_instances(
        inst in arb_instance(),
        edge_idx in 0usize..59, // |foundational_edges()| = 59
        seed in 0u64..500,
    ) {
        let edges = foundational_edges();
        let edge = edges[edge_idx % edges.len()];
        // A fair finite run in the realized model.
        let mut sched = RandomFair::new(&inst, edge.realized, seed).with_drop_prob(0.3);
        let mut runner = Runner::new(&inst);
        let mut seq = Vec::new();
        for _ in 0..3 * inst.node_count() {
            let s = sched.next_step(&runner.state()).expect("infinite schedule");
            runner.step(&s);
            seq.push(s);
        }
        prop_assert!(check_sequence(edge.realized, inst.graph(), &seq).is_ok());
        let report = verify_edge(&inst, &seq, edge.kind, edge.realized, edge.realizer)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(report.holds(), "{}", report);
    }

    #[test]
    fn round_robin_trace_relations_are_a_chain(
        inst in arb_instance(),
        model in arb_model(),
    ) {
        // exact ⊆ repetition ⊆ subsequence on real traces.
        let mut sched = RoundRobin::new(&inst, model);
        let mut runner = Runner::new(&inst);
        for _ in 0..2 * inst.node_count() {
            let s = sched.next_step(&runner.state()).expect("infinite schedule");
            runner.step(&s);
        }
        let t = runner.trace().clone();
        prop_assert_eq!(strongest_relation(&t, &t), TraceRelation::Exact);
        prop_assert!(is_repetition(&t, &t));
        prop_assert!(is_subsequence(&t, &t));
        let dedup = t.dedup();
        // The original is a repetition expansion of its dedup.
        prop_assert!(is_repetition(&dedup, &t));
        prop_assert!(is_subsequence(&dedup, &t));
    }
}

#[test]
fn foundational_edge_count_matches_property_range() {
    assert_eq!(foundational_edges().len(), 59);
}
