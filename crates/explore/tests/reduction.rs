//! Reduction-soundness differential tests: for every built-in gadget ×
//! every one of the 24 communication models, at 1, 2 and 8 threads, the
//! reduced (queue normal forms + symmetry quotient) and unreduced builds
//! must agree on the oscillation verdict, and — when both explorations are
//! exhaustive — on the reachable quiescent (stable) states.
//!
//! A bounded verdict on one side is consistent with a decisive verdict on
//! the other: the decisive side simply explored further, which is the
//! reduction's purpose (e.g. the unreliable-All set collapse turns the
//! infinite `U·A` spaces finite). What is *never* allowed is a decisive
//! contradiction: one side proving an oscillation the other side has
//! exhaustively ruled out.

use std::collections::HashSet;

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_explore::oscillation::{analyze_graph, Verdict};
use routelab_spp::gadgets;

fn assert_consistent(cell: &str, reduced: &Verdict, unreduced: &Verdict) {
    use Verdict::*;
    match (reduced, unreduced) {
        (CanOscillate { .. }, CanOscillate { .. })
        | (AlwaysConverges { .. }, AlwaysConverges { .. })
        | (NoOscillationWithinBound { .. }, NoOscillationWithinBound { .. }) => {}
        (NoOscillationWithinBound { .. }, _) | (_, NoOscillationWithinBound { .. }) => {}
        (r, u) => panic!("{cell}: reduced verdict {r:?} contradicts unreduced {u:?}"),
    }
}

/// The π assignments of the reachable quiescent (stable) states. The
/// route-class projection rewrites ρ entries, so reduced quiescent states
/// need not be bit-identical to unreduced ones — but the projection
/// preserves π and quiescence exactly, so the stable assignments are
/// comparable.
fn quiescent_pis(g: &StateGraph) -> HashSet<Vec<u16>> {
    (0..g.len())
        .filter(|&i| g.codec.is_quiescent_words(g.nodes.node(i as u32)))
        .map(|i| g.codec.pi_ids_words(g.nodes.node(i as u32)).to_vec())
        .collect()
}

#[test]
fn reduced_and_unreduced_builds_agree_across_the_whole_taxonomy() {
    let base = ExploreConfig {
        channel_cap: 2,
        max_states: 1_500,
        max_steps_per_state: 20_000,
        threads: None,
        reduce: true,
    };
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all() {
            let spec = Spec::Uniform(model);
            let cell = format!("{name} × {model}");
            for threads in [1usize, 2, 8] {
                let rcfg = ExploreConfig { threads: Some(threads), ..base.clone() };
                let ucfg = ExploreConfig { reduce: false, ..rcfg.clone() };
                let rg = try_build_spec(&inst, spec, &rcfg)
                    .unwrap_or_else(|e| panic!("{cell} reduced @{threads}t: {e}"));
                let ug = try_build_spec(&inst, spec, &ucfg)
                    .unwrap_or_else(|e| panic!("{cell} unreduced @{threads}t: {e}"));
                let rv = analyze_graph(spec, &rg);
                let uv = analyze_graph(spec, &ug);
                assert_consistent(&format!("{cell} @{threads}t"), &rv, &uv);
                assert!(
                    rg.len() <= ug.len(),
                    "{cell} @{threads}t: the quotient ({}) must not exceed the full space ({})",
                    rg.len(),
                    ug.len()
                );
                if rg.truncated || ug.truncated {
                    continue;
                }
                // Both exhaustive: compare the stable (quiescent) π
                // assignments. Every reduced quiescent state is the class
                // projection of a symmetric image of a real reachable
                // quiescent state; the projection preserves π and an
                // automorphism maps reachable states to reachable states,
                // so each reduced π appears among the unreduced ones. In
                // the other direction every unreduced quiescent π has some
                // group image in the reduced set, bounding the unreduced
                // count by the reduced one times the group order.
                let rq = quiescent_pis(&rg);
                let uq = quiescent_pis(&ug);
                let order = rg.reduction.group_order.max(1);
                assert!(
                    rq.is_subset(&uq),
                    "{cell} @{threads}t: reduced stable assignments must be reachable unreduced"
                );
                assert!(
                    uq.len() >= rq.len() && uq.len() <= rq.len() * order,
                    "{cell} @{threads}t: {} unreduced stable assignments vs {} orbits × group {}",
                    uq.len(),
                    rq.len(),
                    order
                );
                if order == 1 {
                    assert_eq!(
                        rq, uq,
                        "{cell} @{threads}t: trivial group must preserve stable assignments"
                    );
                }
            }
        }
    }
}

#[test]
fn reduction_decides_the_unreliable_polling_cells() {
    // The survey's `?` cells: unreliable policy-A models have unbounded
    // queues unreduced (every announcement may be re-queued forever), but
    // the set collapse makes them finite. DISAGREE converges in all three
    // — the reduced explorer must now prove it exhaustively.
    let inst = gadgets::disagree();
    let cfg = ExploreConfig::default();
    for model in ["U1A", "UMA", "UEA"] {
        let spec = Spec::Uniform(model.parse().unwrap());
        let g = try_build_spec(&inst, spec, &cfg).expect("build");
        assert!(!g.truncated, "{model}: set collapse must bound the space");
        assert!(
            matches!(analyze_graph(spec, &g), Verdict::AlwaysConverges { .. }),
            "{model} must converge exhaustively on DISAGREE"
        );
        assert!(g.reduction.set_collapses > 0 || g.len() < 100, "{model}: collapse must engage");
    }
}
