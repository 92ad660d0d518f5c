//! Differential determinism tests: the parallel frontier engine
//! must be *bit-identical* to the retained sequential reference — same
//! interned states in the same order, same edges, same truncation flag,
//! same verdict, and the same witness cycle — for every built-in gadget ×
//! every one of the 24 communication models, at 1, 2, and 8 threads.
//!
//! State budgets are capped so the full 192-cell sweep stays affordable in
//! debug builds; the determinism contract is exercised hardest near the
//! truncation boundary anyway (the cut must land on the same candidate
//! ordinal on every thread count).

use routelab_core::model::CommModel;
use routelab_spp::gadgets;

use crate::effects::Spec;
use crate::graph::{build_spec_reference, try_build_spec, ExploreConfig, StateGraph};
use crate::oscillation::analyze_graph;
use crate::witness::witness_from_graph;

fn assert_same_graph(cell: &str, threads: usize, par: &StateGraph, reference: &StateGraph) {
    assert_eq!(par.len(), reference.len(), "{cell} @{threads}t: state count");
    assert_eq!(par.nodes, reference.nodes, "{cell} @{threads}t: interned states");
    assert_eq!(par.edges, reference.edges, "{cell} @{threads}t: edge lists");
    assert_eq!(par.truncated, reference.truncated, "{cell} @{threads}t: truncation flag");
}

fn taxonomy_sweep(reduce: bool) {
    let cfg = ExploreConfig {
        channel_cap: 2,
        max_states: 1_000,
        max_steps_per_state: 20_000,
        threads: None,
        reduce,
    };
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all() {
            let spec = Spec::Uniform(model);
            let cell = format!("{name} × {model}");
            let reference = build_spec_reference(&inst, spec, &cfg)
                .unwrap_or_else(|e| panic!("{cell} reference: {e}"));
            let ref_verdict = analyze_graph(spec, &reference);
            let ref_witness = witness_from_graph(spec, &reference);
            for threads in [1usize, 2, 8] {
                let par_cfg = ExploreConfig { threads: Some(threads), ..cfg.clone() };
                let par = try_build_spec(&inst, spec, &par_cfg)
                    .unwrap_or_else(|e| panic!("{cell} @{threads}t: {e}"));
                assert_same_graph(&cell, threads, &par, &reference);
                assert_eq!(analyze_graph(spec, &par), ref_verdict, "{cell} @{threads}t: verdict");
                assert_eq!(
                    witness_from_graph(spec, &par),
                    ref_witness,
                    "{cell} @{threads}t: witness"
                );
            }
        }
    }
}

#[test]
fn parallel_explorer_is_bit_identical_to_reference_across_the_whole_taxonomy() {
    taxonomy_sweep(false);
}

#[test]
fn reduced_parallel_explorer_is_bit_identical_to_reference_across_the_whole_taxonomy() {
    // The reduction layer runs inside the frontier expansion, so the
    // determinism contract must hold for quotient graphs too.
    taxonomy_sweep(true);
}

/// Builds each cell with the reference and in parallel at every thread
/// count; graphs, verdicts and witnesses must be identical.
fn check_cells(cfg: &ExploreConfig, cells: &[(&str, &str)], thread_counts: &[usize]) {
    for &(name, model) in cells {
        let inst = gadgets::corpus()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, i)| i)
            .expect("gadget");
        let model: CommModel = model.parse().expect("model");
        let spec = Spec::Uniform(model);
        let cell = format!("{name} × {model} (reduce={})", cfg.reduce);
        let reference = build_spec_reference(&inst, spec, cfg)
            .unwrap_or_else(|e| panic!("{cell} reference: {e}"));
        let ref_verdict = analyze_graph(spec, &reference);
        let ref_witness = witness_from_graph(spec, &reference);
        for &threads in thread_counts {
            let par_cfg = ExploreConfig { threads: Some(threads), ..cfg.clone() };
            let par = try_build_spec(&inst, spec, &par_cfg)
                .unwrap_or_else(|e| panic!("{cell} @{threads}t: {e}"));
            assert_same_graph(&cell, threads, &par, &reference);
            assert_eq!(analyze_graph(spec, &par), ref_verdict, "{cell} @{threads}t: verdict");
            assert_eq!(witness_from_graph(spec, &par), ref_witness, "{cell} @{threads}t: witness");
        }
    }
}

#[test]
fn parallel_explorer_matches_reference_on_larger_oscillating_cells() {
    // A deeper sweep over the cells whose verdicts carry the paper's
    // separations, at a budget big enough to include the fair SCCs.
    let cfg = ExploreConfig {
        channel_cap: 3,
        max_states: 30_000,
        max_steps_per_state: 20_000,
        ..ExploreConfig::default()
    };
    check_cells(
        &cfg,
        &[("DISAGREE", "R1O"), ("DISAGREE", "RMA"), ("BAD-GADGET", "REA"), ("GOOD-GADGET", "R1O")],
        &[2, 8],
    );
    // Unreduced builds past the taxonomy sweep's budget, Fig. 6's polling
    // cell among them.
    let raw = ExploreConfig {
        channel_cap: 2,
        max_states: 4_000,
        reduce: false,
        ..ExploreConfig::default()
    };
    check_cells(&raw, &[("DISAGREE", "R1O"), ("FIG6", "R1A"), ("BAD-GADGET", "REA")], &[1, 2, 8]);
}
