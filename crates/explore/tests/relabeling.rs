//! Relabeling nodes does not change the explorer's results.
//!
//! Every corpus gadget is printed with `format::to_text`, its `node` lines
//! are reordered (reversed, and rotated by one), and the text is parsed
//! back. That renumbers the nodes, so every route id of the instance's
//! route table changes and the destination's block moves. Text-format
//! instances rank each node's paths strictly (`SppBuilder::prefer`), so the
//! lexicographic tie-break never decides a choice and every copy is the
//! original up to the relabeling.
//!
//! For all 24 models, reduced builds of the original and of each copy must
//! never reach opposite decisive verdicts; a budget-truncated
//! `NoOscillationWithinBound` matches anything. When both builds are
//! exhaustive, they must hold as many states and as many edges.

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_explore::oscillation::{analyze_graph, Verdict};
use routelab_spp::{format, gadgets, SppInstance};

/// `inst` with the `node` lines of its text form reversed, or else rotated
/// by one, before parsing.
fn relabeled(inst: &SppInstance, reverse: bool) -> SppInstance {
    let text = format::to_text(inst);
    let (mut nodes, rest): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|l| l.starts_with("node "));
    if reverse {
        nodes.reverse();
    } else {
        nodes.rotate_left(1);
    }
    // `rest` opens with the `spp v1` header; the nodes follow it.
    let lines = [&rest[..1], &nodes[..], &rest[1..]].concat();
    format::from_text(&lines.join("\n")).expect("a reordered gadget parses")
}

fn edge_count(g: &StateGraph) -> usize {
    g.edges.iter().map(|e| e.len()).sum()
}

fn opposite(a: &Verdict, b: &Verdict) -> bool {
    use Verdict::{AlwaysConverges, CanOscillate};
    matches!(
        (a, b),
        (CanOscillate { .. }, AlwaysConverges { .. })
            | (AlwaysConverges { .. }, CanOscillate { .. })
    )
}

#[test]
fn relabeled_gadgets_explore_alike() {
    let cfg = ExploreConfig { max_states: 500, threads: Some(1), ..ExploreConfig::default() };
    let mut compared = 0;
    for (name, inst) in gadgets::corpus() {
        let copies = [("reversed", relabeled(&inst, true)), ("rotated", relabeled(&inst, false))];
        assert!(copies.iter().any(|(_, copy)| copy.dest() != inst.dest()), "{name}");
        for model in CommModel::all() {
            let spec = Spec::Uniform(model);
            let build = |i: &SppInstance| {
                let g = try_build_spec(i, spec, &cfg).unwrap_or_else(|e| panic!("{e}"));
                let verdict = analyze_graph(spec, &g);
                (g, verdict)
            };
            let (g, verdict) = build(&inst);
            for (how, copy) in &copies {
                let cell = format!("{name} ({how}) × {model}");
                let (h, other) = build(copy);
                assert!(!opposite(&verdict, &other), "{cell}: {verdict:?} against {other:?}");
                if !g.truncated && !h.truncated {
                    assert_eq!(h.len(), g.len(), "{cell}: states");
                    assert_eq!(edge_count(&h), edge_count(&g), "{cell}: edges");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 0, "no pair of exhaustive builds to compare");
}
