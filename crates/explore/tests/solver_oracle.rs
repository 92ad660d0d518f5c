//! The brute-force solver as an oracle for the explorer's quiescent states.
//!
//! On every corpus gadget × the 12 reliable models, every quiescent state
//! the (reduced) explorer reaches must carry a stable path assignment. When
//! the build is exhaustive, the quiescent π set closed under the instance's
//! automorphisms (the reduced build keeps one representative per orbit)
//! must be exactly the solver's set of stable assignments: every stable
//! assignment is reachable, and nothing else is quiescent.
//!
//! Unreliable models are excluded: a dropped message leaves the reader's ρ
//! stale, so a quiescent state's π need not be stable there — DISAGREE ×
//! U1O reaches such a state.

use std::collections::HashSet;

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_spp::solve::{enumerate_stable_assignments, is_stable, PathAssignment};
use routelab_spp::{automorphisms, gadgets, Automorphism, NodeId, SppInstance};

/// The π of every quiescent state of `g`.
fn quiescent_pis(g: &StateGraph) -> Vec<PathAssignment> {
    (0..g.len())
        .filter(|&i| g.codec.is_quiescent_words(g.nodes.node(i as u32)))
        .map(|i| g.state(i).assignment())
        .collect()
}

/// The image of `pi` under `a`: node `a(v)` takes the image of `v`'s route.
fn relabel(a: &Automorphism, pi: &PathAssignment) -> PathAssignment {
    let mut out = pi.clone();
    for (v, r) in pi.iter().enumerate() {
        out[a.apply(NodeId(v as u32)).index()] = a.map_route(r);
    }
    out
}

fn orbit_closure(inst: &SppInstance, pis: &[PathAssignment]) -> HashSet<PathAssignment> {
    let auts = automorphisms(inst);
    pis.iter().flat_map(|pi| auts.iter().map(move |a| relabel(a, pi))).collect()
}

#[test]
fn quiescent_states_are_exactly_the_stable_assignments() {
    let cfg = ExploreConfig { max_states: 20_000, threads: Some(1), ..ExploreConfig::default() };
    let mut exhaustive = 0;
    for (name, inst) in gadgets::corpus() {
        let stable: HashSet<PathAssignment> = enumerate_stable_assignments(&inst, 1_000_000)
            .expect("corpus gadgets solve")
            .into_iter()
            .collect();
        for model in CommModel::all_reliable() {
            let cell = format!("{name} × {model}");
            let g = try_build_spec(&inst, Spec::Uniform(model), &cfg)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let pis = quiescent_pis(&g);
            for pi in &pis {
                assert!(is_stable(&inst, pi), "{cell}: quiescent π {pi:?} is not stable");
            }
            if !g.truncated {
                exhaustive += 1;
                assert_eq!(orbit_closure(&inst, &pis), stable, "{cell}");
            }
        }
    }
    assert!(exhaustive > 0, "no exhaustive build to compare");
}
