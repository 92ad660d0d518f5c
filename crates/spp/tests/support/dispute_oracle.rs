//! The reference dispute-wheel detector that the linear-memory
//! `routelab_spp::dispute::find_dispute_wheel` is checked against: it stores
//! one arc, with a copy of its rim, for every (spoke, W) pair with
//! λ(W) ≤ λ(spoke), so it is quadratic in a node's path count.

use std::collections::HashMap;

use routelab_spp::dispute::{DisputeWheel, WheelPivot};
use routelab_spp::{NodeId, Path, SppInstance};

/// State of the wheel search: a `(node, spoke)` pair.
type SpokeState = (NodeId, Path);

/// The same wheel `find_dispute_wheel` returns, found by a depth-first
/// search over explicitly stored arcs: `(u, Q_u) → (w, Q_w)` whenever some
/// `W ∈ P_u` has proper suffix `Q_w` and `λ_u(W) ≤ λ_u(Q_u)`.
pub fn find_dispute_wheel_reference(inst: &SppInstance) -> Option<DisputeWheel> {
    let states: Vec<SpokeState> = inst
        .nodes()
        .filter(|&v| v != inst.dest())
        .flat_map(|v| inst.permitted(v).iter().map(move |rp| (v, rp.path.clone())))
        .collect();
    let index: HashMap<&SpokeState, usize> =
        states.iter().enumerate().map(|(i, s)| (s, i)).collect();

    // Arcs, labeled with the rim path that witnesses them.
    let mut arcs: Vec<Vec<(usize, Path)>> = vec![Vec::new(); states.len()];
    for (si, (u, spoke)) in states.iter().enumerate() {
        let spoke_rank = inst.rank(*u, spoke).expect("spokes are permitted");
        for rp in inst.permitted(*u) {
            if rp.rank > spoke_rank {
                continue;
            }
            let w_path = &rp.path;
            // Every proper suffix of W starting strictly after u and before d
            // is a candidate next spoke Q_w at node w.
            for start in 1..w_path.len() - 1 {
                let w = w_path.as_slice()[start];
                let q = w_path.suffix(start);
                if let Some(&ti) = index.get(&(w, q.clone())) {
                    arcs[si].push((ti, w_path.clone()));
                }
            }
        }
    }

    // DFS cycle detection, recovering the cycle and its rim labels.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut mark = vec![Mark::White; states.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (state, next arc index)
    let mut path_states: Vec<usize> = Vec::new();
    let mut path_rims: Vec<Path> = Vec::new();

    for root in 0..states.len() {
        if mark[root] != Mark::White {
            continue;
        }
        mark[root] = Mark::Gray;
        stack.push((root, 0));
        path_states.push(root);
        while let Some(&(s, next)) = stack.last() {
            if next < arcs[s].len() {
                let (t, rim) = arcs[s][next].clone();
                stack.last_mut().expect("stack is non-empty").1 += 1;
                match mark[t] {
                    Mark::Gray => {
                        // Cycle found: states from t's position in path.
                        let pos = path_states
                            .iter()
                            .position(|&x| x == t)
                            .expect("gray states are on the path");
                        let mut pivots = Vec::new();
                        for (k, &si) in path_states[pos..].iter().enumerate() {
                            let (node, spoke) = states[si].clone();
                            let rim = if pos + k + 1 < path_states.len() {
                                path_rims[pos + k].clone()
                            } else {
                                rim.clone() // closing arc
                            };
                            pivots.push(WheelPivot { node, spoke, rim });
                        }
                        return Some(DisputeWheel { pivots });
                    }
                    Mark::White => {
                        mark[t] = Mark::Gray;
                        path_rims.push(rim);
                        stack.push((t, 0));
                        path_states.push(t);
                    }
                    Mark::Black => {}
                }
            } else {
                mark[s] = Mark::Black;
                stack.pop();
                path_states.pop();
                path_rims.pop();
            }
        }
    }
    None
}
