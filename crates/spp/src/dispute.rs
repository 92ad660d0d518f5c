//! Dispute wheels and the dispute digraph.
//!
//! Example A.1 recalls the Griffin–Shepherd–Wilfong result that multiple
//! stable solutions imply a *dispute wheel*, and that the absence of a
//! dispute wheel is the broadest known sufficient condition for convergence.
//! This module provides:
//!
//! * [`find_dispute_wheel`] — exact dispute-wheel detection via a cycle
//!   search over `(pivot node, spoke path)` states, linear in memory,
//! * [`dispute_digraph`] / [`digraph_is_acyclic`] — a lightweight
//!   *single-hop* dispute digraph in the spirit of GSW 2002: its acyclicity
//!   rules out every wheel whose rims extend the next spoke by one hop (the
//!   DISAGREE/BAD-GADGET pattern); longer rims are decided by the exact
//!   detector.

use std::collections::HashMap;

use crate::graph::NodeId;
use crate::instance::SppInstance;
use crate::path::Path;

/// One pivot of a dispute wheel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WheelPivot {
    /// The pivot node `u_i`.
    pub node: NodeId,
    /// The spoke path `Q_i ∈ P_{u_i}`.
    pub spoke: Path,
    /// The full rim path `R_i Q_{i+1} ∈ P_{u_i}`, weakly preferred to the
    /// spoke (`λ(R_i Q_{i+1}) ≤ λ(Q_i)`).
    pub rim: Path,
}

/// A dispute wheel: a cyclic sequence of pivots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisputeWheel {
    /// Pivots in wheel order; pivot `i`'s rim ends with pivot `i+1`'s spoke.
    pub pivots: Vec<WheelPivot>,
}

impl DisputeWheel {
    /// Renders the wheel with instance names for diagnostics.
    pub fn display(&self, inst: &SppInstance) -> String {
        let parts: Vec<String> = self
            .pivots
            .iter()
            .map(|p| {
                format!(
                    "{}[spoke {} rim {}]",
                    inst.name(p.node),
                    inst.fmt_path(&p.spoke),
                    inst.fmt_path(&p.rim)
                )
            })
            .collect();
        parts.join(" -> ")
    }

    /// Structural sanity check (used by tests): every rim is permitted at its
    /// pivot, weakly preferred to the spoke, and ends with the next pivot's
    /// spoke.
    pub fn verify(&self, inst: &SppInstance) -> bool {
        if self.pivots.is_empty() {
            return false;
        }
        for (i, p) in self.pivots.iter().enumerate() {
            let next = &self.pivots[(i + 1) % self.pivots.len()];
            let (Some(spoke_rank), Some(rim_rank)) =
                (inst.rank(p.node, &p.spoke), inst.rank(p.node, &p.rim))
            else {
                return false;
            };
            if rim_rank > spoke_rank {
                return false;
            }
            // The rim must be R_i · Q_{i+1} with a non-empty R_i.
            if !p.rim.has_suffix(&next.spoke) || p.rim.len() == next.spoke.len() {
                return false;
            }
        }
        true
    }
}

/// Finds a dispute wheel if one exists (exact, and linear in memory: the
/// search keeps one entry per state and per distinct arc target of a node).
///
/// The search graph has a state per `(node u, spoke Q ∈ P_u)` and an arc
/// `(u, Q_u) → (w, Q_w)` whenever some permitted path `W ∈ P_u` has proper
/// suffix `Q_w` and `λ_u(W) ≤ λ_u(Q_u)`; any cycle is exactly a dispute
/// wheel, and vice versa.
///
/// `P_u` is sorted by rank, so the arcs of the spoke at position `p` come
/// from the paths up to the end of its rank run (ranks tie only through the
/// same next hop): a prefix of one list per node, which holds each target
/// at its first occurrence in rank order, with its `W`. A later occurrence
/// would only be tried after the depth-first search had closed that target,
/// and so would a target in the part of the list that a closed spoke of the
/// same node already covers; a spoke's search starts past that part.
pub fn find_dispute_wheel(inst: &SppInstance) -> Option<DisputeWheel> {
    // State ids: the spokes of node u are first[u]..first[u + 1], in
    // preference order; the destination has none.
    let mut first = vec![0usize; inst.node_count() + 1];
    for v in inst.nodes() {
        let spokes = if v == inst.dest() { 0 } else { inst.permitted(v).len() };
        first[v.index() + 1] = first[v.index()] + spokes;
    }
    let states = first[inst.node_count()];
    let owner = |s: usize| NodeId(first.partition_point(|&f| f <= s) as u32 - 1);

    // One list per node of (target state, position of its W in P_u), the
    // lists concatenated; per state, the end of its prefix. Per node,
    // `closed` marks the end of the part of its list whose targets are all
    // Black, starting at the list's start.
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    let mut end = vec![0usize; states];
    let mut closed = vec![0usize; inst.node_count()];
    let mut listed_by = vec![usize::MAX; states];
    for u in inst.nodes().filter(|&u| u != inst.dest()) {
        closed[u.index()] = arcs.len();
        let paths = inst.permitted(u);
        let ends = &mut end[first[u.index()]..first[u.index() + 1]];
        for (pos, rp) in paths.iter().enumerate() {
            let w_path = &rp.path;
            // Every proper suffix of W starting strictly after u and before d
            // is a candidate next spoke Q_w at node w.
            for at in 1..w_path.len() - 1 {
                let w = w_path.as_slice()[at];
                let Some(q) = inst.preference_position(w, &w_path.suffix(at)) else { continue };
                let t = first[w.index()] + q as usize;
                if listed_by[t] != u.index() {
                    listed_by[t] = u.index();
                    arcs.push((t, pos));
                }
            }
            ends[pos] = arcs.len();
        }
        // A spoke's prefix runs to the end of its rank run.
        for pos in (1..paths.len()).rev() {
            if paths[pos - 1].rank == paths[pos].rank {
                ends[pos - 1] = ends[pos];
            }
        }
    }

    // DFS cycle detection. The stack is the current path: each entry holds a
    // state and its next arc, so the arc it took is the one before.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut mark = vec![Mark::White; states];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..states {
        if mark[root] != Mark::White {
            continue;
        }
        mark[root] = Mark::Gray;
        stack.push((root, closed[owner(root).index()].min(end[root])));
        while let Some(&(s, next)) = stack.last() {
            if next < end[s] {
                let t = arcs[next].0;
                stack.last_mut().expect("stack is non-empty").1 += 1;
                match mark[t] {
                    Mark::Gray => {
                        // Cycle found: the stack from t up, each with the rim
                        // of the arc it took (the top's is the closing arc).
                        let pos = stack
                            .iter()
                            .position(|&(x, _)| x == t)
                            .expect("gray states are on the stack");
                        let pivots = stack[pos..]
                            .iter()
                            .map(|&(s, next)| {
                                let node = owner(s);
                                let paths = inst.permitted(node);
                                WheelPivot {
                                    node,
                                    spoke: paths[s - first[node.index()]].path.clone(),
                                    rim: paths[arcs[next - 1].1].path.clone(),
                                }
                            })
                            .collect();
                        return Some(DisputeWheel { pivots });
                    }
                    Mark::White => {
                        mark[t] = Mark::Gray;
                        stack.push((t, closed[owner(t).index()].min(end[t])));
                    }
                    Mark::Black => {}
                }
            } else {
                mark[s] = Mark::Black;
                let u = owner(s).index();
                closed[u] = closed[u].max(end[s]);
                stack.pop();
            }
        }
    }
    None
}

/// `true` when the instance has no dispute wheel — the broadest known
/// sufficient condition for convergence of every fair execution.
pub fn is_wheel_free(inst: &SppInstance) -> bool {
    find_dispute_wheel(inst).is_none()
}

/// A node of the dispute digraph: a permitted path at some node.
pub type PathNode = (NodeId, Path);

/// Arc kinds of the dispute digraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisputeArc {
    /// `P → vP`: `v` may extend `P` (both permitted).
    Transmission,
    /// `P → Q`: adopting the extension `vP` at `v` displaces the
    /// less-preferred `Q ∈ P_v`.
    Dispute,
}

/// The single-hop dispute digraph: vertices are `(owner, permitted path)`
/// pairs, arcs as in [`DisputeArc`] — a lightweight diagnostic in the spirit
/// of GSW 2002 covering one-hop rims; [`find_dispute_wheel`] is the exact
/// detector.
#[derive(Debug, Clone)]
pub struct DisputeDigraph {
    /// Vertices in deterministic order.
    pub vertices: Vec<PathNode>,
    /// Adjacency: `edges[i]` lists `(target, kind)`.
    pub edges: Vec<Vec<(usize, DisputeArc)>>,
}

/// Builds the dispute digraph of an instance.
pub fn dispute_digraph(inst: &SppInstance) -> DisputeDigraph {
    let vertices: Vec<PathNode> = inst
        .nodes()
        .flat_map(|v| inst.permitted(v).iter().map(move |rp| (v, rp.path.clone())))
        .collect();
    let index: HashMap<&PathNode, usize> =
        vertices.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut edges: Vec<Vec<(usize, DisputeArc)>> = vec![Vec::new(); vertices.len()];

    for (i, (u, p)) in vertices.iter().enumerate() {
        for &v in inst.graph().neighbors(*u) {
            let Ok(vp) = p.prepend(v) else { continue };
            let Some(vp_rank) = inst.rank(v, &vp) else { continue };
            // Transmission arc: P → vP.
            if let Some(&j) = index.get(&(v, vp.clone())) {
                edges[i].push((j, DisputeArc::Transmission));
            }
            // Dispute arcs: P → Q for every Q ∈ P_v weakly less preferred
            // than vP (v switching to vP displaces Q; weak preference covers
            // the same-next-hop ties Sec. 2.1 allows, making acyclicity a
            // complete test for single-hop wheels).
            for rq in inst.permitted(v) {
                if rq.rank >= vp_rank && rq.path != vp {
                    if let Some(&j) = index.get(&(v, rq.path.clone())) {
                        edges[i].push((j, DisputeArc::Dispute));
                    }
                }
            }
        }
    }
    DisputeDigraph { vertices, edges }
}

/// `true` if the single-hop dispute digraph has no cycle.
///
/// Acyclicity rules out every dispute wheel whose rims extend the next spoke
/// by exactly one hop (the DISAGREE/BAD-GADGET pattern). Wheels with longer
/// rims — whose interior extensions need not be permitted at intermediate
/// nodes — are invisible to this digraph; use [`find_dispute_wheel`] for the
/// exact decision.
pub fn digraph_is_acyclic(g: &DisputeDigraph) -> bool {
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut mark = vec![Mark::White; g.vertices.len()];
    for root in 0..g.vertices.len() {
        if mark[root] != Mark::White {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        mark[root] = Mark::Gray;
        while let Some(&(s, next)) = stack.last() {
            if next < g.edges[s].len() {
                let (t, _) = g.edges[s][next];
                stack.last_mut().expect("stack is non-empty").1 += 1;
                match mark[t] {
                    Mark::Gray => return false,
                    Mark::White => {
                        mark[t] = Mark::Gray;
                        stack.push((t, 0));
                    }
                    Mark::Black => {}
                }
            } else {
                mark[s] = Mark::Black;
                stack.pop();
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gadgets, RankedPath};

    #[test]
    fn disagree_has_a_wheel() {
        let inst = gadgets::disagree();
        let wheel = find_dispute_wheel(&inst).expect("DISAGREE has a dispute wheel");
        assert!(wheel.verify(&inst), "{}", wheel.display(&inst));
        assert_eq!(wheel.pivots.len(), 2);
    }

    #[test]
    fn bad_gadget_has_a_wheel() {
        let inst = gadgets::bad_gadget();
        let wheel = find_dispute_wheel(&inst).expect("BAD-GADGET has a dispute wheel");
        assert!(wheel.verify(&inst), "{}", wheel.display(&inst));
        assert_eq!(wheel.pivots.len(), 3);
    }

    #[test]
    fn good_gadget_is_wheel_free() {
        assert!(is_wheel_free(&gadgets::good_gadget()));
        assert!(is_wheel_free(&gadgets::line2()));
    }

    #[test]
    fn fig6_fig7_fig8_fig9_wheel_status() {
        // FIG6 contains a DISAGREE-like u/v dispute (the REO oscillation in
        // Example A.2 exploits it); FIG7–FIG9 carry no wheel (their
        // executions converge in every model — only *realizability* differs).
        assert!(!is_wheel_free(&gadgets::fig6()));
        assert!(is_wheel_free(&gadgets::fig7()));
        assert!(is_wheel_free(&gadgets::fig8()));
        assert!(is_wheel_free(&gadgets::fig9()));
    }

    #[test]
    fn digraph_agrees_with_wheel_detector_on_corpus() {
        for (name, inst) in gadgets::corpus() {
            let acyclic = digraph_is_acyclic(&dispute_digraph(&inst));
            let wheel_free = is_wheel_free(&inst);
            // Acyclicity is sufficient for wheel-freedom.
            if acyclic {
                assert!(wheel_free, "{name}: acyclic digraph but wheel found");
            }
            // On this corpus the two coincide exactly.
            assert_eq!(acyclic, wheel_free, "{name}");
        }
    }

    #[test]
    fn digraph_structure_on_disagree() {
        let inst = gadgets::disagree();
        let g = dispute_digraph(&inst);
        // Vertices: (d), xd, xyd, yd, yxd.
        assert_eq!(g.vertices.len(), 5);
        let has_dispute_arc = g.edges.iter().flatten().any(|(_, k)| *k == DisputeArc::Dispute);
        assert!(has_dispute_arc);
    }

    #[test]
    fn wheel_display_mentions_pivots() {
        let inst = gadgets::disagree();
        let wheel = find_dispute_wheel(&inst).unwrap();
        let s = wheel.display(&inst);
        assert!(s.contains("spoke"), "{s}");
        assert!(s.contains("rim"), "{s}");
    }

    /// Node 1 of a complete 9-node graph permits all 13,700 of its simple
    /// paths to d, its direct path last; node 2 prefers `2 1 d` to `2 d`,
    /// and every other node permits its direct path. A detector that stores
    /// an arc per (spoke, W) pair holds about 94 million arcs here.
    #[test]
    fn a_node_with_every_simple_path_is_searched_in_linear_memory() {
        let (g, names, mut permitted) = crate::generator::every_path_parts(9);
        assert_eq!(permitted[1].len(), 13_700);
        let (d, one, two) = (NodeId(0), NodeId(1), NodeId(2));
        let path = |nodes: &[u32]| Path::new(nodes.iter().map(|&v| NodeId(v)).collect()).unwrap();
        permitted[2] = vec![
            RankedPath { path: path(&[2, 1, 0]), rank: 1 },
            RankedPath { path: path(&[2, 0]), rank: 2 },
        ];
        let inst = SppInstance::from_parts(g, d, names, permitted).unwrap();
        let wheel = find_dispute_wheel(&inst).expect("nodes 1 and 2 dispute");
        assert!(wheel.verify(&inst), "{}", wheel.display(&inst));
        let mut pivots: Vec<NodeId> = wheel.pivots.iter().map(|p| p.node).collect();
        pivots.sort();
        assert_eq!(pivots, [one, two], "{}", wheel.display(&inst));
    }

    #[test]
    fn verify_rejects_malformed_wheel() {
        let inst = gadgets::disagree();
        let x = inst.node_by_name("x").unwrap();
        let bogus = DisputeWheel {
            pivots: vec![WheelPivot {
                node: x,
                spoke: inst.parse_path("xd").unwrap(),
                rim: inst.parse_path("xd").unwrap(), // rim must strictly extend next spoke
            }],
        };
        assert!(!bogus.verify(&inst));
        assert!(!DisputeWheel { pivots: vec![] }.verify(&inst));
    }
}
