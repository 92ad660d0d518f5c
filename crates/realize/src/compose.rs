//! Composition of foundational transformations (the positive half of
//! Sec. 3.4): realize a sequence of one model inside any other model by
//! chaining transformations along the strongest foundational path.

use std::borrow::Cow;

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_core::lattice::Strength;
use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_spp::SppInstance;

use crate::transform::{self, Tables, TransformError, TransformOutput};

/// Which constructive algorithm realizes a foundational edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// Prop 3.3: the sequence is already legal in the stronger model.
    Identity,
    /// Prop 3.4: pad `wMS` updates with `f = 0` reads to scope `E`.
    Pad,
    /// Thm 3.5: split `wMy` updates into ordered single-channel updates.
    Split,
    /// Prop 3.6 (reliable): the R1S→R1O flagging construction.
    Flag,
    /// Prop 3.6 (unreliable): drop all but the used message.
    Elide,
    /// Thm 3.7: coalesce U1O drops into R1S batch reads.
    Coalesce,
}

impl TransformKind {
    /// Every constructive algorithm, in paper order.
    pub const ALL: [TransformKind; 6] = [
        TransformKind::Identity,
        TransformKind::Pad,
        TransformKind::Split,
        TransformKind::Flag,
        TransformKind::Elide,
        TransformKind::Coalesce,
    ];
}

/// A foundational positive edge with its transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The realized (source) model.
    pub realized: CommModel,
    /// The realizing (target) model.
    pub realizer: CommModel,
    /// The strength the construction guarantees.
    pub strength: Strength,
    /// The algorithm.
    pub kind: TransformKind,
}

/// All foundational edges with their transformation kinds. The `(realized,
/// realizer, strength)` triples coincide exactly with
/// [`routelab_core::edges::foundational_facts`] (checked by a test).
pub fn foundational_edges() -> Vec<Edge> {
    use MessagePolicy as P;
    use NeighborScope as S;
    use Reliability as R;
    let m = CommModel::new;
    let mut out = Vec::new();
    // Prop 3.3(1): Rxy inside Uxy.
    for x in S::ALL {
        for y in P::ALL {
            out.push(Edge {
                realized: m(R::Reliable, x, y),
                realizer: m(R::Unreliable, x, y),
                strength: Strength::Exact,
                kind: TransformKind::Identity,
            });
        }
    }
    for w in R::ALL {
        for x in S::ALL {
            // Prop 3.3(2) and (3).
            for (a, b) in [(P::Forced, P::Some), (P::One, P::Forced), (P::All, P::Forced)] {
                out.push(Edge {
                    realized: m(w, x, a),
                    realizer: m(w, x, b),
                    strength: Strength::Exact,
                    kind: TransformKind::Identity,
                });
            }
        }
        for y in P::ALL {
            // Prop 3.3(4).
            for a in [S::One, S::Every] {
                out.push(Edge {
                    realized: m(w, a, y),
                    realizer: m(w, S::Multiple, y),
                    strength: Strength::Exact,
                    kind: TransformKind::Identity,
                });
            }
            // Thm 3.5.
            out.push(Edge {
                realized: m(w, S::Multiple, y),
                realizer: m(w, S::One, y),
                strength: Strength::Repetition,
                kind: TransformKind::Split,
            });
        }
        // Prop 3.4.
        out.push(Edge {
            realized: m(w, S::Multiple, P::Some),
            realizer: m(w, S::Every, P::Some),
            strength: Strength::Exact,
            kind: TransformKind::Pad,
        });
    }
    // Prop 3.6.
    out.push(Edge {
        realized: m(R::Reliable, S::One, P::Some),
        realizer: m(R::Reliable, S::One, P::One),
        strength: Strength::Subsequence,
        kind: TransformKind::Flag,
    });
    out.push(Edge {
        realized: m(R::Unreliable, S::One, P::Some),
        realizer: m(R::Unreliable, S::One, P::One),
        strength: Strength::Repetition,
        kind: TransformKind::Elide,
    });
    // Thm 3.7.
    out.push(Edge {
        realized: m(R::Unreliable, S::One, P::One),
        realizer: m(R::Reliable, S::One, P::Some),
        strength: Strength::Exact,
        kind: TransformKind::Coalesce,
    });
    out
}

/// Applies one edge's transformation.
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithm.
pub fn apply_edge<'s>(
    edge: &Edge,
    tables: &Tables<'_>,
    seq: &'s ActivationSeq,
) -> Result<TransformOutput<'s>, TransformError> {
    match edge.kind {
        TransformKind::Identity => transform::identity(tables, seq),
        TransformKind::Pad => transform::pad_m_to_e(tables, seq),
        TransformKind::Split => transform::split_m_to_1(tables, seq, edge.realizer.messages),
        TransformKind::Flag => transform::flag_r1s_to_r1o(tables, seq),
        TransformKind::Elide => transform::elide_u1s_to_u1o(tables, seq),
        TransformKind::Coalesce => transform::coalesce_u1o_to_r1s(tables, seq),
    }
}

/// Applies a chain of edges in order, accumulating the weakest claimed
/// strength and the conjunction of losslessness. The output borrows `seq`
/// until some stage rewrites it, so identity stages copy nothing.
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithms.
pub fn apply_chain<'s>(
    tables: &Tables<'_>,
    seq: &'s ActivationSeq,
    edges: &[Edge],
) -> Result<TransformOutput<'s>, TransformError> {
    let mut cur =
        TransformOutput { seq: Cow::Borrowed(seq), claimed: Strength::Exact, lossless: true };
    for edge in edges {
        let next = apply_edge(edge, tables, &cur.seq)?;
        cur.claimed = cur.claimed.min(next.claimed);
        cur.lossless &= next.lossless;
        if let Cow::Owned(rewritten) = next.seq {
            cur.seq = Cow::Owned(rewritten);
        }
    }
    Ok(cur)
}

/// Finds the strongest chain of registered edges realizing `from` inside
/// `to` (maximum bottleneck strength, then fewest edges), or `None` when no
/// positive chain exists (e.g. realizing `R1O` inside `REA`). Thin wrapper
/// over [`crate::plan::plan_route`] against the global registry.
pub fn plan(from: CommModel, to: CommModel) -> Option<Vec<Edge>> {
    crate::plan::plan_route(crate::registry::Registry::global(), from, to)
        .ok()
        .map(|route| route.edges())
}

/// Realizes `seq` (legal in `from`) inside `to` along the strongest
/// registered chain. Returns `None` when no positive chain exists.
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithms.
pub fn realize<'s>(
    inst: &SppInstance,
    seq: &'s ActivationSeq,
    from: CommModel,
    to: CommModel,
) -> Result<Option<TransformOutput<'s>>, TransformError> {
    let Some(path) = plan(from, to) else { return Ok(None) };
    apply_chain(&Tables::new(inst), seq, &path).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::edges::foundational_facts;

    #[test]
    fn edges_match_core_facts() {
        let edges = foundational_edges();
        let facts = foundational_facts();
        assert_eq!(edges.len(), facts.positives.len());
        for e in &edges {
            assert!(
                facts.positives.iter().any(|p| p.realized == e.realized
                    && p.realizer == e.realizer
                    && p.strength == e.strength),
                "edge {} -> {} not in core facts",
                e.realized,
                e.realizer
            );
        }
    }

    #[test]
    fn plan_matches_closure_lower_bounds() {
        // The bottleneck strength of the best plan must equal the positive
        // closure's lower bound for every pair with a plan; pairs without a
        // plan must have lower bound 0 (only negatives/unknowns there).
        let bounds = routelab_core::closure::derive_bounds(&foundational_facts());
        for a in CommModel::all() {
            for b in CommModel::all() {
                if a == b {
                    continue;
                }
                let lower = bounds.get(a, b).lower;
                match plan(a, b) {
                    Some(path) => {
                        let bottleneck = path.iter().map(|e| e.strength.level()).min().unwrap_or(4);
                        assert_eq!(
                            bottleneck, lower,
                            "plan {a} -> {b}: bottleneck {bottleneck} vs closure {lower}"
                        );
                    }
                    None => {
                        assert_eq!(lower, 0, "{a} -> {b}: closure says {lower} but no plan");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_is_empty_for_same_model() {
        let m: CommModel = "RMS".parse().unwrap();
        assert_eq!(plan(m, m).unwrap().len(), 0);
    }

    #[test]
    fn no_plan_into_weak_models() {
        // R1O cannot be realized in the polling models (Thm 3.8): there must
        // be no positive chain.
        let r1o: CommModel = "R1O".parse().unwrap();
        for weak in ["REO", "REF", "R1A", "RMA", "REA"] {
            assert!(plan(r1o, weak.parse().unwrap()).is_none(), "{weak}");
        }
    }

    #[test]
    fn ums_realizes_everything_exactly() {
        let ums: CommModel = "UMS".parse().unwrap();
        for a in CommModel::all() {
            if a == ums {
                continue;
            }
            let path = plan(a, ums).unwrap_or_else(|| panic!("no plan {a} -> UMS"));
            let bottleneck = path.iter().map(|e| e.strength.level()).min().unwrap();
            assert_eq!(bottleneck, 4, "{a} -> UMS should be exact");
        }
    }

    #[test]
    fn paths_are_well_formed_chains() {
        for a in CommModel::all() {
            for b in CommModel::all() {
                if let Some(path) = plan(a, b) {
                    let mut cur = a;
                    for e in &path {
                        assert_eq!(e.realized, cur);
                        cur = e.realizer;
                    }
                    assert_eq!(cur, b);
                }
            }
        }
    }
}
