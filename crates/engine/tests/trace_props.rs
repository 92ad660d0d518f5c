//! Property-based tests for the Definition 3.2 trace relations: each
//! relation is reflexive (self-realization), transitive under composition
//! of realizations, respects the Exact ⊂ Repetition ⊂ Subsequence
//! hierarchy, and `strongest_relation` is monotone when the candidate is
//! extended in relation-preserving ways. The linear run-length kernel
//! agrees with the quadratic dynamic program it replaced.

mod support {
    pub mod relation_oracle;
}

use proptest::prelude::*;
use routelab_engine::trace::{
    is_repetition, is_subsequence, relation, strongest_relation, PathTrace, TraceRelation,
};
use routelab_spp::{Path, Route};
use support::relation_oracle::relation_dp;

fn pi(tag: u32) -> Vec<Route> {
    // Distinct single-node assignments keyed by tag.
    vec![Route::from(Path::from_ids([tag]).expect("single-node path"))]
}

fn trace(tags: &[u32]) -> PathTrace {
    tags.iter().map(|&t| pi(t)).collect()
}

/// A short trace over a small alphabet (collisions between entries are the
/// interesting cases for the block-boundary ambiguity in `is_repetition`).
fn arb_tags() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..4, 0..8)
}

/// Per-entry repeat counts: expanding each base entry `count ≥ 1` times
/// yields a repetition realization by construction.
fn repeat(tags: &[u32], counts: &[u8]) -> Vec<u32> {
    tags.iter()
        .zip(counts.iter().cycle())
        .flat_map(|(&t, &c)| std::iter::repeat_n(t, 1 + usize::from(c % 3)))
        .collect()
}

/// Interleaves extra entries around the base, preserving it as a
/// subsequence.
fn pad(tags: &[u32], extras: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut e = extras.iter();
    for &t in tags {
        if let Some(&x) = e.next() {
            out.push(x);
        }
        out.push(t);
    }
    out.extend(e.copied());
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn relations_are_reflexive(tags in arb_tags()) {
        let t = trace(&tags);
        prop_assert!(is_subsequence(&t, &t));
        prop_assert!(is_repetition(&t, &t));
        prop_assert_eq!(strongest_relation(&t, &t), TraceRelation::Exact);
    }

    #[test]
    fn repetition_composes_transitively(
        tags in arb_tags(),
        c1 in prop::collection::vec(0u8..3, 1..8),
        c2 in prop::collection::vec(0u8..3, 1..8),
    ) {
        // a →rep b →rep c implies a →rep c.
        let a_tags = &tags;
        let b_tags = repeat(a_tags, &c1);
        let c_tags = repeat(&b_tags, &c2);
        let (a, b, c) = (trace(a_tags), trace(&b_tags), trace(&c_tags));
        prop_assert!(is_repetition(&a, &b));
        prop_assert!(is_repetition(&b, &c));
        prop_assert!(is_repetition(&a, &c));
    }

    #[test]
    fn subsequence_composes_transitively(
        tags in arb_tags(),
        e1 in prop::collection::vec(0u32..4, 0..6),
        e2 in prop::collection::vec(0u32..4, 0..6),
    ) {
        // a ⊑ b and b ⊑ c implies a ⊑ c.
        let a_tags = &tags;
        let b_tags = pad(a_tags, &e1);
        let c_tags = pad(&b_tags, &e2);
        let (a, b, c) = (trace(a_tags), trace(&b_tags), trace(&c_tags));
        prop_assert!(is_subsequence(&a, &b));
        prop_assert!(is_subsequence(&b, &c));
        prop_assert!(is_subsequence(&a, &c));
    }

    #[test]
    fn transitivity_holds_on_arbitrary_triples(
        a in arb_tags(), b in arb_tags(), c in arb_tags(),
    ) {
        // The implication form, on unconstrained triples: whenever both
        // premises happen to hold, so must the conclusion.
        let (a, b, c) = (trace(&a), trace(&b), trace(&c));
        if is_subsequence(&a, &b) && is_subsequence(&b, &c) {
            prop_assert!(is_subsequence(&a, &c));
        }
        if is_repetition(&a, &b) && is_repetition(&b, &c) {
            prop_assert!(is_repetition(&a, &c));
        }
    }

    #[test]
    fn hierarchy_is_respected(a in arb_tags(), b in arb_tags()) {
        // Exact ⇒ Repetition ⇒ Subsequence, so the strongest relation is
        // consistent with the individual predicates.
        let (a, b) = (trace(&a), trace(&b));
        if is_repetition(&a, &b) {
            prop_assert!(is_subsequence(&a, &b));
        }
        let strongest = strongest_relation(&a, &b);
        prop_assert_eq!(strongest >= TraceRelation::Subsequence, is_subsequence(&a, &b));
        prop_assert_eq!(strongest >= TraceRelation::Repetition, is_repetition(&a, &b));
        prop_assert_eq!(strongest == TraceRelation::Exact, a == b);
    }

    #[test]
    fn strongest_relation_is_monotone_under_extension(
        tags in prop::collection::vec(0u32..4, 1..8),
        counts in prop::collection::vec(0u8..3, 1..8),
        extras in prop::collection::vec(0u32..4, 0..6),
    ) {
        // Extending a repetition candidate by repeating the final entry
        // keeps it at least a repetition; padding a subsequence candidate
        // with arbitrary entries keeps it at least a subsequence. The
        // relation can only move *up* the lattice, never below the
        // preserved level.
        let base = trace(&tags);
        let rep_tags = repeat(&tags, &counts);
        let mut extended = rep_tags.clone();
        extended.push(*rep_tags.last().expect("non-empty"));
        prop_assert!(
            strongest_relation(&base, &trace(&extended)) >= TraceRelation::Repetition
        );

        let sub_tags = pad(&tags, &extras);
        let mut padded = sub_tags.clone();
        padded.extend(extras.iter().copied());
        prop_assert!(
            strongest_relation(&base, &trace(&padded)) >= TraceRelation::Subsequence
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_the_dp_oracle(
        base in prop::collection::vec(0u32..3, 0..7),
        counts in prop::collection::vec(0u8..3, 1..8),
        noise in prop::collection::vec(0u32..3, 0..7),
        shape in 0u8..4,
        cut in 1usize..4,
    ) {
        // Three letters make stuttering bases and accidental matches common.
        // The candidate is unrelated, a repetition of the base, a repetition
        // cut short, or a repetition with foreign rows interleaved.
        let cand = match shape {
            0 => noise,
            1 => repeat(&base, &counts),
            2 => {
                let mut c = repeat(&base, &counts);
                c.truncate(c.len().saturating_sub(cut));
                c
            }
            _ => pad(&repeat(&base, &counts), &noise),
        };
        let want = relation_dp(&base, &cand);
        prop_assert_eq!(relation(&base, &cand), want);
        prop_assert_eq!(strongest_relation(&trace(&base), &trace(&cand)), want);
    }
}
