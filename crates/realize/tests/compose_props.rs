//! Property tests for transform composition: chaining `t2 ∘ t1` is
//! step-for-step equivalent to applying `t1` then `t2`, and composition is
//! associative — any parenthesization of a chain yields the same sequence
//! and the same verification verdict.

use proptest::prelude::*;
use routelab_core::model::CommModel;
use routelab_realize::plan::{apply_chain, apply_edge};
use routelab_realize::plan::{fair_prefix, plan_route};
use routelab_realize::registry::Registry;
use routelab_realize::transform::Tables;
use routelab_realize::verify::report_for;
use routelab_spp::generator::{random_instance, RandomSppConfig};
use routelab_spp::SppInstance;

fn arb_instance() -> impl Strategy<Value = SppInstance> {
    (2usize..7, 0usize..5, 0u64..5_000).prop_map(|(nodes, extra, seed)| {
        random_instance(&RandomSppConfig {
            nodes,
            extra_edges: extra,
            max_paths_per_node: 4,
            max_path_len: 5,
            seed,
        })
        .expect("generator output validates")
    })
}

/// A random ordered model pair that the planner can bridge with at least
/// two stages (so splitting the chain is meaningful).
fn arb_routed_pair() -> impl Strategy<Value = (CommModel, CommModel)> {
    let pairs: Vec<(CommModel, CommModel)> = CommModel::all()
        .into_iter()
        .flat_map(|a| CommModel::all().into_iter().map(move |b| (a, b)))
        .filter(|(a, b)| {
            plan_route(Registry::global(), *a, *b).map(|r| r.steps.len() >= 2).unwrap_or(false)
        })
        .collect();
    let n = pairs.len();
    (0..n).prop_map(move |i| pairs[i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn chaining_equals_sequential_application(
        inst in arb_instance(),
        (from, to) in arb_routed_pair(),
        steps in 1usize..16,
    ) {
        let route = plan_route(Registry::global(), from, to).expect("pair is routed");
        let edges = route.edges();
        let seq = fair_prefix(&inst, from, steps);
        let tables = Tables::new(&inst);

        let chained = apply_chain(&tables, &seq, &edges).expect("chain applies");
        // Fold the edges one at a time by hand.
        let mut cur = seq.clone();
        let mut claimed = routelab_core::lattice::Strength::Exact;
        let mut lossless = true;
        for e in &edges {
            let out = apply_edge(e, &tables, &cur).expect("edge applies");
            claimed = claimed.min(out.claimed);
            lossless = lossless && out.lossless;
            cur = out.seq.into_owned();
        }
        prop_assert_eq!(&*chained.seq, &cur, "step-for-step mismatch {} -> {}", from, to);
        prop_assert_eq!(chained.claimed, claimed);
        prop_assert_eq!(chained.lossless, lossless);
    }

    #[test]
    fn composition_is_associative_on_sequences_and_verdicts(
        inst in arb_instance(),
        (from, to) in arb_routed_pair(),
        steps in 1usize..12,
        cut_seed in 0usize..64,
    ) {
        let route = plan_route(Registry::global(), from, to).expect("pair is routed");
        let edges = route.edges();
        let seq = fair_prefix(&inst, from, steps);
        let tables = Tables::new(&inst);

        // Whole chain in one go …
        let whole = apply_chain(&tables, &seq, &edges).expect("chain applies");
        // … versus split at an arbitrary interior point and re-associated.
        let cut = 1 + cut_seed % (edges.len() - 1);
        let first = apply_chain(&tables, &seq, &edges[..cut]).expect("prefix applies");
        let second = apply_chain(&tables, &first.seq, &edges[cut..]).expect("suffix applies");

        prop_assert_eq!(&whole.seq, &second.seq, "associativity broken at cut {}", cut);
        prop_assert_eq!(whole.claimed, first.claimed.min(second.claimed));
        prop_assert_eq!(whole.lossless, first.lossless && second.lossless);

        // The verification verdict is identical however the chain was built.
        let r_whole =
            report_for(&tables, &seq, &whole.seq, from, to, whole.claimed, whole.lossless);
        let r_split = report_for(
            &tables,
            &seq,
            &second.seq,
            from,
            to,
            first.claimed.min(second.claimed),
            first.lossless && second.lossless,
        );
        prop_assert_eq!(r_whole.holds(), r_split.holds());
        prop_assert_eq!(r_whole.achieved, r_split.achieved);
        prop_assert!(r_whole.holds(), "{}", r_whole);
    }
}
