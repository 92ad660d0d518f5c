//! Property tests for the SPP substrate.

mod support {
    pub mod dispute_oracle;
}

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routelab_spp::dispute::{digraph_is_acyclic, dispute_digraph, find_dispute_wheel};
use routelab_spp::generator::{
    enumerate_simple_paths, gao_rexford_instance, random_connected_graph, random_instance,
    shortest_path_instance, RandomSppConfig,
};
use routelab_spp::solve::{enumerate_stable_assignments, is_consistent, is_stable};
use routelab_spp::{
    format, gadgets, NodeId, Path, RankedPath, Route, RouteId, RouteTable, SppBuilder, SppInstance,
    NO_CANDIDATE,
};
use support::dispute_oracle::find_dispute_wheel_reference;

fn arb_instance() -> impl Strategy<Value = SppInstance> {
    (2usize..9, 0usize..6, 0u64..5_000).prop_map(|(nodes, extra, seed)| {
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

/// `inst` with each permitted path's rank tied, on a seeded coin, to that of
/// the path before it when both leave through the same next hop (the ties
/// `validate` allows).
fn with_rank_ties(inst: &SppInstance, seed: u64) -> SppInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let permitted = inst
        .nodes()
        .map(|v| {
            let mut perms = inst.permitted(v).to_vec();
            for i in 1..perms.len() {
                if perms[i].path.next_hop() == perms[i - 1].path.next_hop() && rng.gen_bool(0.5) {
                    perms[i].rank = perms[i - 1].rank;
                }
            }
            perms
        })
        .collect();
    let names = inst.nodes().map(|v| inst.name(v).to_string()).collect();
    SppInstance::from_parts(inst.graph().clone(), inst.dest(), names, permitted)
        .expect("ties through one next hop validate")
}

/// `true` when two of a node's permitted paths share a rank.
fn has_rank_tie(inst: &SppInstance) -> bool {
    inst.nodes().any(|v| inst.permitted(v).windows(2).any(|w| w[0].rank == w[1].rank))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn text_format_round_trips(inst in arb_instance()) {
        let text = format::to_text(&inst);
        let back = format::from_text(&text).expect("serialized instances parse");
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn digraph_acyclicity_implies_freedom_from_single_hop_wheels(inst in arb_instance()) {
        // The single-hop dispute digraph only models rims of the form v·Q
        // (one hop onto the next spoke); its acyclicity therefore rules out
        // exactly those wheels. Wheels with longer rims (whose interior
        // extensions need not be permitted anywhere) are invisible to it —
        // the exact detector `find_dispute_wheel` decides those.
        if digraph_is_acyclic(&dispute_digraph(&inst)) {
            if let Some(wheel) = find_dispute_wheel(&inst) {
                prop_assert!(
                    wheel
                        .pivots
                        .iter()
                        .enumerate()
                        .any(|(i, p)| {
                            let next = &wheel.pivots[(i + 1) % wheel.pivots.len()];
                            p.rim.len() > next.spoke.len() + 1
                        }),
                    "acyclic digraph must not miss a single-hop wheel: {}",
                    wheel.display(&inst)
                );
            }
        }
    }

    #[test]
    fn found_wheels_verify(inst in arb_instance()) {
        if let Some(wheel) = find_dispute_wheel(&inst) {
            prop_assert!(wheel.verify(&inst));
        }
    }

    #[test]
    fn wheel_detection_matches_the_reference(inst in arb_instance(), tie_seed in 0u64..1_000) {
        prop_assert_eq!(find_dispute_wheel(&inst), find_dispute_wheel_reference(&inst));
        let tied = with_rank_ties(&inst, tie_seed);
        prop_assert_eq!(find_dispute_wheel(&tied), find_dispute_wheel_reference(&tied));
    }

    #[test]
    fn solutions_are_stable_and_consistent(inst in arb_instance()) {
        if let Ok(solutions) = enumerate_stable_assignments(&inst, 500_000) {
            for pi in &solutions {
                prop_assert!(is_consistent(&inst, pi));
                prop_assert!(is_stable(&inst, pi));
            }
            // Wheel-free instances are solvable (Griffin–Shepherd–Wilfong).
            if find_dispute_wheel(&inst).is_none() {
                prop_assert!(!solutions.is_empty());
            }
        }
    }

    #[test]
    fn simple_path_enumeration_yields_valid_simple_paths(
        n in 2usize..10,
        extra in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let g = random_connected_graph(n, extra, &mut rng);
        let from = NodeId((n as u32).saturating_sub(1));
        let paths = enumerate_simple_paths(&g, from, NodeId(0), 6, 200);
        prop_assert!(!paths.is_empty(), "connected graphs always have a path");
        for p in &paths {
            prop_assert_eq!(p.source(), from);
            prop_assert_eq!(p.dest(), NodeId(0));
            for w in p.as_slice().windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
        // Deterministic and duplicate-free.
        let again = enumerate_simple_paths(&g, from, NodeId(0), 6, 200);
        prop_assert_eq!(&paths, &again);
        let mut dedup = paths.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), paths.len());
    }

    #[test]
    fn shortest_path_policies_are_wheel_free(
        n in 2usize..9,
        extra in 0usize..6,
        seed in 0u64..1_000,
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let g = random_connected_graph(n, extra, &mut rng);
        let inst = shortest_path_instance(g, NodeId(0), 5, 6).expect("valid instance");
        prop_assert!(find_dispute_wheel(&inst).is_none());
        prop_assert!(find_dispute_wheel_reference(&inst).is_none());
    }

    #[test]
    fn gao_rexford_policies_are_wheel_free(n in 2usize..12, seed in 0u64..300) {
        let inst = gao_rexford_instance(n, seed, 6, 5).expect("valid instance");
        prop_assert!(inst.validate().is_ok());
        prop_assert!(find_dispute_wheel(&inst).is_none());
        prop_assert!(find_dispute_wheel_reference(&inst).is_none());
    }

    #[test]
    fn route_table_intern_round_trips(inst in arb_instance()) {
        let t = RouteTable::new(&inst);
        prop_assert!(t.route(RouteId::EPSILON).is_epsilon());
        let mut total = 1;
        for v in inst.nodes() {
            let perms = inst.permitted(v);
            prop_assert_eq!(t.route_count(v), perms.len());
            total += perms.len();
            for (pos, rp) in perms.iter().enumerate() {
                let id = t.route_id(v, pos as u32);
                // Decode then re-intern is the identity.
                prop_assert_eq!(t.route(id).as_path(), Some(&rp.path));
                prop_assert_eq!(t.intern_path(&rp.path), Some(id));
                prop_assert_eq!(t.intern_route(t.route(id)), Some(id));
                // Array position is preference position.
                prop_assert_eq!(inst.preference_position(v, &rp.path), Some(pos as u32));
            }
        }
        prop_assert_eq!(t.len(), total);
    }

    #[test]
    fn route_table_extension_agrees_with_naive_candidate(inst in arb_instance()) {
        let t = RouteTable::new(&inst);
        for (cid, ch) in inst.graph().channels().enumerate() {
            let (u, v) = (ch.from, ch.to);
            prop_assert_eq!(t.candidate_pos(cid, RouteId::EPSILON), NO_CANDIDATE);
            for (pos, rp) in inst.permitted(u).iter().enumerate() {
                let learned = Route::path(rp.path.clone());
                let fast = t.candidate_pos(cid, t.route_id(u, pos as u32));
                match inst.candidate(v, &learned) {
                    None => prop_assert_eq!(fast, NO_CANDIDATE),
                    Some((ext, rank)) => {
                        prop_assert_eq!(t.route(t.route_id(v, fast)).as_path(), Some(&ext));
                        prop_assert_eq!(inst.rank(v, &ext), Some(rank));
                    }
                }
            }
        }
    }

    #[test]
    fn route_table_min_position_matches_choose_best(
        inst in arb_instance(),
        picks in proptest::collection::vec(0usize..64, 16),
    ) {
        // Random learned-route configurations per node: the min over
        // precomputed extension positions must reproduce choose_best.
        let t = RouteTable::new(&inst);
        let channels = inst.channels();
        for v in inst.nodes() {
            let ins: Vec<usize> = (0..channels.len()).filter(|&c| channels[c].to == v).collect();
            let learned: Vec<RouteId> = ins
                .iter()
                .enumerate()
                .map(|(k, &c)| {
                    let u = channels[c].from;
                    let n = t.route_count(u);
                    // pick 0 = ε, 1..=n = u's routes by preference position.
                    match picks[(k + c) % picks.len()] % (n + 1) {
                        0 => RouteId::EPSILON,
                        p => t.route_id(u, (p - 1) as u32),
                    }
                })
                .collect();
            let k = |c: usize| ins.iter().position(|&i| i == c).expect("an in-channel");
            let interned = t.choose(v, &ins, |c| learned[k(c)]);
            let routes: Vec<Route> = learned.iter().map(|&id| t.route(id).clone()).collect();
            prop_assert_eq!(t.route(interned), &inst.choose_best(v, routes.iter()));
        }
    }

    #[test]
    fn path_prepend_then_suffix_is_identity(ids in proptest::collection::vec(0u32..30, 1..6)) {
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        prop_assume!(dedup.len() == ids.len());
        let p = Path::from_ids(ids.iter().copied()).expect("distinct ids form a simple path");
        let v = 99u32;
        let q = p.prepend(NodeId(v)).expect("99 not on the path");
        prop_assert_eq!(q.suffix(1), p.clone());
        prop_assert!(q.has_suffix(&p));
        prop_assert_eq!(q.len(), p.len() + 1);
    }
}

/// Equal ranks are equally preferred: u's spoke `uad` ties with `uavd`, a
/// rim onto v's spoke `vd`, so u and v dispute although `uavd` sorts after
/// `uad`.
fn tied_spokes() -> SppInstance {
    let mut b = SppBuilder::new();
    let [d, u, v, a] = ["d", "u", "v", "a"].map(|name| b.node(name));
    for (x, y) in [(u, a), (a, d), (a, v), (v, d), (u, v)] {
        b.edge_between(x, y).unwrap();
    }
    b.dest(d).unwrap();
    for (at, nodes, rank) in [
        (u, vec![u, a, d], 1),
        (u, vec![u, a, v, d], 1),
        (v, vec![v, u, a, d], 1),
        (v, vec![v, d], 2),
    ] {
        b.permit_with_rank(at, Path::new(nodes).unwrap(), rank).unwrap();
    }
    b.build().expect("the tie is through one next hop")
}

/// Each node's permitted paths in their rank groups, most preferred first.
fn rank_groups(inst: &SppInstance) -> Vec<Vec<Vec<Path>>> {
    let group = |tie: &[RankedPath]| tie.iter().map(|rp| rp.path.clone()).collect();
    inst.nodes()
        .map(|v| inst.permitted(v).chunk_by(|a, b| a.rank == b.rank).map(group).collect())
        .collect()
}

/// The text format keeps rank ties: `tied_spokes`, whose only wheel runs
/// through a tie, and seeded random instances with ties read back with the
/// same paths in the same rank groups, and with the same dispute wheel.
#[test]
fn text_format_keeps_rank_ties() {
    assert!(find_dispute_wheel(&tied_spokes()).is_some());
    let mut tied = 0;
    let random = (0..200).map(|seed| {
        let cfg = RandomSppConfig {
            nodes: 6,
            extra_edges: 4,
            max_paths_per_node: 5,
            max_path_len: 6,
            seed,
        };
        with_rank_ties(&random_instance(&cfg).expect("generator output validates"), seed)
    });
    for inst in [tied_spokes()].into_iter().chain(random) {
        let back = format::from_text(&format::to_text(&inst)).expect("serialized instances parse");
        assert_eq!(rank_groups(&back), rank_groups(&inst), "{inst}");
        assert_eq!(find_dispute_wheel(&back), find_dispute_wheel(&inst), "{inst}");
        tied += usize::from(has_rank_tie(&inst));
    }
    assert!(tied >= 100, "{tied} instances with a rank tie");
}

/// The linear-memory detector returns the reference's wheel, pivot for
/// pivot, on every corpus gadget, on `tied_spokes`, and on seeded random
/// instances of 2 to 8 nodes, each also with some of its ranks tied.
#[test]
fn wheel_detection_matches_the_reference_on_the_corpus_and_seeded_instances() {
    for (name, inst) in gadgets::corpus().into_iter().chain([("TIED-SPOKES", tied_spokes())]) {
        assert_eq!(find_dispute_wheel(&inst), find_dispute_wheel_reference(&inst), "{name}");
    }
    let (mut wheels, mut free, mut tied_wheels) = (0, 0, 0);
    for nodes in 2..9 {
        for seed in 0..300 {
            let cfg = RandomSppConfig {
                nodes,
                extra_edges: 4,
                max_paths_per_node: 5,
                max_path_len: 6,
                seed,
            };
            let inst = random_instance(&cfg).expect("generator output validates");
            let wheel = find_dispute_wheel(&inst);
            assert_eq!(wheel, find_dispute_wheel_reference(&inst), "{cfg:?}");
            if wheel.is_some() {
                wheels += 1;
            } else {
                free += 1;
            }
            let tied = with_rank_ties(&inst, seed);
            let wheel = find_dispute_wheel(&tied);
            assert_eq!(wheel, find_dispute_wheel_reference(&tied), "{cfg:?}, tied: {tied}");
            tied_wheels += usize::from(wheel.is_some() && has_rank_tie(&tied));
        }
    }
    // Floors, so that the comparison cannot pass vacuously.
    assert!(wheels >= 300 && free >= 300, "{wheels} with a wheel, {free} without");
    assert!(tied_wheels >= 300, "{tied_wheels} with a rank tie and a wheel");
}
