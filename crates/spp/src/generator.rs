//! Random SPP instance generators.
//!
//! Three families, used by the Monte-Carlo experiments (DESIGN.md E11) and by
//! property tests:
//!
//! * [`random_instance`] — arbitrary (possibly divergent) policies,
//! * [`shortest_path_instance`] — length-first rankings, provably
//!   dispute-wheel-free,
//! * [`gao_rexford_instance`] — customer/peer/provider policies following the
//!   Gao–Rexford conditions, also dispute-wheel-free.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::SppError;
use crate::graph::{Graph, NodeId};
use crate::instance::{RankedPath, SppInstance};
use crate::path::Path;

/// Enumerates simple paths from `from` to `dest` by DFS, capped by node
/// count `max_len` and result count `max_count`; deterministic order.
pub fn enumerate_simple_paths(
    g: &Graph,
    from: NodeId,
    dest: NodeId,
    max_len: usize,
    max_count: usize,
) -> Vec<Path> {
    let mut out = Vec::new();
    let mut stack = vec![from];
    let mut on_path = vec![false; g.node_count()];
    on_path[from.index()] = true;
    dfs_paths(g, dest, max_len, max_count, &mut stack, &mut on_path, &mut out);
    out
}

fn dfs_paths(
    g: &Graph,
    dest: NodeId,
    max_len: usize,
    max_count: usize,
    stack: &mut Vec<NodeId>,
    on_path: &mut [bool],
    out: &mut Vec<Path>,
) {
    if out.len() >= max_count {
        return;
    }
    let v = *stack.last().expect("stack non-empty");
    if v == dest {
        out.push(Path::new(stack.clone()).expect("DFS paths are simple"));
        return;
    }
    if stack.len() >= max_len {
        return;
    }
    for &u in g.neighbors(v) {
        if !on_path[u.index()] {
            on_path[u.index()] = true;
            stack.push(u);
            dfs_paths(g, dest, max_len, max_count, stack, on_path, out);
            stack.pop();
            on_path[u.index()] = false;
        }
    }
}

/// Generates a random connected graph: a random spanning tree plus
/// `extra_edges` additional random edges.
pub fn random_connected_graph(n: usize, extra_edges: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    // Random tree: attach each node to a random earlier node.
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(NodeId(i as u32), NodeId(parent as u32)).expect("valid tree edge");
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !g.has_edge(NodeId(a as u32), NodeId(b as u32)) {
            g.add_edge(NodeId(a as u32), NodeId(b as u32)).expect("valid extra edge");
            added += 1;
        }
    }
    g
}

/// Configuration for [`random_instance`].
#[derive(Debug, Clone)]
pub struct RandomSppConfig {
    /// Total node count (≥ 2); node 0 is the destination.
    pub nodes: usize,
    /// Extra edges beyond the spanning tree.
    pub extra_edges: usize,
    /// At most this many permitted paths per node.
    pub max_paths_per_node: usize,
    /// Maximum path length in nodes.
    pub max_path_len: usize,
    /// RNG seed (experiments must be reproducible).
    pub seed: u64,
}

impl Default for RandomSppConfig {
    fn default() -> Self {
        RandomSppConfig {
            nodes: 8,
            extra_edges: 4,
            max_paths_per_node: 4,
            max_path_len: 6,
            seed: 0,
        }
    }
}

/// Generates a random SPP instance with arbitrary (possibly divergent)
/// rankings. Every node permits at least one path when one exists within the
/// length cap, and rankings are a random permutation (all ranks distinct, so
/// the tie rule holds trivially).
///
/// # Errors
///
/// Returns [`SppError::TooFewNodes`] for fewer than two nodes, and
/// propagates validation errors (none are expected for the generated data).
pub fn random_instance(cfg: &RandomSppConfig) -> Result<SppInstance, SppError> {
    if cfg.nodes < 2 {
        return Err(SppError::TooFewNodes { nodes: cfg.nodes });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = random_connected_graph(cfg.nodes, cfg.extra_edges, &mut rng);
    let dest = NodeId(0);
    let names: Vec<String> =
        (0..cfg.nodes).map(|i| if i == 0 { "d".to_string() } else { format!("n{i}") }).collect();

    let mut permitted: Vec<Vec<RankedPath>> = Vec::with_capacity(cfg.nodes);
    for v in g.nodes() {
        if v == dest {
            permitted.push(vec![RankedPath { path: Path::trivial(dest), rank: 0 }]);
            continue;
        }
        let mut all =
            enumerate_simple_paths(&g, v, dest, cfg.max_path_len, cfg.max_paths_per_node * 8);
        all.shuffle(&mut rng);
        all.truncate(cfg.max_paths_per_node.max(1));
        let perms = all
            .into_iter()
            .enumerate()
            .map(|(i, path)| RankedPath { path, rank: i as u32 + 1 })
            .collect();
        permitted.push(perms);
    }
    SppInstance::from_parts(g, dest, names, permitted)
}

/// Builds the instance whose policies are "shortest path first" (length,
/// then lexicographic) over all simple paths up to `max_path_len`.
///
/// Length-first rankings admit no dispute wheel: around any would-be wheel
/// the rim is at least one hop longer than the next spoke, so the spoke
/// lengths would have to decrease forever.
///
/// # Errors
///
/// Propagates validation errors from instance assembly.
pub fn shortest_path_instance(
    g: Graph,
    dest: NodeId,
    max_path_len: usize,
    max_paths_per_node: usize,
) -> Result<SppInstance, SppError> {
    let names: Vec<String> = (0..g.node_count())
        .map(|i| if i == dest.index() { "d".to_string() } else { format!("n{i}") })
        .collect();
    let mut permitted = Vec::with_capacity(g.node_count());
    for v in g.nodes() {
        if v == dest {
            permitted.push(vec![RankedPath { path: Path::trivial(dest), rank: 0 }]);
            continue;
        }
        let mut all = enumerate_simple_paths(&g, v, dest, max_path_len, usize::MAX);
        all.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        all.truncate(max_paths_per_node);
        let perms = all
            .into_iter()
            .enumerate()
            .map(|(i, path)| RankedPath { path, rank: i as u32 + 1 })
            .collect();
        permitted.push(perms);
    }
    SppInstance::from_parts(g, dest, names, permitted)
}

/// Business relationship between adjacent ASes in the Gao–Rexford model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Toward a provider ("up").
    Up,
    /// Across a peering link.
    Across,
    /// Toward a customer ("down").
    Down,
}

/// Generates a Gao–Rexford-style instance: a tiered provider/customer
/// hierarchy with some peer links; permitted paths are valley-free
/// (`up* across? down*` when read from the source) and ranked
/// customer-learned < peer-learned < provider-learned, then by length.
///
/// Gao–Rexford policies satisfy the no-dispute-wheel condition, so every
/// fair execution converges in every communication model — the control
/// group in the Monte-Carlo experiments.
///
/// # Errors
///
/// Returns [`SppError::TooFewNodes`] for `n < 2`, and propagates validation
/// errors from instance assembly.
pub fn gao_rexford_instance(
    n: usize,
    seed: u64,
    max_path_len: usize,
    max_paths_per_node: usize,
) -> Result<SppInstance, SppError> {
    if n < 2 {
        return Err(SppError::TooFewNodes { nodes: n });
    }
    let (g, tiers, rel) = gao_rexford_topology(n, seed);

    let dest = NodeId(0);
    let names: Vec<String> =
        (0..n).map(|i| if i == 0 { "d".to_string() } else { format!("as{i}") }).collect();

    // Every valley-free path to the top-tier destination is a pure "up"
    // path: all of d's incident edges point up into d, and the
    // `up* across? down*` grammar cannot resume climbing once it crosses or
    // descends. Up edges strictly decrease (tier, index) — spanning edges
    // go to an earlier node of weakly smaller tier, shortcuts to a strictly
    // smaller tier — so up-paths form a DAG and are automatically simple.
    // Prepending a node preserves (length, lex) order, so each node's k
    // best paths extend only its up-neighbors' k best: the DP below is
    // exact and costs O(edges × k) instead of the exponential DFS sweep.
    let k = max_paths_per_node;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (tiers[i], i));
    let mut best: Vec<Vec<Path>> = vec![Vec::new(); n];
    for &i in &order {
        let v = NodeId(i as u32);
        if v == dest {
            best[i] = vec![Path::trivial(dest)];
            continue;
        }
        let mut merged: Vec<Path> = Vec::new();
        for &u in g.neighbors(v) {
            if rel[&(v, u)] != Step::Up {
                continue;
            }
            for p in &best[u.index()] {
                if p.len() + 1 > max_path_len {
                    continue;
                }
                merged.push(p.prepend(v).expect("up paths strictly descend"));
            }
        }
        merged.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        merged.truncate(k);
        debug_assert!(merged.iter().all(|p| is_valley_free(p, &rel)));
        best[i] = merged;
    }

    let mut permitted = Vec::with_capacity(n);
    for v in g.nodes() {
        if v == dest {
            permitted.push(vec![RankedPath { path: Path::trivial(dest), rank: 0 }]);
            continue;
        }
        // All paths are provider-learned (pure up), so the old
        // (relationship class, length, lex) ranking reduces to (length, lex).
        let perms = best[v.index()]
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, path)| RankedPath { path, rank: i as u32 + 1 })
            .collect();
        permitted.push(perms);
    }
    SppInstance::from_parts(g, dest, names, permitted)
}

/// The random tiered topology behind [`gao_rexford_instance`] on `n ≥ 2`
/// nodes: the graph, per-node tiers (0 = top; the destination, node 0, is
/// tier 0), and the directed relationship map (`rel[(a, b)]` is `a`'s step
/// toward `b`).
fn gao_rexford_topology(
    n: usize,
    seed: u64,
) -> (Graph, Vec<u32>, std::collections::HashMap<(NodeId, NodeId), Step>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // Tier 0 is the top; node 0 (the destination) sits at the top tier.
    let tiers: Vec<u32> = (0..n).map(|i| if i == 0 { 0 } else { rng.gen_range(0..3) }).collect();

    // rel[(a,b)] = Step means "a's step toward b" (Up: b is a's provider).
    let mut rel = std::collections::HashMap::new();
    let add = |g: &mut Graph,
               rel: &mut std::collections::HashMap<(NodeId, NodeId), Step>,
               a: usize,
               b: usize,
               s: Step| {
        let (a, b) = (NodeId(a as u32), NodeId(b as u32));
        if a == b || g.has_edge(a, b) {
            return;
        }
        g.add_edge(a, b).expect("valid edge");
        rel.insert((a, b), s);
        let back = match s {
            Step::Up => Step::Down,
            Step::Down => Step::Up,
            Step::Across => Step::Across,
        };
        rel.insert((b, a), back);
    };

    // Spanning structure: every non-destination node gets a provider among
    // earlier nodes with a weakly smaller tier.
    for i in 1..n {
        let candidates: Vec<usize> = (0..i).filter(|&j| tiers[j] <= tiers[i]).collect();
        let p = *candidates.choose(&mut rng).unwrap_or(&0);
        add(&mut g, &mut rel, i, p, Step::Up);
    }
    // Extra peer links within a tier.
    for _ in 0..n / 2 {
        let a = rng.gen_range(1..n);
        let b = rng.gen_range(1..n);
        if a != b && tiers[a] == tiers[b] {
            add(&mut g, &mut rel, a, b, Step::Across);
        }
    }
    // Extra customer-provider shortcuts.
    for _ in 0..n / 2 {
        let a = rng.gen_range(1..n);
        let b = rng.gen_range(0..n);
        if a != b && tiers[b] < tiers[a] {
            add(&mut g, &mut rel, a, b, Step::Up);
        }
    }

    (g, tiers, rel)
}

/// A path (source first) is valley-free when its step sequence matches
/// `up* across? down*`.
fn is_valley_free(p: &Path, rel: &std::collections::HashMap<(NodeId, NodeId), Step>) -> bool {
    let mut phase = 0u8; // 0 = climbing, 1 = crossed, 2 = descending
    for w in p.as_slice().windows(2) {
        let s = rel[&(w[0], w[1])];
        phase = match (phase, s) {
            (0, Step::Up) => 0,
            (0, Step::Across) => 1,
            (0..=2, Step::Down) => 2,
            _ => return false,
        };
    }
    true
}

/// The graph, names and permitted paths of a complete `n`-node graph with
/// destination `n0`, where `n1` permits every simple path to it (13,700 for
/// n = 9, 109,601 for n = 10), its direct path last, and every other node
/// its direct path.
#[cfg(test)]
pub(crate) fn every_path_parts(n: usize) -> (Graph, Vec<String>, Vec<Vec<RankedPath>>) {
    let mut g = Graph::new(n);
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            g.add_edge(NodeId(a), NodeId(b)).expect("distinct nodes of the graph");
        }
    }
    let d = NodeId(0);
    let mut paths = enumerate_simple_paths(&g, NodeId(1), d, n, usize::MAX);
    paths.sort_by_key(|p| p.len() == 2);
    let direct = |v: u32| {
        let path = Path::new(vec![NodeId(v), d]).expect("a simple path");
        vec![RankedPath { path, rank: 1 }]
    };
    let mut permitted = vec![vec![RankedPath { path: Path::trivial(d), rank: 0 }]];
    permitted.extend((1..n as u32).map(direct));
    permitted[1] = (1..).zip(paths).map(|(rank, path)| RankedPath { path, rank }).collect();
    let names = (0..n).map(|i| format!("n{i}")).collect();
    (g, names, permitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispute::is_wheel_free;

    #[test]
    fn fewer_than_two_nodes_is_an_error() {
        for n in [0, 1] {
            let too_few = Err(SppError::TooFewNodes { nodes: n });
            assert_eq!(gao_rexford_instance(n, 7, 6, 5), too_few);
            assert_eq!(
                random_instance(&RandomSppConfig { nodes: n, ..Default::default() }),
                too_few
            );
        }
        assert!(gao_rexford_instance(2, 7, 6, 5).is_ok());
        assert!(random_instance(&RandomSppConfig { nodes: 2, ..Default::default() }).is_ok());
    }

    #[test]
    fn simple_path_enumeration_on_triangle() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(0)).unwrap();
        let paths = enumerate_simple_paths(&g, NodeId(2), NodeId(0), 4, 100);
        assert_eq!(paths.len(), 2); // 2-0 and 2-1-0
        assert!(paths.iter().all(|p| p.source() == NodeId(2) && p.dest() == NodeId(0)));
    }

    #[test]
    fn enumeration_respects_caps() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(enumerate_simple_paths(&g, NodeId(2), NodeId(0), 2, 100).len(), 1);
        assert_eq!(enumerate_simple_paths(&g, NodeId(2), NodeId(0), 4, 1).len(), 1);
    }

    #[test]
    fn random_graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2, 5, 12, 30] {
            let g = random_connected_graph(n, n / 2, &mut rng);
            assert!(g.reachable_from(NodeId(0)).iter().all(|&b| b), "n = {n}");
        }
    }

    #[test]
    fn random_instance_is_valid_and_deterministic() {
        let cfg = RandomSppConfig { seed: 42, ..RandomSppConfig::default() };
        let a = random_instance(&cfg).unwrap();
        let b = random_instance(&cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
        // Different seed, different instance (overwhelmingly likely).
        let c = random_instance(&RandomSppConfig { seed: 43, ..cfg }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn shortest_path_instances_are_wheel_free() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [4, 8, 12] {
            let g = random_connected_graph(n, n, &mut rng);
            let inst = shortest_path_instance(g, NodeId(0), 5, 6).unwrap();
            assert!(inst.validate().is_ok());
            assert!(is_wheel_free(&inst), "n = {n}");
        }
    }

    #[test]
    fn gao_rexford_instances_are_valid_and_wheel_free() {
        for seed in 0..8 {
            let inst = gao_rexford_instance(10, seed, 6, 5).unwrap();
            assert!(inst.validate().is_ok(), "seed {seed}");
            assert!(is_wheel_free(&inst), "seed {seed}");
        }
    }

    /// The pre-k-best construction: enumerate all simple paths by DFS,
    /// filter valley-free, rank by (relationship class, length, lex).
    fn reference_gao_rexford(
        n: usize,
        seed: u64,
        max_path_len: usize,
        max_paths_per_node: usize,
    ) -> SppInstance {
        let (g, _tiers, rel) = gao_rexford_topology(n, seed);
        let dest = NodeId(0);
        let names: Vec<String> =
            (0..n).map(|i| if i == 0 { "d".to_string() } else { format!("as{i}") }).collect();
        let mut permitted = Vec::with_capacity(n);
        for v in g.nodes() {
            if v == dest {
                permitted.push(vec![RankedPath { path: Path::trivial(dest), rank: 0 }]);
                continue;
            }
            let mut paths = enumerate_simple_paths(&g, v, dest, max_path_len, usize::MAX);
            paths.retain(|p| is_valley_free(p, &rel));
            paths.sort_by_key(|p| {
                let first = rel[&(p.as_slice()[0], p.as_slice()[1])];
                let class = match first {
                    Step::Down => 0u8,
                    Step::Across => 1,
                    Step::Up => 2,
                };
                (class, p.len(), p.clone())
            });
            paths.truncate(max_paths_per_node);
            let perms = paths
                .into_iter()
                .enumerate()
                .map(|(i, path)| RankedPath { path, rank: i as u32 + 1 })
                .collect();
            permitted.push(perms);
        }
        SppInstance::from_parts(g, dest, names, permitted).unwrap()
    }

    #[test]
    fn k_best_construction_matches_exhaustive_dfs() {
        for n in [2, 3, 5, 8, 12] {
            for seed in 0..12 {
                for (len, k) in [(6, 5), (4, 3), (8, 2)] {
                    let fast = gao_rexford_instance(n, seed, len, k).unwrap();
                    let slow = reference_gao_rexford(n, seed, len, k);
                    assert_eq!(fast, slow, "n {n} seed {seed} len {len} k {k}");
                }
            }
        }
    }

    #[test]
    fn gao_rexford_scales_to_thousands_of_nodes() {
        // Random-attachment provider chains grow like ln(n), so give the
        // length cap ample room for every node to keep at least one path.
        let inst = gao_rexford_instance(2000, 11, 32, 4).unwrap();
        assert!(inst.validate().is_ok());
        // Every node reaches the destination via its spanning provider chain.
        for v in inst.nodes() {
            assert!(!inst.permitted(v).is_empty(), "node {v} has no path");
        }
    }

    #[test]
    fn valley_free_logic() {
        use std::collections::HashMap;
        let mut rel = HashMap::new();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        rel.insert((a, b), Step::Up);
        rel.insert((b, a), Step::Down);
        rel.insert((b, c), Step::Down);
        rel.insert((c, b), Step::Up);
        // a up b down c : valley-free.
        let p = Path::new(vec![a, b, c]).unwrap();
        assert!(is_valley_free(&p, &rel));
        // c up b down a : also fine.
        let q = Path::new(vec![c, b, a]).unwrap();
        assert!(is_valley_free(&q, &rel));
        // down then up is a valley.
        let mut rel2 = HashMap::new();
        rel2.insert((a, b), Step::Down);
        rel2.insert((b, a), Step::Up);
        rel2.insert((b, c), Step::Up);
        rel2.insert((c, b), Step::Down);
        let r = Path::new(vec![a, b, c]).unwrap();
        assert!(!is_valley_free(&r, &rel2));
    }
}
