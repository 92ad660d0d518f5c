//! SPP instances: a graph, a destination, and per-node ranked permitted paths.
//!
//! An instance of the Stable Paths Problem (Sec. 2.1) consists of an
//! undirected graph `G = (V, E)`, a destination `d`, and for every node `v` a
//! set of permitted paths `P_v` with a ranking function
//! `λ_v : P_v → ℕ` (lower rank = more preferred). Ties in rank are forbidden
//! unless the tied paths share a next hop.

use std::collections::HashMap;
use std::fmt;

use crate::error::SppError;
use crate::graph::{Channel, Graph, NodeId};
use crate::path::{Path, Route};

/// A permitted path together with its rank (lower = more preferred).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RankedPath {
    /// The permitted path.
    pub path: Path,
    /// The value of the ranking function `λ_v` on this path.
    pub rank: u32,
}

/// An immutable, validated SPP instance.
///
/// Build one with [`SppBuilder`]:
///
/// ```
/// use routelab_spp::SppBuilder;
///
/// let mut b = SppBuilder::new();
/// let d = b.node("d");
/// let x = b.node("x");
/// b.edge_between(x, d)?;
/// b.dest(d)?;
/// b.prefer(x, [vec![x, d]])?;
/// let inst = b.build()?;
/// assert_eq!(inst.permitted(x).len(), 1);
/// # Ok::<(), routelab_spp::SppError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SppInstance {
    graph: Graph,
    dest: NodeId,
    names: Vec<String>,
    /// Per node, sorted by increasing rank (most preferred first).
    permitted: Vec<Vec<RankedPath>>,
    /// Name → id (first occurrence wins for duplicate names).
    by_name: HashMap<String, NodeId>,
    /// Per node, path → position in the sorted `permitted` list.
    rank_index: Vec<HashMap<Path, u32>>,
}

impl SppInstance {
    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The destination node `d`.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// All directed channels in deterministic order.
    pub fn channels(&self) -> Vec<Channel> {
        self.graph.channels().collect()
    }

    /// Human-readable name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn name(&self, v: NodeId) -> &str {
        &self.names[v.index()]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The permitted paths of `v`, most preferred first.
    pub fn permitted(&self, v: NodeId) -> &[RankedPath] {
        &self.permitted[v.index()]
    }

    /// The rank `λ_v(p)`, or `None` if `p ∉ P_v` (one hash probe).
    pub fn rank(&self, v: NodeId, p: &Path) -> Option<u32> {
        let pos = *self.rank_index[v.index()].get(p)?;
        Some(self.permitted[v.index()][pos as usize].rank)
    }

    /// `true` if `p` is permitted at `v`.
    pub fn is_permitted(&self, v: NodeId, p: &Path) -> bool {
        self.rank_index[v.index()].contains_key(p)
    }

    /// The position of `p` in `v`'s preference order (0 = most preferred),
    /// or `None` if `p ∉ P_v`.
    pub fn preference_position(&self, v: NodeId, p: &Path) -> Option<u32> {
        self.rank_index[v.index()].get(p).copied()
    }

    /// Extends a neighbor's route by `v` and returns the resulting candidate
    /// with its rank, or `None` when the extension is ε, loops, or is not
    /// permitted at `v` (algorithm action 2).
    pub fn candidate(&self, v: NodeId, neighbor_route: &Route) -> Option<(Path, u32)> {
        let p = neighbor_route.as_path()?;
        let ext = p.prepend(v).ok()?;
        let rank = self.rank(v, &ext)?;
        Some((ext, rank))
    }

    /// Chooses the most preferred route among the extensions of the given
    /// neighbor routes (the paper's algorithm action 2). Returns ε if no
    /// extension is feasible. For `v = d` the trivial path is returned.
    ///
    /// Determinism: instance validation guarantees candidate ranks through
    /// distinct next hops differ, and at most one candidate exists per next
    /// hop, so the minimum is unique.
    pub fn choose_best<'a, I>(&self, v: NodeId, neighbor_routes: I) -> Route
    where
        I: IntoIterator<Item = &'a Route>,
    {
        if v == self.dest {
            return Route::path(Path::trivial(self.dest));
        }
        let mut best: Option<(Path, u32)> = None;
        for r in neighbor_routes {
            if let Some((path, rank)) = self.candidate(v, r) {
                let better = match &best {
                    None => true,
                    Some((bp, br)) => rank < *br || (rank == *br && path < *bp),
                };
                if better {
                    best = Some((path, rank));
                }
            }
        }
        Route::from(best.map(|(p, _)| p))
    }

    /// Formats a path with node names; single-character names are
    /// concatenated (paper style: `xyd`), longer names joined with `-`.
    pub fn fmt_path(&self, p: &Path) -> String {
        let parts: Vec<&str> = p.iter().map(|v| self.name(v)).collect();
        if parts.iter().all(|s| s.chars().count() == 1) {
            parts.concat()
        } else {
            parts.join("-")
        }
    }

    /// Formats a route (ε or named path).
    pub fn fmt_route(&self, r: &Route) -> String {
        match r.as_path() {
            Some(p) => self.fmt_path(p),
            None => "ε".to_string(),
        }
    }

    /// Parses a path from its [`SppInstance::fmt_path`] representation.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownName`] for unknown node names or path
    /// errors for malformed sequences.
    pub fn parse_path(&self, s: &str) -> Result<Path, SppError> {
        let names: Vec<String> = if s.contains('-') {
            s.split('-').map(str::to_string).collect()
        } else {
            s.chars().map(|c| c.to_string()).collect()
        };
        let mut ids = Vec::with_capacity(names.len());
        for n in &names {
            let id =
                self.node_by_name(n).ok_or_else(|| SppError::UnknownName { name: n.clone() })?;
            ids.push(id);
        }
        Path::new(ids)
    }

    /// Validates every structural invariant of the instance. Builders call
    /// this; it is public so that hand-assembled or parsed instances can be
    /// re-checked.
    ///
    /// Linear in the permitted paths (up to a sort of each node's list),
    /// with one index buffer for the whole call: the first error is the one
    /// a scan of every pair of a node's paths, in list order, would meet
    /// first.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: path sources/destinations, edge
    /// existence along paths, destination's permitted set, duplicate paths,
    /// or forbidden rank ties.
    pub fn validate(&self) -> Result<(), SppError> {
        let d = self.dest;
        if !self.graph.contains(d) {
            return Err(SppError::UnknownNode { node: d, node_count: self.node_count() });
        }
        let mut order = Vec::new();
        for v in self.graph.nodes() {
            let perms = &self.permitted[v.index()];
            if v == d {
                if perms.len() != 1 || perms[0].path != Path::trivial(d) {
                    return Err(SppError::DestinationPaths);
                }
                continue;
            }
            let bad_path = perms
                .iter()
                .enumerate()
                .find_map(|(i, rp)| Some((i, self.path_error(v, &rp.path)?)));
            let distinct = self.rank_index[v.index()].len();
            match (bad_path, first_conflict(v, perms, distinct, &mut order)) {
                (Some((i, e)), Some((j, _))) if i <= j => return Err(e),
                (Some((_, e)), None) | (_, Some((_, e))) => return Err(e),
                (None, None) => {}
            }
        }
        Ok(())
    }

    /// The first check path `p`, permitted at `v`, fails on its own: its
    /// source, its destination, then each of its hops.
    fn path_error(&self, v: NodeId, p: &Path) -> Option<SppError> {
        if p.source() != v {
            return Some(SppError::WrongSource { path_source: p.source(), expected: v });
        }
        if p.dest() != self.dest {
            return Some(SppError::WrongDestination { path_dest: p.dest(), expected: self.dest });
        }
        let hop = p.as_slice().windows(2).find(|w| !self.graph.has_edge(w[0], w[1]))?;
        Some(SppError::MissingEdge { from: hop[0], to: hop[1] })
    }

    /// The quadratic scan [`SppInstance::validate`] must agree with: every
    /// pair of one node's paths, in list order.
    #[cfg(test)]
    fn validate_pairwise(&self) -> Result<(), SppError> {
        let d = self.dest;
        if !self.graph.contains(d) {
            return Err(SppError::UnknownNode { node: d, node_count: self.node_count() });
        }
        for v in self.graph.nodes() {
            let perms = &self.permitted[v.index()];
            if v == d {
                if perms.len() != 1 || perms[0].path != Path::trivial(d) {
                    return Err(SppError::DestinationPaths);
                }
                continue;
            }
            for (i, rp) in perms.iter().enumerate() {
                let p = &rp.path;
                if p.source() != v {
                    return Err(SppError::WrongSource { path_source: p.source(), expected: v });
                }
                if p.dest() != d {
                    return Err(SppError::WrongDestination { path_dest: p.dest(), expected: d });
                }
                for w in p.as_slice().windows(2) {
                    if !self.graph.has_edge(w[0], w[1]) {
                        return Err(SppError::MissingEdge { from: w[0], to: w[1] });
                    }
                }
                for other in &perms[i + 1..] {
                    if other.path == *p {
                        return Err(SppError::DuplicatePath { node: v });
                    }
                    if other.rank == rp.rank && other.path.next_hop() != p.next_hop() {
                        return Err(SppError::RankTie { node: v, rank: rp.rank });
                    }
                }
            }
        }
        Ok(())
    }

    /// Assembles an instance from raw parts and validates it.
    ///
    /// Prefer [`SppBuilder`]; this is the escape hatch used by parsers and
    /// generators.
    ///
    /// # Errors
    ///
    /// Any error from [`SppInstance::validate`].
    pub fn from_parts(
        graph: Graph,
        dest: NodeId,
        names: Vec<String>,
        mut permitted: Vec<Vec<RankedPath>>,
    ) -> Result<Self, SppError> {
        if names.len() != graph.node_count() || permitted.len() != graph.node_count() {
            return Err(SppError::UnknownNode { node: dest, node_count: graph.node_count() });
        }
        for perms in &mut permitted {
            perms.sort_by(|a, b| a.rank.cmp(&b.rank).then_with(|| a.path.cmp(&b.path)));
        }
        let mut by_name = HashMap::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            // First occurrence wins, matching a front-to-back name scan.
            by_name.entry(n.clone()).or_insert(NodeId(i as u32));
        }
        let rank_index = permitted
            .iter()
            .map(|perms| {
                perms
                    .iter()
                    .enumerate()
                    .map(|(pos, rp)| (rp.path.clone(), pos as u32))
                    .collect::<HashMap<_, _>>()
            })
            .collect();
        let inst = SppInstance { graph, dest, names, permitted, by_name, rank_index };
        inst.validate()?;
        Ok(inst)
    }
}

/// The first conflict between two of `v`'s paths, at the index of its
/// earlier path: the least `i` with some `j > i` whose path repeats path
/// `i` ([`SppError::DuplicatePath`]) or ties its rank through another next
/// hop ([`SppError::RankTie`]), the least such `j` deciding which.
/// `distinct` counts the list's distinct paths (the node's path index), so
/// only a list with a repeat is sorted by path, which puts repeats next to
/// each other. Each rank's paths form one run of the list sorted by rank
/// (a builder's list already is), and only a run's first path can be the
/// earlier one of a tie.
fn first_conflict(
    v: NodeId,
    perms: &[RankedPath],
    distinct: usize,
    order: &mut Vec<usize>,
) -> Option<(usize, SppError)> {
    if perms.len() < 2 {
        return None;
    }
    order.clear();
    order.extend(0..perms.len());
    let mut repeat = None;
    if distinct < perms.len() {
        order.sort_unstable_by(|&a, &b| perms[a].path.cmp(&perms[b].path).then(a.cmp(&b)));
        repeat = order
            .windows(2)
            .filter(|w| perms[w[0]].path == perms[w[1]].path)
            .map(|w| (w[0], w[1]))
            .min();
        order.sort_unstable();
    }
    if !perms.is_sorted_by_key(|rp| rp.rank) {
        order.sort_unstable_by_key(|&a| (perms[a].rank, a));
    }
    let tie = order
        .chunk_by(|&a, &b| perms[a].rank == perms[b].rank)
        .filter_map(|run| {
            let hop = perms[run[0]].path.next_hop();
            let j = run.iter().find(|&&j| perms[j].path.next_hop() != hop)?;
            Some((run[0], *j))
        })
        .min();
    match (repeat, tie) {
        (Some((i, _)), None) => Some((i, SppError::DuplicatePath { node: v })),
        (Some(r), Some(t)) if r < t => Some((r.0, SppError::DuplicatePath { node: v })),
        (_, Some((i, _))) => Some((i, SppError::RankTie { node: v, rank: perms[i].rank })),
        (None, None) => None,
    }
}

impl fmt::Display for SppInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "spp instance: {} nodes, {} edges, dest {}",
            self.node_count(),
            self.graph.edge_count(),
            self.name(self.dest)
        )?;
        for v in self.nodes() {
            if v == self.dest {
                continue;
            }
            let prefs: Vec<String> =
                self.permitted(v).iter().map(|rp| self.fmt_path(&rp.path)).collect();
            writeln!(f, "  {}: {}", self.name(v), prefs.join(" > "))?;
        }
        Ok(())
    }
}

/// Incremental builder for [`SppInstance`].
///
/// The destination's trivial path is added automatically. Ranks given via
/// [`SppBuilder::prefer`] are consecutive in declaration order (most
/// preferred first), matching how the paper's figures list preferences.
#[derive(Debug, Clone, Default)]
pub struct SppBuilder {
    graph: Graph,
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    dest: Option<NodeId>,
    permitted: Vec<Vec<RankedPath>>,
}

impl SppBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SppBuilder::default()
    }

    /// Adds (or looks up) a node by name and returns its id.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.graph.add_node();
        self.names.push(name.to_string());
        self.permitted.push(Vec::new());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The id of an already added node.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownName`] for names not yet added.
    pub(crate) fn node_id(&self, name: &str) -> Result<NodeId, SppError> {
        self.by_name.get(name).copied().ok_or_else(|| SppError::UnknownName { name: name.into() })
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// # Errors
    ///
    /// See [`Graph::add_edge`].
    pub fn edge_between(&mut self, a: NodeId, b: NodeId) -> Result<&mut Self, SppError> {
        self.graph.add_edge(a, b)?;
        Ok(self)
    }

    /// Adds an edge by node names, creating the nodes if necessary.
    ///
    /// # Errors
    ///
    /// See [`Graph::add_edge`].
    pub fn edge(&mut self, a: &str, b: &str) -> Result<&mut Self, SppError> {
        let a = self.node(a);
        let b = self.node(b);
        self.edge_between(a, b)?;
        Ok(self)
    }

    /// Declares `v`'s permitted paths in decreasing preference; ranks
    /// continue from any previously declared paths at `v` (starting at 1).
    ///
    /// # Errors
    ///
    /// Returns path construction errors; full instance invariants are
    /// checked by [`SppBuilder::build`].
    pub fn prefer<I, P>(&mut self, v: NodeId, paths: I) -> Result<&mut Self, SppError>
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = NodeId>,
    {
        if !self.graph.contains(v) {
            return Err(SppError::UnknownNode { node: v, node_count: self.graph.node_count() });
        }
        let base = self.permitted[v.index()].iter().map(|rp| rp.rank).max().unwrap_or(0);
        for (offset, p) in paths.into_iter().enumerate() {
            let path = Path::new(p.into_iter().collect())?;
            self.permitted[v.index()].push(RankedPath { path, rank: base + 1 + offset as u32 });
        }
        Ok(self)
    }

    /// Declares `v`'s permitted paths by paper-style strings (see
    /// [`SppInstance::parse_path`] for syntax), most preferred first.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownName`] for names not yet added.
    pub fn prefer_named(&mut self, v: &str, paths: &[&str]) -> Result<&mut Self, SppError> {
        self.prefer_named_ranked(v, paths.iter().copied().zip(0..))
    }

    /// Declares `v`'s permitted paths by paper-style strings, each with its
    /// place in `v`'s preference (0 first; paths of equal place tie). Ranks
    /// continue from any previously declared paths at `v`.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownName`] for names not yet added, and path
    /// construction errors; ties are checked by [`SppBuilder::build`].
    pub(crate) fn prefer_named_ranked<'p>(
        &mut self,
        v: &str,
        paths: impl IntoIterator<Item = (&'p str, u32)>,
    ) -> Result<&mut Self, SppError> {
        let vid = self.node_id(v)?;
        let paths = paths.into_iter();
        let mut parsed = Vec::with_capacity(paths.size_hint().0);
        for (s, rank) in paths {
            let names: Vec<String> = if s.contains('-') {
                s.split('-').map(str::to_string).collect()
            } else {
                s.chars().map(|c| c.to_string()).collect()
            };
            let mut ids = Vec::with_capacity(names.len());
            for n in &names {
                ids.push(self.node_id(n)?);
            }
            parsed.push((ids, rank));
        }
        let base = self.permitted[vid.index()].iter().map(|rp| rp.rank).max().unwrap_or(0);
        for (ids, rank) in parsed {
            let path = Path::new(ids)?;
            self.permitted[vid.index()].push(RankedPath { path, rank: base + 1 + rank });
        }
        Ok(self)
    }

    /// Registers a permitted path at `v` with an explicit rank.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownNode`] if `v` was never added.
    pub fn permit_with_rank(
        &mut self,
        v: NodeId,
        path: Path,
        rank: u32,
    ) -> Result<&mut Self, SppError> {
        if !self.graph.contains(v) {
            return Err(SppError::UnknownNode { node: v, node_count: self.graph.node_count() });
        }
        self.permitted[v.index()].push(RankedPath { path, rank });
        Ok(self)
    }

    /// Sets the destination node.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownNode`] if `d` was never added.
    pub fn dest(&mut self, d: NodeId) -> Result<&mut Self, SppError> {
        if !self.graph.contains(d) {
            return Err(SppError::UnknownNode { node: d, node_count: self.graph.node_count() });
        }
        self.dest = Some(d);
        Ok(self)
    }

    /// Finalizes and validates the instance.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::UnknownNode`] when no destination was set, plus
    /// anything from [`SppInstance::validate`].
    pub fn build(&self) -> Result<SppInstance, SppError> {
        let dest = self.dest.ok_or(SppError::UnknownNode {
            node: NodeId(u32::MAX),
            node_count: self.graph.node_count(),
        })?;
        let mut permitted = self.permitted.clone();
        // The destination's trivial path (rank 0) is implicit.
        permitted[dest.index()] = vec![RankedPath { path: Path::trivial(dest), rank: 0 }];
        SppInstance::from_parts(self.graph.clone(), dest, self.names.clone(), permitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds DISAGREE inline (also exercised via `gadgets`).
    fn disagree() -> SppInstance {
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        let y = b.node("y");
        b.edge("x", "d").unwrap();
        b.edge("y", "d").unwrap();
        b.edge("x", "y").unwrap();
        b.dest(d).unwrap();
        b.prefer(x, [vec![x, y, d], vec![x, d]]).unwrap();
        b.prefer(y, [vec![y, x, d], vec![y, d]]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let inst = disagree();
        assert_eq!(inst.node_count(), 3);
        assert_eq!(inst.dest(), NodeId(0));
        assert_eq!(inst.name(NodeId(1)), "x");
        assert_eq!(inst.node_by_name("y"), Some(NodeId(2)));
        assert_eq!(inst.node_by_name("zz"), None);
        let x = inst.node_by_name("x").unwrap();
        assert_eq!(inst.permitted(x).len(), 2);
        // Most preferred first.
        assert_eq!(inst.fmt_path(&inst.permitted(x)[0].path), "xyd");
    }

    #[test]
    fn prefer_named_matches_prefer() {
        let mut b = SppBuilder::new();
        b.node("d");
        b.node("x");
        b.node("y");
        b.edge("x", "d").unwrap();
        b.edge("y", "d").unwrap();
        b.edge("x", "y").unwrap();
        b.dest(NodeId(0)).unwrap();
        b.prefer_named("x", &["xyd", "xd"]).unwrap();
        b.prefer_named("y", &["yxd", "yd"]).unwrap();
        assert_eq!(b.build().unwrap(), disagree());
    }

    #[test]
    fn rank_and_permitted() {
        let inst = disagree();
        let x = inst.node_by_name("x").unwrap();
        let xd = inst.parse_path("xd").unwrap();
        let xyd = inst.parse_path("xyd").unwrap();
        assert_eq!(inst.rank(x, &xyd), Some(1));
        assert_eq!(inst.rank(x, &xd), Some(2));
        assert!(inst.is_permitted(x, &xd));
        let yd = inst.parse_path("yd").unwrap();
        assert!(!inst.is_permitted(x, &yd));
    }

    #[test]
    fn candidate_extension() {
        let inst = disagree();
        let x = inst.node_by_name("x").unwrap();
        let yd = Route::from(inst.parse_path("yd").unwrap());
        let (p, rank) = inst.candidate(x, &yd).unwrap();
        assert_eq!(inst.fmt_path(&p), "xyd");
        assert_eq!(rank, 1);
        // ε extends to nothing.
        assert!(inst.candidate(x, &Route::empty()).is_none());
        // A loop extends to nothing: x extending a path through x.
        let yxd = Route::from(inst.parse_path("yxd").unwrap());
        assert!(inst.candidate(x, &yxd).is_none());
    }

    #[test]
    fn choose_best_prefers_lowest_rank() {
        let inst = disagree();
        let x = inst.node_by_name("x").unwrap();
        let routes = [
            Route::from(inst.parse_path("yd").unwrap()),
            Route::from(inst.parse_path("d").unwrap()),
        ];
        let best = inst.choose_best(x, routes.iter());
        assert_eq!(inst.fmt_route(&best), "xyd");
        // Destination always picks its trivial path.
        let d = inst.dest();
        assert_eq!(inst.fmt_route(&inst.choose_best(d, [].iter())), "d");
        // No feasible extension -> ε.
        assert!(inst.choose_best(x, [Route::empty()].iter()).is_epsilon());
    }

    #[test]
    fn validation_rejects_missing_edge() {
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        let y = b.node("y");
        b.edge("x", "d").unwrap();
        b.edge("y", "d").unwrap();
        // No x-y edge, but a path through it:
        b.dest(d).unwrap();
        b.prefer(x, [vec![x, y, d]]).unwrap();
        assert!(matches!(b.build(), Err(SppError::MissingEdge { .. })));
    }

    #[test]
    fn validation_rejects_rank_ties_across_next_hops() {
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        let y = b.node("y");
        b.edge("x", "d").unwrap();
        b.edge("y", "d").unwrap();
        b.edge("x", "y").unwrap();
        b.dest(d).unwrap();
        b.permit_with_rank(x, Path::new(vec![x, y, d]).unwrap(), 1).unwrap();
        b.permit_with_rank(x, Path::new(vec![x, d]).unwrap(), 1).unwrap();
        assert_eq!(b.build(), Err(SppError::RankTie { node: x, rank: 1 }));
    }

    #[test]
    fn validation_allows_rank_ties_same_next_hop() {
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        let y = b.node("y");
        b.edge("x", "d").unwrap();
        b.edge("y", "d").unwrap();
        b.edge("x", "y").unwrap();
        b.dest(d).unwrap();
        b.permit_with_rank(y, Path::new(vec![y, x, d]).unwrap(), 1).unwrap();
        b.permit_with_rank(y, Path::new(vec![y, d]).unwrap(), 2).unwrap();
        // Same next hop (x) with equal ranks is allowed by Sec. 2.1...
        b.permit_with_rank(x, Path::new(vec![x, y, d]).unwrap(), 1).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn validation_rejects_duplicates_and_wrong_endpoints() {
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        b.edge("x", "d").unwrap();
        b.dest(d).unwrap();
        b.permit_with_rank(x, Path::new(vec![x, d]).unwrap(), 1).unwrap();
        b.permit_with_rank(x, Path::new(vec![x, d]).unwrap(), 2).unwrap();
        assert_eq!(b.build(), Err(SppError::DuplicatePath { node: x }));

        let mut b = SppBuilder::new();
        let d = b.node("d");
        let x = b.node("x");
        b.edge("x", "d").unwrap();
        b.dest(d).unwrap();
        b.permit_with_rank(x, Path::new(vec![d]).unwrap(), 1).unwrap();
        assert!(matches!(b.build(), Err(SppError::WrongSource { .. })));
    }

    #[test]
    fn build_without_dest_fails() {
        let mut b = SppBuilder::new();
        b.node("d");
        assert!(b.build().is_err());
    }

    #[test]
    fn display_lists_preferences() {
        let s = disagree().to_string();
        assert!(s.contains("x: xyd > xd"), "{s}");
        assert!(s.contains("y: yxd > yd"), "{s}");
    }

    #[test]
    fn parse_path_multichar_names() {
        let mut b = SppBuilder::new();
        let d = b.node("dst");
        let v = b.node("v10");
        b.edge_between(v, d).unwrap();
        b.dest(d).unwrap();
        b.prefer(v, [vec![v, d]]).unwrap();
        let inst = b.build().unwrap();
        let p = inst.parse_path("v10-dst").unwrap();
        assert_eq!(inst.fmt_path(&p), "v10-dst");
        assert!(inst.parse_path("bogus-dst").is_err());
    }

    /// The linear validation against the pairwise scan it replaced, on
    /// generated instances with injected duplicate paths (at their own
    /// rank and at another), injected rank ties and misplaced paths, in
    /// builder order and shuffled: the same first error, variant and rank
    /// included.
    #[test]
    fn linear_validation_matches_the_pairwise_scan() {
        use crate::generator::{random_instance, RandomSppConfig};
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(26);
        let mut seen: HashMap<String, usize> = HashMap::new();
        for seed in 0..150 {
            let cfg = RandomSppConfig {
                nodes: 6,
                extra_edges: 6,
                max_paths_per_node: 8,
                max_path_len: 5,
                seed,
            };
            let base = random_instance(&cfg).unwrap();
            for _ in 0..12 {
                let mut inst = base.clone();
                for _ in 0..rng.gen_range(1..=2) {
                    let v = rng.gen_range(1..inst.node_count());
                    let perms = &mut inst.permitted[v];
                    for _ in 0..rng.gen_range(1..=3) {
                        let i = rng.gen_range(0..perms.len());
                        match rng.gen_range(0..4) {
                            0 => perms.push(perms[i].clone()),
                            1 => {
                                let rank = rng.gen_range(1..=perms.len() as u32 + 1);
                                perms.push(RankedPath { path: perms[i].path.clone(), rank });
                            }
                            2 => {
                                let j = rng.gen_range(0..perms.len());
                                perms[j].rank = perms[i].rank;
                            }
                            _ => perms[i].path = Path::trivial(NodeId(0)),
                        }
                    }
                    if rng.gen_bool(0.5) {
                        perms.sort_by(|a, b| a.rank.cmp(&b.rank).then_with(|| a.path.cmp(&b.path)));
                    } else {
                        perms.shuffle(&mut rng);
                    }
                    // The path index, as `from_parts` derives it.
                    inst.rank_index[v] = (0..)
                        .zip(inst.permitted[v].iter())
                        .map(|(pos, rp)| (rp.path.clone(), pos))
                        .collect();
                }
                let got = inst.validate();
                assert_eq!(got, inst.validate_pairwise(), "seed {seed}: {inst}");
                let variant = match got {
                    Ok(()) => "Ok".to_string(),
                    Err(e) => format!("{e:?}").split([' ', '{']).next().unwrap_or("").to_string(),
                };
                *seen.entry(variant).or_default() += 1;
            }
        }
        // Floors, so that the comparison cannot pass vacuously.
        for variant in ["Ok", "DuplicatePath", "RankTie", "WrongSource"] {
            assert!(seen.get(variant).is_some_and(|&n| n >= 20), "{variant}: {seen:?}");
        }
    }

    /// Node 1 of a complete 10-node graph permitting all 109,601 of its
    /// simple paths to node 0: the pairwise scan took seconds here, the
    /// linear validation does not.
    #[test]
    fn a_node_with_every_simple_path_validates() {
        let (g, names, permitted) = crate::generator::every_path_parts(10);
        assert_eq!(permitted[1].len(), 109_601);
        let inst = SppInstance::from_parts(g, NodeId(0), names, permitted).unwrap();
        assert_eq!(inst.permitted(NodeId(1)).len(), 109_601);
    }
}
