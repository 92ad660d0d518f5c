//! Fair-oscillation detection on the explored state graph.
//!
//! An infinite fair execution eventually stays inside one strongly connected
//! component of the state graph, using its edges infinitely often. It is an
//! *oscillation* (per Definition 2.5) when π keeps changing there. The
//! component admits a fair tour (Definition 2.4) when
//!
//! 1. every channel is attended by some internal edge, or can be attended by
//!    a state-preserving step at some member state (an empty-queue read —
//!    such self-loops are elided from the graph and reconstructed here), and
//! 2. every channel that some internal edge drops on is also kept on by some
//!    internal edge (so dropped messages are always followed by delivered
//!    ones when the tour rotates through all edges).
//!
//! Soundness: if no reachable SCC passes the π-changing + fairness test and
//! exploration was not truncated, **no** fair execution oscillates — the
//! algorithm converges on every fair activation sequence of the model.

use routelab_core::dims::NeighborScope;
use routelab_engine::index::ChannelIndex;
use routelab_spp::SppInstance;

use crate::effects::Spec;
use crate::error::ExploreError;
use crate::graph::{try_build_spec, Edge, ExploreConfig, StateGraph};
use crate::pack::StateCodec;
use crate::reduce::SymTables;

/// Outcome of exhaustive oscillation analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A fair oscillation exists: a reachable SCC changes π and admits a
    /// fair tour.
    CanOscillate {
        /// States explored.
        states: usize,
        /// Size of the witnessing SCC. For symmetry-reduced builds it
        /// counts states of the orbit unfolding the analysis runs on, not
        /// of the quotient that `states` counts.
        scc_size: usize,
    },
    /// Exploration was exhaustive and no fair oscillating SCC exists: every
    /// fair activation sequence converges.
    AlwaysConverges {
        /// States explored.
        states: usize,
    },
    /// No oscillation found, but exploration was truncated (channel cap,
    /// state cap or per-state step cap): convergence holds only within the
    /// bound.
    NoOscillationWithinBound {
        /// States explored.
        states: usize,
    },
}

/// `true` when channel `c` can be attended at `state` without changing it:
/// its queue is empty, its reader has nothing pending to announce, and — for
/// scope `E`, where the reader must process *all* its channels — every queue
/// into the reader is empty. Reads the packed state directly; no decode.
fn noop_attendable(
    spec: Spec<'_>,
    codec: &StateCodec,
    index: &ChannelIndex,
    state: &[u16],
    c: usize,
) -> bool {
    let reader = index.channel(c).to;
    if !codec.queue_empty_words(state, c) || !codec.chosen_eq_announced_words(state, reader) {
        return false;
    }
    match spec.scope(reader) {
        NeighborScope::Every => {
            index.in_channels(reader).iter().all(|&cc| codec.queue_empty_words(state, cc))
        }
        _ => true,
    }
}

/// A graph [`find_fair_scc`] walks. State `q·order + g` is group element
/// `g` applied to state `q` of the stored [`Walk::graph`], and the stored
/// edge with store-wide id `e`, taken from element `g`, has id `e·order +
/// g`; its channels are the stored ones mapped through `g`. The defaults
/// are those of the trivial group: a plain [`StateGraph`] is its own walk,
/// while [`Orbit`] unfolds a symmetry quotient in place.
pub(crate) trait Walk {
    /// The stored graph.
    fn graph(&self) -> &StateGraph;

    /// The order of the group the walk unfolds.
    fn order(&self) -> usize {
        1
    }

    /// The element at the target of stored edge `e`, taken from element
    /// `g`.
    fn follow(&self, _g: usize, _e: usize) -> usize {
        0
    }

    /// Stored channel `c` seen from element `g`.
    fn channel(&self, _g: usize, c: usize) -> usize {
        c
    }

    /// State `s`'s `k`-th edge, if any: its id and its target.
    fn arc(&self, s: usize, k: usize) -> Option<(usize, usize)> {
        let (order, g) = (self.order(), s % self.order());
        let out = self.graph().edges.of(s / order);
        let &to = out.targets().get(k)?;
        let e = out.first_id() + k;
        Some((e * order + g, to as usize * order + self.follow(g, e)))
    }

    /// The element state `s` applies, and its edges in order: each one's
    /// id, target and stored view, whose channels that element maps.
    fn out(&self, s: usize) -> (usize, impl Iterator<Item = (usize, usize, Edge<'_>)>) {
        let (order, g) = (self.order(), s % self.order());
        let out = self.graph().edges.of(s / order);
        let first = out.first_id();
        let arcs = out.iter().enumerate().map(move |(k, e)| {
            let id = first + k;
            (id * order + g, e.to * order + self.follow(g, id), e)
        });
        (g, arcs)
    }

    /// Marks attended in `flags` every channel state `s` can attend without
    /// changing, tested on its stored state's own channels.
    fn noop_attend(&self, spec: Spec<'_>, s: usize, flags: &mut [u8]) {
        let (g, el) = (self.graph(), s % self.order());
        let ws = g.nodes.node((s / self.order()) as u32);
        for c in 0..flags.len() {
            let f = &mut flags[self.channel(el, c)];
            if *f & ATTENDED == 0 && noop_attendable(spec, &g.codec, &g.index, ws, c) {
                *f |= ATTENDED;
            }
        }
    }
}

/// The unreduced or asymmetric graph, walked as built.
impl Walk for StateGraph {
    fn graph(&self) -> &StateGraph {
        self
    }
}

/// The orbit unfolding of a symmetry quotient, walked in place. Its states
/// are (quotient state, group element) pairs, the real state being the
/// element's image of the quotient state. A quotient edge whose target
/// element `a` canonicalized continues from `(q, g)` to `(q', g ∘ a⁻¹)`,
/// its channels mapped through `g`. Per-channel attendance is not
/// invariant under the group action, so the Streett-style fairness
/// refinement must run here, not on the quotient itself (the
/// Emerson–Sistla caveat).
struct Orbit<'a> {
    g: &'a StateGraph,
    t: &'a SymTables,
}

impl Walk for Orbit<'_> {
    fn graph(&self) -> &StateGraph {
        self.g
    }

    fn order(&self) -> usize {
        self.t.order()
    }

    fn follow(&self, g: usize, e: usize) -> usize {
        self.t.compose(g, self.t.inverse(usize::from(self.g.edges.sym(e))))
    }

    fn channel(&self, g: usize, c: usize) -> usize {
        self.t.map_channel(g, c)
    }
}

/// `Tarjan::index` of a state the running call has not reached.
const UNSEEN: u32 = u32::MAX;

/// Tarjan's strongly connected components, iterative, over flat arrays.
/// Outside a run every `index` entry is [`UNSEEN`]: each run resets the
/// entries it set, so one instance serves every work item of an analysis.
#[derive(Default)]
pub(crate) struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// DFS frames: (state, next edge index).
    call: Vec<(u32, u32)>,
    /// The last run's components, concatenated; each ends at its `ends`
    /// offset.
    comps: Vec<u32>,
    ends: Vec<u32>,
}

impl Tarjan {
    /// Decomposes the part of `w` that `roots` reach over the edges
    /// `keep(edge id, target)` admits. Roots and edges are taken in order,
    /// so the components (see [`Tarjan::components`]) come out in one fixed
    /// reverse topological order, each listed from the last state reached
    /// back to its root.
    pub(crate) fn run<W: Walk>(
        &mut self,
        w: &W,
        roots: &[u32],
        keep: impl Fn(usize, usize) -> bool,
    ) {
        let n = w.graph().len() * w.order();
        self.index.resize(n, UNSEEN);
        self.low.resize(n, 0);
        self.on_stack.resize(n, false);
        self.comps.clear();
        self.ends.clear();
        let mut next = 0u32;
        for &root in roots {
            if self.index[root as usize] != UNSEEN {
                continue;
            }
            self.call.push((root, 0));
            while let Some(&(v, cursor)) = self.call.last() {
                let vi = v as usize;
                if cursor == 0 {
                    (self.index[vi], self.low[vi], self.on_stack[vi]) = (next, next, true);
                    next += 1;
                    self.stack.push(v);
                }
                if let Some((e, to)) = w.arc(vi, cursor as usize) {
                    self.call.last_mut().expect("nonempty").1 += 1;
                    if keep(e, to) {
                        if self.index[to] == UNSEEN {
                            self.call.push((to as u32, 0));
                        } else if self.on_stack[to] {
                            self.low[vi] = self.low[vi].min(self.index[to]);
                        }
                    }
                    continue;
                }
                self.call.pop();
                if let Some(&(parent, _)) = self.call.last() {
                    let p = parent as usize;
                    self.low[p] = self.low[p].min(self.low[vi]);
                }
                if self.low[vi] == self.index[vi] {
                    loop {
                        let w = self.stack.pop().expect("tarjan stack nonempty");
                        self.on_stack[w as usize] = false;
                        self.comps.push(w);
                        if w == v {
                            break;
                        }
                    }
                    self.ends.push(self.comps.len() as u32);
                }
            }
        }
        // Every state the run reached lies in one of its components.
        for &s in &self.comps {
            self.index[s as usize] = UNSEEN;
        }
    }

    /// The components the last [`Tarjan::run`] found, in emission order.
    pub(crate) fn components(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.comps[a as usize..b as usize])
    }
}

/// Per-channel flags over a component's internal edges.
const ATTENDED: u8 = 1;
const KEPT: u8 = 2;
const DROPPED: u8 = 4;

/// Finds the first component reachable in `w` that witnesses a fair
/// oscillation, with the number of components it examined (those with an
/// internal edge) and of work items drop fairness pushed. Time is linear in
/// states plus edges per refinement level.
///
/// Drop fairness needs *iterative refinement* (as in Streett acceptance):
/// if a component drops on a channel it never delivers on, a fair walk must
/// eventually avoid those dropping edges, so they are removed and the
/// component re-decomposed until either a component passes every condition
/// or nothing is left.
pub(crate) fn find_fair_scc<W: Walk>(spec: Spec<'_>, w: &W) -> (Option<Vec<usize>>, u64, u64) {
    let (g, order) = (w.graph(), w.order());
    // Edges drop fairness removed, by edge id. A banned edge lies inside
    // the component that banned it and live work items are disjoint, so
    // one bitmap serves them all.
    let mut banned = vec![0u64; (g.edges.edge_count() * order).div_ceil(64)];
    let is_banned = |banned: &[u64], id: usize| banned[id / 64] >> (id % 64) & 1 == 1;
    // `stamp[s] == mark`: s is in the current work item or component. Each
    // takes a fresh mark. The first work item is everything the root
    // reaches, so every state starts in it.
    let (mut stamp, mut mark) = (vec![1u32; g.len() * order], 0u32);
    let mut tarjan = Tarjan::default();
    let mut flags = vec![0u8; g.index.len()];
    let (mut components, mut refinements) = (0, 0);
    let mut work: Vec<Vec<u32>> = vec![vec![0]];

    while let Some(nodes) = work.pop() {
        mark = mark.checked_add(1).expect("fewer than 2^32 stamps");
        for &s in &nodes {
            stamp[s as usize] = mark;
        }
        tarjan.run(w, &nodes, |e, to| stamp[to] == mark && !is_banned(&banned, e));
        for comp in tarjan.components() {
            mark = mark.checked_add(1).expect("fewer than 2^32 stamps");
            for &s in comp {
                stamp[s as usize] = mark;
            }
            flags.fill(0);
            // 1. π must change within the component (anti-monotone: a
            //    π-constant component stays π-constant in every sub-walk).
            //    Its members are joined by internal edges, so they differ
            //    in π exactly when one of those edges changes it.
            let (mut has_internal, mut pi_changes) = (false, false);
            for &s in comp {
                let (el, out) = w.out(s as usize);
                for (id, to, e) in out {
                    if stamp[to] != mark || is_banned(&banned, id) {
                        continue;
                    }
                    has_internal = true;
                    pi_changes |= e.changes_pi;
                    let sets = [(e.attended(), ATTENDED), (e.kept(), KEPT), (e.dropped(), DROPPED)];
                    for (set, flag) in sets {
                        set.iter().for_each(|&c| flags[w.channel(el, c)] |= flag);
                    }
                }
            }
            components += u64::from(has_internal);
            if !has_internal || !pi_changes {
                continue;
            }
            // 2. Every channel attended (anti-monotone likewise). Channels
            //    no internal edge attends fall back to noop-attendance at a
            //    member state.
            let unattended = |flags: &[u8]| flags.iter().any(|f| f & ATTENDED == 0);
            for &s in comp {
                if !unattended(&flags) {
                    break;
                }
                w.noop_attend(spec, s as usize, &mut flags);
            }
            if unattended(&flags) {
                continue;
            }
            // 3. Drop fairness: channels dropped on but never delivered on
            //    must not be dropped infinitely often — remove their
            //    dropping edges and re-decompose.
            let offending = |c: usize| flags[c] & (DROPPED | KEPT) == DROPPED;
            if !(0..flags.len()).any(offending) {
                return (Some(comp.iter().map(|&s| s as usize).collect()), components, refinements);
            }
            for &s in comp {
                let (el, out) = w.out(s as usize);
                for (id, to, e) in out {
                    // Re-banning an already banned edge is harmless.
                    if stamp[to] == mark && e.dropped().iter().any(|&c| offending(w.channel(el, c)))
                    {
                        banned[id / 64] |= 1 << (id % 64);
                    }
                }
            }
            refinements += 1;
            work.push(comp.to_vec());
        }
    }
    (None, components, refinements)
}

/// Analyzes a prebuilt graph.
///
/// A symmetry-reduced graph is analyzed on its orbit unfolding, walked in
/// place: per-channel attendance is not invariant under the group action,
/// so the fairness refinement on the raw quotient would be unsound (the
/// Emerson–Sistla caveat). The reported `states` counts are always the
/// built graph's — the quotient's, for reduced builds.
pub fn analyze_graph(spec: Spec<'_>, g: &StateGraph) -> Verdict {
    // One relaxed load when telemetry is off.
    let obs = routelab_obs::enabled();
    let _span = obs.then(|| routelab_obs::span("explore.analyze"));
    let states = g.len();
    let (fair, components, refinements) = match &g.sym {
        Some(t) => find_fair_scc(spec, &Orbit { g, t }),
        None => find_fair_scc(spec, g),
    };
    if obs {
        routelab_obs::counter("explore.analyze.components", components);
        routelab_obs::counter("explore.analyze.refinements", refinements);
    }
    if let Some(comp) = fair {
        return Verdict::CanOscillate { states, scc_size: comp.len() };
    }
    if g.truncated {
        Verdict::NoOscillationWithinBound { states }
    } else {
        Verdict::AlwaysConverges { states }
    }
}

/// Builds the graph of `inst` under a uniform or mixed model (mixed models
/// are the paper's open "mixed configuration" question, Sec. 5) and
/// analyzes it.
///
/// # Errors
///
/// Any [`ExploreError`] raised while building the state graph, attributed
/// to its gadget × model cell.
pub fn analyze(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Result<Verdict, ExploreError> {
    let g = try_build_spec(inst, spec, cfg)?;
    Ok(analyze_graph(spec, &g))
}

#[cfg(test)]
mod reference {
    //! The analysis as it stood before the flat rewrite, kept unchanged as
    //! the oracle the flat search is tested against, and the orbit graph it
    //! runs on for a symmetry quotient, built as a copy.

    use std::collections::HashMap;

    use super::*;
    use crate::arena::NodeArena;
    use crate::graph::{EdgeStore, StepInfo};

    /// Un-folds a symmetry quotient into a copy of its orbit graph: nodes
    /// are (representative, group element) pairs, numbered breadth-first
    /// from the root, and hold the element's image of the representative.
    /// A quotient edge annotated with canonicalizer `a` continues from `(q,
    /// g)` to `(q', g ∘ a⁻¹)`, with its channel labels mapped through `g`.
    /// Also returns, per [`Orbit`] state `q·order + g`, its node here
    /// (`u32::MAX` when the root does not reach it).
    pub(crate) fn unfold_symmetry(g: &StateGraph) -> (StateGraph, Vec<u32>) {
        let t = g.sym.as_ref().expect("unfold_symmetry requires symmetry tables");
        let order = t.order();
        let mut ids = vec![u32::MAX; g.len() * order];
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let mut intern = |q: usize, gi: usize, nodes: &mut Vec<(usize, usize)>| {
            let id = &mut ids[q * order + gi];
            if *id == u32::MAX {
                *id = nodes.len() as u32;
                nodes.push((q, gi));
            }
            *id
        };
        let mut edges = EdgeStore::new(false);
        intern(0, 0, &mut nodes);
        let mut head = 0usize;
        while head < nodes.len() {
            let (q, gi) = nodes[head];
            for e in g.edges.of(q).iter() {
                let to = intern(e.to, t.compose(gi, t.inverse(usize::from(e.sym))), &mut nodes);
                let map = |cs: &[usize]| cs.iter().map(|&c| t.map_channel(gi, c)).collect();
                let step = edges.add_step(StepInfo {
                    step: e.step().clone(),
                    attended: map(e.attended()),
                    kept: map(e.kept()),
                    dropped: map(e.dropped()),
                });
                edges.push(head as u32, to, step, e.changes_pi, 0);
            }
            head += 1;
        }
        edges.finish(nodes.len());
        let mut arena = NodeArena::new();
        for &(q, gi) in &nodes {
            arena.intern(&t.transform(g.nodes.node(q as u32), gi));
        }
        let unfolded = StateGraph {
            codec: g.codec.clone(),
            index: g.index.clone(),
            nodes: arena,
            edges,
            truncated: g.truncated,
            stats: g.stats,
            reduction: g.reduction,
            sym: None,
        };
        (unfolded, ids)
    }

    /// SCC decomposition restricted to the states of `nodes` and to edges the
    /// filter admits. Returns components as state lists.
    fn sccs_restricted(
        g: &StateGraph,
        nodes: &[usize],
        edge_ok: &dyn Fn(usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
        let mut in_set = vec![false; g.len()];
        for &s in nodes {
            in_set[s] = true;
        }
        #[derive(Clone, Copy, PartialEq)]
        struct Info {
            index: usize,
            low: usize,
        }
        let mut info: HashMap<usize, Info> = HashMap::new();
        let mut on_stack: HashMap<usize, bool> = HashMap::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out = Vec::new();

        for &root in nodes {
            if info.contains_key(&root) {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&(v, cursor)) = call.last() {
                if cursor == 0 {
                    info.insert(v, Info { index: next_index, low: next_index });
                    next_index += 1;
                    stack.push(v);
                    on_stack.insert(v, true);
                }
                if cursor < g.edges.of(v).len() {
                    call.last_mut().expect("nonempty").1 += 1;
                    let e = g.edges.of(v).get(cursor).expect("cursor < len");
                    if !in_set[e.to] || !edge_ok(v, cursor) {
                        continue;
                    }
                    let w = e.to;
                    match info.get(&w) {
                        None => call.push((w, 0)),
                        Some(wi) => {
                            if on_stack.get(&w).copied().unwrap_or(false) {
                                let low = info[&v].low.min(wi.index);
                                info.get_mut(&v).expect("visited").low = low;
                            }
                        }
                    }
                } else {
                    call.pop();
                    let vi = info[&v];
                    if let Some(&(parent, _)) = call.last() {
                        let low = info[&parent].low.min(vi.low);
                        info.get_mut(&parent).expect("visited").low = low;
                    }
                    if vi.low == vi.index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack nonempty");
                            on_stack.insert(w, false);
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Finds the first reachable component witnessing a fair oscillation.
    ///
    /// Drop fairness needs *iterative refinement* (as in Streett acceptance):
    /// if a component drops on a channel it never delivers on, a fair walk must
    /// eventually avoid those dropping edges, so they are removed and the
    /// component re-decomposed until either a component passes every condition
    /// or nothing is left.
    pub(crate) fn find_fair_scc(spec: Spec<'_>, g: &StateGraph) -> Option<Vec<usize>> {
        let index = &g.index;
        let channel_count = index.len();

        // Banned (state, edge idx) pairs accompanying a candidate state set.
        type BannedEdges = std::collections::HashSet<(usize, usize)>;
        let all_nodes: Vec<usize> = (0..g.len()).collect();
        let mut work: Vec<(Vec<usize>, BannedEdges)> = vec![(all_nodes, BannedEdges::new())];

        while let Some((nodes, banned)) = work.pop() {
            let edge_ok = |s: usize, ei: usize| !banned.contains(&(s, ei));
            for comp in sccs_restricted(g, &nodes, &edge_ok) {
                let mut member = vec![false; g.len()];
                for &s in &comp {
                    member[s] = true;
                }
                // Internal (non-banned) edges as (state, edge index).
                let mut internal: Vec<(usize, usize)> = Vec::new();
                for &s in &comp {
                    for (ei, e) in g.edges.of(s).iter().enumerate() {
                        if member[e.to] && edge_ok(s, ei) {
                            internal.push((s, ei));
                        }
                    }
                }
                if internal.is_empty() {
                    continue;
                }
                let edge = |&(s, ei): &(usize, usize)| g.edges.of(s).get(ei).expect("internal");
                // 1. π must change within the component (anti-monotone: a
                //    π-constant component stays π-constant in every sub-walk).
                let pi = |s: usize| g.codec.pi_ids_words(g.nodes.node(s as u32));
                let pi_changes = comp.iter().any(|&s| pi(s) != pi(comp[0]))
                    || internal.iter().map(edge).any(|e| e.changes_pi);
                if !pi_changes {
                    continue;
                }
                // 2. Every channel attended (anti-monotone likewise). Channels
                //    no internal edge attends fall back to noop-attendance at a
                //    member state.
                let mut attended_ok = vec![false; channel_count];
                for e in internal.iter().map(edge) {
                    for &c in e.attended() {
                        attended_ok[c] = true;
                    }
                }
                if attended_ok.iter().any(|ok| !ok) {
                    'states: for &s in &comp {
                        let ws = g.nodes.node(s as u32);
                        for c in 0..channel_count {
                            if !attended_ok[c] && noop_attendable(spec, &g.codec, index, ws, c) {
                                attended_ok[c] = true;
                                if attended_ok.iter().all(|&ok| ok) {
                                    break 'states;
                                }
                            }
                        }
                    }
                }
                if attended_ok.iter().any(|ok| !ok) {
                    continue;
                }
                // 3. Drop fairness: channels dropped on but never delivered on
                //    must not be dropped infinitely often — remove their
                //    dropping edges and re-decompose.
                let offending: Vec<usize> = (0..channel_count)
                    .filter(|c| {
                        internal.iter().map(edge).any(|e| e.dropped().contains(c))
                            && !internal.iter().map(edge).any(|e| e.kept().contains(c))
                    })
                    .collect();
                if offending.is_empty() {
                    return Some(comp);
                }
                let mut banned2 = banned.clone();
                for &(s, ei) in &internal {
                    if edge(&(s, ei)).dropped().iter().any(|c| offending.contains(c)) {
                        banned2.insert((s, ei));
                    }
                }
                work.push((comp, banned2));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::hetero::HeteroModel;
    use routelab_core::model::CommModel;
    use routelab_spp::gadgets;

    fn verdict(inst: &routelab_spp::SppInstance, model: &str) -> Verdict {
        analyze(inst, Spec::Uniform(model.parse().unwrap()), &ExploreConfig::default()).unwrap()
    }

    #[test]
    fn example_a1_disagree_oscillates_in_r1o_and_friends() {
        let inst = gadgets::disagree();
        for model in ["R1O", "RMO", "R1F", "RMF"] {
            assert!(
                matches!(verdict(&inst, model), Verdict::CanOscillate { .. }),
                "{model} must admit the DISAGREE oscillation"
            );
        }
        // The S-policy models have much larger effect spaces; a channel cap
        // of 2 still contains the DISAGREE oscillation (the witness cycle
        // never queues more than two messages) and keeps the graph small.
        let tight = ExploreConfig { channel_cap: 2, ..ExploreConfig::default() };
        for model in ["R1S", "RMS", "RES"] {
            let v = analyze(&inst, Spec::Uniform(model.parse().unwrap()), &tight).unwrap();
            assert!(
                matches!(v, Verdict::CanOscillate { .. }),
                "{model} must admit the DISAGREE oscillation (got {v:?})"
            );
        }
    }

    #[test]
    fn example_a1_disagree_cannot_oscillate_in_weak_models() {
        // Theorem 3.8's five models: DISAGREE always converges there.
        let inst = gadgets::disagree();
        for model in ["REO", "REF", "R1A", "RMA", "REA"] {
            assert!(
                matches!(verdict(&inst, model), Verdict::AlwaysConverges { .. }),
                "{model} must force DISAGREE to converge (got {:?})",
                verdict(&inst, model)
            );
        }
    }

    #[test]
    fn example_a2_fig6_separates_reo_ref_from_polling() {
        // Theorem 3.9: Fig. 6 oscillates in REO and REF but not in the
        // polling models. REO's oscillating SCC sits within the default
        // 150k-state budget of the breadth-first order, and REA is checked
        // here exhaustively (≈5k reduced states); REF (≈128k reduced),
        // R1A and RMA (a few hundred reduced states, ≈654k raw) are
        // covered by the release-only test below and by
        // `routelab exp examples`.
        let inst = gadgets::fig6();
        let cfg = ExploreConfig { channel_cap: 3, ..ExploreConfig::default() };
        let v = analyze(&inst, Spec::Uniform("REO".parse().unwrap()), &cfg).unwrap();
        assert!(
            matches!(v, Verdict::CanOscillate { .. }),
            "REO must admit the Fig. 6 oscillation (got {v:?})"
        );
        let v = analyze(&inst, Spec::Uniform("REA".parse().unwrap()), &cfg).unwrap();
        assert!(
            matches!(v, Verdict::AlwaysConverges { .. }),
            "REA must force Fig. 6 to converge (got {v:?})"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "≈128k-state REF exploration; run with `cargo test --release` or `routelab exp examples a2`"
    )]
    fn example_a2_fig6_polling_r1a_rma_converge_exhaustively() {
        let inst = gadgets::fig6();
        let cfg = ExploreConfig {
            channel_cap: 3,
            max_states: 1_500_000,
            max_steps_per_state: 20_000,
            ..ExploreConfig::default()
        };
        for model in ["R1A", "RMA"] {
            let v = analyze(&inst, Spec::Uniform(model.parse().unwrap()), &cfg).unwrap();
            assert!(
                matches!(v, Verdict::AlwaysConverges { .. }),
                "{model} must force Fig. 6 to converge (got {v:?})"
            );
        }
        // REF's reduced space is ≈128k states (≈278k raw) — close enough
        // to the 150k debug budget that it stays in this release-only
        // test, exhaustively oscillating here.
        let v = analyze(&inst, Spec::Uniform("REF".parse().unwrap()), &cfg).unwrap();
        assert!(
            matches!(v, Verdict::CanOscillate { .. }),
            "REF must admit the Fig. 6 oscillation (got {v:?})"
        );
    }

    #[test]
    fn bad_gadget_oscillates_even_when_polling() {
        // BAD-GADGET has no stable assignment at all: even REA oscillates.
        let inst = gadgets::bad_gadget();
        for model in ["REA", "R1A", "REO", "R1O"] {
            assert!(
                matches!(verdict(&inst, model), Verdict::CanOscillate { .. }),
                "{model} must oscillate on BAD-GADGET"
            );
        }
    }

    #[test]
    fn good_gadget_always_converges() {
        let inst = gadgets::good_gadget();
        for model in ["R1O", "REO", "REA", "RMA", "R1S"] {
            assert!(
                matches!(verdict(&inst, model), Verdict::AlwaysConverges { .. }),
                "{model} must converge on GOOD-GADGET"
            );
        }
    }

    #[test]
    fn line2_trivially_converges_in_every_model() {
        let inst = gadgets::line2();
        for model in routelab_core::model::CommModel::all() {
            let v = verdict(&inst, &model.to_string());
            assert!(matches!(v, Verdict::AlwaysConverges { .. }), "{model}: {v:?}");
        }
    }

    #[test]
    fn unreliable_channels_preserve_disagree_oscillation() {
        // Prop 3.3(1): U1O exactly realizes R1O, so the oscillation
        // survives; drop fairness is satisfiable.
        let inst = gadgets::disagree();
        assert!(matches!(verdict(&inst, "U1O"), Verdict::CanOscillate { .. }));
    }

    #[test]
    fn hetero_uniform_matches_uniform_analysis() {
        // A HeteroModel built uniformly must reproduce the CommModel
        // verdicts exactly.
        let inst = gadgets::disagree();
        let cfg = ExploreConfig::default();
        for model in ["R1O", "REA", "RMS", "U1O", "UEA"] {
            let m: CommModel = model.parse().unwrap();
            let h = HeteroModel::uniform(inst.node_count(), m);
            let uniform = analyze(&inst, Spec::Uniform(m), &cfg).unwrap();
            let hetero = analyze(&inst, Spec::Hetero(&h), &cfg).unwrap();
            assert_eq!(
                std::mem::discriminant(&uniform),
                std::mem::discriminant(&hetero),
                "{model}: {uniform:?} vs {hetero:?}"
            );
        }
    }

    #[test]
    fn hetero_one_polling_disputant_is_not_enough() {
        // Paper Sec. 5 open question, answered: on DISAGREE, letting only x
        // poll (while y stays event-driven) still admits a fair oscillation;
        // both disputants must poll to force convergence.
        use routelab_core::dims::{MessagePolicy, NeighborScope};
        use routelab_core::hetero::NodeModel;
        let inst = gadgets::disagree();
        let x = inst.node_by_name("x").unwrap();
        let y = inst.node_by_name("y").unwrap();
        let cfg = ExploreConfig::default();
        let poll = NodeModel { scope: NeighborScope::Every, messages: MessagePolicy::All };

        let mut one = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        one.set_node(x, poll);
        assert!(matches!(
            analyze(&inst, Spec::Hetero(&one), &cfg).unwrap(),
            Verdict::CanOscillate { .. }
        ));

        let mut both = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        both.set_node(x, poll);
        both.set_node(y, poll);
        assert!(matches!(
            analyze(&inst, Spec::Hetero(&both), &cfg).unwrap(),
            Verdict::AlwaysConverges { .. }
        ));
    }

    #[test]
    fn hetero_lossy_channels_do_not_break_polling_convergence() {
        // Mixed reliability on DISAGREE: even with every channel lossy,
        // poll-all keeps the instance convergent (cf. `routelab exp
        // beyond`: UEA cannot oscillate DISAGREE).
        use routelab_spp::Channel;
        let inst = gadgets::disagree();
        let x = inst.node_by_name("x").unwrap();
        let y = inst.node_by_name("y").unwrap();
        let cfg = ExploreConfig::default();
        let mut h = HeteroModel::uniform(inst.node_count(), "REA".parse().unwrap());
        h.set_lossy(Channel::new(x, y));
        h.set_lossy(Channel::new(y, x));
        assert!(matches!(
            analyze(&inst, Spec::Hetero(&h), &cfg).unwrap(),
            Verdict::AlwaysConverges { .. }
        ));
    }

    /// DISAGREE plus an informant `z`: x learning any route of z's ends
    /// the dispute, while z re-announces on every turn of it. With only
    /// `z → x` lossy, the dispute survives only on runs that drop z's
    /// announcements forever, so drop fairness must refine it.
    const INFORMED_DISAGREE: &str = "spp v1
        node d\nnode x\nnode y\nnode z
        edge x d\nedge y d\nedge x y\nedge z d\nedge z y\nedge z x
        dest d
        prefs x xzd xzyd xyd xd\nprefs y yxd yd\nprefs z zyd zd";

    /// The flat search against the retained reference, on every corpus
    /// gadget × the 24 models and on `INFORMED_DISAGREE` × the 12 reliable
    /// models with `z → x` lossy, at channel cap 2, unreduced and reduced:
    /// the same component, its states in the same order. A reduced build's
    /// orbit, walked in place, is compared with the reference on a copy of
    /// the orbit graph, its states mapped to the copy's.
    #[test]
    fn fair_scc_search_matches_the_reference() {
        let cfg = ExploreConfig {
            channel_cap: 2,
            max_states: 800,
            threads: Some(1),
            ..ExploreConfig::default()
        };
        let informed = routelab_spp::format::from_text(INFORMED_DISAGREE).unwrap();
        let (z, x) = (informed.node_by_name("z").unwrap(), informed.node_by_name("x").unwrap());
        let lossy: Vec<(CommModel, HeteroModel)> = CommModel::all_reliable()
            .into_iter()
            .map(|m| {
                let mut h = HeteroModel::uniform(informed.node_count(), m);
                h.set_lossy(routelab_spp::Channel::new(z, x));
                (m, h)
            })
            .collect();
        let corpus = gadgets::corpus();
        let mut cells: Vec<(String, &SppInstance, Spec<'_>)> = Vec::new();
        for (name, inst) in &corpus {
            for m in CommModel::all() {
                cells.push((format!("{name} × {m}"), inst, Spec::Uniform(m)));
            }
        }
        for (m, h) in &lossy {
            cells.push((
                format!("INFORMED-DISAGREE × {m}, z → x lossy"),
                &informed,
                Spec::Hetero(h),
            ));
        }

        let (mut found, mut absent, mut refined) = (0, 0, 0);
        for (cell, inst, spec) in cells {
            for reduce in [false, true] {
                let g =
                    try_build_spec(inst, spec, &ExploreConfig { reduce, ..cfg.clone() }).unwrap();
                let (got, want, refinements) = match &g.sym {
                    Some(t) => {
                        let (got, _, refinements) = find_fair_scc(spec, &Orbit { g: &g, t });
                        let (unfolded, ids) = reference::unfold_symmetry(&g);
                        let got = got.map(|c| c.iter().map(|&s| ids[s] as usize).collect());
                        (got, reference::find_fair_scc(spec, &unfolded), refinements)
                    }
                    None => {
                        let (got, _, refinements) = find_fair_scc(spec, &g);
                        (got, reference::find_fair_scc(spec, &g), refinements)
                    }
                };
                assert_eq!(got, want, "{cell}, reduce {reduce}");
                if got.is_some() {
                    found += 1;
                } else {
                    absent += 1;
                }
                refined += usize::from(refinements > 0);
            }
        }
        // Floors, so that the comparison cannot pass vacuously.
        assert!(found >= 40 && absent >= 300 && refined >= 4, "{found} {absent} {refined}");
    }

    /// Orbit labels and noop attendance are seen from each state's own
    /// group element, against the element's image of its stored state:
    /// every channel an orbit edge drops on holds a message there, and the
    /// channels credited as noop-attendable are those the image can attend
    /// without changing.
    #[test]
    fn orbit_labels_match_the_image() {
        let cfg = ExploreConfig::default();
        let (mut drops, mut noops) = (0, 0);
        for (name, inst) in
            [("DISAGREE", gadgets::disagree()), ("BAD-GADGET", gadgets::bad_gadget())]
        {
            for model in ["U1O", "REO", "UEA"] {
                let spec = Spec::Uniform(model.parse().unwrap());
                let g = try_build_spec(&inst, spec, &cfg).unwrap();
                let t = g.sym.as_ref().expect("the gadget is symmetric");
                let orbit = Orbit { g: &g, t };
                for s in 0..g.len() * t.order() {
                    let (q, el) = (s / t.order(), s % t.order());
                    let image = t.transform(g.nodes.node(q as u32), el);
                    for (_, _, e) in orbit.out(s).1 {
                        for &c in e.dropped() {
                            let c = orbit.channel(el, c);
                            assert!(!g.codec.queue_empty_words(&image, c), "{name} × {model}: {s}");
                            drops += 1;
                        }
                    }
                    let mut flags = vec![0u8; g.index.len()];
                    orbit.noop_attend(spec, s, &mut flags);
                    for (c, f) in flags.iter().enumerate() {
                        let want = noop_attendable(spec, &g.codec, &g.index, &image, c);
                        assert_eq!(*f == ATTENDED, want, "{name} × {model}: {s}, channel {c}");
                        noops += usize::from(want);
                    }
                }
            }
        }
        assert!(drops > 0 && noops > 0, "{drops} drops, {noops} noop channels");
    }

    #[test]
    fn truncated_exploration_downgrades_verdict() {
        let inst = gadgets::good_gadget();
        let cfg = ExploreConfig {
            channel_cap: 1,
            max_states: 16,
            max_steps_per_state: 8,
            ..ExploreConfig::default()
        };
        let v = analyze(&inst, Spec::Uniform("REA".parse().unwrap()), &cfg).unwrap();
        assert!(matches!(v, Verdict::NoOscillationWithinBound { .. }), "{v:?}");
    }
}
