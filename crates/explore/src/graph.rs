//! Reachable-state-graph construction. SCC decomposition lives with the
//! fairness analysis in [`crate::oscillation`].
//!
//! States are interned in packed form (see [`crate::pack`]) inside a flat
//! word arena (see [`crate::arena`]) and the graph is built by the
//! parallel frontier engine ([`crate::frontier`]): state ids, counts,
//! edges, and truncation points are bit-identical at any thread count, and
//! identical to the retained sequential reference (`build_spec_reference`,
//! test-only) that the differential tests compare against.
//!
//! Both modes expand states through one packed kernel
//! ([`crate::exec_packed`]): successors are computed directly on the packed
//! words, already in the build's queue normal form, never materializing a
//! [`NetworkState`] per candidate, and steps the kernel can tell are
//! self-loops are never written. Reduced builds then canonicalize each
//! successor under the symmetry group ([`crate::reduce`]).
//!
//! **The edge store.** The frontier's merge writes every edge once, in
//! place, into an [`EdgeStore`] in compressed sparse rows. The merge takes
//! parents in id order, so each state's edges are already contiguous, and
//! assembling the graph copies nothing. A build of `n` states and `E` edges
//! holds
//!
//! - `4(n + 1)` bytes of `u32` row starts (state `s`'s edges are
//!   `starts[s]..starts[s + 1]`),
//! - `4E` bytes of `u32` targets,
//! - `4E` bytes of `u32` ids into the build's step table,
//! - `8⌈E/64⌉` bytes of π-change bitmap,
//! - `2E` bytes of `u16` canonicalizing group elements, only when the
//!   build's symmetry group is nontrivial,
//!
//! plus the step table: one [`StepInfo`] per distinct (step, attended,
//! kept, dropped) content. Step ids number contents in order of first
//! appearance in the merge, so they do not depend on the thread count:
//! each worker's step catalog has ids of its own, and the merge maps them
//! once per worker and id through the build's table. Readers see edges
//! through borrowed views ([`Edges`], [`Edge`]); no edge holds an `Arc` or
//! a `Vec` of its own.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use routelab_core::dims::NeighborScope;
use routelab_engine::index::ChannelIndex;
use routelab_engine::state::NetworkState;
use routelab_spp::{NodeId, SppInstance};

use crate::arena::NodeArena;
use crate::effects::{CanonicalStep, ChannelEffect, Spec};
use crate::error::ExploreError;
use crate::exec_packed::{Applied, ExecTables, PackedScratch};
use crate::frontier::{self, BfsOptions, BfsResult, Candidates, FrontierStats, Record};
use crate::pack::StateCodec;
use crate::reduce::{channel_modes, CanonScratch, Reducer, ReductionStats, SymTables};

/// Bounds for exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum queue length; transitions that would exceed it are cut (and
    /// recorded, downgrading any "always converges" verdict).
    pub channel_cap: usize,
    /// Maximum number of distinct states.
    pub max_states: usize,
    /// Maximum canonical steps enumerated per state.
    pub max_steps_per_state: usize,
    /// Explorer worker threads; `None` resolves `ROUTELAB_THREADS`, then
    /// the machine's available parallelism. Results never depend on it.
    pub threads: Option<usize>,
    /// Apply the state-space reduction layer ([`crate::reduce`]): queue
    /// normal forms plus symmetry canonicalization. On by default; verdicts
    /// are identical either way (the differential suite proves it), only
    /// state counts and memory differ. Disable to obtain the literal
    /// unreduced graph (witness extraction does so internally).
    pub reduce: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            channel_cap: 3,
            max_states: 150_000,
            max_steps_per_state: 10_000,
            threads: None,
            reduce: true,
        }
    }
}

impl ExploreConfig {
    /// The worker count this config resolves to (≥ 1).
    pub fn resolved_threads(&self) -> usize {
        frontier::resolved_threads(self.threads)
    }
}

/// The state-independent payload of an edge: the canonical step and the
/// channel sets derived from it. Each distinct content is one entry of its
/// build's step table, shared by every edge with that content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepInfo {
    /// The canonical step generating the transition (for witness replay).
    pub step: crate::effects::CanonicalStep,
    /// Dense channel ids the step attends.
    pub attended: Vec<usize>,
    /// Channels on which a message was learned (kept).
    pub kept: Vec<usize>,
    /// Channels on which at least one message was dropped.
    pub dropped: Vec<usize>,
}

impl StepInfo {
    /// Bytes this entry holds, inline and on the heap.
    pub(crate) fn bytes(&self) -> u64 {
        let sets = self.attended.len() + self.kept.len() + self.dropped.len();
        (size_of::<StepInfo>()
            + self.step.effects.len() * size_of::<ChannelEffect>()
            + sets * size_of::<usize>()) as u64
    }
}

/// The edges of a state graph in compressed sparse rows, with the build's
/// step table (layout and byte count in the module doc). Equality is by
/// content, step table included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeStore {
    /// Start of each state's edges, plus the end of the last state's.
    starts: Vec<u32>,
    targets: Vec<u32>,
    /// Per edge, its id in `infos`.
    steps: Vec<u32>,
    /// Per edge, one bit: the step changes some π.
    pi: Vec<u64>,
    /// Per edge, the group element that canonicalized its successor; only
    /// when the build's symmetry group is nontrivial.
    sym: Option<Vec<u16>>,
    /// The step table.
    infos: Vec<StepInfo>,
}

impl EdgeStore {
    /// An empty store that keeps group elements when `symmetric`.
    pub(crate) fn new(symmetric: bool) -> Self {
        EdgeStore { sym: symmetric.then(Vec::new), ..EdgeStore::default() }
    }

    /// Appends `info` to the step table and returns its id.
    pub(crate) fn add_step(&mut self, info: StepInfo) -> u32 {
        self.infos.push(info);
        (self.infos.len() - 1) as u32
    }

    /// Appends the edge `from → to`. Edges arrive grouped by source, in
    /// increasing source order.
    ///
    /// # Panics
    ///
    /// Panics when the `u32` edge offsets are exhausted.
    pub(crate) fn push(&mut self, from: u32, to: u32, step: u32, changes_pi: bool, sym: u16) {
        let e = self.targets.len();
        assert!(e < u32::MAX as usize, "edge store offsets exhausted");
        while self.starts.len() <= from as usize {
            self.starts.push(e as u32);
        }
        self.targets.push(to);
        self.steps.push(step);
        if e.is_multiple_of(64) {
            self.pi.push(0);
        }
        self.pi[e / 64] |= u64::from(changes_pi) << (e % 64);
        if let Some(syms) = &mut self.sym {
            syms.push(sym);
        }
    }

    /// Closes the rows of a graph of `states` states.
    pub(crate) fn finish(&mut self, states: usize) {
        let e = self.targets.len() as u32;
        self.starts.resize(states + 1, e);
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// State `s`'s outgoing edges.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a state of the graph.
    pub fn of(&self, s: usize) -> Edges<'_> {
        let range = self.starts[s] as usize..self.starts[s + 1] as usize;
        Edges { store: self, range }
    }

    /// Every state's outgoing edges, in state order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Edges<'_>> + '_ {
        self.starts.windows(2).map(|w| Edges { store: self, range: w[0] as usize..w[1] as usize })
    }

    /// The step table, by id.
    pub fn step_table(&self) -> &[StepInfo] {
        &self.infos
    }

    /// Bytes held: the module doc's closed form of the rows plus the step
    /// table's entries.
    pub fn bytes(&self) -> u64 {
        let rows = 4 * (self.starts.len() + self.targets.len() + self.steps.len())
            + 8 * self.pi.len()
            + 2 * self.sym.as_ref().map_or(0, Vec::len);
        rows as u64 + self.infos.iter().map(StepInfo::bytes).sum::<u64>()
    }

    fn edge(&self, e: usize) -> Edge<'_> {
        let step = self.steps[e];
        Edge {
            to: self.targets[e] as usize,
            changes_pi: self.pi[e / 64] >> (e % 64) & 1 == 1,
            sym: self.sym.as_ref().map_or(0, |syms| syms[e]),
            step_id: step,
            info: &self.infos[step as usize],
        }
    }
}

/// One state's outgoing edges, borrowed from its [`EdgeStore`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    store: &'a EdgeStore,
    range: Range<usize>,
}

impl<'a> Edges<'a> {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// `true` when the state has no outgoing edge.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The `i`-th edge, if any.
    pub fn get(&self, i: usize) -> Option<Edge<'a>> {
        (i < self.len()).then(|| self.store.edge(self.range.start + i))
    }

    /// The edges, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Edge<'a>> + 'a {
        let store = self.store;
        self.range.clone().map(move |e| store.edge(e))
    }

    /// The edges' targets, in order.
    pub fn targets(&self) -> &'a [u32] {
        &self.store.targets[self.range.clone()]
    }

    /// The store-wide id of the first edge; the `i`-th edge's is `first_id() + i`.
    pub(crate) fn first_id(&self) -> usize {
        self.range.start
    }
}

/// A labeled transition of the state graph: a view into an [`EdgeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge<'a> {
    /// Target state index.
    pub to: usize,
    /// `true` when the step changes some π.
    pub changes_pi: bool,
    /// Symmetry-group element that canonicalized the raw successor into
    /// `to` (0 = identity, i.e. the successor was already canonical). Only
    /// nonzero in reduced builds of symmetric instances; fairness analysis
    /// un-folds the quotient through these annotations.
    pub sym: u16,
    /// The step's id in its store's step table.
    pub(crate) step_id: u32,
    info: &'a StepInfo,
}

impl<'a> Edge<'a> {
    /// Dense channel ids the step attends.
    pub fn attended(&self) -> &'a [usize] {
        &self.info.attended
    }

    /// Channels on which a message was learned (kept).
    pub fn kept(&self) -> &'a [usize] {
        &self.info.kept
    }

    /// Channels on which at least one message was dropped.
    pub fn dropped(&self) -> &'a [usize] {
        &self.info.dropped
    }

    /// The canonical step generating this transition (for witness replay).
    pub fn step(&self) -> &'a crate::effects::CanonicalStep {
        &self.info.step
    }
}

/// The explored portion of a model's state graph. States live packed in a
/// [`NodeArena`]; read them with [`StateGraph::state`] or query the cheap
/// packed predicates through [`StateGraph::codec`].
#[derive(Debug)]
pub struct StateGraph {
    /// The per-instance codec the packed states were interned with.
    pub codec: StateCodec,
    /// The dense channel index of the instance's graph.
    pub index: ChannelIndex,
    /// The state arena, index 0 = initial.
    pub nodes: NodeArena,
    /// Fingerprint of each state's path assignment π (not the full state).
    pub pi_fp: Vec<u64>,
    /// Outgoing edges per state (state-preserving self-loops elided).
    pub edges: EdgeStore,
    /// `true` when some transition was cut by the channel cap or the state
    /// or per-state step budget — absence verdicts are then bounded.
    pub truncated: bool,
    /// Frontier-engine statistics for this build.
    pub stats: FrontierStats,
    /// Reduction-layer activity (zeroed when the build ran unreduced).
    pub reduction: ReductionStats,
    /// Symmetry tables of the build, when reduction was on and the
    /// instance's automorphism group is nontrivial. Fairness analysis uses
    /// them to un-fold the quotient.
    pub(crate) sym: Option<Arc<SymTables>>,
}

impl StateGraph {
    /// Number of explored states.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a graph without states (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Decodes state `i`.
    ///
    /// # Panics
    ///
    /// Panics if the arena entry fails to decode — an internal invariant
    /// violation, since every entry was produced by the same codec.
    pub fn state(&self, i: usize) -> NetworkState {
        self.codec
            .decode_words(self.nodes.node(i as u32))
            .expect("arena entries decode with their own codec")
    }
}

/// The frontier label of a graph edge: its step as an id in the expanding
/// worker's [`StepCatalog`], and its flags. The target id only exists
/// after dedup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgePayload {
    pub(crate) step: u32,
    pub(crate) changes_pi: bool,
    pub(crate) sym: u16,
}

/// One node's canonical steps under one key of in-channel queue lengths,
/// enumerated at the catalog's full budget.
struct NodeSteps {
    /// Where the list lies in [`StepCatalog::lists`] (empty when `cut`).
    ids: Range<usize>,
    /// The full budget cut the enumeration.
    cut: bool,
}

/// Per-worker memo of the step enumeration, kept for a whole build. A
/// node's canonical steps depend on the state only through the queue
/// lengths of its own in-channels, so each node memoizes its step list on
/// that short key, and a state's steps are its nodes' lists in node order.
/// Lists hold ids into the worker's own table of [`StepInfo`]s: a memo hit
/// allocates nothing and hashes no step, and a candidate's label is an id.
#[derive(Default)]
pub(crate) struct StepCatalog {
    /// The `max_steps` the memo was filled at.
    budget: usize,
    /// Per node: in-channel queue lengths → the node's steps.
    memo: Vec<HashMap<Box<[u16]>, NodeSteps>>,
    /// The memoized lists, concatenated, as ids into `infos`.
    lists: Vec<u32>,
    /// Every distinct step seen, and every absorbing variant of one, by id.
    infos: Vec<StepInfo>,
    ids: HashMap<CanonicalStep, u32>,
    /// (step id, absorbed channels) → the id of the absorbing variant.
    absorbing: HashMap<(u32, Vec<usize>), u32>,
    /// The absorbing-variant lookup key under construction.
    absorbing_key: (u32, Vec<usize>),
    /// The steps of the last enumerated state, as ids.
    steps: Vec<u32>,
    /// The lookup key under construction.
    key: Vec<u16>,
    /// Per-node memo hit/miss tallies, flushed to telemetry when a graph
    /// build's scratch drops (plain integers: the catalog is
    /// worker-private).
    hits: u64,
    misses: u64,
}

impl StepCatalog {
    /// Enumerates the canonical steps of `node` (read them with
    /// [`StepCatalog::steps`]) and returns whether `max_steps` cut them:
    /// the steps and cut flag of [`all_steps_with`].
    ///
    /// [`all_steps_with`] gives each node the budget left by the nodes
    /// before it. There, a scope-`E` or `M` product over the budget yields
    /// nothing and cuts, while scope `1` never cuts. So a memoized list
    /// stands in for the enumeration only when the full budget did not cut
    /// it and it fits the remaining budget or has scope `1`; any other node
    /// is enumerated at its real budget.
    ///
    /// [`all_steps_with`]: crate::effects::all_steps_with
    pub(crate) fn enumerate(
        &mut self,
        tables: &ExecTables<'_>,
        spec: Spec<'_>,
        max_steps: usize,
        node: &[u16],
    ) -> bool {
        let n = tables.node_count();
        if self.budget != max_steps || self.memo.len() != n {
            self.budget = max_steps;
            self.memo = (0..n).map(|_| HashMap::new()).collect();
            self.lists.clear();
        }
        self.steps.clear();
        let mut cut = false;
        for (i, memo) in self.memo.iter_mut().enumerate() {
            let v = NodeId(i as u32);
            tables.in_queue_lens(node, v, &mut self.key);
            let entry = match memo.get(self.key.as_slice()) {
                Some(entry) => {
                    self.hits += 1;
                    entry
                }
                None => {
                    self.misses += 1;
                    let (steps, cut) = tables.node_steps(spec, node, v, max_steps);
                    let start = self.lists.len();
                    if !cut {
                        for cs in steps {
                            self.lists.push(intern(&mut self.infos, &mut self.ids, cs, spec));
                        }
                    }
                    let ids = start..self.lists.len();
                    memo.entry(self.key.as_slice().into()).or_insert(NodeSteps { ids, cut })
                }
            };
            let budget = max_steps.saturating_sub(self.steps.len());
            if !entry.cut && (entry.ids.len() <= budget || spec.scope(v) == NeighborScope::One) {
                self.steps.extend_from_slice(&self.lists[entry.ids.clone()]);
            } else {
                let (steps, c) = tables.node_steps(spec, node, v, budget);
                cut |= c;
                for cs in steps {
                    self.steps.push(intern(&mut self.infos, &mut self.ids, cs, spec));
                }
            }
        }
        cut
    }

    /// The steps of the last [`StepCatalog::enumerate`]d state, in order,
    /// as ids.
    pub(crate) fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// The step with id `id`.
    pub(crate) fn info(&self, id: u32) -> &StepInfo {
        &self.infos[id as usize]
    }

    /// The id of step `id` with the absorbed reads `absorbed` merged in: a
    /// reduced edge attends (and keeps on) the channels its normal form
    /// drained. Interned on first sight.
    fn absorbing(&mut self, id: u32, absorbed: &[usize]) -> u32 {
        let key = &mut self.absorbing_key;
        key.0 = id;
        key.1.clear();
        key.1.extend_from_slice(absorbed);
        if let Some(&variant) = self.absorbing.get(key) {
            return variant;
        }
        let base = &self.infos[id as usize];
        let merge = |set: &[usize]| {
            let mut v = [set, absorbed].concat();
            v.sort_unstable();
            v.dedup();
            v
        };
        let info = StepInfo {
            step: base.step.clone(),
            attended: merge(&base.attended),
            kept: merge(&base.kept),
            dropped: base.dropped.clone(),
        };
        let variant = self.infos.len() as u32;
        self.infos.push(info);
        self.absorbing.insert(key.clone(), variant);
        variant
    }
}

/// The id of `cs` in the catalog's step table, interning its descriptor on
/// first sight.
fn intern(
    infos: &mut Vec<StepInfo>,
    ids: &mut HashMap<CanonicalStep, u32>,
    cs: CanonicalStep,
    spec: Spec<'_>,
) -> u32 {
    if let Some(&id) = ids.get(&cs) {
        return id;
    }
    let id = infos.len() as u32;
    let attended = cs.attended(spec);
    let kept = cs.effects.iter().filter(|e| e.keep.is_some()).map(|e| e.channel).collect();
    let dropped = cs.effects.iter().filter(|e| e.dropped() > 0).map(|e| e.channel).collect();
    infos.push(StepInfo { step: cs.clone(), attended, kept, dropped });
    ids.insert(cs, id);
    id
}

/// Reusable per-worker scratch of [`GraphExpand::successor`].
#[derive(Default)]
struct SuccessorScratch {
    packed: PackedScratch,
    canon: CanonScratch,
}

/// Reusable per-worker expansion scratch, kept for a whole build.
#[derive(Default)]
pub(crate) struct GraphScratch {
    succ: SuccessorScratch,
    catalog: StepCatalog,
    /// Per catalog id, its id in the build's step table (`u32::MAX` until
    /// the merge first records it).
    build_ids: Vec<u32>,
    /// Steps elided as self-loops before the kernel ran (a plain integer:
    /// the scratch is worker-private).
    self_loops: u64,
}

impl Drop for GraphScratch {
    /// Flushes the catalog's per-node memo tallies and the elided
    /// self-loops to telemetry. The scratch is worker-private and lives for
    /// one build, so drops are the natural flush point; counters sum across
    /// workers in the summarizer.
    fn drop(&mut self) {
        let (hits, misses, self_loops) = (self.catalog.hits, self.catalog.misses, self.self_loops);
        if hits + misses == 0 {
            return;
        }
        if routelab_obs::enabled() {
            routelab_obs::counter("explore.stepcatalog.hits", hits);
            routelab_obs::counter("explore.stepcatalog.misses", misses);
            routelab_obs::counter("explore.self_loops", self_loops);
        }
        if routelab_obs::trace_enabled() {
            routelab_obs::trace_counter("explore.stepcatalog.hits", hits);
            routelab_obs::trace_counter("explore.stepcatalog.misses", misses);
            routelab_obs::trace_counter("explore.self_loops", self_loops);
        }
    }
}

/// The merge's [`Record`] of a graph build: appends every edge to the
/// build's [`EdgeStore`], mapping the expanding worker's catalog ids to
/// build-wide step ids by content, first sight first.
struct StoreWriter {
    store: EdgeStore,
    /// Step content → build-wide id.
    ids: HashMap<StepInfo, u32>,
}

impl Record<EdgePayload, GraphScratch> for StoreWriter {
    fn edge(&mut self, from: u32, to: u32, e: EdgePayload, scratch: &mut GraphScratch) {
        let local = e.step as usize;
        if scratch.build_ids.len() <= local {
            scratch.build_ids.resize(local + 1, u32::MAX);
        }
        if scratch.build_ids[local] == u32::MAX {
            let info = scratch.catalog.info(e.step);
            scratch.build_ids[local] = match self.ids.get(info) {
                Some(&id) => id,
                None => {
                    let id = self.store.add_step(info.clone());
                    self.ids.insert(info.clone(), id);
                    id
                }
            };
        }
        self.store.push(from, to, scratch.build_ids[local], e.changes_pi, e.sym);
    }
}

/// What one canonical step does to a parent under the build's normal forms.
enum Successor {
    /// A queue would exceed the channel cap: the transition is cut.
    Capped,
    /// The step preserves the state (covered by noop annotations); nothing
    /// was written.
    SelfLoop,
    /// A transition; its target's words were appended to the buffer.
    Edge(EdgePayload),
}

/// The frontier-engine client for state-graph construction.
struct GraphExpand<'a> {
    spec: Spec<'a>,
    cfg: &'a ExploreConfig,
    /// The packed step kernel, shared by both modes.
    tables: ExecTables<'a>,
    /// The reduction layer; `None` builds the literal unreduced graph.
    reduce: Option<&'a Reducer>,
}

impl<'a> GraphExpand<'a> {
    /// The expansion of a build of `spec`, reduced when `reduce` is given:
    /// the kernel keeps the build's normal form ([`channel_modes`]).
    fn new(
        spec: Spec<'a>,
        cfg: &'a ExploreConfig,
        index: &'a ChannelIndex,
        codec: &'a StateCodec,
        reduce: Option<&'a Reducer>,
    ) -> Self {
        let tables = ExecTables::new(index, codec, channel_modes(spec, index, reduce.is_some()));
        GraphExpand { spec, cfg, tables, reduce }
    }

    /// Applies step `step` of `catalog` to `node` (whose per-parent data
    /// `scratch.packed` holds), appending the successor's words, in normal
    /// form, to `words`; on anything but [`Successor::Edge`] the caller
    /// discards them. Self-loops are told apart before the kernel writes
    /// anything. Reduced builds count the normal form's activity and
    /// canonicalize the successor under the symmetry group.
    fn successor(
        &self,
        node: &[u16],
        step: u32,
        catalog: &mut StepCatalog,
        words: &mut Vec<u16>,
        scratch: &mut SuccessorScratch,
    ) -> Successor {
        let cs = &catalog.info(step).step;
        if self.tables.is_self_loop(&scratch.packed, cs) {
            return Successor::SelfLoop;
        }
        let mark = words.len();
        let applied = self.tables.apply(node, &mut scratch.packed, cs, self.cfg.channel_cap, words);
        if let Some(red) = self.reduce {
            red.count(&scratch.packed.tally);
        }
        let Applied::Ok { new_rid, .. } = applied else {
            return Successor::Capped;
        };
        // Any other step shrinks a queue it consumes from, or chooses or
        // announces a new route, so it never returns to its parent. (A
        // transition whose canonical image below equals the parent is a
        // genuine quotient self-loop and is kept.)
        debug_assert_ne!(&words[mark..], node, "{cs:?} is a self-loop");
        let changes_pi = new_rid != node[cs.node.index()];
        let Some(red) = self.reduce else {
            return Successor::Edge(EdgePayload { step, changes_pi, sym: 0 });
        };
        let sym = red.canonicalize_words(&words[mark..], &mut scratch.canon);
        if sym != 0 {
            words.truncate(mark);
            words.extend_from_slice(scratch.canon.image());
        }
        // Absorbed reads make the label state-dependent; only those edges
        // get a variant of the step.
        let step = match scratch.packed.absorbed.as_slice() {
            [] => step,
            absorbed => catalog.absorbing(step, absorbed),
        };
        Successor::Edge(EdgePayload { step, changes_pi, sym })
    }
}

impl frontier::Expand for GraphExpand<'_> {
    type Label = EdgePayload;
    type Scratch = GraphScratch;

    /// Canonical steps come from the step catalog and successors are
    /// written straight into the expansion buffer. No `NetworkState` is
    /// ever built and, unless a head was absorbed, no label data is
    /// allocated per candidate.
    fn expand(
        &self,
        _id: u32,
        node: &[u16],
        out: &mut Candidates<EdgePayload>,
        scratch: &mut GraphScratch,
    ) -> Result<bool, ExploreError> {
        let GraphScratch { succ, catalog, self_loops, .. } = scratch;
        let mut truncated =
            catalog.enumerate(&self.tables, self.spec, self.cfg.max_steps_per_state, node);
        self.tables.prepare(node, &mut succ.packed);
        // `successor` may intern absorbing variants into the catalog.
        let steps = std::mem::take(&mut catalog.steps);
        for &step in &steps {
            let mark = out.mark();
            match self.successor(node, step, catalog, out.words(), succ) {
                Successor::Edge(payload) => out.commit(mark, payload),
                Successor::Capped => {
                    truncated = true;
                    out.cancel(mark);
                }
                Successor::SelfLoop => *self_loops += 1,
            }
        }
        catalog.steps = steps;
        Ok(truncated)
    }
}

/// The cell descriptor used for error attribution and telemetry: the
/// instance's node count and destination, and the model (`hetero` for a
/// mixed spec). One short line, however many paths the instance permits.
pub(crate) fn cell_of(inst: &SppInstance, spec: Spec<'_>) -> String {
    let (nodes, dest) = (inst.node_count(), inst.name(inst.dest()));
    match spec {
        Spec::Uniform(m) => format!("{nodes}-node instance, dest {dest} × {m}"),
        Spec::Hetero(_) => format!("{nodes}-node instance, dest {dest} × hetero"),
    }
}

fn assemble(
    codec: StateCodec,
    index: ChannelIndex,
    r: BfsResult,
    mut edges: EdgeStore,
    reduction: ReductionStats,
    sym: Option<Arc<SymTables>>,
) -> StateGraph {
    let pi_fp =
        (0..r.nodes.len() as u32).map(|i| codec.pi_fingerprint_words(r.nodes.node(i))).collect();
    edges.finish(r.nodes.len());
    let stats = FrontierStats { edge_bytes: edges.bytes(), ..r.stats };
    let g = StateGraph {
        codec,
        index,
        nodes: r.nodes,
        pi_fp,
        edges,
        truncated: r.truncated,
        stats,
        reduction,
        sym,
    };
    if routelab_obs::enabled() {
        routelab_obs::gauge("explore.states", g.len() as u64);
        routelab_obs::gauge("explore.threads", g.stats.threads as u64);
        routelab_obs::gauge("explore.peak_frontier", g.stats.peak_frontier as u64);
        routelab_obs::gauge("explore.bytes_resident", g.stats.bytes_resident);
        routelab_obs::gauge("explore.edge_bytes", g.stats.edge_bytes);
        routelab_obs::counter("explore.candidates", g.stats.candidates);
        routelab_obs::counter("explore.dedup_hits", g.stats.dedup_hits);
        routelab_obs::counter("explore.builds", 1);
        if g.truncated {
            routelab_obs::counter("explore.builds_truncated", 1);
        }
        if g.reduction.enabled {
            routelab_obs::gauge("explore.sym_group", g.reduction.group_order as u64);
            routelab_obs::counter("explore.reduce_canon_rewrites", g.reduction.canon_rewrites);
            routelab_obs::counter("explore.reduce_absorb_pops", g.reduction.absorb_pops);
            routelab_obs::counter("explore.reduce_set_collapses", g.reduction.set_collapses);
            routelab_obs::counter("explore.reduce_sym_hits", g.reduction.sym_hits);
        }
    }
    if routelab_obs::trace_enabled() {
        routelab_obs::trace_counter("explore.states", g.len() as u64);
        routelab_obs::trace_counter("explore.candidates", g.stats.candidates);
        routelab_obs::trace_counter("explore.dedup_hits", g.stats.dedup_hits);
        if g.reduction.enabled {
            routelab_obs::trace_counter(
                "explore.reduce_canon_rewrites",
                g.reduction.canon_rewrites,
            );
            routelab_obs::trace_counter("explore.reduce_absorb_pops", g.reduction.absorb_pops);
            routelab_obs::trace_counter("explore.reduce_set_collapses", g.reduction.set_collapses);
            routelab_obs::trace_counter("explore.reduce_sym_hits", g.reduction.sym_hits);
        }
    }
    g
}

/// Builds the reachable state graph of `inst` under a uniform or mixed
/// model, reporting failures as typed errors attributed to the gadget ×
/// model cell.
///
/// For reliable all-messages models (`R1A`/`RMA`/`REA`) states are built
/// modulo the queue-to-newest-message abstraction, which is a bisimulation
/// there and keeps the polling state spaces finite without truncation.
///
/// # Errors
///
/// Any [`ExploreError`] raised while interning or expanding states (route
/// universe overflow, worker panic).
pub fn try_build_spec(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Result<StateGraph, ExploreError> {
    build_with(inst, spec, cfg, |exp, root, cell, opts, store| {
        frontier::bfs(exp, root, cell, opts, store)
    })
}

/// The retained sequential reference build: same output contract as
/// [`try_build_spec`], but computed by the plain one-queue-one-map loop.
/// The differential tests assert both agree bit-for-bit.
#[cfg(test)]
pub(crate) fn build_spec_reference(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Result<StateGraph, ExploreError> {
    build_with(inst, spec, cfg, |exp, root, cell, opts, store| {
        frontier::bfs_reference(exp, root, cell, opts, store)
    })
}

/// Sets up the codec, reducer, kernel tables and root of a build, runs
/// `search` over them into one edge store, and assembles its result into a
/// [`StateGraph`].
fn build_with(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
    search: impl FnOnce(
        &GraphExpand<'_>,
        &[u16],
        &str,
        &BfsOptions,
        &mut StoreWriter,
    ) -> Result<BfsResult, ExploreError>,
) -> Result<StateGraph, ExploreError> {
    let _span = routelab_obs::span("explore.build");
    let cell = cell_of(inst, spec);
    let index = ChannelIndex::new(inst.graph());
    let codec = StateCodec::new(inst, &index, cell.as_str())?;
    let reducer = cfg.reduce.then(|| Reducer::new(inst, &index, &codec, spec));
    let mut root = Vec::new();
    codec.encode_into(&NetworkState::initial(inst, &index), &mut root)?;
    if let Some(red) = &reducer {
        let mut scratch = CanonScratch::default();
        if red.canonicalize_words(&root, &mut scratch) != 0 {
            root = scratch.image().to_vec();
        }
    }
    let exp = GraphExpand::new(spec, cfg, &index, &codec, reducer.as_ref());
    let opts = BfsOptions {
        threads: cfg.resolved_threads(),
        max_nodes: cfg.max_states,
        progress_label: "explore.states",
    };
    let symmetric = reducer.as_ref().is_some_and(|red| red.sym.is_some());
    let mut store = StoreWriter { store: EdgeStore::new(symmetric), ids: HashMap::new() };
    let r = search(&exp, &root, &cell, &opts, &mut store)?;
    let (reduction, sym) = match reducer {
        Some(red) => (red.stats(), red.sym.clone()),
        None => (ReductionStats::default(), None),
    };
    Ok(assemble(codec, index, r, store.store, reduction, sym))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::hetero::HeteroModel;
    use routelab_core::model::CommModel;
    use routelab_spp::gadgets;

    /// Every component of `g`: the analysis's Tarjan over all states, no
    /// edge filtered.
    fn sccs(g: &StateGraph) -> Vec<Vec<usize>> {
        let mut tarjan = crate::oscillation::Tarjan::default();
        let all: Vec<u32> = (0..g.len() as u32).collect();
        tarjan.run(g, &all, |_, _| true);
        tarjan.components().map(|c| c.iter().map(|&s| s as usize).collect()).collect()
    }

    #[test]
    fn line2_graph_is_tiny_and_complete() {
        let inst = gadgets::line2();
        let g =
            try_build_spec(&inst, Spec::Uniform("REA".parse().unwrap()), &ExploreConfig::default())
                .unwrap();
        assert!(!g.truncated);
        // Initial, d-announced, v-learned, v-announcement-consumed…
        assert!(g.len() <= 8, "{}", g.len());
        // From the converged terminal state there are no outgoing edges.
        let terminal = (0..g.len())
            .find(|&i| g.codec.is_quiescent_words(g.nodes.node(i as u32)))
            .expect("line2 reaches quiescence");
        assert!(g.edges.of(terminal).is_empty());
        assert!(g.state(terminal).is_quiescent());
    }

    #[test]
    fn disagree_r1o_graph_has_cycles() {
        let inst = gadgets::disagree();
        let cfg = ExploreConfig::default();
        // Unreduced, divergent schedules pump queues past any cap (e.g. x
        // keeps announcing while d never reads), so the raw build
        // truncates. The class projection turns those announcements into
        // absorbed ε-reads, making the reduced build exhaustive. The
        // oscillating SCC must be inside the explored region either way.
        let raw = try_build_spec(
            &inst,
            Spec::Uniform("R1O".parse().unwrap()),
            &ExploreConfig { reduce: false, ..cfg.clone() },
        )
        .unwrap();
        assert!(raw.truncated);
        let g = try_build_spec(&inst, Spec::Uniform("R1O".parse().unwrap()), &cfg).unwrap();
        assert!(!g.truncated);
        assert!(g.reduction.canon_rewrites > 0);
        for graph in [&raw, &g] {
            let comps = sccs(graph);
            let biggest = comps.iter().map(Vec::len).max().unwrap();
            assert!(biggest > 1, "R1O on DISAGREE must contain a nontrivial SCC");
        }
    }

    #[test]
    fn disagree_rma_graph_is_acyclic_besides_terminals() {
        let inst = gadgets::disagree();
        let g =
            try_build_spec(&inst, Spec::Uniform("RMA".parse().unwrap()), &ExploreConfig::default())
                .unwrap();
        assert!(!g.truncated);
        for comp in sccs(&g) {
            if comp.len() > 1 {
                // Any multi-state SCC must keep π constant (checked fully in
                // oscillation.rs; here ensure π fp equality).
                let fp = g.pi_fp[comp[0]];
                assert!(comp.iter().all(|&s| g.pi_fp[s] == fp));
            }
        }
    }

    #[test]
    fn truncation_reported_on_tiny_caps() {
        let inst = gadgets::disagree();
        let cfg = ExploreConfig {
            channel_cap: 1,
            max_states: 4,
            max_steps_per_state: 4,
            ..ExploreConfig::default()
        };
        let g = try_build_spec(&inst, Spec::Uniform("RMS".parse().unwrap()), &cfg).unwrap();
        assert!(g.truncated);
        assert!(g.len() <= 4);
    }

    #[test]
    fn scc_decomposition_covers_all_states() {
        let inst = gadgets::disagree();
        let g =
            try_build_spec(&inst, Spec::Uniform("REO".parse().unwrap()), &ExploreConfig::default())
                .unwrap();
        let comps = sccs(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, g.len());
        // Each state appears exactly once.
        let mut seen = vec![false; g.len()];
        for c in &comps {
            for &s in c {
                assert!(!seen[s]);
                seen[s] = true;
            }
        }
    }

    #[test]
    fn parallel_build_matches_reference_exactly() {
        let inst = gadgets::disagree();
        let cfg = ExploreConfig::default();
        for model in ["R1O", "RMA", "RES", "U1O"] {
            let spec = Spec::Uniform(model.parse().unwrap());
            let reference = build_spec_reference(&inst, spec, &cfg).unwrap();
            for threads in [1, 2, 8] {
                let c = ExploreConfig { threads: Some(threads), ..cfg.clone() };
                let g = try_build_spec(&inst, spec, &c).unwrap();
                assert_eq!(g.nodes, reference.nodes, "{model} @{threads}");
                assert_eq!(g.pi_fp, reference.pi_fp, "{model} @{threads}");
                assert_eq!(g.edges, reference.edges, "{model} @{threads}");
                assert_eq!(g.truncated, reference.truncated, "{model} @{threads}");
            }
        }
    }

    /// The module doc's closed form of `g`'s edge store, checked against
    /// [`EdgeStore::bytes`]; and, where an edge's target is its successor
    /// as the kernel wrote it (no group element applied), its π-change
    /// flag against the two states' packed π.
    fn check_store(cell: &str, g: &StateGraph) {
        let (n, e) = (g.len(), g.edges.edge_count());
        assert_eq!(g.edges.iter().len(), n, "{cell}");
        assert_eq!(g.edges.iter().map(|out| out.len()).sum::<usize>(), e, "{cell}");
        let sym = if g.sym.is_some() { 2 * e } else { 0 };
        let rows = 4 * (n + 1) + 8 * e + 8 * e.div_ceil(64) + sym;
        let table: u64 = g.edges.step_table().iter().map(StepInfo::bytes).sum();
        assert_eq!(g.edges.bytes(), rows as u64 + table, "{cell}");
        assert_eq!(g.stats.edge_bytes, g.edges.bytes(), "{cell}");
        let pi = |s: usize| g.codec.pi_ids_words(g.nodes.node(s as u32));
        for (s, out) in g.edges.iter().enumerate() {
            for edge in out.iter().filter(|edge| edge.sym == 0) {
                assert_eq!(edge.changes_pi, pi(s) != pi(edge.to), "{cell}: {s} → {}", edge.to);
            }
        }
    }

    /// The edge store at 1, 2 and 8 threads against the reference build,
    /// on every corpus gadget × the 24 models, reduced and unreduced, at
    /// channel caps 2 and 3 under a 3,000-state budget: the same step
    /// table and every edge the same (target, step, π change, group
    /// element, order), in the layout whose byte count the module doc
    /// states.
    #[test]
    fn edge_stores_match_the_reference_at_every_thread_count() {
        let corpus = gadgets::corpus();
        std::thread::scope(|s| {
            for (name, inst) in &corpus {
                s.spawn(move || {
                    for model in CommModel::all() {
                        let spec = Spec::Uniform(model);
                        for (reduce, cap) in [(true, 2), (true, 3), (false, 2), (false, 3)] {
                            let cell = format!("{name} × {model} reduce={reduce} @cap {cap}");
                            let cfg = ExploreConfig {
                                channel_cap: cap,
                                max_states: 3_000,
                                reduce,
                                ..ExploreConfig::default()
                            };
                            let want = build_spec_reference(inst, spec, &cfg).unwrap();
                            check_store(&cell, &want);
                            for threads in [1, 2, 8] {
                                let c = ExploreConfig { threads: Some(threads), ..cfg.clone() };
                                let g = try_build_spec(inst, spec, &c).unwrap();
                                let at = format!("{cell} @{threads}t");
                                assert_eq!(g.edges.step_table(), want.edges.step_table(), "{at}");
                                assert_eq!(g.edges, want.edges, "{at}");
                                check_store(&at, &g);
                            }
                        }
                    }
                });
            }
        });
    }

    /// Walks the first 200 BFS states of `spec`'s build, reduced and
    /// unreduced, with one catalog per step budget, and checks every
    /// state's catalog steps and cut flag against [`crate::effects::all_steps`].
    /// Small budgets cut scope-`E` and `M` nodes part-way through a state,
    /// so memoized lists are offered at every remaining budget.
    fn check_catalog_budgets(cell: &str, inst: &SppInstance, spec: Spec<'_>) {
        use crate::effects::all_steps;

        for reduce in [false, true] {
            let cfg = ExploreConfig {
                max_states: 200,
                threads: Some(1),
                reduce,
                ..ExploreConfig::default()
            };
            let g = try_build_spec(inst, spec, &cfg).unwrap();
            let tables = ExecTables::new(&g.index, &g.codec, channel_modes(spec, &g.index, reduce));
            for budget in [0, 1, 2, 3, 5, 8] {
                let mut catalog = StepCatalog::default();
                for i in 0..g.len() {
                    let node = g.nodes.node(i as u32);
                    let state = g.codec.decode_words(node).unwrap();
                    let (want, want_cut) =
                        all_steps(spec, &g.index, &state, inst.node_count(), budget);
                    let cut = catalog.enumerate(&tables, spec, budget, node);
                    let at = format!("{cell} reduce={reduce} budget {budget} state {i}");
                    assert_eq!(cut, want_cut, "{at}");
                    let got: Vec<&CanonicalStep> =
                        catalog.steps().iter().map(|&id| &catalog.info(id).step).collect();
                    assert_eq!(got, want.iter().collect::<Vec<_>>(), "{at}");
                }
                assert!(catalog.hits > 0, "{cell} reduce={reduce} budget {budget}");
            }
        }
    }

    /// FIG6 under a heterogeneous spec whose nodes differ in scope and
    /// policy, with one lossy channel.
    fn fig6_hetero() -> (SppInstance, HeteroModel) {
        use routelab_core::dims::{MessagePolicy, NeighborScope};
        use routelab_core::hetero::NodeModel;

        let inst = gadgets::fig6();
        let mut h = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        for v in inst.nodes() {
            let i = v.index();
            let (scope, messages) = (NeighborScope::ALL[i % 3], MessagePolicy::ALL[i % 4]);
            h.set_node(v, NodeModel { scope, messages });
        }
        let first = ChannelIndex::new(inst.graph()).channel(0);
        h.set_lossy(first);
        (inst, h)
    }

    /// The per-node catalog against the step oracle at budgets that cut:
    /// every corpus gadget × the 24 models, plus a heterogeneous spec
    /// whose nodes differ in scope and policy.
    #[test]
    fn step_catalog_matches_all_steps_at_cutting_budgets() {
        let corpus = gadgets::corpus();
        std::thread::scope(|s| {
            for (name, inst) in &corpus {
                s.spawn(move || {
                    for model in CommModel::all() {
                        check_catalog_budgets(
                            &format!("{name} × {model}"),
                            inst,
                            Spec::Uniform(model),
                        );
                    }
                });
            }
        });
        let (inst, h) = fig6_hetero();
        check_catalog_budgets("FIG6 × hetero", &inst, Spec::Hetero(&h));
    }

    /// Checks every parent × canonical step of one budgeted BFS, reduced or
    /// not, against the oracle: decode → `execute_step` → the
    /// `NetworkState` normal form (the reducer's; unreduced, the
    /// newest-collapse of collapsible models, else none) → encode →
    /// canonicalize must give [`GraphExpand::successor`]'s outcome, with
    /// the same cap and self-loop verdicts, absorbed channels, symmetry
    /// element, label and reduction counters. Every parent must also be
    /// its own normal form, within the cap, with no counter moving: the
    /// invariant that lets the kernel settle only the channels a step
    /// touches.
    fn check_steps(cell: &str, inst: &SppInstance, spec: Spec<'_>, reduce: bool, cap: usize) {
        use crate::effects::all_steps;
        use routelab_engine::exec::execute_step;

        let cell = format!("{cell} reduce={reduce} @cap {cap}");
        let cfg = ExploreConfig {
            channel_cap: cap,
            max_states: 2_000,
            threads: Some(1),
            reduce,
            ..ExploreConfig::default()
        };
        let g = try_build_spec(inst, spec, &cfg).unwrap();
        let (index, codec) = (&g.index, &g.codec);
        let packed = Reducer::new(inst, index, codec, spec);
        let oracle = Reducer::new(inst, index, codec, spec);
        let exp = GraphExpand::new(spec, &cfg, index, codec, reduce.then_some(&packed));
        let normalize = |s: &mut NetworkState, absorbed: &mut Vec<usize>| {
            absorbed.clear();
            if reduce {
                oracle.normalize(s, absorbed);
            } else if spec.collapsible() {
                s.collapse_queues_to_newest();
            }
        };
        let exceeds_cap = |s: &NetworkState| match reduce {
            true => oracle.exceeds_cap(s, cap),
            false => s.max_queue_len() > cap,
        };
        let mut scratch = GraphScratch::default();
        let (mut words, mut absorbed, mut enc) = (Vec::new(), Vec::new(), Vec::new());
        let mut canon = CanonScratch::default();
        for i in 0..g.len() {
            let node = g.nodes.node_vec(i as u32);
            let state = codec.decode_words(&node).unwrap();
            let (mut again, before) = (state.clone(), oracle.stats());
            normalize(&mut again, &mut absorbed);
            codec.encode_into(&again, &mut enc).unwrap();
            assert_eq!(enc, node, "{cell}: state {i} is not in normal form");
            assert!(absorbed.is_empty() && !exceeds_cap(&state), "{cell}: state {i}");
            assert_eq!(oracle.stats(), before, "{cell}: state {i}");

            let (steps, capped) =
                all_steps(spec, index, &state, inst.node_count(), cfg.max_steps_per_state);
            let cut = scratch.catalog.enumerate(&exp.tables, spec, cfg.max_steps_per_state, &node);
            assert_eq!(cut, capped, "{cell}");
            let ids = scratch.catalog.steps().to_vec();
            assert_eq!(ids.len(), steps.len(), "{cell}");
            exp.tables.prepare(&node, &mut scratch.succ.packed);
            for (&id, cs) in ids.iter().zip(steps) {
                assert_eq!(scratch.catalog.info(id).step, cs, "{cell}");
                let mut next = state.clone();
                let effect = execute_step(inst, index, &mut next, &cs.to_activation(spec, index));
                normalize(&mut next, &mut absorbed);
                words.clear();
                let got =
                    exp.successor(&node, id, &mut scratch.catalog, &mut words, &mut scratch.succ);
                let capped = exceeds_cap(&next);
                codec.encode_into(&next, &mut enc).unwrap();
                match got {
                    Successor::Capped => {
                        assert!(capped, "{cell} {cs:?}");
                        assert_eq!(scratch.succ.packed.absorbed, absorbed, "{cell} {cs:?}");
                    }
                    Successor::SelfLoop => {
                        assert!(!capped && enc == node && absorbed.is_empty(), "{cell} {cs:?}");
                        assert!(words.is_empty(), "{cell} {cs:?}");
                    }
                    Successor::Edge(payload) => {
                        assert!(!capped && enc != node, "{cell} {cs:?}");
                        assert_eq!(scratch.succ.packed.absorbed, absorbed, "{cell} {cs:?}");
                        let sym = match reduce {
                            true => oracle.canonicalize_words(&enc, &mut canon),
                            false => 0,
                        };
                        let least = if sym == 0 { enc.as_slice() } else { canon.image() };
                        assert_eq!(words, least, "{cell} {cs:?}");
                        assert_eq!(payload.sym, sym, "{cell} {cs:?}");
                        let changes_pi = !effect.changed.is_empty();
                        assert_eq!(payload.changes_pi, changes_pi, "{cell} {cs:?}");
                        let (mut attended, mut kept) = (cs.attended(spec), effect.kept_on);
                        if !absorbed.is_empty() {
                            for set in [&mut attended, &mut kept] {
                                set.extend_from_slice(&absorbed);
                                set.sort_unstable();
                                set.dedup();
                            }
                        }
                        let dropped = effect.dropped_on;
                        let want = StepInfo { step: cs, attended, kept, dropped };
                        assert_eq!(*scratch.catalog.info(payload.step), want, "{cell}");
                    }
                }
                assert_eq!(packed.stats(), oracle.stats(), "{cell}");
            }
        }
    }

    /// The graph build's successor against its oracle on every corpus
    /// gadget × the 24 models, reduced and unreduced (which covers the
    /// newest-collapse of the reliable policy-`A` models), at channel caps
    /// 2 and 3, one thread per gadget; and on FIG6 under a heterogeneous
    /// spec.
    #[test]
    fn successors_match_the_engine_oracle() {
        let corpus = gadgets::corpus();
        std::thread::scope(|s| {
            for (name, inst) in &corpus {
                s.spawn(move || {
                    for model in CommModel::all() {
                        for (reduce, cap) in [(true, 2), (true, 3), (false, 2), (false, 3)] {
                            let cell = format!("{name} × {model}");
                            check_steps(&cell, inst, Spec::Uniform(model), reduce, cap);
                        }
                    }
                });
            }
        });
        let (inst, h) = fig6_hetero();
        for (reduce, cap) in [(true, 2), (true, 3), (false, 2), (false, 3)] {
            check_steps("FIG6 × hetero", &inst, Spec::Hetero(&h), reduce, cap);
        }
    }
}
