//! Reachable-state-graph construction. SCC decomposition lives with the
//! fairness analysis in [`crate::oscillation`].
//!
//! States are interned in packed form (see [`crate::pack`]) inside a flat
//! word arena (see [`crate::arena`]) and the graph is built by the
//! parallel frontier engine ([`crate::frontier`]): state ids, counts,
//! edges, and truncation points are bit-identical at any thread count, and
//! identical to the retained sequential reference
//! ([`build_spec_reference`]) that the differential tests compare against.
//!
//! Both modes expand states through one packed kernel
//! ([`crate::exec_packed`]): successors are computed directly on the packed
//! words, never materializing a [`NetworkState`] per candidate. Reduced
//! builds then run the reduction layer's word-level normal form and
//! symmetry canonicalization ([`crate::reduce`]) on the same words.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use routelab_core::dims::NeighborScope;
use routelab_core::model::CommModel;
use routelab_engine::index::ChannelIndex;
use routelab_engine::state::NetworkState;
use routelab_spp::{NodeId, SppInstance};

use crate::arena::NodeArena;
use crate::effects::{CanonicalStep, Spec};
use crate::error::ExploreError;
use crate::exec_packed::{Applied, ExecTables, PackedScratch};
use crate::frontier::{self, BfsOptions, BfsResult, FrontierStats, SuccBuf};
use crate::pack::StateCodec;
use crate::reduce::{CanonScratch, Reducer, ReductionStats, SymTables};

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

/// The state-independent payload of an edge label: the canonical step and
/// the channel sets derived from it. Shared behind an [`Arc`] — the
/// expansion interns one `StepInfo` per distinct step and hands out
/// handles, so labeling millions of edges costs reference counts, not
/// allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A labeled transition of the state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeLabel {
    /// Target state index.
    pub to: usize,
    /// The shared step descriptor (step plus attended/kept/dropped sets);
    /// equality is by content, so differential comparisons are unaffected
    /// by which build interned the handle.
    pub info: Arc<StepInfo>,
    /// `true` when the step changes some π.
    pub changes_pi: bool,
    /// Symmetry-group element that canonicalized the raw successor into
    /// `to` (0 = identity, i.e. the successor was already canonical). Only
    /// nonzero in reduced builds of symmetric instances; fairness analysis
    /// un-folds the quotient through these annotations.
    pub sym: u16,
}

impl EdgeLabel {
    /// Dense channel ids the step attends.
    pub fn attended(&self) -> &[usize] {
        &self.info.attended
    }

    /// Channels on which a message was learned (kept).
    pub fn kept(&self) -> &[usize] {
        &self.info.kept
    }

    /// Channels on which at least one message was dropped.
    pub fn dropped(&self) -> &[usize] {
        &self.info.dropped
    }

    /// The canonical step generating this transition (for witness replay).
    pub fn step(&self) -> &crate::effects::CanonicalStep {
        &self.info.step
    }
}

/// The explored portion of a model's state graph. States live packed in a
/// [`NodeArena`]; read them with [`StateGraph::packed`]/[`StateGraph::state`]
/// or query the cheap packed predicates through [`StateGraph::codec`].
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
    pub edges: Vec<Vec<EdgeLabel>>,
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

/// The frontier label of a graph edge: [`EdgeLabel`] minus the target id
/// (which only exists after dedup).
#[derive(Debug, Clone)]
pub(crate) struct EdgePayload {
    pub(crate) info: Arc<StepInfo>,
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
/// Lists hold ids into one table of shared [`StepInfo`] handles: a memo hit
/// allocates nothing and hashes no step, and every edge a step generates
/// shares its label data.
#[derive(Default)]
pub(crate) struct StepCatalog {
    /// The `max_steps` the memo was filled at.
    budget: usize,
    /// Per node: in-channel queue lengths → the node's steps.
    memo: Vec<HashMap<Box<[u16]>, NodeSteps>>,
    /// The memoized lists, concatenated, as ids into `infos`.
    lists: Vec<u32>,
    /// Every distinct step seen, by id.
    infos: Vec<Arc<StepInfo>>,
    ids: HashMap<CanonicalStep, u32>,
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

    /// The steps of the last [`StepCatalog::enumerate`]d state, in order.
    pub(crate) fn steps(&self) -> impl Iterator<Item = &Arc<StepInfo>> + '_ {
        self.steps.iter().map(|&id| &self.infos[id as usize])
    }
}

/// The id of `cs` in the catalog's step table, interning its shared
/// descriptor on first sight.
fn intern(
    infos: &mut Vec<Arc<StepInfo>>,
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
    infos.push(Arc::new(StepInfo { step: cs.clone(), attended, kept, dropped }));
    ids.insert(cs, id);
    id
}

impl StepInfo {
    /// This descriptor with absorbed reads merged in: the reduced edge
    /// attends (and keeps on) the channels its normal form drained.
    fn absorbing(&self, absorbed: &[usize]) -> StepInfo {
        let merge = |base: &[usize]| {
            let mut v = [base, absorbed].concat();
            v.sort_unstable();
            v.dedup();
            v
        };
        StepInfo {
            step: self.step.clone(),
            attended: merge(&self.attended),
            kept: merge(&self.kept),
            dropped: self.dropped.clone(),
        }
    }
}

/// Reusable per-worker scratch of [`GraphExpand::successor`].
#[derive(Default)]
struct SuccessorScratch {
    packed: PackedScratch,
    absorbed: Vec<usize>,
    canon: CanonScratch,
}

/// Reusable per-worker expansion scratch, kept for a whole build.
#[derive(Default)]
pub(crate) struct GraphScratch {
    succ: SuccessorScratch,
    catalog: StepCatalog,
}

impl Drop for GraphScratch {
    /// Flushes the catalog's per-node memo tallies to telemetry. The
    /// scratch is worker-private and lives for one build, so drops are the
    /// natural flush point; counters sum across workers in the summarizer.
    fn drop(&mut self) {
        let (hits, misses) = (self.catalog.hits, self.catalog.misses);
        if hits + misses == 0 {
            return;
        }
        if routelab_obs::enabled() {
            routelab_obs::counter("explore.stepcatalog.hits", hits);
            routelab_obs::counter("explore.stepcatalog.misses", misses);
        }
        if routelab_obs::trace_enabled() {
            routelab_obs::trace_counter("explore.stepcatalog.hits", hits);
            routelab_obs::trace_counter("explore.stepcatalog.misses", misses);
        }
    }
}

/// What one canonical step does to a parent under the build's normal forms.
enum Successor {
    /// A queue would exceed the channel cap: the transition is cut.
    Capped,
    /// The step preserves the state (covered by noop annotations).
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
    reduce: Option<&'a Reducer<'a>>,
}

impl GraphExpand<'_> {
    /// Applies one step to `node` (whose offsets `scratch.packed` holds),
    /// appending the successor's words to `words`; on anything but
    /// [`Successor::Edge`] the caller discards them. Reduced builds
    /// normalize the raw successor, cap-check it (set channels exempt),
    /// and canonicalize it under the symmetry group.
    fn successor(
        &self,
        node: &[u16],
        info: &Arc<StepInfo>,
        words: &mut Vec<u16>,
        scratch: &mut SuccessorScratch,
    ) -> Successor {
        let cs = &info.step;
        let mark = words.len();
        // Reduced builds cap after the normal form, which may shrink queues.
        let cap = if self.reduce.is_some() { usize::MAX } else { self.cfg.channel_cap };
        let Applied::Ok { new_rid, .. } =
            self.tables.apply(node, &mut scratch.packed, cs, cap, words)
        else {
            return Successor::Capped;
        };
        let changes_pi = new_rid != node[cs.node.index()];
        if let Some(red) = self.reduce {
            red.normalize_words(words, mark, &mut scratch.absorbed);
            if red.exceeds_cap_words(&words[mark..], self.cfg.channel_cap) {
                return Successor::Capped;
            }
        }
        // The self-loop test runs *before* canonicalization: a real
        // transition whose canonical image happens to equal the source is a
        // genuine quotient self-loop and must be kept.
        if &words[mark..] == node {
            return Successor::SelfLoop;
        }
        let Some(red) = self.reduce else {
            return Successor::Edge(EdgePayload { info: Arc::clone(info), changes_pi, sym: 0 });
        };
        let sym = red.canonicalize_words(&words[mark..], &mut scratch.canon);
        if sym != 0 {
            words.truncate(mark);
            words.extend_from_slice(scratch.canon.image());
        }
        // Absorbed reads make the label state-dependent; only those edges
        // get a descriptor of their own.
        let info = match scratch.absorbed.as_slice() {
            [] => Arc::clone(info),
            absorbed => Arc::new(info.absorbing(absorbed)),
        };
        Successor::Edge(EdgePayload { info, changes_pi, sym })
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
        out: &mut SuccBuf<EdgePayload>,
        scratch: &mut GraphScratch,
    ) -> Result<bool, ExploreError> {
        let GraphScratch { succ, catalog } = scratch;
        let mut truncated =
            catalog.enumerate(&self.tables, self.spec, self.cfg.max_steps_per_state, node);
        self.tables.prepare(node, &mut succ.packed);
        for info in catalog.steps() {
            let mark = out.mark();
            match self.successor(node, info, out.words(), succ) {
                Successor::Edge(payload) => out.commit(mark, payload),
                Successor::Capped => {
                    truncated = true;
                    out.cancel(mark);
                }
                Successor::SelfLoop => out.cancel(mark),
            }
        }
        Ok(truncated)
    }
}

/// The cell descriptor used for error attribution and telemetry.
pub(crate) fn cell_of(inst: &SppInstance, spec: Spec<'_>) -> String {
    match spec {
        Spec::Uniform(m) => format!("{inst} × {m}"),
        Spec::Hetero(_) => format!("{inst} × hetero"),
    }
}

fn assemble(
    codec: StateCodec,
    index: ChannelIndex,
    r: BfsResult<EdgePayload>,
    reduction: ReductionStats,
    sym: Option<Arc<SymTables>>,
) -> StateGraph {
    let pi_fp =
        (0..r.nodes.len() as u32).map(|i| codec.pi_fingerprint_words(r.nodes.node(i))).collect();
    let edges = r
        .edges
        .into_iter()
        .map(|out| {
            out.into_iter()
                .map(|(to, p)| EdgeLabel {
                    to: to as usize,
                    info: p.info,
                    changes_pi: p.changes_pi,
                    sym: p.sym,
                })
                .collect()
        })
        .collect();
    let g = StateGraph {
        codec,
        index,
        nodes: r.nodes,
        pi_fp,
        edges,
        truncated: r.truncated,
        stats: r.stats,
        reduction,
        sym,
    };
    if routelab_obs::enabled() {
        routelab_obs::gauge("explore.states", g.len() as u64);
        routelab_obs::gauge("explore.threads", g.stats.threads as u64);
        routelab_obs::gauge("explore.peak_frontier", g.stats.peak_frontier as u64);
        routelab_obs::gauge("explore.bytes_resident", g.stats.bytes_resident);
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

/// Builds the reachable state graph of `inst` under `model`.
///
/// For reliable all-messages models (`R1A`/`RMA`/`REA`) states are built
/// modulo the queue-to-newest-message abstraction, which is a bisimulation
/// there and keeps the polling state spaces finite without truncation.
///
/// # Panics
///
/// Panics on an [`ExploreError`] (route universe overflow, worker panic);
/// use [`try_build_spec`] to handle those.
pub fn build(inst: &SppInstance, model: CommModel, cfg: &ExploreConfig) -> StateGraph {
    build_spec(inst, Spec::Uniform(model), cfg)
}

/// Builds the reachable state graph for a uniform or heterogeneous model.
///
/// # Panics
///
/// Panics on an [`ExploreError`]; use [`try_build_spec`] to handle those.
pub fn build_spec(inst: &SppInstance, spec: Spec<'_>, cfg: &ExploreConfig) -> StateGraph {
    try_build_spec(inst, spec, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds the reachable state graph, reporting failures as typed errors
/// attributed to the gadget × model cell.
///
/// # Errors
///
/// Any [`ExploreError`] raised while interning or expanding states.
pub fn try_build_spec(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Result<StateGraph, ExploreError> {
    build_with(inst, spec, cfg, false)
}

/// The retained sequential reference build: same output contract as
/// [`try_build_spec`], but computed by the plain one-queue-one-map loop.
/// The differential tests assert both agree bit-for-bit.
///
/// # Errors
///
/// Any [`ExploreError`] raised while interning or expanding states.
pub fn build_spec_reference(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Result<StateGraph, ExploreError> {
    build_with(inst, spec, cfg, true)
}

fn build_with(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
    reference: bool,
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
    // Reduced builds collapse queues per channel in their normal form; the
    // whole-model newest-collapse is the unreduced build's.
    let collapse = reducer.is_none() && spec.collapsible();
    let tables = ExecTables::new(&index, &codec, collapse);
    let exp = GraphExpand { spec, cfg, tables, reduce: reducer.as_ref() };
    let opts = BfsOptions {
        threads: cfg.resolved_threads(),
        max_nodes: cfg.max_states,
        record_edges: true,
        record_parents: false,
        progress_label: "explore.states",
    };
    let r = if reference {
        frontier::bfs_reference(&exp, &root, &cell, &opts)?
    } else {
        frontier::bfs(&exp, &root, &cell, &opts)?
    };
    let (reduction, sym) = match reducer {
        Some(red) => (red.stats(), red.sym.clone()),
        None => (ReductionStats::default(), None),
    };
    Ok(assemble(codec, index, r, reduction, sym))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;

    /// Every component of `g`: the analysis's Tarjan over all states, no
    /// edge filtered.
    fn sccs(g: &StateGraph) -> Vec<Vec<usize>> {
        let mut tarjan = crate::oscillation::Tarjan::default();
        let all: Vec<u32> = (0..g.len() as u32).collect();
        tarjan.run(g, &all, |_, _, _| true);
        tarjan.components().map(|c| c.iter().map(|&s| s as usize).collect()).collect()
    }

    #[test]
    fn line2_graph_is_tiny_and_complete() {
        let inst = gadgets::line2();
        let g = build(&inst, "REA".parse().unwrap(), &ExploreConfig::default());
        assert!(!g.truncated);
        // Initial, d-announced, v-learned, v-announcement-consumed…
        assert!(g.len() <= 8, "{}", g.len());
        // From the converged terminal state there are no outgoing edges.
        let terminal = (0..g.len())
            .find(|&i| g.codec.is_quiescent_words(g.nodes.node(i as u32)))
            .expect("line2 reaches quiescence");
        assert!(g.edges[terminal].is_empty());
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
        let raw =
            build(&inst, "R1O".parse().unwrap(), &ExploreConfig { reduce: false, ..cfg.clone() });
        assert!(raw.truncated);
        let g = build(&inst, "R1O".parse().unwrap(), &cfg);
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
        let g = build(&inst, "RMA".parse().unwrap(), &ExploreConfig::default());
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
        let g = build(&inst, "RMS".parse().unwrap(), &cfg);
        assert!(g.truncated);
        assert!(g.len() <= 4);
    }

    #[test]
    fn scc_decomposition_covers_all_states() {
        let inst = gadgets::disagree();
        let g = build(&inst, "REO".parse().unwrap(), &ExploreConfig::default());
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
            let tables = ExecTables::new(&g.index, &g.codec, false);
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
                    let got: Vec<&CanonicalStep> = catalog.steps().map(|info| &info.step).collect();
                    assert_eq!(got, want.iter().collect::<Vec<_>>(), "{at}");
                }
                assert!(catalog.hits > 0, "{cell} reduce={reduce} budget {budget}");
            }
        }
    }

    /// The per-node catalog against the step oracle at budgets that cut:
    /// every corpus gadget × the 24 models, plus a heterogeneous spec
    /// whose nodes differ in scope and policy.
    #[test]
    fn step_catalog_matches_all_steps_at_cutting_budgets() {
        use routelab_core::dims::{MessagePolicy, NeighborScope};
        use routelab_core::hetero::{HeteroModel, NodeModel};

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
        let inst = gadgets::fig6();
        let mut h = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        for v in inst.nodes() {
            let i = v.index();
            let (scope, messages) = (NeighborScope::ALL[i % 3], MessagePolicy::ALL[i % 4]);
            h.set_node(v, NodeModel { scope, messages });
        }
        let first = ChannelIndex::new(inst.graph()).channel(0);
        h.set_lossy(first);
        check_catalog_budgets("FIG6 × hetero", &inst, Spec::Hetero(&h));
    }

    /// Checks every parent × canonical step of one budgeted reduced BFS
    /// against the oracle: decode → `execute_step` → the `NetworkState`
    /// normal form → encode → canonicalize must give the packed successor,
    /// with the same cap verdict, absorbed channels, symmetry element,
    /// label and reduction counters.
    fn check_reduced_steps(name: &str, inst: &SppInstance, model: CommModel, cap: usize) {
        use crate::effects::all_steps;
        use routelab_engine::exec::execute_step;

        let spec = Spec::Uniform(model);
        let cell = format!("{name} × {model} @cap {cap}");
        let cfg = ExploreConfig {
            channel_cap: cap,
            max_states: 2_000,
            threads: Some(1),
            ..ExploreConfig::default()
        };
        let g = try_build_spec(inst, spec, &cfg).unwrap();
        let (index, codec) = (&g.index, &g.codec);
        let packed = Reducer::new(inst, index, codec, spec);
        let oracle = Reducer::new(inst, index, codec, spec);
        let exp = GraphExpand {
            spec,
            cfg: &cfg,
            tables: ExecTables::new(index, codec, false),
            reduce: Some(&packed),
        };
        let mut scratch = GraphScratch::default();
        let (mut words, mut absorbed, mut enc) = (Vec::new(), Vec::new(), Vec::new());
        let mut canon = CanonScratch::default();
        for i in 0..g.len() {
            let node = g.nodes.node_vec(i as u32);
            let state = codec.decode_words(&node).unwrap();
            let (steps, capped) =
                all_steps(spec, index, &state, inst.node_count(), cfg.max_steps_per_state);
            let cut = scratch.catalog.enumerate(&exp.tables, spec, cfg.max_steps_per_state, &node);
            assert_eq!(cut, capped, "{cell}");
            let infos: Vec<Arc<StepInfo>> = scratch.catalog.steps().cloned().collect();
            assert_eq!(infos.len(), steps.len(), "{cell}");
            exp.tables.prepare(&node, &mut scratch.succ.packed);
            for (info, cs) in infos.iter().zip(steps) {
                assert_eq!(info.step, cs, "{cell}");
                let mut next = state.clone();
                let effect = execute_step(inst, index, &mut next, &cs.to_activation(spec, index));
                oracle.normalize(&mut next, &mut absorbed);
                words.clear();
                let got = exp.successor(&node, info, &mut words, &mut scratch.succ);
                assert_eq!(scratch.succ.absorbed, absorbed, "{cell} {cs:?}");
                let capped = oracle.exceeds_cap(&next, cap);
                codec.encode_into(&next, &mut enc).unwrap();
                match got {
                    Successor::Capped => assert!(capped, "{cell} {cs:?}"),
                    Successor::SelfLoop => assert!(!capped && enc == node, "{cell} {cs:?}"),
                    Successor::Edge(payload) => {
                        assert!(!capped && enc != node, "{cell} {cs:?}");
                        let sym = oracle.canonicalize_words(&enc, &mut canon);
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
                        assert_eq!(*payload.info, want, "{cell}");
                    }
                }
                assert_eq!(packed.stats(), oracle.stats(), "{cell}");
            }
        }
    }

    /// The packed reduced step against its oracle on every corpus gadget ×
    /// the 24 models at channel caps 2 and 3, one thread per gadget.
    #[test]
    fn reduced_packed_step_matches_the_engine_oracle() {
        let corpus = gadgets::corpus();
        std::thread::scope(|s| {
            for (name, inst) in &corpus {
                s.spawn(move || {
                    for model in CommModel::all() {
                        for cap in [2, 3] {
                            check_reduced_steps(name, inst, model, cap);
                        }
                    }
                });
            }
        });
    }
}
