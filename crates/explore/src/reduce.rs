//! The state-space reduction layer: verdict-preserving normal forms and
//! symmetry quotients for the frontier engine.
//!
//! Four reductions compose, each exact for the fair-oscillation question
//! (soundness arguments in EXPERIMENTS.md):
//!
//! 1. **Observational route-class projection.** A route in channel
//!    `c = (u, v)` — queued or already learned as ρ — influences the
//!    execution in exactly one way: through the candidate extension
//!    `(v)·r` in `v`'s best-route computation. Routes whose extension is
//!    not permitted at `v` (and ε, and everything at channels into the
//!    destination) are therefore observationally interchangeable, and the
//!    normal form projects them all onto ε, the class representative. The
//!    projection is a strong bisimulation respecting π, quiescence and the
//!    fairness labels: step enumeration depends only on queue lengths
//!    (which it preserves), reads learn pointwise-equivalent values, and
//!    choices, announcements and drops are unchanged. It also makes the
//!    absorbed-read normalization below *class-aware* — a pending
//!    announcement that is merely equivalent to ρ pops just like an equal
//!    one — which is where most of its state-count reduction comes from.
//! 2. **Absorbed-read normalization** (partial-order reduction). A message
//!    at the head of channel `c` that equals the channel's ρ is *absorbed*
//!    when read: ρ keeps its value, the reader's re-choice is a no-op (π is
//!    always consistent with the ρ vector), nothing is announced. That read
//!    therefore commutes with every other enabled activation, and the
//!    explorer expands only the canonical interleaving in which it fires
//!    immediately — successors are normalized by popping absorbed heads.
//!    Applied only where the standalone absorbing read is a real step of
//!    the model: readers of scope `1`/`M` (scope `E` must read all
//!    channels at once), any policy for which a head-keeping read exists
//!    (`O`/`F`/`S` directly; `A` via the newest-collapse below, which
//!    leaves at most one message). Each popped channel is recorded on the
//!    merged edge as attended *and* kept, preserving the fairness labels.
//! 3. **Per-channel newest-collapse.** For a reliable channel whose reader
//!    is on policy `A`, a read always consumes the whole queue and learns
//!    only the newest message — older entries are unobservable. This
//!    refines the previous whole-model `collapsible()` gate to single
//!    channels, so heterogeneous and mixed-policy models benefit too.
//! 4. **Unreliable-All set-collapse.** For an *unreliable* channel whose
//!    reader is on policy `A`, a read consumes the whole queue and ρ
//!    becomes any one element (or none); order and multiplicity are
//!    unobservable, so the queue is kept as a sorted, deduplicated set.
//!    Such channels are bounded by the sender's announcement universe and
//!    are therefore exempt from the channel cap — the `U·A` state spaces
//!    become finite and the survey's `?` cells decidable.
//!
//! These are per-channel modes (`ChannelMode`, chosen by
//! `channel_modes`), and the step kernel ([`crate::exec_packed`]) applies
//! them as it writes a successor, to the channels the step consumes from or
//! appends to and to no other: every stored state is already in normal
//! form (the root has empty queues, successors are written in it, and
//! symmetry images keep it), and a channel the step leaves alone keeps its
//! ρ and its queue. On a touched channel, only an appended word can need
//! projecting (`ChannelMode::project`); `ChannelMode::settle` then
//! collapses the queue and pops its absorbed heads against the new ρ.
//!
//! On top, **symmetry reduction**: states are canonicalized to the
//! lexicographically least image under the instance's automorphism group
//! (detected once per gadget in `routelab_spp::automorphism`). Each edge
//! records which group element canonicalized its target; fairness analysis
//! walks the quotient's orbit unfolding through these elements, in place,
//! because per-channel attendance is not group-invariant (the
//! Emerson–Sistla caveat), so running the Streett-style check directly on
//! the quotient would be unsound.

use std::sync::atomic::{AtomicU64, Ordering};

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_engine::index::ChannelIndex;
#[cfg(test)]
use routelab_engine::state::NetworkState;
#[cfg(test)]
use routelab_spp::Route;
use routelab_spp::{
    automorphisms, Channel, NodeId, RouteId, RouteTable, SppInstance, NO_CANDIDATE,
};

use crate::effects::Spec;
use crate::pack::StateCodec;

/// Aggregated reduction activity of one graph build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// `true` when the build ran with the reduction layer on.
    pub enabled: bool,
    /// Learned or queued routes projected onto their observational class
    /// representative (unusable-at-the-reader routes becoming ε).
    pub canon_rewrites: u64,
    /// Messages removed by absorbed-read normalization.
    pub absorb_pops: u64,
    /// Queues rewritten by the unreliable-All set collapse.
    pub set_collapses: u64,
    /// Successors replaced by a lexicographically smaller symmetric image.
    pub sym_hits: u64,
    /// Order of the instance's automorphism group (1 = no usable symmetry).
    pub group_order: usize,
}

/// How a build keeps one channel's queue in normal form. The default is
/// the literal queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChannelMode {
    /// Project routes onto their observational class (reduced builds).
    project: bool,
    /// Collapse to the newest message (reliable, policy-`A` reader).
    newest: bool,
    /// Collapse to a sorted set (unreliable, policy-`A` reader); exempt
    /// from the channel cap.
    pub(crate) set: bool,
    /// Pop absorbed heads (scope-`1`/`M` reader with a head-keeping read).
    absorb: bool,
}

/// Normal-form activity of one successor, added to the build's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Routes projected onto ε.
    rewrites: u64,
    /// Absorbed heads popped.
    pops: u64,
    /// Queues sorted and deduplicated by the set collapse.
    collapses: u64,
}

fn mode_for(spec: Spec<'_>, index: &ChannelIndex, c: usize) -> ChannelMode {
    let ch = index.channel(c);
    let policy = spec.messages(ch.to);
    let scope = spec.scope(ch.to);
    let all = policy == MessagePolicy::All;
    let unreliable = spec.reliability(ch) == Reliability::Unreliable;
    let set = all && unreliable;
    ChannelMode {
        project: true,
        newest: all && !unreliable,
        set,
        // For a set-collapsed queue "head" is meaningless, and a scope-E
        // reader cannot perform the standalone absorbing read.
        absorb: scope != NeighborScope::Every && !set,
    }
}

/// The per-channel normal form a graph build keeps its states in: the
/// reduction layer's modes when `reduce` is on; otherwise the whole-model
/// newest-collapse on every channel when the model is collapsible
/// (reliable, every node on policy `A`), a bisimulation there, and else
/// the literal queues.
pub(crate) fn channel_modes(
    spec: Spec<'_>,
    index: &ChannelIndex,
    reduce: bool,
) -> Vec<ChannelMode> {
    (0..index.len())
        .map(|c| match reduce {
            true => mode_for(spec, index, c),
            false => ChannelMode { newest: spec.collapsible(), ..ChannelMode::default() },
        })
        .collect()
}

impl ChannelMode {
    /// The word route `id` is stored as on channel `c`: its class
    /// representative ε when this mode projects and the channel's reader
    /// cannot extend it (it has no candidate position), else `id`.
    pub(crate) fn project(self, table: &RouteTable, c: usize, id: u16, tally: &mut Tally) -> u16 {
        if self.project && id != 0 && table.candidate_pos(c, RouteId(u32::from(id))) == NO_CANDIDATE
        {
            tally.rewrites += 1;
            0
        } else {
            id
        }
    }

    /// Settles channel `c`'s queue `q`, whose words are already projected,
    /// into normal form against the channel's ρ: the newest or set
    /// collapse, then absorbed-head pops, which add `c` to `absorbed`.
    /// Projection comes first because it can only create further absorb,
    /// newest and set-dedup opportunities, never destroy them. Returns the
    /// settled length: the queue is `q[..len]`. `order` is the route
    /// order ([`route_order`]) when this mode is a set collapse.
    pub(crate) fn settle(
        self,
        c: usize,
        rho: u16,
        q: &mut [u16],
        order: &[u32],
        tally: &mut Tally,
        absorbed: &mut Vec<usize>,
    ) -> usize {
        let mut len = q.len();
        if self.newest && len > 1 {
            q[0] = q[len - 1];
            len = 1;
        }
        let key = |id: &u16| order[usize::from(*id)];
        if self.set && !q.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            q.sort_unstable_by_key(key);
            len = 1;
            for k in 1..q.len() {
                if q[k] != q[len - 1] {
                    q[len] = q[k];
                    len += 1;
                }
            }
            tally.collapses += 1;
        }
        if self.absorb {
            let popped = q[..len].iter().take_while(|&&id| id == rho).count();
            if popped > 0 {
                q.copy_within(popped..len, 0);
                len -= popped;
                tally.pops += popped as u64;
                absorbed.push(c);
            }
        }
        len
    }
}

/// Per-build reduction state: symmetry tables and counters. The queue
/// normal form itself ([`channel_modes`]) runs inside the step kernel.
#[derive(Debug)]
pub(crate) struct Reducer {
    pub(crate) sym: Option<SymTables>,
    canon_rewrites: AtomicU64,
    pops: AtomicU64,
    set_collapses: AtomicU64,
    sym_hits: AtomicU64,
    /// The channel modes, for the [`NetworkState`] oracle.
    #[cfg(test)]
    modes: Vec<ChannelMode>,
    /// The usable sets as routes, for the [`NetworkState`] oracle.
    #[cfg(test)]
    usable_routes: Vec<Vec<Route>>,
}

/// The per-channel usable-route sets of the class projection, the oracle
/// of the table's candidate positions: for `c = (u, v)`, the tails of
/// `v`'s permitted paths whose next hop is `u`. On reachable states
/// (channel contents are announcements of `u`, i.e. routes sourced at `u`,
/// or ε) membership coincides exactly with [`SppInstance::candidate`]
/// succeeding at `v`. Channels into the destination get the empty set:
/// `d`'s choice is always `(d)`.
#[cfg(test)]
fn usable_routes(inst: &SppInstance, index: &ChannelIndex) -> Vec<Vec<Route>> {
    (0..index.len())
        .map(|c| {
            let ch = index.channel(c);
            let mut u: Vec<Route> = inst
                .permitted(ch.to)
                .iter()
                .filter(|rp| rp.path.len() >= 2 && rp.path.next_hop() == Some(ch.from))
                .map(|rp| Route::path(rp.path.suffix(1)))
                .collect();
            u.sort_unstable();
            u.dedup();
            u
        })
        .collect()
}

/// `order[id]` = the position of route `id` when the table's universe is
/// sorted by [`routelab_spp::Route`]'s ordering: the one route-order key
/// of the reduction layer, by which the set collapse sorts queues and
/// symmetry images re-sort them.
pub(crate) fn route_order(table: &RouteTable) -> Vec<u32> {
    let route = |id: u32| table.route(RouteId(id));
    let mut by_route: Vec<u32> = (0..table.len() as u32).collect();
    by_route.sort_unstable_by(|&a, &b| route(a).cmp(route(b)));
    let mut order = vec![0u32; by_route.len()];
    for (k, &id) in by_route.iter().enumerate() {
        order[id as usize] = k as u32;
    }
    order
}

impl Reducer {
    pub(crate) fn new(
        inst: &SppInstance,
        index: &ChannelIndex,
        codec: &StateCodec,
        spec: Spec<'_>,
    ) -> Self {
        Reducer {
            sym: SymTables::detect(inst, index, codec, spec),
            canon_rewrites: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            set_collapses: AtomicU64::new(0),
            sym_hits: AtomicU64::new(0),
            #[cfg(test)]
            modes: channel_modes(spec, index, true),
            #[cfg(test)]
            usable_routes: usable_routes(inst, index),
        }
    }

    /// Adds one successor's normal-form activity to the counters.
    pub(crate) fn count(&self, t: &Tally) {
        if t.rewrites > 0 {
            self.canon_rewrites.fetch_add(t.rewrites, Ordering::Relaxed);
        }
        if t.pops > 0 {
            self.pops.fetch_add(t.pops, Ordering::Relaxed);
        }
        if t.collapses > 0 {
            self.set_collapses.fetch_add(t.collapses, Ordering::Relaxed);
        }
    }

    /// Canonicalizes packed words under the symmetry group: the group
    /// element applied, 0 when `ws` is already canonical. A nonzero element
    /// leaves the strictly smaller image in `scratch` (see
    /// [`CanonScratch::image`]).
    pub(crate) fn canonicalize_words(&self, ws: &[u16], scratch: &mut CanonScratch) -> u16 {
        let Some(t) = &self.sym else { return 0 };
        let g = t.canonicalize_words(ws, scratch);
        if g != 0 {
            self.sym_hits.fetch_add(1, Ordering::Relaxed);
        }
        g
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> ReductionStats {
        ReductionStats {
            enabled: true,
            canon_rewrites: self.canon_rewrites.load(Ordering::Relaxed),
            absorb_pops: self.pops.load(Ordering::Relaxed),
            set_collapses: self.set_collapses.load(Ordering::Relaxed),
            sym_hits: self.sym_hits.load(Ordering::Relaxed),
            group_order: self.sym.as_ref().map_or(1, |t| t.order()),
        }
    }
}

/// The [`NetworkState`] forms of the reduced normal form and the cap
/// test: the oracle the step kernel's per-channel forms are
/// differentially tested against.
#[cfg(test)]
impl Reducer {
    /// Every channel's [`ChannelMode::project`] and [`ChannelMode::settle`]
    /// on a decoded state.
    pub(crate) fn normalize(&self, next: &mut NetworkState, absorbed: &mut Vec<usize>) {
        absorbed.clear();
        let mut t = Tally::default();
        for (c, mode) in self.modes.iter().enumerate() {
            let usable = &self.usable_routes[c];
            t.rewrites += next.rewrite_channel_routes(c, |r| {
                (!r.is_epsilon() && usable.binary_search(r).is_err()).then(Route::empty)
            }) as u64;
            if mode.newest {
                next.collapse_queue_to_newest(c);
            }
            if mode.set && next.collapse_queue_to_set(c) {
                t.collapses += 1;
            }
            if mode.absorb {
                let popped = next.absorb_queue_head(c);
                if popped > 0 {
                    t.pops += popped as u64;
                    absorbed.push(c);
                }
            }
        }
        self.count(&t);
    }

    /// The channel-cap test on a decoded state, skipping set-collapsed
    /// channels (their size is bounded by the sender's announcement
    /// universe, not the cap).
    pub(crate) fn exceeds_cap(&self, s: &NetworkState, cap: usize) -> bool {
        self.modes.iter().enumerate().any(|(c, m)| !m.set && s.queue(c).len() > cap)
    }
}

/// Precomputed packed-layout action of the instance's automorphism group:
/// per group element, the node, channel, and route-id permutations, plus
/// the group's multiplication and inverse tables.
#[derive(Debug)]
pub(crate) struct SymTables {
    n: usize,
    m: usize,
    elems: Vec<SymElem>,
    inv: Vec<usize>,
    mult: Vec<Vec<usize>>,
    /// Channels kept in set normal form (sorted by route order); their
    /// queue segments are re-sorted after a transform so images stay in
    /// normal form and lex-minimization compares like with like.
    set_channels: Vec<bool>,
    /// The reduction layer's route order (see [`route_order`]), the order
    /// the set collapse sorts queues by.
    sort_key: Vec<u32>,
}

#[derive(Debug)]
struct SymElem {
    node_map: Vec<usize>,
    channel_map: Vec<usize>,
    /// `channel_unmap[c'] = c` with `channel_map[c] = c'`.
    channel_unmap: Vec<usize>,
    route_map: Vec<u16>,
}

impl SymTables {
    /// Detects the automorphism group and compiles it against the codec's
    /// layout; `None` when the group is trivial.
    ///
    /// Instance automorphisms are filtered to those that also preserve the
    /// *model*: a heterogeneous spec can break the gadget's symmetry (e.g.
    /// DISAGREE with only one disputant polling), and folding states along
    /// a non-model symmetry would conflate inequivalent executions. The
    /// model-preserving automorphisms form a subgroup, so the group tables
    /// below stay closed.
    pub(crate) fn detect(
        inst: &SppInstance,
        index: &ChannelIndex,
        codec: &StateCodec,
        spec: Spec<'_>,
    ) -> Option<SymTables> {
        let auts: Vec<_> = automorphisms(inst)
            .into_iter()
            .filter(|a| {
                inst.nodes().all(|v| {
                    let w = a.apply(v);
                    spec.scope(v) == spec.scope(w) && spec.messages(v) == spec.messages(w)
                }) && (0..index.len()).all(|c| {
                    let ch = index.channel(c);
                    let img = Channel::new(a.apply(ch.from), a.apply(ch.to));
                    spec.reliability(ch) == spec.reliability(img)
                })
            })
            .collect();
        if auts.len() <= 1 {
            return None;
        }
        let (n, m, table) = (codec.n(), codec.m(), codec.table());
        let elems = auts
            .iter()
            .map(|a| {
                let node_map: Vec<usize> =
                    (0..n).map(|v| a.apply(NodeId(v as u32)).index()).collect();
                let channel_map: Vec<usize> = (0..m)
                    .map(|c| {
                        let ch = index.channel(c);
                        index
                            .id(Channel::new(a.apply(ch.from), a.apply(ch.to)))
                            .expect("automorphisms preserve the channel set")
                    })
                    .collect();
                let mut channel_unmap = vec![0usize; m];
                for (c, &cc) in channel_map.iter().enumerate() {
                    channel_unmap[cc] = c;
                }
                let route_map: Vec<u16> = (0..table.len() as u32)
                    .map(|id| {
                        codec
                            .route_id(&a.map_route(table.route(RouteId(id))))
                            .expect("automorphisms preserve the route universe")
                    })
                    .collect();
                SymElem { node_map, channel_map, channel_unmap, route_map }
            })
            .collect();
        let pos = |x: &routelab_spp::Automorphism| {
            auts.iter().position(|b| b == x).expect("automorphism groups are closed")
        };
        let inv: Vec<usize> = auts.iter().map(|a| pos(&a.inverse())).collect();
        let mult: Vec<Vec<usize>> =
            auts.iter().map(|a| auts.iter().map(|b| pos(&a.compose(b))).collect()).collect();
        let set_channels: Vec<bool> = (0..m).map(|c| mode_for(spec, index, c).set).collect();
        Some(SymTables { n, m, elems, inv, mult, set_channels, sort_key: route_order(table) })
    }

    /// Group order.
    pub(crate) fn order(&self) -> usize {
        self.elems.len()
    }

    /// Index of `g⁻¹`.
    pub(crate) fn inverse(&self, g: usize) -> usize {
        self.inv[g]
    }

    /// Index of `g ∘ h` (apply `h` first).
    pub(crate) fn compose(&self, g: usize, h: usize) -> usize {
        self.mult[g][h]
    }

    /// The image of dense channel `c` under element `g`.
    pub(crate) fn map_channel(&self, g: usize, c: usize) -> usize {
        self.elems[g].channel_map[c]
    }

    /// The image of a packed buffer under element `g` (same layout).
    #[cfg(test)]
    pub(crate) fn transform(&self, p: &[u16], g: usize) -> Vec<u16> {
        let (mut off, mut out) = (Vec::new(), Vec::new());
        self.queue_offsets(p, &mut off);
        self.transform_into(p, &off, g, &mut out);
        out
    }

    /// Writes the queue segment bounds of `p` to `off`: channel `c`'s queue
    /// is `p[off[c]..off[c + 1]]`.
    fn queue_offsets(&self, p: &[u16], off: &mut Vec<usize>) {
        let (n, m) = (self.n, self.m);
        off.clear();
        off.push(2 * n + 2 * m);
        for c in 0..m {
            off.push(off[c] + usize::from(p[2 * n + m + c]));
        }
    }

    /// Writes the image of `p` under element `g` to `out`, given `p`'s
    /// queue offsets (see [`SymTables::queue_offsets`]).
    fn transform_into(&self, p: &[u16], off: &[usize], g: usize, out: &mut Vec<u16>) {
        let e = &self.elems[g];
        let (n, m) = (self.n, self.m);
        out.clear();
        out.resize(p.len(), 0);
        for v in 0..n {
            out[e.node_map[v]] = e.route_map[usize::from(p[v])];
            out[n + e.node_map[v]] = e.route_map[usize::from(p[n + v])];
        }
        for c in 0..m {
            out[2 * n + e.channel_map[c]] = e.route_map[usize::from(p[2 * n + c])];
            out[2 * n + m + e.channel_map[c]] = p[2 * n + m + c];
        }
        // Queue contents: source segments, emitted in target order.
        let mut at = 2 * n + 2 * m;
        for tc in 0..m {
            let sc = e.channel_unmap[tc];
            let start = at;
            for &id in &p[off[sc]..off[sc + 1]] {
                out[at] = e.route_map[usize::from(id)];
                at += 1;
            }
            if self.set_channels[tc] {
                // Keep set-collapsed queues in their sorted normal form.
                out[start..at].sort_unstable_by_key(|&id| self.sort_key[usize::from(id)]);
            }
        }
        debug_assert_eq!(at, p.len());
    }

    /// The element whose image of `raw` is the lexicographically least of
    /// its orbit: 0 when `raw` is already the least, else the element that
    /// produced the image it leaves in `scratch`. Ties resolve to the
    /// smallest element index, so the result is a function of the buffer
    /// alone.
    pub(crate) fn canonicalize_words(&self, raw: &[u16], scratch: &mut CanonScratch) -> u16 {
        let CanonScratch { img, best, off } = scratch;
        self.queue_offsets(raw, off);
        let mut best_g = 0;
        for g in 1..self.elems.len() {
            self.transform_into(raw, off, g, img);
            let better = if best_g == 0 { img.as_slice() < raw } else { img < best };
            if better {
                std::mem::swap(img, best);
                best_g = g;
            }
        }
        best_g as u16
    }
}

/// Reusable buffers of symmetry canonicalization: the image under
/// construction, the least image so far, and the source's queue offsets.
#[derive(Debug, Default)]
pub(crate) struct CanonScratch {
    img: Vec<u16>,
    best: Vec<u16>,
    off: Vec<usize>,
}

impl CanonScratch {
    /// The image the last canonicalization that applied a nonzero element
    /// chose.
    pub(crate) fn image(&self) -> &[u16] {
        &self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;

    fn uniform() -> Spec<'static> {
        Spec::Uniform("R1O".parse().unwrap())
    }

    fn tables(inst: &SppInstance) -> (ChannelIndex, StateCodec, SymTables) {
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(inst, &index, "test-cell").expect("codec");
        let t = SymTables::detect(inst, &index, &codec, uniform()).expect("nontrivial group");
        (index, codec, t)
    }

    fn encode(codec: &StateCodec, s: &NetworkState) -> Vec<u16> {
        let mut words = Vec::new();
        codec.encode_into(s, &mut words).expect("reachable states encode");
        words
    }

    /// The least image of `p`'s orbit, with the element that produced it.
    fn canonicalize(t: &SymTables, p: Vec<u16>) -> (Vec<u16>, u16) {
        let mut scratch = CanonScratch::default();
        match t.canonicalize_words(&p, &mut scratch) {
            0 => (p, 0),
            g => (scratch.image().to_vec(), g),
        }
    }

    #[test]
    fn trivial_groups_detect_as_none() {
        let inst = gadgets::fig6();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        assert!(SymTables::detect(&inst, &index, &codec, uniform()).is_none());
    }

    #[test]
    fn hetero_models_break_instance_symmetry() {
        // DISAGREE's x↔y swap is an instance automorphism, but once only x
        // polls it no longer preserves the model — folding along it would
        // conflate inequivalent executions, so detection must reject it.
        use routelab_core::dims::{MessagePolicy, NeighborScope};
        use routelab_core::hetero::{HeteroModel, NodeModel};
        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        let mut h = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        assert!(SymTables::detect(&inst, &index, &codec, Spec::Hetero(&h)).is_some());
        h.set_node(
            inst.node_by_name("x").unwrap(),
            NodeModel { scope: NeighborScope::Every, messages: MessagePolicy::All },
        );
        assert!(SymTables::detect(&inst, &index, &codec, Spec::Hetero(&h)).is_none());
    }

    #[test]
    fn transform_round_trips_through_decode() {
        // The packed transform must equal the semantic action: decode,
        // relabel with the automorphism, re-encode.
        let inst = gadgets::disagree();
        let (index, codec, t) = tables(&inst);
        let auts = automorphisms(&inst);
        let mut state = NetworkState::initial(&inst, &index);
        // Drive a few steps to populate queues and ρ.
        use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
        use routelab_engine::exec::execute_step;
        for _ in 0..3 {
            for v in inst.nodes() {
                let actions = index
                    .in_channels(v)
                    .iter()
                    .map(|&cid| ChannelAction::read_all(index.channel(cid)))
                    .collect();
                let step = ActivationStep::single(NodeUpdate::new(v, actions));
                execute_step(&inst, &index, &mut state, &step);
                let p = encode(&codec, &state);
                for (g, a) in auts.iter().enumerate().take(t.order()) {
                    let img = t.transform(&p, g);
                    let back = codec.decode_words(&img).unwrap();
                    for v in inst.nodes() {
                        assert_eq!(*back.chosen(a.apply(v)), a.map_route(state.chosen(v)));
                        assert_eq!(*back.announced(a.apply(v)), a.map_route(state.announced(v)));
                    }
                    for c in 0..index.len() {
                        let ch = index.channel(c);
                        let cc = index
                            .id(Channel::new(a.apply(ch.from), a.apply(ch.to)))
                            .expect("channel image");
                        assert_eq!(*back.learned(cc), a.map_route(state.learned(c)));
                        let q: Vec<_> = state.queue(c).iter().map(|r| a.map_route(r)).collect();
                        let qq: Vec<_> = back.queue(cc).iter().cloned().collect();
                        assert_eq!(q, qq);
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent_and_invariant() {
        let inst = gadgets::bad_gadget();
        let (index, codec, t) = tables(&inst);
        let state = NetworkState::initial(&inst, &index);
        let p = encode(&codec, &state);
        for g in 0..t.order() {
            let img = t.transform(&p, g);
            let (canon, _) = canonicalize(&t, img);
            let (again, e2) = canonicalize(&t, canon.clone());
            assert_eq!(canon, again, "idempotent");
            assert_eq!(e2, 0, "canonical forms are fixed points");
            let (base, _) = canonicalize(&t, p.clone());
            assert_eq!(canon, base, "same orbit, same representative");
        }
    }

    #[test]
    fn group_tables_are_consistent() {
        let inst = gadgets::bad_gadget();
        let (_, _, t) = tables(&inst);
        for g in 0..t.order() {
            assert_eq!(t.compose(g, t.inverse(g)), 0);
            assert_eq!(t.compose(t.inverse(g), g), 0);
            assert_eq!(t.compose(g, 0), g);
            assert_eq!(t.compose(0, g), g);
        }
    }

    mod canonicalization_props {
        use super::*;
        use proptest::prelude::*;
        use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
        use routelab_engine::exec::execute_step;
        use routelab_spp::NodeId;

        /// A reachable state of a symmetric gadget: the initial state driven
        /// by an arbitrary finite activation walk (read-all activations of
        /// the chosen nodes, which reach a rich slice of the space).
        fn walk_state(inst: &SppInstance, index: &ChannelIndex, walk: &[usize]) -> NetworkState {
            let mut state = NetworkState::initial(inst, index);
            for &pick in walk {
                let v = NodeId((pick % inst.node_count()) as u32);
                let actions = index
                    .in_channels(v)
                    .iter()
                    .map(|&cid| ChannelAction::read_all(index.channel(cid)))
                    .collect();
                execute_step(
                    inst,
                    index,
                    &mut state,
                    &ActivationStep::single(NodeUpdate::new(v, actions)),
                );
            }
            state
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn idempotent_and_permutation_invariant(
                gadget in 0usize..3,
                walk in prop::collection::vec(0usize..64, 0..14),
            ) {
                let inst = match gadget {
                    0 => gadgets::disagree(),
                    1 => gadgets::bad_gadget(),
                    _ => gadgets::wheel(4),
                };
                let (index, codec, t) = tables(&inst);
                let state = walk_state(&inst, &index, &walk);
                let p = encode(&codec, &state);
                let (canon, _) = canonicalize(&t, p.clone());
                // Idempotence: a canonical form is its own representative.
                let (again, g2) = canonicalize(&t, canon.clone());
                prop_assert_eq!(&again, &canon);
                prop_assert_eq!(g2, 0);
                // Permutation invariance: every image of the orbit
                // canonicalizes to the same representative.
                for g in 0..t.order() {
                    let img = t.transform(&p, g);
                    let (c2, _) = canonicalize(&t, img);
                    prop_assert_eq!(&c2, &canon, "element {}", g);
                }
            }
        }
    }

    /// The per-channel normal form applied to every channel of packed
    /// `words`, which need not be in normal form: project ρ and every
    /// queued word, then settle the queue. Returns the normalized words,
    /// the absorbed channels and the tally.
    fn normalize_words(
        spec: Spec<'_>,
        index: &ChannelIndex,
        codec: &StateCodec,
        words: &[u16],
    ) -> (Vec<u16>, Vec<usize>, Tally) {
        let (n, m, table) = (codec.n(), codec.m(), codec.table());
        let (order, modes) = (route_order(table), channel_modes(spec, index, true));
        let (mut out, mut absorbed, mut t) =
            (words[..2 * n + 2 * m].to_vec(), Vec::new(), Tally::default());
        let mut read = 2 * n + 2 * m;
        for (c, mode) in modes.into_iter().enumerate() {
            let rho = mode.project(table, c, words[2 * n + c], &mut t);
            out[2 * n + c] = rho;
            let len = usize::from(words[2 * n + m + c]);
            let start = out.len();
            for &id in &words[read..read + len] {
                out.push(mode.project(table, c, id, &mut t));
            }
            read += len;
            let settled = mode.settle(c, rho, &mut out[start..], &order, &mut t, &mut absorbed);
            out.truncate(start + settled);
            out[2 * n + m + c] = settled as u16;
        }
        (out, absorbed, t)
    }

    /// Normalizes the initial state with `queues` in flight under both
    /// forms, asserts that they agree on the words, the absorbed channels
    /// and the counters, and returns the oracle's state, absorbed channels
    /// and counters.
    fn normalize_both(
        inst: &SppInstance,
        spec: Spec<'_>,
        queues: Vec<Vec<Route>>,
    ) -> (NetworkState, Vec<usize>, ReductionStats) {
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(inst, &index, "t").unwrap();
        let oracle = Reducer::new(inst, &index, &codec, spec);
        let init = NetworkState::initial(inst, &index);
        let mut s = NetworkState::from_parts(
            init.assignment(),
            inst.nodes().map(|v| init.announced(v).clone()).collect(),
            (0..index.len()).map(|c| init.learned(c).clone()).collect(),
            queues,
        );
        let (words, packed_absorbed, t) =
            normalize_words(spec, &index, &codec, &encode(&codec, &s));
        let mut absorbed = Vec::new();
        oracle.normalize(&mut s, &mut absorbed);
        let stats = oracle.stats();
        assert_eq!(words, encode(&codec, &s));
        assert_eq!(packed_absorbed, absorbed);
        assert_eq!(
            (t.rewrites, t.pops, t.collapses),
            (stats.canon_rewrites, stats.absorb_pops, stats.set_collapses)
        );
        (s, absorbed, stats)
    }

    #[test]
    fn class_projection_rewrites_unusable_routes_to_epsilon() {
        // FIG6: on channel (x, a) the route xd is usable (axd is permitted
        // at a) and must survive the projection; on (x, d) the same
        // announcement can never extend at the destination and projects
        // onto ε, where the absorbed-read normalization then pops it.
        let inst = gadgets::fig6();
        let index = ChannelIndex::new(inst.graph());
        let x = inst.node_by_name("x").unwrap();
        let a = inst.node_by_name("a").unwrap();
        let d = inst.dest();
        let xa = index.id(Channel::new(x, a)).unwrap();
        let xd = Route::path(inst.parse_path("xd").unwrap());
        let xd_chan = index.id(Channel::new(x, d)).unwrap();
        let mut queues = vec![Vec::new(); index.len()];
        // Usable on (x, a): survives the projection. Unusable on (x, d):
        // x's announcement can never extend at the destination.
        queues[xa].push(xd.clone());
        queues[xd_chan].push(xd.clone());
        let (s, absorbed, stats) = normalize_both(&inst, uniform(), queues);
        assert_eq!(s.queue(xa).peek(1), Some(&xd));
        // The unusable announcement became ε and was then absorbed against
        // the channel's ε ρ — the queue is empty and the edge must attend.
        assert!(s.queue(xd_chan).is_empty());
        assert_eq!(absorbed, vec![xd_chan]);
        assert_eq!(stats.canon_rewrites, 1);
        assert_eq!(stats.absorb_pops, 1);
    }

    #[test]
    fn usable_routes_are_those_with_a_candidate_position() {
        // The class projection's test on the table against its oracle, for
        // every route a channel's sender can announce.
        for (name, inst) in gadgets::corpus() {
            let index = ChannelIndex::new(inst.graph());
            let codec = StateCodec::new(&inst, &index, "t").unwrap();
            let (table, usable) = (codec.table(), usable_routes(&inst, &index));
            for (c, ch) in index.channels().iter().enumerate() {
                for pos in 0..table.route_count(ch.from) as u32 {
                    let id = table.route_id(ch.from, pos);
                    let oracle = usable[c].binary_search(table.route(id)).is_ok();
                    assert_eq!(table.candidate_pos(c, id) != NO_CANDIDATE, oracle, "{name} {ch}");
                }
            }
        }
    }

    #[test]
    fn set_collapse_sorts_by_route_order() {
        // FIG6 under U1A: v reads the unreliable channel (u, v) on policy
        // A, so its queue is a set. u ranks uazd above uaxd, so uazd has
        // the smaller route id, but uaxd is the smaller route.
        let inst = gadgets::fig6();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        let u = inst.node_by_name("u").unwrap();
        let v = inst.node_by_name("v").unwrap();
        let uv = index.id(Channel::new(u, v)).unwrap();
        let uazd = Route::path(inst.parse_path("uazd").unwrap());
        let uaxd = Route::path(inst.parse_path("uaxd").unwrap());
        assert!(codec.route_id(&uazd) < codec.route_id(&uaxd) && uaxd < uazd);
        let mut queues = vec![Vec::new(); index.len()];
        queues[uv] = vec![uazd.clone(), uaxd.clone(), uazd.clone()];
        let (s, _, stats) = normalize_both(&inst, Spec::Uniform("U1A".parse().unwrap()), queues);
        assert_eq!(s.queue(uv).iter().collect::<Vec<_>>(), vec![&uaxd, &uazd]);
        assert_eq!(stats.set_collapses, 1);
    }

    #[test]
    fn modes_follow_the_reader() {
        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        // R1A: reliable policy-A readers — newest-collapse + absorb.
        let spec = Spec::Uniform("R1A".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.newest && m.absorb && !m.set, "{m:?}");
        }
        // UEA: unreliable policy-A scope-E — set-collapse only.
        let spec = Spec::Uniform("UEA".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.set && !m.absorb && !m.newest, "{m:?}");
        }
        // REO: reliable scope-E policy-O — nothing applies.
        let spec = Spec::Uniform("REO".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(!m.set && !m.absorb && !m.newest, "{m:?}");
        }
        // U1O: unreliable scope-1 policy-O — absorb only.
        let spec = Spec::Uniform("U1O".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.absorb && !m.set && !m.newest, "{m:?}");
        }
    }
}
