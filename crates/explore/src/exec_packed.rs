//! Packed-space step execution: the explorer's one step kernel.
//!
//! Expanding a state through the engine costs, per candidate successor:
//! decode the parent into a [`NetworkState`] (dozens of `Route` clones),
//! clone it, run [`execute_step`](routelab_engine::exec::execute_step), and
//! re-encode — all to produce one flat `u16` buffer differing from the
//! parent in a handful of slots. This module instead applies a
//! [`CanonicalStep`] *directly on the packed words*, for graph builds and
//! witness search ([`crate::trace_search`]) alike, and writes the
//! successor already in the build's queue normal form.
//!
//! The key observation: in packed space, one activation step is pure
//! integer lookups. Processing a channel effect `(consume i, keep j)` sets
//! ρ to the queue word at offset `j-1` and drops the first `i` queue words;
//! the re-choice is [`RouteTable::choose`] over the codec's table, the
//! same rule the engine's interned kernel runs; announcing appends one
//! word to each out-channel queue. No routes are ever materialized.
//!
//! Every state a build stores is in its normal form (`channel_modes`):
//! the root has empty queues, successors are written in it, and symmetry
//! images keep it. A step changes only the channels it consumes from or
//! appends to, so only those can leave the normal form. The kernel settles
//! each of them as it writes it (projection of the appended word, newest or
//! set collapse, absorbed-head pops) and cap-checks it; every other channel
//! copies verbatim. A step that consumes nothing changes no queue and no ρ,
//! so it is a self-loop exactly when its updater's choice already equals
//! the route it has chosen and announced (`ExecTables::is_self_loop`).
//!
//! Equivalence with the engine (pinned by the differential tests below and
//! in [`crate::graph`], and by the graph-level suites):
//!
//! * [`RouteTable::choose`] reproduces `choose_best` (its own tests pin
//!   it to that oracle).
//! * ρ is updated only when a message is kept (`keep = Some(j)`), exactly
//!   when `FifoChannel::process` reports a learned route.
//! * π and the announcement are written under the same conditions as
//!   `execute_step` phase 3, and the unreduced build's newest-collapse for
//!   reliable policy-`A` models is applied per queue, as
//!   [`NetworkState::collapse_queues_to_newest`] does.
//!
//! [`NetworkState`]: routelab_engine::state::NetworkState
//! [`NetworkState::collapse_queues_to_newest`]: routelab_engine::state::NetworkState::collapse_queues_to_newest

use routelab_engine::index::ChannelIndex;
use routelab_spp::{NodeId, RouteId, RouteTable};

use crate::effects::{node_steps_with, CanonicalStep, Spec};
use crate::pack::StateCodec;
use crate::reduce::{route_order, ChannelMode, Tally};

/// Packed-space execution over one codec's route table and channel index.
#[derive(Debug)]
pub(crate) struct ExecTables<'a> {
    n: usize,
    m: usize,
    table: &'a RouteTable,
    index: &'a ChannelIndex,
    /// Per channel, the normal form a touched queue is settled into.
    modes: Vec<ChannelMode>,
    /// The route order set-collapsed queues sort by (empty without them).
    order: Vec<u32>,
}

/// Reusable per-worker scratch: per-parent data of [`ExecTables::prepare`],
/// plus the per-candidate patch list and normal-form activity of
/// [`ExecTables::apply`].
#[derive(Debug, Default)]
pub(crate) struct PackedScratch {
    qstart: Vec<usize>,
    /// Per node: its choice over the parent's ρ equals the route it has
    /// chosen and announced, so a step of it that consumes nothing is a
    /// self-loop.
    idle: Vec<bool>,
    touch: Vec<Touch>,
    /// Channels whose absorbed heads the last `apply` popped.
    pub(crate) absorbed: Vec<usize>,
    /// Normal-form activity of the last `apply`, capped or not.
    pub(crate) tally: Tally,
}

/// One channel whose queue a candidate step changes; every other channel's
/// length word and contents copy verbatim from the parent.
#[derive(Debug, Clone, Copy)]
struct Touch {
    c: usize,
    consume: usize,
    append: bool,
}

/// Outcome of applying one step in packed space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Applied {
    /// The successor words were written; `new_rid` is the updater's chosen
    /// route afterwards, `announcing` whether phase 3 wrote to channels.
    Ok { new_rid: u16, announcing: bool },
    /// Some queue would exceed the channel cap; nothing meaningful written
    /// (the caller must discard the partial output).
    Capped,
}

impl<'a> ExecTables<'a> {
    /// The kernel over `codec`'s layout, keeping each channel's queue in
    /// the normal form `modes` gives it.
    pub(crate) fn new(
        index: &'a ChannelIndex,
        codec: &'a StateCodec,
        modes: Vec<ChannelMode>,
    ) -> Self {
        let table = codec.table();
        let order = if modes.iter().any(|mode| mode.set) { route_order(table) } else { Vec::new() };
        ExecTables { n: codec.n(), m: codec.m(), table, index, modes, order }
    }

    /// Computes the queue start offsets and the per-node self-loop test of
    /// `node` into `scratch` — once per parent, shared by all its
    /// candidate applications.
    pub(crate) fn prepare(&self, node: &[u16], scratch: &mut PackedScratch) {
        let (n, m) = (self.n, self.m);
        scratch.qstart.clear();
        scratch.qstart.reserve(m);
        let mut at = 2 * n + 2 * m;
        for c in 0..m {
            scratch.qstart.push(at);
            at += usize::from(node[2 * n + m + c]);
        }
        scratch.idle.clear();
        scratch.idle.extend((0..n).map(|v| {
            let rho = |c: usize| RouteId(u32::from(node[2 * n + c]));
            let ins = self.index.in_channels(NodeId(v as u32));
            let choice = self.table.choose(NodeId(v as u32), ins, rho).0;
            choice == u32::from(node[v]) && choice == u32::from(node[n + v])
        }));
    }

    /// `true` when `cs` leaves the prepared parent as it is: it consumes
    /// nothing, so ρ and every queue stay, and its updater's choice over
    /// them already equals the route it has chosen and announced, so
    /// nothing is chosen or announced anew.
    pub(crate) fn is_self_loop(&self, scratch: &PackedScratch, cs: &CanonicalStep) -> bool {
        scratch.idle[cs.node.index()] && cs.effects.iter().all(|e| e.consume == 0)
    }

    /// Queue length of channel `c` in `node`.
    pub(crate) fn queue_len(&self, node: &[u16], c: usize) -> usize {
        usize::from(node[2 * self.n + self.m + c])
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// The canonical steps of updater `v` in `node` at budget `max_steps`,
    /// and whether the budget cut them.
    pub(crate) fn node_steps(
        &self,
        spec: Spec<'_>,
        node: &[u16],
        v: NodeId,
        max_steps: usize,
    ) -> (Vec<CanonicalStep>, bool) {
        node_steps_with(spec, self.index, &|c| self.queue_len(node, c), v, max_steps)
    }

    /// Writes the queue lengths of `v`'s in-channels in `node` to `key`:
    /// the only part of a state that `v`'s canonical steps depend on, which
    /// is what the expansion catalog keys on.
    pub(crate) fn in_queue_lens(&self, node: &[u16], v: NodeId, key: &mut Vec<u16>) {
        key.clear();
        key.extend(self.index.in_channels(v).iter().map(|&c| node[2 * self.n + self.m + c]));
    }

    /// Applies `cs` to `node`, which must be in normal form, appending the
    /// successor's words, in normal form, to `out`. On [`Applied::Capped`]
    /// the caller must truncate `out` back to its pre-call length. Either
    /// way `scratch` holds the normal form's activity: the absorbed
    /// channels and the tally. `scratch` must hold `node`'s offsets (see
    /// [`ExecTables::prepare`]). A settled queue longer than `cap` (set
    /// collapses exempt), or than a packed length word can hold, caps the
    /// step.
    pub(crate) fn apply(
        &self,
        node: &[u16],
        scratch: &mut PackedScratch,
        cs: &CanonicalStep,
        cap: usize,
        out: &mut Vec<u16>,
    ) -> Applied {
        let (n, m) = (self.n, self.m);
        let v = cs.node.index();
        let mark = out.len();
        let PackedScratch { qstart, touch, absorbed, tally, .. } = scratch;

        // Phase 2 (choice) first — it only reads the parent. ρ' on an
        // in-channel is the kept queue word when the step keeps one there,
        // else the parent's ρ.
        let rho = |c: usize| {
            let mut rho = node[2 * n + c];
            for e in &cs.effects {
                if e.channel == c {
                    if let Some(j) = e.keep {
                        rho = node[qstart[c] + j - 1];
                    }
                    break;
                }
            }
            RouteId(u32::from(rho))
        };
        // The codec's overflow check makes the narrowing lossless.
        let new_rid = self.table.choose(cs.node, self.index.in_channels(cs.node), rho).0 as u16;
        let announcing = new_rid != node[n + v];

        // Header: chosen (π'ᵥ = the new choice — writing it unconditionally
        // equals execute_step's guarded write), announced, learned. A kept
        // word is already in normal form, as the parent's queue is.
        out.extend_from_slice(&node[..n]);
        out[mark + v] = new_rid;
        out.extend_from_slice(&node[n..2 * n]);
        if announcing {
            out[mark + n + v] = new_rid;
        }
        out.extend_from_slice(&node[2 * n..2 * n + m]);
        for e in &cs.effects {
            if let Some(j) = e.keep {
                out[mark + 2 * n + e.channel] = node[qstart[e.channel] + j - 1];
            }
        }

        // Patch plan: the few channels this step consumes from or appends
        // to. Every other channel's length word and contents are identical
        // to the parent's, in normal form and within the cap, and copy
        // verbatim in bulk runs below — per candidate the work is a handful
        // of touched channels plus two or three `memcpy`s, not an `m`-way
        // scan with per-channel branching.
        touch.clear();
        for e in &cs.effects {
            if e.consume > 0 {
                touch.push(Touch { c: e.channel, consume: e.consume, append: false });
            }
        }
        if announcing {
            for &c in self.index.out_channels(cs.node) {
                match touch.iter_mut().find(|t| t.c == c) {
                    Some(t) => t.append = true,
                    None => touch.push(Touch { c, consume: 0, append: true }),
                }
            }
        }
        touch.sort_unstable_by_key(|t| t.c);

        // Queue lengths: the parent's header, patched at each touched
        // channel once its queue is settled below.
        out.extend_from_slice(&node[2 * n + m..2 * n + 2 * m]);
        let qbase = mark + 2 * n + m;

        // Queue contents: verbatim runs between touched channels, each
        // touched queue written as its survivors plus the appended word and
        // settled in place. Every touched channel is settled even after one
        // caps, so the tally counts the whole successor.
        absorbed.clear();
        *tally = Tally::default();
        let mut capped = false;
        let mut copy_from = 2 * n + 2 * m;
        for t in touch.iter() {
            let mode = self.modes[t.c];
            let qs = qstart[t.c];
            let qe = qs + self.queue_len(node, t.c);
            out.extend_from_slice(&node[copy_from..qs]);
            let start = out.len();
            out.extend_from_slice(&node[qs + t.consume..qe]);
            if t.append {
                out.push(mode.project(self.table, t.c, new_rid, tally));
            }
            let rho = out[mark + 2 * n + t.c];
            let len = mode.settle(t.c, rho, &mut out[start..], &self.order, tally, absorbed);
            out.truncate(start + len);
            match u16::try_from(len) {
                Ok(word) if mode.set || len <= cap => out[qbase + t.c] = word,
                _ => capped = true,
            }
            copy_from = qe;
        }
        if capped {
            return Applied::Capped;
        }
        out.extend_from_slice(&node[copy_from..]);
        Applied::Ok { new_rid, announcing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use routelab_engine::exec::execute_step;
    use routelab_engine::state::NetworkState;
    use routelab_spp::gadgets;

    use crate::effects::all_steps;
    use crate::reduce::channel_modes;

    /// Differential mini-BFS: every candidate successor computed in packed
    /// space must equal the engine's decode → clone → execute_step →
    /// (collapse) → encode result word for word, including the cap verdict
    /// and the kept/changed metadata, over a few hundred reachable states
    /// per gadget × model × collapse mode (witness search runs collapsible
    /// models uncollapsed).
    #[test]
    fn packed_execution_matches_the_engine_differentially() {
        let cap = 3usize;
        for (name, inst) in gadgets::corpus() {
            for model in ["R1O", "RMA", "REA", "RES", "U1O", "UMA"] {
                let spec = Spec::Uniform(model.parse().unwrap());
                for collapse in [false, true] {
                    if collapse && !spec.collapsible() {
                        continue;
                    }
                    let index = ChannelIndex::new(inst.graph());
                    let codec = StateCodec::new(&inst, &index, "diff-cell").unwrap();
                    let modes = match collapse {
                        true => channel_modes(spec, &index, false),
                        false => vec![ChannelMode::default(); index.len()],
                    };
                    let tables = ExecTables::new(&index, &codec, modes);

                    let mut seen: HashSet<Vec<u16>> = HashSet::new();
                    let mut frontier: Vec<Vec<u16>> = Vec::new();
                    let mut root_words = Vec::new();
                    codec
                        .encode_into(&NetworkState::initial(&inst, &index), &mut root_words)
                        .unwrap();
                    seen.insert(root_words.clone());
                    frontier.push(root_words);

                    let mut scratch = PackedScratch::default();
                    let mut fast = Vec::new();
                    let mut head = 0;
                    while head < frontier.len() && seen.len() < 200 {
                        let words = frontier[head].clone();
                        head += 1;
                        let state = codec.decode_words(&words).unwrap();
                        let (steps, _) = all_steps(spec, &index, &state, inst.node_count(), 10_000);
                        tables.prepare(&words, &mut scratch);
                        for cs in steps {
                            // Engine oracle.
                            let activation = cs.to_activation(spec, &index);
                            let mut next = state.clone();
                            let effect = execute_step(&inst, &index, &mut next, &activation);
                            if collapse {
                                next.collapse_queues_to_newest();
                            }
                            let capped = next.max_queue_len() > cap;

                            // Packed fast path.
                            fast.clear();
                            let applied = tables.apply(&words, &mut scratch, &cs, cap, &mut fast);
                            if capped {
                                assert_eq!(applied, Applied::Capped, "{name} {model} {cs:?}");
                                continue;
                            }
                            let mut oracle = Vec::new();
                            codec.encode_into(&next, &mut oracle).unwrap();
                            match applied {
                                Applied::Capped => panic!("{name} {model} {cs:?}: spurious cap"),
                                Applied::Ok { new_rid, announcing } => {
                                    assert_eq!(fast, oracle, "{name} {model} {cs:?}");
                                    let changed = !effect.changed.is_empty();
                                    assert_eq!(
                                        new_rid != words[cs.node.index()],
                                        changed,
                                        "{name} {model} {cs:?}"
                                    );
                                    assert_eq!(
                                        announcing,
                                        next.announced(cs.node) != state.announced(cs.node),
                                        "{name} {model} {cs:?}"
                                    );
                                    let kept: Vec<usize> = cs
                                        .effects
                                        .iter()
                                        .filter(|e| e.keep.is_some())
                                        .map(|e| e.channel)
                                        .collect();
                                    assert_eq!(kept, effect.kept_on, "{name} {model} {cs:?}");
                                    let dropped: Vec<usize> = cs
                                        .effects
                                        .iter()
                                        .filter(|e| e.dropped() > 0)
                                        .map(|e| e.channel)
                                        .collect();
                                    assert_eq!(dropped, effect.dropped_on, "{name} {model} {cs:?}");
                                    if seen.insert(oracle.clone()) {
                                        frontier.push(oracle);
                                    }
                                }
                            }
                        }
                    }
                    assert!(seen.len() > 1, "{name} {model}: walk never left the root");
                }
            }
        }
    }
}
