//! Packed-space step execution: the explorer's one step kernel.
//!
//! Expanding a state through the engine costs, per candidate successor:
//! decode the parent into a [`NetworkState`] (dozens of `Route` clones),
//! clone it, run [`execute_step`](routelab_engine::exec::execute_step), and
//! re-encode — all to produce one flat `u16` buffer differing from the
//! parent in a handful of slots. This module instead applies a
//! [`CanonicalStep`] *directly on the packed words*, for unreduced builds,
//! reduced builds (which then run the reduction layer's word-level normal
//! form, `Reducer::normalize_words` in [`crate::reduce`]) and witness
//! search ([`crate::trace_search`]) alike.
//!
//! The key observation: in packed space, one activation step is pure
//! integer lookups. Processing a channel effect `(consume i, keep j)` sets
//! ρ to the queue word at offset `j-1` and drops the first `i` queue words;
//! the re-choice is [`RouteTable::choose`] over the codec's table, the
//! same rule the engine's interned kernel runs; announcing appends one
//! word to each out-channel queue. No routes are ever materialized.
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

/// Packed-space execution over one codec's route table and channel index.
#[derive(Debug)]
pub(crate) struct ExecTables<'a> {
    n: usize,
    m: usize,
    table: &'a RouteTable,
    index: &'a ChannelIndex,
    /// Apply the whole-model queue-to-newest abstraction (unreduced builds
    /// of reliable, all-policy models; reduced builds collapse per channel).
    collapse: bool,
}

/// Reusable per-worker scratch: queue start offsets of the current parent,
/// plus the per-candidate patch list of [`ExecTables::apply`].
#[derive(Debug, Default)]
pub(crate) struct PackedScratch {
    qstart: Vec<usize>,
    touch: Vec<Touch>,
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
    pub(crate) fn new(index: &'a ChannelIndex, codec: &'a StateCodec, collapse: bool) -> Self {
        ExecTables { n: codec.n(), m: codec.m(), table: codec.table(), index, collapse }
    }

    /// Computes the queue start offsets of `node` into `scratch` — once per
    /// parent, shared by all its candidate applications.
    pub(crate) fn prepare(&self, node: &[u16], scratch: &mut PackedScratch) {
        scratch.qstart.clear();
        scratch.qstart.reserve(self.m);
        let mut at = 2 * self.n + 2 * self.m;
        for c in 0..self.m {
            scratch.qstart.push(at);
            at += usize::from(node[2 * self.n + self.m + c]);
        }
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

    /// Applies `cs` to `node`, appending the successor's words to `out`.
    /// On [`Applied::Capped`] the caller must truncate `out` back to its
    /// pre-call length. `scratch` must hold `node`'s offsets (see
    /// [`ExecTables::prepare`]). A queue longer than `cap`, or than a
    /// packed length word can hold, caps the step.
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

        // Phase 2 (choice) first — it only reads the parent. ρ' on an
        // in-channel is the kept queue word when the step keeps one there,
        // else the parent's ρ.
        let rho = |c: usize| {
            let mut rho = node[2 * n + c];
            for e in &cs.effects {
                if e.channel == c {
                    if let Some(j) = e.keep {
                        rho = node[scratch.qstart[c] + j - 1];
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
        // equals execute_step's guarded write), announced, learned.
        out.extend_from_slice(&node[..n]);
        out[mark + v] = new_rid;
        out.extend_from_slice(&node[n..2 * n]);
        if announcing {
            out[mark + n + v] = new_rid;
        }
        out.extend_from_slice(&node[2 * n..2 * n + m]);
        for e in &cs.effects {
            if let Some(j) = e.keep {
                out[mark + 2 * n + e.channel] = node[scratch.qstart[e.channel] + j - 1];
            }
        }

        // Patch plan: the few channels this step consumes from or appends
        // to. Every other channel's length word and contents are identical
        // to the parent's and copy verbatim in bulk runs below — per
        // candidate the work is a handful of touched channels plus two or
        // three `memcpy`s, not an `m`-way scan with per-channel branching.
        scratch.touch.clear();
        for e in &cs.effects {
            if e.consume > 0 {
                scratch.touch.push(Touch { c: e.channel, consume: e.consume, append: false });
            }
        }
        if announcing {
            for &c in self.index.out_channels(cs.node) {
                match scratch.touch.iter_mut().find(|t| t.c == c) {
                    Some(t) => t.append = true,
                    None => scratch.touch.push(Touch { c, consume: 0, append: true }),
                }
            }
        }
        if self.collapse {
            // Untouched channels copy verbatim, which equals the collapse
            // normal form only for queues of length ≤ 1. Collapsed parents
            // never hold longer ones, but stay exact if one ever appears.
            for c in 0..m {
                if self.queue_len(node, c) > 1 && !scratch.touch.iter().any(|t| t.c == c) {
                    scratch.touch.push(Touch { c, consume: 0, append: false });
                }
            }
        }
        scratch.touch.sort_unstable_by_key(|t| t.c);

        // Queue lengths: the parent's header patched at the touched
        // channels. Only they can change, and only appends can grow a
        // queue, so the cap check (execute_step's caller performs it on
        // `max_queue_len()` after the optional newest-collapse) is theirs
        // alone — untouched lengths were cap-checked when the parent was.
        out.extend_from_slice(&node[2 * n + m..2 * n + 2 * m]);
        let qbase = mark + 2 * n + m;
        for t in &scratch.touch {
            let rem = self.queue_len(node, t.c) - t.consume;
            let new_len = if self.collapse {
                if t.append {
                    1
                } else {
                    rem.min(1)
                }
            } else {
                rem + usize::from(t.append)
            };
            if new_len > cap.min(usize::from(u16::MAX)) {
                return Applied::Capped;
            }
            out[qbase + t.c] = new_len as u16;
        }

        // Queue contents: verbatim runs between touched channels.
        let mut copy_from = 2 * n + 2 * m;
        for t in &scratch.touch {
            let qs = scratch.qstart[t.c];
            let qe = qs + self.queue_len(node, t.c);
            out.extend_from_slice(&node[copy_from..qs]);
            if self.collapse {
                if t.append {
                    out.push(new_rid);
                } else if qe > qs + t.consume {
                    out.push(node[qe - 1]); // the newest survivor
                }
            } else {
                out.extend_from_slice(&node[qs + t.consume..qe]);
                if t.append {
                    out.push(new_rid);
                }
            }
            copy_from = qe;
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
                    let tables = ExecTables::new(&index, &codec, collapse);
                    let root = codec.encode(&NetworkState::initial(&inst, &index)).unwrap();

                    let mut seen: HashSet<Vec<u16>> = HashSet::new();
                    let mut frontier: Vec<Vec<u16>> = Vec::new();
                    let root_words: Vec<u16> = {
                        let s = codec.decode(&root).unwrap();
                        let mut w = Vec::new();
                        codec.encode_into(&s, &mut w).unwrap();
                        w
                    };
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
