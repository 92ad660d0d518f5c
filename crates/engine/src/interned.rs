//! The interned hot path: network state and step execution over
//! [`RouteId`]s.
//!
//! [`InternedState`] mirrors [`crate::NetworkState`] exactly — π, last
//! announcements, per-channel ρ, FIFO queues — but stores dense
//! [`RouteId`]s instead of owned [`routelab_spp::Route`] values, so
//! messages are `Copy` and an activation step allocates nothing in steady
//! state. [`execute_step_interned`] is a line-for-line mirror of
//! [`crate::exec::execute_step`]: phase 1 processes channels with the
//! `(f, g)` rule, phase 2 re-chooses through [`RouteTable::choose`] (a min
//! over in-channels of preference positions), and phase 3 announces
//! changes. The [`crate::runner::Runner`] decodes ids back to routes only
//! at the rendering/trace boundary, keeping all visible output
//! byte-identical to the route-value engine.

use std::collections::VecDeque;

use routelab_core::step::{ActivationStep, Take};
use routelab_spp::{NodeId, RouteId, RouteTable};

use crate::index::ChannelIndex;

/// What one interned step did — the [`crate::StepEffect`] mirror with
/// `Copy` route ids, plus reusable buffers so steady-state steps allocate
/// nothing. Cleared at the start of every step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InternedEffect {
    /// Nodes whose π changed: `(node, old, new)`.
    pub changed: Vec<(NodeId, RouteId, RouteId)>,
    /// Messages deleted from channels.
    pub consumed: usize,
    /// Messages dropped (subset of `consumed`).
    pub dropped: usize,
    /// Messages written to channels.
    pub sent: usize,
    /// Dense channel ids written in phase 3, one entry per message.
    pub sent_on: Vec<usize>,
    /// Dense channel ids this step attended (targeted with `f ≥ 1`).
    pub attended: Vec<usize>,
    /// Dense channel ids on which a message was processed and kept.
    pub kept_on: Vec<usize>,
    /// Dense channel ids on which at least one message was dropped.
    pub dropped_on: Vec<usize>,
    /// Phase-2 scratch: each updater's decision, in update order.
    pub decisions: Vec<(NodeId, RouteId)>,
}

impl InternedEffect {
    fn clear(&mut self) {
        self.changed.clear();
        self.consumed = 0;
        self.dropped = 0;
        self.sent = 0;
        self.sent_on.clear();
        self.attended.clear();
        self.kept_on.clear();
        self.dropped_on.clear();
        self.decisions.clear();
    }
}

/// [`crate::NetworkState`] with interned routes and O(1) quiescence.
///
/// Two counters make [`InternedState::is_quiescent`] constant-time: the
/// total number of in-flight messages and the number of nodes whose choice
/// differs from their last announcement (phase 3 always re-equalizes the
/// two for every updated node, so the counter only ever decrements there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedState {
    chosen: Vec<RouteId>,
    announced: Vec<RouteId>,
    learned: Vec<RouteId>,
    queues: Vec<VecDeque<RouteId>>,
    in_flight: usize,
    mismatched: usize,
}

impl InternedState {
    /// The initial state: `π_d` is the trivial path, everything else ε,
    /// nothing announced, all channels empty (so only the destination's
    /// owed bootstrap announcement keeps the state non-quiescent).
    pub fn initial(table: &RouteTable, index: &ChannelIndex) -> Self {
        let n = table.node_count();
        let mut chosen = vec![RouteId::EPSILON; n];
        chosen[table.dest().index()] = table.dest_choice();
        InternedState {
            chosen,
            announced: vec![RouteId::EPSILON; n],
            learned: vec![RouteId::EPSILON; index.len()],
            queues: vec![VecDeque::new(); index.len()],
            in_flight: 0,
            mismatched: 1,
        }
    }

    /// π_v.
    pub fn chosen(&self, v: NodeId) -> RouteId {
        self.chosen[v.index()]
    }

    /// `v`'s last announcement (ε before the first one).
    pub fn announced(&self, v: NodeId) -> RouteId {
        self.announced[v.index()]
    }

    /// ρ for the channel with dense id `c`.
    pub fn learned(&self, c: usize) -> RouteId {
        self.learned[c]
    }

    /// The queue of the channel with dense id `c`, oldest first.
    pub fn queue(&self, c: usize) -> &VecDeque<RouteId> {
        &self.queues[c]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.chosen.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.queues.len()
    }

    /// Total messages in flight (O(1)).
    pub fn messages_in_flight(&self) -> usize {
        self.in_flight
    }

    /// Length of the longest queue.
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).max().unwrap_or(0)
    }

    /// O(1) quiescence: no message in flight and every node's choice equals
    /// its last announcement (see [`crate::NetworkState::is_quiescent`]).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.mismatched == 0
    }

    /// A 64-bit FNV-1a fingerprint of the full state (for cycle
    /// detection). Values differ from [`crate::NetworkState::fingerprint`]
    /// but are only ever compared within one run.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut write = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &r in &self.chosen {
            write(r.0);
        }
        for &r in &self.announced {
            write(r.0);
        }
        for &r in &self.learned {
            write(r.0);
        }
        for q in &self.queues {
            write(q.len() as u32);
            for &r in q {
                write(r.0);
            }
        }
        h
    }
}

/// Executes one activation step over interned state, writing its effect
/// into the caller's reusable buffers. Semantics mirror
/// [`crate::exec::execute_step`] exactly (including duplicate drop-index
/// counting and the oldest-first learned scan).
///
/// # Panics
///
/// Panics if an action references a channel absent from `index`.
pub fn execute_step_interned(
    table: &RouteTable,
    index: &ChannelIndex,
    state: &mut InternedState,
    step: &ActivationStep,
    effect: &mut InternedEffect,
) {
    effect.clear();

    // Phase 1: collect updates of path information (all nodes in U).
    for update in &step.updates {
        for action in &update.actions {
            let cid = index
                .id(action.channel())
                .expect("activation step references a channel of the graph");
            if action.attends() {
                effect.attended.push(cid);
            }
            let q = &mut state.queues[cid];
            let m = q.len();
            let i = match action.take() {
                Take::All => m,
                Take::Count(k) => (k as usize).min(m),
            };
            let drops = action.drops();
            // Duplicate drop indices count twice, exactly as in
            // FifoChannel::process (its drop set is a plain list).
            let dropped = drops.iter().filter(|&&d| d >= 1 && (d as usize) <= i).count();
            let mut learned = None;
            for j in (1..=i).rev() {
                if !drops.iter().any(|&d| d as usize == j) {
                    learned = Some(q[j - 1]);
                    break;
                }
            }
            q.drain(..i);
            state.in_flight -= i;
            effect.consumed += i;
            effect.dropped += dropped;
            if dropped > 0 {
                effect.dropped_on.push(cid);
            }
            if let Some(r) = learned {
                state.learned[cid] = r;
                effect.kept_on.push(cid);
            }
        }
    }

    // Phase 2: choose the most preferred path from the known routes — a
    // min over in-channels of precomputed preference positions.
    for update in &step.updates {
        let v = update.node;
        let choice = table.choose(v, index.in_channels(v), |c| state.learned[c]);
        effect.decisions.push((v, choice));
    }

    // Phase 3: announce changes. Both branches leave the node with
    // chosen == announced == new, so the mismatch counter can only drop.
    for k in 0..effect.decisions.len() {
        let (v, new) = effect.decisions[k];
        let vi = v.index();
        let was_mismatched = state.chosen[vi] != state.announced[vi];
        if new != state.announced[vi] {
            for &out in index.out_channels(v) {
                state.queues[out].push_back(new);
                state.in_flight += 1;
                effect.sent += 1;
                effect.sent_on.push(out);
            }
            state.announced[vi] = new;
        }
        if new != state.chosen[vi] {
            let old = state.chosen[vi];
            effect.changed.push((v, old, new));
            state.chosen[vi] = new;
        }
        if was_mismatched {
            state.mismatched -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::step::{ChannelAction, NodeUpdate};
    use routelab_spp::{gadgets, Channel};

    struct Fixture {
        inst: routelab_spp::SppInstance,
        table: RouteTable,
        index: ChannelIndex,
        state: InternedState,
    }

    fn disagree() -> Fixture {
        let inst = gadgets::disagree();
        let table = RouteTable::new(&inst);
        let index = ChannelIndex::new(inst.graph());
        let state = InternedState::initial(&table, &index);
        Fixture { inst, table, index, state }
    }

    fn activate_all(f: &mut Fixture, name: &str) -> InternedEffect {
        let v = f.inst.node_by_name(name).unwrap();
        let actions = f
            .index
            .in_channels(v)
            .iter()
            .map(|&cid| ChannelAction::read_all(f.index.channel(cid)))
            .collect();
        let step = ActivationStep::single(NodeUpdate::new(v, actions));
        let mut effect = InternedEffect::default();
        execute_step_interned(&f.table, &f.index, &mut f.state, &step, &mut effect);
        effect
    }

    #[test]
    fn initial_state_is_not_quiescent_until_bootstrap() {
        let mut f = disagree();
        assert!(!f.state.is_quiescent());
        assert_eq!(f.state.messages_in_flight(), 0);
        let e = activate_all(&mut f, "d");
        assert_eq!(e.sent, 2);
        assert!(e.changed.is_empty());
        assert_eq!(f.state.messages_in_flight(), 2);
        assert_eq!(f.state.max_queue_len(), 1);
    }

    #[test]
    fn quiescence_counters_reach_zero_on_convergence() {
        let mut f = disagree();
        activate_all(&mut f, "d");
        for _ in 0..8 {
            activate_all(&mut f, "x");
            activate_all(&mut f, "y");
            activate_all(&mut f, "d");
        }
        assert!(f.state.is_quiescent());
        assert_eq!(f.state.messages_in_flight(), 0);
        // Counters agree with a direct recount.
        let direct: usize = (0..f.state.channel_count()).map(|c| f.state.queue(c).len()).sum();
        assert_eq!(direct, 0);
    }

    #[test]
    fn learned_and_chosen_decode_to_exec_results() {
        let mut f = disagree();
        activate_all(&mut f, "d");
        let e = activate_all(&mut f, "x");
        let x = f.inst.node_by_name("x").unwrap();
        assert_eq!(f.inst.fmt_route(f.table.route(f.state.chosen(x))), "xd");
        assert_eq!(e.changed.len(), 1);
        assert_eq!(e.consumed, 1);
        assert_eq!(e.sent, 2);
    }

    #[test]
    fn drop_semantics_mirror_fifo_process() {
        let mut f = disagree();
        activate_all(&mut f, "d");
        let x = f.inst.node_by_name("x").unwrap();
        let c = Channel::new(f.inst.dest(), x);
        let step = ActivationStep::single(NodeUpdate::new(x, vec![ChannelAction::drop_one(c)]));
        let mut e = InternedEffect::default();
        execute_step_interned(&f.table, &f.index, &mut f.state, &step, &mut e);
        assert_eq!(e.consumed, 1);
        assert_eq!(e.dropped, 1);
        assert!(e.kept_on.is_empty());
        assert_eq!(e.dropped_on.len(), 1);
        assert!(f.state.chosen(x).is_epsilon());
        let cid = f.index.id(c).unwrap();
        assert!(f.state.queue(cid).is_empty());
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let f = disagree();
        let a = f.state.clone();
        let mut g = disagree();
        assert_eq!(a.fingerprint(), g.state.fingerprint());
        activate_all(&mut g, "d");
        assert_ne!(a.fingerprint(), g.state.fingerprint());
    }
}
