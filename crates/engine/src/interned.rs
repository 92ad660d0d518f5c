//! The interned hot path: network state and step execution over
//! [`RouteId`]s and dense channel ids.
//!
//! [`InternedState`] mirrors [`crate::NetworkState`] exactly — π, last
//! announcements, per-channel ρ, FIFO queues — but stores dense
//! [`RouteId`]s instead of owned [`routelab_spp::Route`] values, so
//! messages are `Copy` and an activation step allocates nothing in steady
//! state. Steps arrive as an [`IdStep`]: Definition 2.2's `(U, X, f, g)` on
//! dense channel ids, with drop sets that never allocate.
//! [`execute_step_interned`] executes the three phases of
//! [`crate::exec::execute_step`]: phase 1 processes channels with the
//! `(f, g)` rule, phase 2 re-chooses through [`RouteTable::choose`] (a min
//! over in-channels of preference positions), and phase 3 announces
//! changes. Phases 2 and 3 run node by node, since announcing never
//! changes what a node chooses. The [`crate::runner::Runner`] decodes ids
//! back to routes only at the rendering/trace boundary, keeping all
//! visible output byte-identical to the route-value engine.

use std::collections::{BTreeSet, VecDeque};

use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate, Take};
use routelab_spp::{NodeId, RouteId, RouteTable};

use crate::index::ChannelIndex;

/// A read's drop set `g(c)`, 1-based indices into the messages it takes.
/// Listed indices live in the step's own list, so pushing a read never
/// allocates once the buffer is warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drops {
    /// `{1, …, k}`: the first `k` messages (none for `k = 0`), which covers
    /// every drop set the random scheduler draws.
    First(u32),
    /// Any other set: entries `start..end` of [`IdStep::listed`].
    Listed(u32, u32),
}

/// One read of an updating node: `(channel id, f(c), g(c))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdRead {
    channel: u32,
    take: Take,
    drops: Drops,
}

/// An activation step on dense channel ids: the updating nodes, each with
/// its reads `(channel id, take, drops)` — the form the kernel executes. A
/// reusable buffer: [`IdStep::clear`] keeps its allocations.
///
/// [`IdStep::lower`] and [`IdStep::lift_into`] convert from and to the
/// paper's [`ActivationStep`] through a [`ChannelIndex`]; lifting a
/// lowered step gives it back unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdStep {
    /// Each updating node with the start of its reads in `reads`.
    updates: Vec<(NodeId, usize)>,
    reads: Vec<IdRead>,
    /// The indices of every listed drop set, back to back.
    listed: Vec<u32>,
}

impl IdStep {
    /// Empties the step, keeping its allocations.
    pub fn clear(&mut self) {
        self.updates.clear();
        self.reads.clear();
        self.listed.clear();
    }

    /// Adds updating node `v`; the reads pushed next are its reads.
    pub fn push_update(&mut self, v: NodeId) {
        self.updates.push((v, self.reads.len()));
    }

    /// Adds to the last updating node a read of the channel with dense id
    /// `channel` that drops the first `dropped` messages it takes. To
    /// lift, the read must satisfy Definition 2.2: `f = 0` drops nothing,
    /// and a finite `f` is at least `dropped`.
    pub fn push_read(&mut self, channel: usize, take: Take, dropped: u32) {
        debug_assert!(!self.updates.is_empty(), "a read belongs to an updating node");
        self.reads.push(IdRead { channel: channel as u32, take, drops: Drops::First(dropped) });
    }

    /// The updating nodes, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.updates.iter().map(|&(v, _)| v)
    }

    /// Replaces the contents with `step`, looking each channel up in
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if an action references a channel absent from `index`.
    pub fn lower(&mut self, step: &ActivationStep, index: &ChannelIndex) {
        self.clear();
        for update in &step.updates {
            self.push_update(update.node);
            for action in &update.actions {
                let cid = index
                    .id(action.channel())
                    .expect("activation step references a channel of the graph");
                let set = action.drops();
                // Drop indices are distinct and positive, so a set whose
                // largest index is its size is exactly `1..=size`.
                let drops = match set.last() {
                    Some(&k) if k as usize != set.len() => {
                        let start = self.listed.len() as u32;
                        self.listed.extend(set);
                        Drops::Listed(start, self.listed.len() as u32)
                    }
                    _ => Drops::First(set.len() as u32),
                };
                self.reads.push(IdRead { channel: cid as u32, take: action.take(), drops });
            }
        }
    }

    /// Writes the step into `out` in the paper's form, reusing its
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if a read breaks Definition 2.2 (see [`IdStep::push_read`]).
    pub fn lift_into(&self, index: &ChannelIndex, out: &mut ActivationStep) {
        out.updates.resize_with(self.updates.len(), || NodeUpdate::bare(NodeId(0)));
        let ends = self.updates.iter().skip(1).map(|&(_, start)| start).chain([self.reads.len()]);
        for ((update, &(v, start)), end) in out.updates.iter_mut().zip(&self.updates).zip(ends) {
            update.node = v;
            update.actions.clear();
            update.actions.extend(self.reads[start..end].iter().map(|r| {
                let c = index.channel(r.channel as usize);
                let drops: BTreeSet<u32> = match (r.drops, r.take) {
                    // Lossless reads are legal for every take.
                    (Drops::First(0), Take::All) => return ChannelAction::read_all(c),
                    (Drops::First(0), Take::Count(k)) => return ChannelAction::read_count(c, k),
                    (Drops::First(k), _) => (1..=k).collect(),
                    (Drops::Listed(s, e), _) => {
                        self.listed[s as usize..e as usize].iter().copied().collect()
                    }
                };
                ChannelAction::new(c, r.take, drops)
                    .expect("an id step's reads satisfy Definition 2.2")
            }));
        }
    }

    /// For a read that takes `i` messages: how many of them it drops, and
    /// the 1-based position of the newest one it keeps (`0` for none).
    fn dropped_and_kept(&self, drops: Drops, i: usize) -> (usize, usize) {
        match drops {
            Drops::First(k) => {
                let dropped = (k as usize).min(i);
                (dropped, if dropped < i { i } else { 0 })
            }
            Drops::Listed(start, end) => {
                let listed = &self.listed[start as usize..end as usize];
                let dropped = listed.iter().filter(|&&d| d >= 1 && d as usize <= i).count();
                let kept = (1..=i).rev().find(|&j| !listed.contains(&(j as u32))).unwrap_or(0);
                (dropped, kept)
            }
        }
    }
}

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
        let mut state = InternedState {
            chosen: vec![RouteId::EPSILON; n],
            announced: vec![RouteId::EPSILON; n],
            learned: vec![RouteId::EPSILON; index.len()],
            queues: vec![VecDeque::new(); index.len()],
            in_flight: 0,
            mismatched: 0,
        };
        state.reset(table);
        state
    }

    /// Returns to [`InternedState::initial`], keeping every queue's
    /// allocation.
    pub fn reset(&mut self, table: &RouteTable) {
        self.chosen.fill(RouteId::EPSILON);
        self.chosen[table.dest().index()] = table.dest_choice();
        self.announced.fill(RouteId::EPSILON);
        self.learned.fill(RouteId::EPSILON);
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.in_flight = 0;
        self.mismatched = 1;
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
/// Panics if a read's channel id is out of range for `index`.
pub fn execute_step_interned(
    table: &RouteTable,
    index: &ChannelIndex,
    state: &mut InternedState,
    step: &IdStep,
    effect: &mut InternedEffect,
) {
    effect.clear();

    // Phase 1: collect updates of path information (all nodes in U).
    for read in &step.reads {
        let cid = read.channel as usize;
        let q = &mut state.queues[cid];
        let m = q.len();
        let i = match read.take {
            Take::All => m,
            Take::Count(k) => (k as usize).min(m),
        };
        if read.take != Take::Count(0) {
            effect.attended.push(cid);
        }
        let (dropped, kept) = step.dropped_and_kept(read.drops, i);
        let learned = kept.checked_sub(1).map(|j| q[j]);
        if i == m {
            q.clear();
        } else {
            q.drain(..i);
        }
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

    // Phases 2 and 3, node by node: choose the most preferred path (a min
    // over in-channels of precomputed preference positions), then announce
    // a change; announcing never writes ρ, all that choosing reads. Both
    // branches leave chosen == announced == new, so mismatches only drop.
    for &(v, _) in &step.updates {
        let new = table.choose(v, index.in_channels(v), |c| state.learned[c]);
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
        let mut step = IdStep::default();
        step.push_update(v);
        for &cid in f.index.in_channels(v) {
            step.push_read(cid, Take::All, 0);
        }
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
        let mut ids = IdStep::default();
        ids.lower(&step, &f.index);
        let mut e = InternedEffect::default();
        execute_step_interned(&f.table, &f.index, &mut f.state, &ids, &mut e);
        assert_eq!(e.consumed, 1);
        assert_eq!(e.dropped, 1);
        assert!(e.kept_on.is_empty());
        assert_eq!(e.dropped_on.len(), 1);
        assert!(f.state.chosen(x).is_epsilon());
        let cid = f.index.id(c).unwrap();
        assert!(f.state.queue(cid).is_empty());
    }

    #[test]
    fn reset_returns_to_the_initial_state() {
        let mut f = disagree();
        let initial = f.state.clone();
        activate_all(&mut f, "d");
        activate_all(&mut f, "x");
        assert_ne!(f.state, initial);
        f.state.reset(&f.table);
        assert_eq!(f.state, initial);
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

    #[test]
    fn drop_sets_lower_to_first_k_or_a_list_and_execute_alike() {
        // The `(f, g)` rule on a three-message queue, for each kind of set:
        // the newest message kept, by its 1-based position, is learned.
        let f = disagree();
        let (x, y) = (f.inst.node_by_name("x").unwrap(), f.inst.node_by_name("y").unwrap());
        let c = Channel::new(y, x);
        let cid = f.index.id(c).unwrap();
        let queued = [RouteId::EPSILON, f.table.route_id(y, 0), f.table.route_id(y, 1)];
        for (drops, first_k, kept) in [
            (&[][..], true, Some(3)),
            (&[1, 2], true, Some(3)),
            (&[1, 2, 3], true, None),
            (&[3], false, Some(2)),
            (&[1, 3], false, Some(2)),
            (&[2, 3], false, Some(1)),
        ] {
            let action = ChannelAction::new(c, Take::All, drops.iter().copied().collect()).unwrap();
            let mut step = IdStep::default();
            step.lower(&ActivationStep::single(NodeUpdate::new(x, vec![action])), &f.index);
            assert_eq!(step.listed.is_empty(), first_k, "{drops:?}");
            let mut state = f.state.clone();
            state.queues[cid].extend(queued);
            state.in_flight += queued.len();
            let mut e = InternedEffect::default();
            execute_step_interned(&f.table, &f.index, &mut state, &step, &mut e);
            assert_eq!((e.consumed, e.dropped), (3, drops.len()), "{drops:?}");
            let learned = kept.map_or(RouteId::EPSILON, |p: usize| queued[p - 1]);
            assert_eq!(state.learned(cid), learned, "{drops:?}");
            assert_eq!(e.kept_on.len(), usize::from(kept.is_some()), "{drops:?}");
        }
    }

    #[test]
    fn lowering_then_lifting_is_the_identity() {
        let (inst, boot, cycle) = crate::paper_runs::a6_multinode();
        let index = ChannelIndex::new(inst.graph());
        let (d, x) = (inst.dest(), inst.node_by_name("x").unwrap());
        let dx = Channel::new(d, x);
        let dropping = |take, drops: &[u32]| {
            ChannelAction::new(dx, take, drops.iter().copied().collect()).unwrap()
        };
        let scripted = ActivationStep::single(NodeUpdate::new(
            x,
            vec![
                dropping(Take::Count(3), &[2]),
                dropping(Take::All, &[1, 3]),
                dropping(Take::Count(2), &[1, 2]),
                ChannelAction::skip(dx),
            ],
        ));
        let mut ids = IdStep::default();
        let mut out = ActivationStep::simultaneous(Vec::new());
        for step in boot.iter().chain(&cycle).chain([&scripted]) {
            ids.lower(step, &index);
            ids.lift_into(&index, &mut out);
            assert_eq!(&out, step);
            assert_eq!(
                ids.nodes().collect::<Vec<_>>(),
                step.updates.iter().map(|u| u.node).collect::<Vec<_>>()
            );
        }
    }
}
