//! A stateful driver that executes steps over the interned hot path and
//! records the path-assignment trace.
//!
//! The runner owns an [`InternedState`], and owns or borrows the
//! instance's [`RouteTable`] and [`ChannelIndex`] (built once per instance,
//! or shared across runners via [`Runner::with_table`] and
//! [`Runner::with_index`]). Steps execute entirely over dense
//! [`routelab_spp::RouteId`]s and channel ids; routes are decoded back to
//! [`Route`] values only at the trace / flight-recorder / [`StateView`]
//! boundary, so all visible output is byte-identical to the route-value
//! engine while the hot path allocates nothing in steady state.

use std::borrow::Cow;

use routelab_core::step::{ActivationSeq, ActivationStep};
use routelab_spp::{NodeId, Route, RouteId, RouteTable, SppInstance};

use crate::exec::StepEffect;
use crate::index::ChannelIndex;
use crate::interned::{execute_step_interned, IdStep, InternedEffect, InternedState};
use crate::schedule::SchedState;
use crate::state::NetworkState;
use crate::trace::PathTrace;

/// Cumulative statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Steps executed.
    pub steps: usize,
    /// Messages consumed from channels.
    pub consumed: usize,
    /// Messages dropped.
    pub dropped: usize,
    /// Messages sent.
    pub sent: usize,
    /// Steps in which some π changed.
    pub changing_steps: usize,
    /// Largest queue length any single channel reached (high-water mark).
    pub max_queue_depth: usize,
}

/// A read-only view of the runner's state that decodes interned ids to
/// routes on demand. `Copy` — pass it by value; the accessors hand out
/// references that live as long as the runner borrow, not the view.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'r> {
    state: &'r InternedState,
    table: &'r RouteTable,
}

impl<'r> StateView<'r> {
    /// π_v.
    pub fn chosen(&self, v: NodeId) -> &'r Route {
        self.table.route(self.state.chosen(v))
    }

    /// π_v as its interned id; two ids from one table are equal exactly
    /// when their routes are.
    pub fn chosen_id(&self, v: NodeId) -> RouteId {
        self.state.chosen(v)
    }

    /// `v`'s last announcement (ε before the first one).
    pub fn announced(&self, v: NodeId) -> &'r Route {
        self.table.route(self.state.announced(v))
    }

    /// ρ for the channel with dense id `c`.
    pub fn learned(&self, c: usize) -> &'r Route {
        self.table.route(self.state.learned(c))
    }

    /// The queue of the channel with dense id `c`, oldest first.
    pub fn queue(&self, c: usize) -> QueueView<'r> {
        QueueView { q: self.state.queue(c), table: self.table }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.state.node_count()
    }

    /// The full assignment π (indexed by node id).
    pub fn assignment(&self) -> Vec<Route> {
        (0..self.state.node_count()).map(|i| self.chosen(NodeId(i as u32)).clone()).collect()
    }

    /// Total messages in flight (O(1)).
    pub fn messages_in_flight(&self) -> usize {
        self.state.messages_in_flight()
    }

    /// Length of the longest queue.
    pub fn max_queue_len(&self) -> usize {
        self.state.max_queue_len()
    }

    /// `true` when no future step can change any π or send any message
    /// (see [`NetworkState::is_quiescent`]); O(1) here.
    pub fn is_quiescent(&self) -> bool {
        self.state.is_quiescent()
    }

    /// A 64-bit fingerprint of the full state (for cycle detection).
    pub fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }

    /// Decodes the full state into a route-value [`NetworkState`] (the
    /// bridge to consumers of the reference engine, e.g. explorers).
    pub fn to_network_state(&self) -> NetworkState {
        let n = self.state.node_count();
        let c = self.state.channel_count();
        NetworkState::from_parts(
            self.assignment(),
            (0..n).map(|i| self.announced(NodeId(i as u32)).clone()).collect(),
            (0..c).map(|i| self.learned(i).clone()).collect(),
            (0..c).map(|i| self.queue(i).iter().cloned().collect()).collect(),
        )
    }
}

impl SchedState for StateView<'_> {
    fn node_count(&self) -> usize {
        self.state.node_count()
    }

    fn queue_len(&self, c: usize) -> usize {
        self.state.queue(c).len()
    }
}

/// A decoding view of one channel's queue.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'r> {
    q: &'r std::collections::VecDeque<RouteId>,
    table: &'r RouteTable,
}

impl<'r> QueueView<'r> {
    /// Queued messages.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The queued routes, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &'r Route> + 'r {
        let table = self.table;
        self.q.iter().map(move |&id| table.route(id))
    }
}

/// Owns an [`InternedState`] for one instance, executes activation steps,
/// and records the [`PathTrace`] (initial assignment at index 0, then one
/// entry per step — unless tracing is disabled via [`Runner::tracing`]).
#[derive(Debug, Clone)]
pub struct Runner<'a> {
    inst: &'a SppInstance,
    index: Cow<'a, ChannelIndex>,
    table: Cow<'a, RouteTable>,
    state: InternedState,
    trace: PathTrace,
    /// When `false`, steps skip the per-step assignment decode and the
    /// trace stays at the initial entry (Monte Carlo's mode).
    tracing: bool,
    stats: RunStats,
    /// Channels whose most recent processing dropped a message with nothing
    /// delivered since — if the run ends like this, it violates the drop
    /// half of fairness (Definition 2.4).
    pending_drop: Vec<bool>,
    /// Flight-recorder handle: `Some` only when tracing is enabled, in which
    /// case every step's causal record is emitted. Recording only observes —
    /// results are bit-identical with tracing on or off.
    flight: Option<routelab_obs::RunTrace>,
    /// Reusable step-effect buffers (cleared at the start of every step).
    effect: InternedEffect,
    /// [`Runner::step_fast`]'s buffer for the step on channel ids.
    lowered: IdStep,
}

impl<'a> Runner<'a> {
    /// A runner in the initial state, building its own route table.
    pub fn new(inst: &'a SppInstance) -> Self {
        Runner::build(
            inst,
            Cow::Owned(RouteTable::new(inst)),
            Cow::Owned(ChannelIndex::new(inst.graph())),
        )
    }

    /// A runner borrowing a prebuilt route table (which must have been
    /// built from `inst`). Lets many runs over one instance share the
    /// interning work.
    pub fn with_table(inst: &'a SppInstance, table: &'a RouteTable) -> Self {
        Runner::build(inst, Cow::Borrowed(table), Cow::Owned(ChannelIndex::new(inst.graph())))
    }

    /// A runner borrowing both a prebuilt route table and channel index
    /// (which must have been built from `inst` and its graph), so it builds
    /// neither.
    pub fn with_index(
        inst: &'a SppInstance,
        table: &'a RouteTable,
        index: &'a ChannelIndex,
    ) -> Self {
        Runner::build(inst, Cow::Borrowed(table), Cow::Borrowed(index))
    }

    fn build(
        inst: &'a SppInstance,
        table: Cow<'a, RouteTable>,
        index: Cow<'a, ChannelIndex>,
    ) -> Self {
        let state = InternedState::initial(&table, &index);
        let mut trace = PathTrace::new();
        trace.push(decode_assignment(&table, &state));
        let pending_drop = vec![false; index.len()];
        let flight = flight_begin(inst, &index);
        Runner {
            inst,
            index,
            table,
            state,
            trace,
            tracing: true,
            stats: RunStats::default(),
            pending_drop,
            flight,
            effect: InternedEffect::default(),
            lowered: IdStep::default(),
        }
    }

    /// Enables or disables per-step trace recording (on by default).
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// The instance under execution.
    pub fn instance(&self) -> &SppInstance {
        self.inst
    }

    /// The channel index (shared with schedulers and transformations).
    pub fn index(&self) -> &ChannelIndex {
        &self.index
    }

    /// The route table interning this instance's permitted paths.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// A decoding view of the current network state.
    pub fn state(&self) -> StateView<'_> {
        StateView { state: &self.state, table: &self.table }
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &PathTrace {
        &self.trace
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Executes one step and returns whether any π changed: lowers it onto
    /// channel ids through the runner's index, then runs
    /// [`Runner::step_ids`].
    ///
    /// # Panics
    ///
    /// Panics if the step references a channel absent from the graph.
    pub fn step_fast(&mut self, step: &ActivationStep) -> bool {
        let mut lowered = std::mem::take(&mut self.lowered);
        lowered.lower(step, &self.index);
        let changed = self.step_ids(&lowered);
        self.lowered = lowered;
        changed
    }

    /// Executes one step on this runner's channel ids and returns whether
    /// any π changed. This is the hot path: no route values are
    /// materialized unless tracing or flight recording is on.
    pub fn step_ids(&mut self, step: &IdStep) -> bool {
        execute_step_interned(&self.table, &self.index, &mut self.state, step, &mut self.effect);
        self.stats.steps += 1;
        self.stats.consumed += self.effect.consumed;
        self.stats.dropped += self.effect.dropped;
        self.stats.sent += self.effect.sent;
        let changed = !self.effect.changed.is_empty();
        if changed {
            self.stats.changing_steps += 1;
        }
        // Queues only grow where phase 3 wrote, so checking those channels
        // alone keeps the high-water mark exact without an O(channels) scan.
        for &c in &self.effect.sent_on {
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.state.queue(c).len());
        }
        for &c in &self.effect.dropped_on {
            self.pending_drop[c] = true;
        }
        for &c in &self.effect.kept_on {
            self.pending_drop[c] = false;
        }
        if self.tracing {
            self.trace.push(decode_assignment(&self.table, &self.state));
        }
        if let Some(fl) = &self.flight {
            self.flight_step(fl, step);
        }
        changed
    }

    /// Executes one step and decodes its full effect (route values for the
    /// π changes). Use [`Runner::step_fast`] where the decoded effect is
    /// not needed.
    pub fn step(&mut self, step: &ActivationStep) -> StepEffect {
        self.step_fast(step);
        let table: &RouteTable = &self.table;
        StepEffect {
            changed: self
                .effect
                .changed
                .iter()
                .map(|&(v, old, new)| (v, table.route(old).clone(), table.route(new).clone()))
                .collect(),
            consumed: self.effect.consumed,
            dropped: self.effect.dropped,
            sent: self.effect.sent,
            sent_on: self.effect.sent_on.clone(),
            attended: self.effect.attended.clone(),
            kept_on: self.effect.kept_on.clone(),
            dropped_on: self.effect.dropped_on.clone(),
        }
    }

    /// Flight-recorder handle for this run (when tracing is enabled).
    pub fn flight(&self) -> Option<&routelab_obs::RunTrace> {
        self.flight.as_ref()
    }

    /// Emits one step's causal record: activated nodes, π adoptions and
    /// withdrawals, and per-channel send/deliver/drop events.
    fn flight_step(&self, fl: &routelab_obs::RunTrace, step: &IdStep) {
        let table: &RouteTable = &self.table;
        let nodes: Vec<u32> = step.nodes().map(|v| v.0).collect();
        let pi: Vec<(u32, String, String)> = self
            .effect
            .changed
            .iter()
            .map(|&(v, old, new)| {
                (v.0, self.inst.fmt_route(table.route(old)), self.inst.fmt_route(table.route(new)))
            })
            .collect();
        // Phase 3 pushed `announced(from)` onto every channel in `sent_on`,
        // so reading it back after the step names the route each message
        // carries.
        let sent: Vec<(u32, String)> = self
            .effect
            .sent_on
            .iter()
            .map(|&c| {
                let from = self.index.channel(c).from;
                (c as u32, self.inst.fmt_route(table.route(self.state.announced(from))))
            })
            .collect();
        let delivered: Vec<u32> = self.effect.kept_on.iter().map(|&c| c as u32).collect();
        let dropped: Vec<u32> = self.effect.dropped_on.iter().map(|&c| c as u32).collect();
        fl.step(
            self.stats.steps as u64 - 1,
            &routelab_obs::StepRecord {
                nodes: &nodes,
                pi: &pi,
                sent: &sent,
                delivered: &delivered,
                dropped: &dropped,
            },
        );
    }

    /// `true` when some channel's latest processed message was dropped with
    /// nothing delivered afterwards. A run that *ends* in this state is not
    /// a prefix of any fair execution: Definition 2.4 requires a later
    /// non-dropped message on that channel. (With unreliable channels a
    /// network can reach quiescence this way — converged, but unfairly.)
    pub fn has_dangling_drops(&self) -> bool {
        self.pending_drop.iter().any(|&p| p)
    }

    /// Executes a whole finite sequence.
    pub fn run(&mut self, seq: &ActivationSeq) {
        for s in seq {
            self.step_fast(s);
        }
    }

    /// Resets to the initial state, clearing trace and statistics but
    /// keeping the queues' allocations. When tracing, a reset begins a
    /// fresh run trace so steps of distinct logical runs never share a run
    /// id.
    pub fn reset(&mut self) {
        self.state.reset(&self.table);
        self.trace = PathTrace::new();
        self.trace.push(decode_assignment(&self.table, &self.state));
        self.stats = RunStats::default();
        self.pending_drop.fill(false);
        self.flight = flight_begin(self.inst, &self.index);
    }

    /// Convenience: executes `seq` on a fresh runner and returns the trace.
    pub fn trace_of(inst: &SppInstance, seq: &ActivationSeq) -> PathTrace {
        let mut r = Runner::new(inst);
        r.run(seq);
        r.trace
    }
}

/// Decodes the full assignment π into route values.
fn decode_assignment(table: &RouteTable, state: &InternedState) -> Vec<Route> {
    (0..state.node_count()).map(|i| table.route(state.chosen(NodeId(i as u32))).clone()).collect()
}

/// Opens a flight-recorder run trace with this instance's node/channel
/// directory; `None` when tracing is disabled (the common case — one relaxed
/// atomic load).
fn flight_begin(inst: &SppInstance, index: &ChannelIndex) -> Option<routelab_obs::RunTrace> {
    if !routelab_obs::trace_enabled() {
        return None;
    }
    let names: Vec<&str> =
        (0..inst.node_count()).map(|i| inst.name(routelab_spp::NodeId(i as u32))).collect();
    let chans: Vec<(u32, u32)> = index.channels().iter().map(|c| (c.from.0, c.to.0)).collect();
    let label = format!("{} nodes, dest {}", inst.node_count(), inst.name(inst.dest()));
    routelab_obs::trace_run_begin(&label, &names, &chans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::step::{ChannelAction, NodeUpdate};
    use routelab_spp::gadgets;

    fn poll_step(inst: &SppInstance, idx: &ChannelIndex, name: &str) -> ActivationStep {
        let v = inst.node_by_name(name).unwrap();
        let actions =
            idx.in_channels(v).iter().map(|&c| ChannelAction::read_all(idx.channel(c))).collect();
        ActivationStep::single(NodeUpdate::new(v, actions))
    }

    #[test]
    fn trace_starts_with_initial_assignment() {
        let inst = gadgets::disagree();
        let r = Runner::new(&inst);
        assert_eq!(r.trace().len(), 1);
        let pi0 = r.trace().get(0).unwrap();
        assert_eq!(inst.fmt_route(&pi0[0]), "d");
        assert_eq!(inst.fmt_route(&pi0[1]), "ε");
    }

    #[test]
    fn stats_accumulate() {
        let inst = gadgets::disagree();
        let mut r = Runner::new(&inst);
        let idx = r.index().clone();
        r.step(&poll_step(&inst, &idx, "d"));
        r.step(&poll_step(&inst, &idx, "x"));
        let s = r.stats();
        assert_eq!(s.steps, 2);
        assert_eq!(s.sent, 4); // d announces twice, x announces twice
        assert_eq!(s.consumed, 1);
        assert_eq!(s.changing_steps, 1); // only x's step changed a π
        assert_eq!(s.max_queue_depth, 1); // no channel ever held two messages
        assert_eq!(r.trace().len(), 3);
    }

    #[test]
    fn queue_high_water_mark_tracks_unconsumed_announcements() {
        // Drive DISAGREE so x announces twice (xd, then xyd) while y never
        // reads channel x→y: that channel reaches depth 2.
        let inst = gadgets::disagree();
        let mut r = Runner::new(&inst);
        let idx = r.index().clone();
        let d = inst.dest();
        let x = inst.node_by_name("x").unwrap();
        let y = inst.node_by_name("y").unwrap();
        let read = |from, to| ChannelAction::read_all(routelab_spp::Channel::new(from, to));
        for step in [
            ActivationStep::single(NodeUpdate::new(d, vec![])), // d announces (d)
            ActivationStep::single(NodeUpdate::new(x, vec![read(d, x)])), // x -> xd
            ActivationStep::single(NodeUpdate::new(y, vec![read(d, y)])), // y -> yd
            ActivationStep::single(NodeUpdate::new(x, vec![read(y, x)])), // x -> xyd
        ] {
            r.step(&step);
        }
        assert_eq!(r.stats().max_queue_depth, 2);
        let xy = idx.id(routelab_spp::Channel::new(x, y)).unwrap();
        assert_eq!(r.state().queue(xy).len(), 2);
    }

    #[test]
    fn reset_restores_everything() {
        let inst = gadgets::disagree();
        let mut r = Runner::new(&inst);
        let idx = r.index().clone();
        r.step(&poll_step(&inst, &idx, "d"));
        r.reset();
        assert_eq!(r.trace().len(), 1);
        assert_eq!(r.stats(), RunStats::default());
        assert_eq!(r.state().messages_in_flight(), 0);
    }

    #[test]
    fn run_sequence_equals_individual_steps() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let seq = vec![
            poll_step(&inst, &idx, "d"),
            poll_step(&inst, &idx, "x"),
            poll_step(&inst, &idx, "y"),
        ];
        let t1 = Runner::trace_of(&inst, &seq);
        let mut r = Runner::new(&inst);
        for s in &seq {
            r.step(s);
        }
        assert_eq!(&t1, r.trace());
        assert_eq!(t1.len(), 4);
    }

    #[test]
    fn disagree_converges_under_d_x_y_polling() {
        // With REA-style polling in order d, x, y the network settles into
        // the stable solution (d, xd, yxd).
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let mut r = Runner::new(&inst);
        for name in ["d", "x", "y", "x", "y", "d"] {
            r.step(&poll_step(&inst, &idx, name));
        }
        let last = r.trace().last().unwrap();
        let rendered: Vec<String> = last.iter().map(|p| inst.fmt_route(p)).collect();
        assert_eq!(rendered, vec!["d", "xd", "yxd"]);
        assert!(r.state().is_quiescent());
    }

    #[test]
    fn simple_channel_poll_step_helper_shape() {
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let s = poll_step(&inst, &idx, "a");
        // a has 5 neighbors: x, y, z, u, v.
        assert_eq!(s.actions().count(), 5);
        // This helper emits a legal REA step.
        routelab_core::validate::check_step("REA".parse().unwrap(), inst.graph(), &s).unwrap();
    }

    #[test]
    fn shared_table_runner_matches_owned_table_runner() {
        let inst = gadgets::disagree();
        let table = RouteTable::new(&inst);
        let idx = ChannelIndex::new(inst.graph());
        let seq: Vec<ActivationStep> =
            ["d", "x", "y", "x", "y", "d"].iter().map(|n| poll_step(&inst, &idx, n)).collect();
        let mut owned = Runner::new(&inst);
        let mut shared = Runner::with_table(&inst, &table);
        for s in &seq {
            owned.step(s);
            shared.step(s);
        }
        assert_eq!(owned.trace(), shared.trace());
        assert_eq!(owned.stats(), shared.stats());
        assert_eq!(owned.state().fingerprint(), shared.state().fingerprint());
    }

    #[test]
    fn untraced_runner_keeps_stats_but_not_trace() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let mut traced = Runner::new(&inst);
        let mut fast = Runner::new(&inst).tracing(false);
        for name in ["d", "x", "y", "x", "y", "d"] {
            let step = poll_step(&inst, &idx, name);
            traced.step(&step);
            assert_eq!(fast.step_fast(&step), {
                let t = traced.trace();
                t.get(t.len() - 1) != t.get(t.len() - 2)
            });
        }
        assert_eq!(fast.trace().len(), 1);
        assert_eq!(fast.stats(), traced.stats());
        assert!(fast.state().is_quiescent());
        assert_eq!(fast.state().assignment(), traced.state().assignment());
    }

    #[test]
    fn state_view_round_trips_to_network_state() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let mut r = Runner::new(&inst);
        r.step(&poll_step(&inst, &idx, "d"));
        r.step(&poll_step(&inst, &idx, "x"));
        let ns = r.state().to_network_state();
        assert_eq!(ns.assignment(), r.state().assignment());
        assert_eq!(ns.messages_in_flight(), r.state().messages_in_flight());
        for c in 0..idx.len() {
            assert_eq!(ns.learned(c), r.state().learned(c));
            let decoded: Vec<&Route> = r.state().queue(c).iter().collect();
            assert_eq!(ns.queue(c).len(), decoded.len());
            for (a, b) in ns.queue(c).iter().zip(decoded) {
                assert_eq!(a, b);
            }
        }
        assert_eq!(ns.is_quiescent(), r.state().is_quiescent());
    }
}
