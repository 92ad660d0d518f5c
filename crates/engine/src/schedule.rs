//! Schedulers: sources of activation steps.
//!
//! * [`Scripted`] — replay a fixed finite sequence (the paper's examples),
//! * [`Cyclic`] — repeat a finite sequence forever (oscillation witnesses),
//! * [`RoundRobin`] — the canonical fair schedule for a model,
//! * [`Periodic`] — per-node activation periods (announcement wait times),
//! * [`RandomFair`] — randomized schedules with an attendance window that
//!   keeps finite prefixes fair (Definition 2.4).
//!
//! Every scheduler writes steps in two forms: on dense channel ids
//! ([`Scheduler::next_ids`], which drive loops execute) and as the paper's
//! [`ActivationStep`] ([`Scheduler::next_step_into`]). Each builds one form
//! and converts it to the other: the scripted schedulers lower their stored
//! steps, and the others lift the id steps they build.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_core::model::CommModel;
use routelab_core::step::{ActivationStep, Take};
use routelab_spp::{NodeId, SppInstance};

use crate::index::ChannelIndex;
use crate::interned::IdStep;
use crate::state::NetworkState;

/// The slice of network state schedulers may consult: node count (to pick
/// updaters) and queue lengths (to size drop sets). Implemented by both
/// [`NetworkState`] and the interned runner's state view, so schedulers
/// work with either engine without cloning any route data.
pub trait SchedState {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Queued messages on the channel with dense id `c`.
    fn queue_len(&self, c: usize) -> usize;
}

impl SchedState for NetworkState {
    fn node_count(&self) -> usize {
        self.node_count()
    }

    fn queue_len(&self, c: usize) -> usize {
        self.queue(c).len()
    }
}

/// A source of activation steps. An exhausted schedule yields no step
/// (only finite schedules do this).
pub trait Scheduler {
    /// Writes the next step to execute given the current state into `out`
    /// on dense channel ids, reusing its allocations, and returns `true`;
    /// returns `false`, with `out` unspecified, when the schedule is
    /// exhausted. `index` is the executing runner's channel index:
    /// schedulers holding `ActivationStep`s look their channels up in it,
    /// and those built from the instance hold the same ids already. Drive
    /// loops call this on one buffer per run.
    fn next_ids(&mut self, state: &dyn SchedState, index: &ChannelIndex, out: &mut IdStep) -> bool;

    /// Like [`Scheduler::next_ids`], but writes the step in the paper's
    /// form: the two advance the schedule alike.
    fn next_step_into(&mut self, state: &dyn SchedState, out: &mut ActivationStep) -> bool;

    /// The next step to execute given the current state, in a fresh buffer.
    fn next_step(&mut self, state: &dyn SchedState) -> Option<ActivationStep> {
        let mut step = ActivationStep::simultaneous(Vec::new());
        self.next_step_into(state, &mut step).then_some(step)
    }

    /// A fingerprint of the scheduler's internal position. Combined with the
    /// state fingerprint this makes cycle detection sound: a repeated
    /// `(state, scheduler)` pair proves the run is periodic from there on.
    /// Schedulers whose future output is not a function of this fingerprint
    /// (e.g. randomized ones) must return a never-repeating value.
    fn fingerprint(&self) -> u64;

    /// `false` when [`Scheduler::fingerprint`] never repeats (randomized
    /// schedulers): cycle detection can then skip state fingerprinting and
    /// the seen-set entirely, since no `(state, scheduler)` pair can recur.
    fn may_repeat(&self) -> bool {
        true
    }
}

/// Replays a fixed finite sequence, then stops.
#[derive(Debug, Clone)]
pub struct Scripted {
    steps: Vec<ActivationStep>,
    pos: usize,
}

impl Scripted {
    /// A scheduler replaying `steps` once.
    pub fn new(steps: Vec<ActivationStep>) -> Self {
        Scripted { steps, pos: 0 }
    }

    fn next(&mut self) -> Option<&ActivationStep> {
        let s = self.steps.get(self.pos)?;
        self.pos += 1;
        Some(s)
    }
}

impl Scheduler for Scripted {
    fn next_ids(&mut self, _: &dyn SchedState, index: &ChannelIndex, out: &mut IdStep) -> bool {
        self.next().map(|s| out.lower(s, index)).is_some()
    }

    fn next_step_into(&mut self, _state: &dyn SchedState, out: &mut ActivationStep) -> bool {
        self.next().map(|s| out.clone_from(s)).is_some()
    }

    fn fingerprint(&self) -> u64 {
        self.pos as u64
    }
}

/// Repeats a finite sequence forever.
#[derive(Debug, Clone)]
pub struct Cyclic {
    steps: Vec<ActivationStep>,
    pos: usize,
}

impl Cyclic {
    /// A scheduler cycling through `steps`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: Vec<ActivationStep>) -> Self {
        assert!(!steps.is_empty(), "a cyclic schedule needs at least one step");
        Cyclic { steps, pos: 0 }
    }

    fn next(&mut self) -> &ActivationStep {
        let s = &self.steps[self.pos];
        self.pos = (self.pos + 1) % self.steps.len();
        s
    }
}

impl Scheduler for Cyclic {
    fn next_ids(&mut self, _: &dyn SchedState, index: &ChannelIndex, out: &mut IdStep) -> bool {
        out.lower(self.next(), index);
        true
    }

    fn next_step_into(&mut self, _state: &dyn SchedState, out: &mut ActivationStep) -> bool {
        out.clone_from(self.next());
        true
    }

    fn fingerprint(&self) -> u64 {
        self.pos as u64
    }
}

/// Writes `v`'s canonical step into `out`, shared by [`RoundRobin`] and
/// [`Periodic`]: scope `1` reads the in-channel under `v`'s cursor and
/// advances it, scopes `M`/`E` read every in-channel. Reads are lossless,
/// hence legal for both reliabilities; policy `O` reads one message, and
/// `S`, `F` and `A` all admit "read everything".
fn canonical_step_into(
    model: CommModel,
    index: &ChannelIndex,
    channel_cursor: &mut [usize],
    v: NodeId,
    out: &mut IdStep,
) {
    out.clear();
    out.push_update(v);
    let take = match model.messages {
        MessagePolicy::One => Take::Count(1),
        MessagePolicy::Some | MessagePolicy::Forced | MessagePolicy::All => Take::All,
    };
    let ins = index.in_channels(v);
    if ins.is_empty() {
        return;
    }
    match model.scope {
        NeighborScope::One => {
            let k = channel_cursor[v.index()] % ins.len();
            channel_cursor[v.index()] = (k + 1) % ins.len();
            out.push_read(ins[k], take, 0);
        }
        NeighborScope::Multiple | NeighborScope::Every => {
            for &c in ins {
                out.push_read(c, take, 0);
            }
        }
    }
}

/// The canonical fair schedule for a model: nodes in round-robin order; a
/// node with scope `1` cycles through its channels one per visit, scopes
/// `M`/`E` process all channels.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    model: CommModel,
    index: ChannelIndex,
    node_count: usize,
    node_cursor: usize,
    /// Per-node channel cursor (used when scope is `1`).
    channel_cursor: Vec<usize>,
    /// The id step [`RoundRobin::next_into`] builds and lifts.
    ids: IdStep,
}

impl RoundRobin {
    /// A round-robin scheduler for `inst` under `model`.
    pub fn new(inst: &SppInstance, model: CommModel) -> Self {
        RoundRobin {
            model,
            index: ChannelIndex::new(inst.graph()),
            node_count: inst.node_count(),
            node_cursor: 0,
            channel_cursor: vec![0; inst.node_count()],
            ids: IdStep::default(),
        }
    }

    /// The next node to update, advancing the node cursor.
    fn next_node(&mut self) -> NodeId {
        let v = NodeId(self.node_cursor as u32);
        self.node_cursor = (self.node_cursor + 1) % self.node_count;
        v
    }

    /// Writes the next step into `out`, reusing its allocations and those
    /// of the id step it lifts. Round robin never consults the network
    /// state, so a prefix needs no execution.
    pub fn next_into(&mut self, out: &mut ActivationStep) {
        let v = self.next_node();
        canonical_step_into(self.model, &self.index, &mut self.channel_cursor, v, &mut self.ids);
        self.ids.lift_into(&self.index, out);
    }
}

impl Scheduler for RoundRobin {
    fn next_ids(&mut self, _: &dyn SchedState, _: &ChannelIndex, out: &mut IdStep) -> bool {
        let v = self.next_node();
        canonical_step_into(self.model, &self.index, &mut self.channel_cursor, v, out);
        true
    }

    fn next_step_into(&mut self, _state: &dyn SchedState, out: &mut ActivationStep) -> bool {
        self.next_into(out);
        true
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = self.node_cursor as u64;
        for &c in &self.channel_cursor {
            fp = fp.wrapping_mul(31).wrapping_add(c as u64);
        }
        fp
    }
}

/// Discrete-time periodic scheduler: node `i` activates every `periods[i]`
/// ticks (earliest-deadline order, ties by node id), processing channels
/// like [`RoundRobin`]. Models per-node announcement wait times — the knob
/// the paper's related-work section discusses for BGP: longer waits can
/// either slow convergence (routes are discovered late) or speed it up
/// (fewer spurious transient announcements).
#[derive(Debug, Clone)]
pub struct Periodic {
    model: CommModel,
    index: ChannelIndex,
    next_fire: Vec<u64>,
    periods: Vec<u64>,
    channel_cursor: Vec<usize>,
}

impl Periodic {
    /// A periodic scheduler with one activation period per node.
    ///
    /// # Panics
    ///
    /// Panics when `periods` does not have one non-zero entry per node.
    pub fn new(inst: &SppInstance, model: CommModel, periods: Vec<u64>) -> Self {
        assert_eq!(periods.len(), inst.node_count(), "one period per node");
        assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
        Periodic {
            model,
            index: ChannelIndex::new(inst.graph()),
            next_fire: periods.clone(),
            periods,
            channel_cursor: vec![0; inst.node_count()],
        }
    }

    /// All nodes share the same period — equivalent to round-robin order.
    pub fn uniform(inst: &SppInstance, model: CommModel, period: u64) -> Self {
        Periodic::new(inst, model, vec![period; inst.node_count()])
    }

    fn next_ids_into(&mut self, out: &mut IdStep) {
        let i = (0..self.next_fire.len())
            .min_by_key(|&i| (self.next_fire[i], i))
            .expect("at least one node");
        self.next_fire[i] += self.periods[i];
        let v = NodeId(i as u32);
        canonical_step_into(self.model, &self.index, &mut self.channel_cursor, v, out);
    }
}

impl Scheduler for Periodic {
    fn next_ids(&mut self, _: &dyn SchedState, _: &ChannelIndex, out: &mut IdStep) -> bool {
        self.next_ids_into(out);
        true
    }

    fn next_step_into(&mut self, _state: &dyn SchedState, out: &mut ActivationStep) -> bool {
        let mut ids = IdStep::default();
        self.next_ids_into(&mut ids);
        ids.lift_into(&self.index, out);
        true
    }

    fn fingerprint(&self) -> u64 {
        // Normalize fire times by their minimum: the schedule's future only
        // depends on the relative offsets, which recur — making cycle
        // detection possible despite absolute time growing forever.
        let base = self.next_fire.iter().copied().min().unwrap_or(0);
        let mut fp = 0u64;
        for &n in &self.next_fire {
            fp = fp.wrapping_mul(1_000_003).wrapping_add(n - base);
        }
        for &c in &self.channel_cursor {
            fp = fp.wrapping_mul(31).wrapping_add(c as u64);
        }
        fp
    }
}

/// A fair coin, `1` on heads: bit 63 clear, exactly `rng.gen_bool(0.5)`.
fn heads(rng: &mut StdRng) -> usize {
    usize::from(rng.next_u64() >> 63 == 0)
}

/// Randomized fair scheduler: picks random nodes, random legal actions, and
/// forces attendance of any channel starved longer than `window` steps, so
/// every finite prefix of length `≥ window · |C|` attends every channel.
/// With unreliable models each read is dropped with probability `drop_prob`,
/// except that a channel never suffers two consecutive drops (a cheap
/// finite-prefix analogue of Definition 2.4's drop fairness).
#[derive(Debug)]
pub struct RandomFair {
    model: CommModel,
    index: ChannelIndex,
    rng: StdRng,
    drop_prob: f64,
    window: usize,
    step_no: usize,
    last_attended: Vec<usize>,
    /// Channels from least to most recently attended, as a doubly linked
    /// list over channel ids: `order[c]` is `(prev, next)`, and a sentinel
    /// at index `C` links the back and the front. The channels a step
    /// attends move to the back largest id first, so the front is the most
    /// starved channel with ties broken toward the largest id — exactly the
    /// channel a linear `max_by_key(step_no - last_attended)` scan would
    /// return (that combinator keeps the *last* maximum). Checking and
    /// moving are O(1).
    order: Vec<(u32, u32)>,
    just_dropped: Vec<bool>,
    /// Scratch list of the channels the current step processes.
    chosen: Vec<usize>,
}

impl RandomFair {
    /// Creates a randomized fair scheduler.
    pub fn new(inst: &SppInstance, model: CommModel, seed: u64) -> Self {
        let index = ChannelIndex::new(inst.graph());
        let n = index.len();
        RandomFair {
            model,
            index,
            rng: StdRng::seed_from_u64(seed),
            drop_prob: 0.3,
            window: 8 * n.max(1),
            step_no: 0,
            last_attended: vec![0; n],
            // Front to back: channel C - 1 down to channel 0.
            order: (0..=n)
                .map(|c| (if c == n { 0 } else { c + 1 }, if c == 0 { n } else { c - 1 }))
                .map(|(prev, next)| (prev as u32, next as u32))
                .collect(),
            just_dropped: vec![false; n],
            chosen: Vec::new(),
        }
    }

    /// Sets the per-read drop probability (only effective for `U` models).
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the attendance window.
    pub fn with_window(mut self, w: usize) -> Self {
        self.window = w.max(1);
        self
    }

    /// The channel to force-attend this step, if any has starved past the
    /// window. Most starved first; ties toward the largest channel id.
    fn forced_channel(&self) -> Option<usize> {
        let c = self.order[self.last_attended.len()].1 as usize;
        (c < self.last_attended.len() && self.step_no - self.last_attended[c] >= self.window)
            .then_some(c)
    }

    /// Moves the channels in `chosen` that this step attended to the back
    /// of `order`, largest id first. `chosen` is in id order, except that a
    /// forced channel the scope-`M` coins missed comes last: sort it first.
    fn log_attendance(&mut self) {
        if self.chosen.windows(2).last().is_some_and(|w| w[0] > w[1]) {
            self.chosen.sort_unstable();
        }
        let sentinel = self.last_attended.len();
        for &c in self.chosen.iter().rev().filter(|&&c| self.last_attended[c] == self.step_no) {
            let (prev, next) = self.order[c];
            self.order[prev as usize].1 = next;
            self.order[next as usize].0 = prev;
            let back = self.order[sentinel].0;
            self.order[back as usize].1 = c as u32;
            self.order[c] = (back, sentinel as u32);
            self.order[sentinel].0 = c as u32;
        }
    }

    /// Draws the read of channel `cid`, which holds `queue_len` messages:
    /// its take, then under unreliable models whether it drops everything
    /// it takes. Returns the take and how many of the first messages it
    /// drops.
    fn read_for(&mut self, cid: usize, queue_len: usize, must_attend: bool) -> (Take, u32) {
        let take = match self.model.messages {
            MessagePolicy::One => Take::Count(1),
            MessagePolicy::All => Take::All,
            MessagePolicy::Forced => {
                if self.rng.gen_bool(0.5) {
                    Take::All
                } else {
                    Take::Count(1 + self.rng.gen_range(0..3u32))
                }
            }
            MessagePolicy::Some => match self.rng.gen_range(0..3) {
                0 => Take::All,
                1 => {
                    let lo = if must_attend { 1 } else { 0 };
                    Take::Count(self.rng.gen_range(lo..4))
                }
                _ => Take::Count(1),
            },
        };
        // Only a genuine read attempt counts as attendance (Definition 2.4).
        if take != Take::Count(0) {
            self.last_attended[cid] = self.step_no;
        }
        // Unreliable models: maybe drop everything that is taken.
        if self.model.reliability == Reliability::Unreliable
            && !self.just_dropped[cid]
            && queue_len > 0
            && self.rng.gen_bool(self.drop_prob)
        {
            let k = match take {
                Take::All => queue_len as u32,
                Take::Count(k) => k.min(queue_len as u32),
            };
            if k > 0 {
                self.just_dropped[cid] = true;
                return (take, k);
            }
        }
        self.just_dropped[cid] = false;
        (take, 0)
    }

    fn next_ids_into(&mut self, state: &dyn SchedState, out: &mut IdStep) {
        self.step_no += 1;
        // Starvation check: force the most starved channel if over window.
        let forced = self.forced_channel();
        let v = match forced {
            Some(c) => self.index.channel(c).to,
            None => NodeId(self.rng.gen_range(0..state.node_count()) as u32),
        };
        self.chosen.clear();
        let ins = self.index.in_channels(v);
        if !ins.is_empty() {
            match self.model.scope {
                NeighborScope::Every => self.chosen.extend_from_slice(ins),
                NeighborScope::One => {
                    let c = forced.unwrap_or_else(|| ins[self.rng.gen_range(0..ins.len())]);
                    self.chosen.push(c);
                }
                NeighborScope::Multiple => {
                    // Keep each in-channel on heads, without a branch.
                    for &c in ins {
                        self.chosen.push(c);
                        self.chosen.truncate(self.chosen.len() - 1 + heads(&mut self.rng));
                    }
                    if let Some(c) = forced.filter(|c| !self.chosen.contains(c)) {
                        self.chosen.push(c);
                    }
                }
            }
        }
        out.clear();
        out.push_update(v);
        for k in 0..self.chosen.len() {
            let cid = self.chosen[k];
            let (take, dropped) = self.read_for(cid, state.queue_len(cid), forced == Some(cid));
            out.push_read(cid, take, dropped);
        }
        self.log_attendance();
    }
}

impl Scheduler for RandomFair {
    fn next_ids(&mut self, state: &dyn SchedState, _: &ChannelIndex, out: &mut IdStep) -> bool {
        self.next_ids_into(state, out);
        true
    }

    fn next_step_into(&mut self, state: &dyn SchedState, out: &mut ActivationStep) -> bool {
        let mut ids = IdStep::default();
        self.next_ids_into(state, &mut ids);
        ids.lift_into(&self.index, out);
        true
    }

    fn fingerprint(&self) -> u64 {
        // Randomized: never claim periodicity.
        self.step_no as u64
    }

    fn may_repeat(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::step::{ChannelAction, NodeUpdate};
    use routelab_core::validate::check_step;
    use routelab_spp::gadgets;

    #[test]
    fn scripted_replays_then_stops() {
        let inst = gadgets::line2();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let step = ActivationStep::single(NodeUpdate::bare(inst.dest()));
        let mut s = Scripted::new(vec![step.clone(), step.clone()]);
        assert!(s.next_step(&state).is_some());
        assert_eq!(s.fingerprint(), 1);
        assert!(s.next_step(&state).is_some());
        assert!(s.next_step(&state).is_none());
    }

    #[test]
    fn cyclic_wraps() {
        let inst = gadgets::line2();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let step = ActivationStep::single(NodeUpdate::bare(inst.dest()));
        let mut s = Cyclic::new(vec![step.clone(), step]);
        for _ in 0..5 {
            assert!(s.next_step(&state).is_some());
        }
        assert_eq!(s.fingerprint(), 1); // 5 mod 2
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn cyclic_rejects_empty() {
        let _ = Cyclic::new(vec![]);
    }

    #[test]
    fn round_robin_emits_legal_steps_for_every_model() {
        for (name, inst) in gadgets::corpus() {
            let idx = ChannelIndex::new(inst.graph());
            let state = NetworkState::initial(&inst, &idx);
            for model in CommModel::all() {
                let mut rr = RoundRobin::new(&inst, model);
                for k in 0..3 * inst.node_count() {
                    let step = rr.next_step(&state).unwrap();
                    check_step(model, inst.graph(), &step)
                        .unwrap_or_else(|e| panic!("{name} {model} step {k}: {e}"));
                }
            }
        }
    }

    #[test]
    fn round_robin_scope_one_cycles_channels() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let mut rr = RoundRobin::new(&inst, "R1O".parse().unwrap());
        // Collect the channels x reads over several rounds.
        let x = inst.node_by_name("x").unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 * inst.node_count() {
            let step = rr.next_step(&state).unwrap();
            if step.sole_node() == Some(x) {
                for a in step.actions() {
                    seen.insert(a.channel());
                }
            }
        }
        assert_eq!(seen.len(), 2, "x must cycle through both in-channels");
    }

    #[test]
    fn periodic_uniform_matches_round_robin_order() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let mut p = Periodic::uniform(&inst, "REA".parse().unwrap(), 1);
        let mut rr = RoundRobin::new(&inst, "REA".parse().unwrap());
        for _ in 0..9 {
            assert_eq!(
                p.next_step(&state).unwrap().sole_node(),
                rr.next_step(&state).unwrap().sole_node()
            );
        }
    }

    #[test]
    fn periodic_respects_relative_rates() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        // d fires every tick, x every 2, y every 4.
        let mut p = Periodic::new(&inst, "RMS".parse().unwrap(), vec![1, 2, 4]);
        let mut counts = [0usize; 3];
        for _ in 0..28 {
            let v = p.next_step(&state).unwrap().sole_node().unwrap();
            counts[v.index()] += 1;
        }
        // Rates 1 : 1/2 : 1/4 over 28 steps -> 16 : 8 : 4.
        assert_eq!(counts, [16, 8, 4]);
    }

    #[test]
    fn periodic_steps_are_legal_and_fair() {
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        for model in ["R1O", "RMS", "REA"] {
            let model: CommModel = model.parse().unwrap();
            let periods: Vec<u64> = (0..inst.node_count() as u64).map(|i| 1 + i % 3).collect();
            let mut p = Periodic::new(&inst, model, periods);
            let mut seq = Vec::new();
            for _ in 0..200 {
                let s = p.next_step(&state).unwrap();
                check_step(model, inst.graph(), &s).unwrap();
                seq.push(s);
            }
            crate::fairness::check_window(&seq, &idx, 80).unwrap();
        }
    }

    #[test]
    fn periodic_fingerprint_recurs_for_cycle_detection() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let mut p = Periodic::new(&inst, "REA".parse().unwrap(), vec![1, 2, 2]);
        let mut seen = std::collections::HashSet::new();
        let mut recurred = false;
        for _ in 0..50 {
            recurred |= !seen.insert(p.fingerprint());
            p.next_step(&state);
        }
        assert!(recurred, "normalized fingerprints must recur");
    }

    #[test]
    #[should_panic(expected = "one period per node")]
    fn periodic_validates_period_count() {
        let inst = gadgets::disagree();
        let _ = Periodic::new(&inst, "RMS".parse().unwrap(), vec![1]);
    }

    #[test]
    fn random_fair_emits_legal_steps_for_every_model() {
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        for model in CommModel::all() {
            let mut s = RandomFair::new(&inst, model, 7);
            for k in 0..100 {
                let step = s.next_step(&state).unwrap();
                check_step(model, inst.graph(), &step)
                    .unwrap_or_else(|e| panic!("{model} step {k}: {e}"));
            }
        }
    }

    #[test]
    fn random_fair_attends_every_channel_within_window() {
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let window = 40;
        let mut s = RandomFair::new(&inst, "RMS".parse().unwrap(), 3).with_window(window);
        let mut last = vec![0usize; idx.len()];
        for t in 1..=2_000 {
            let step = s.next_step(&state).unwrap();
            for a in step.actions() {
                if a.attends() {
                    last[idx.id(a.channel()).unwrap()] = t;
                }
            }
            for (c, &l) in last.iter().enumerate() {
                // One channel is force-attended per step, so when many
                // starve at once the unluckiest can wait one extra slot per
                // channel (plus bookkeeping offsets).
                assert!(t - l <= window + 2 * idx.len(), "channel {c} starved for {} steps", t - l);
            }
        }
    }

    #[test]
    fn random_fair_never_drops_twice_in_a_row() {
        let inst = gadgets::disagree();
        let mut runner = crate::runner::Runner::new(&inst);
        let mut s = RandomFair::new(&inst, "UMS".parse().unwrap(), 11).with_drop_prob(0.9);
        let idx = runner.index().clone();
        let mut last_was_drop = vec![false; idx.len()];
        for _ in 0..500 {
            let step = s.next_step(&runner.state()).unwrap();
            for a in step.actions() {
                let cid = idx.id(a.channel()).unwrap();
                let drops_now = !a.is_lossless() && !runner.state().queue(cid).is_empty();
                if drops_now {
                    assert!(!last_was_drop[cid], "two consecutive drops on {cid}");
                }
                if a.attends() {
                    last_was_drop[cid] = drops_now;
                }
            }
            runner.step(&step);
        }
    }

    #[test]
    fn random_fair_forced_channel_matches_linear_scan() {
        // The attendance-order starvation index must pick exactly the channel
        // the original O(C) scan picked: last maximum of
        // `step_no - last_attended` (max_by_key keeps the *last* max), gated
        // on the window.
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        for model in CommModel::all() {
            let mut s = RandomFair::new(&inst, model, 5).with_window(6);
            for _ in 0..1_000 {
                // next_step consults forced_channel after bumping step_no;
                // evaluate both selectors at that post-bump count.
                s.step_no += 1;
                let reference = (0..s.index.len())
                    .max_by_key(|&c| s.step_no - s.last_attended[c])
                    .filter(|&c| s.step_no - s.last_attended[c] >= s.window);
                assert_eq!(s.forced_channel(), reference, "{model} at step {}", s.step_no);
                s.step_no -= 1;
                s.next_step(&state).unwrap();
            }
            assert!(!s.may_repeat());
        }
    }

    /// Hands the shared `buf`, reset to the two-node `a6` step, to `sched`
    /// and drives it on a runner for up to 2,000 steps, asserting that each
    /// step it writes there equals what `next_step` returns from its twin.
    fn assert_fills_like_twin(
        inst: &SppInstance,
        a6: &ActivationStep,
        buf: &mut ActivationStep,
        sched: &mut dyn Scheduler,
        twin: &mut dyn Scheduler,
        what: &str,
    ) {
        buf.clone_from(a6);
        let mut runner = crate::runner::Runner::new(inst).tracing(false);
        for k in 0..2_000 {
            let want = twin.next_step(&runner.state());
            let filled = sched.next_step_into(&runner.state(), buf);
            assert_eq!(filled.then_some(&*buf), want.as_ref(), "{what} step {k}");
            let Some(step) = want else { break };
            runner.step_fast(&step);
        }
    }

    #[test]
    fn next_step_into_matches_next_step_through_one_reused_buffer() {
        // One buffer passes through every scheduler in turn. Each turn
        // starts from A.6's first two-node cycle step, so a stale second
        // update or a leftover action shows as a mismatch.
        let (_, _, a6_cycle) = crate::paper_runs::a6_multinode();
        let a6 = &a6_cycle[0];
        assert!(a6.updates.len() == 2 && a6.updates.iter().all(|u| !u.actions.is_empty()));
        let mut buf = a6.clone();
        for inst in [gadgets::fig6(), gadgets::bad_gadget()] {
            let idx = ChannelIndex::new(inst.graph());
            let poll = |v: NodeId| {
                let reads =
                    idx.in_channels(v).iter().map(|&c| ChannelAction::read_all(idx.channel(c)));
                NodeUpdate::new(v, reads.collect())
            };
            let two_node = ActivationStep::simultaneous(vec![poll(NodeId(1)), poll(NodeId(2))]);
            let periods: Vec<u64> = (0..inst.node_count() as u64).map(|i| 1 + i % 3).collect();
            for model in CommModel::all() {
                let name = format!("{inst} {model}");
                let random = |seed| RandomFair::new(&inst, model, seed).with_drop_prob(0.9);
                // A two-node step and a recorded run (with drop sets under U
                // models), for Scripted, which runs dry, and Cyclic.
                let mut script = vec![two_node.clone()];
                let mut recorder = random(9);
                let mut runner = crate::runner::Runner::new(&inst).tracing(false);
                for _ in 0..40 {
                    script.push(recorder.next_step(&runner.state()).unwrap());
                    runner.step_fast(script.last().unwrap());
                }
                let mut check =
                    |what: &str, sched: &mut dyn Scheduler, twin: &mut dyn Scheduler| {
                        assert_fills_like_twin(&inst, a6, &mut buf, sched, twin, what);
                    };
                let scripted = || Scripted::new(script.clone());
                check(&name, &mut scripted(), &mut scripted());
                let cyclic = || Cyclic::new(script.clone());
                check(&name, &mut cyclic(), &mut cyclic());
                let rr = || RoundRobin::new(&inst, model);
                check(&name, &mut rr(), &mut rr());
                let periodic = || Periodic::new(&inst, model, periods.clone());
                check(&name, &mut periodic(), &mut periodic());
                for seed in 1..=3 {
                    check(&format!("{name} seed {seed}"), &mut random(seed), &mut random(seed));
                }
            }
        }
    }

    #[test]
    fn heads_is_gen_bool_one_half() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut count = 0;
        for k in 0..100_000 {
            let mut twin = rng.clone();
            let coin = heads(&mut rng);
            assert_eq!(coin == 1, twin.gen_bool(0.5), "draw {k}");
            assert_eq!(rng, twin, "draw {k} consumed a different number of words");
            count += coin;
        }
        assert!((49_000..51_000).contains(&count), "{count} heads");
    }

    #[test]
    fn random_fair_is_deterministic_per_seed() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &idx);
        let mut a = RandomFair::new(&inst, "RMS".parse().unwrap(), 42);
        let mut b = RandomFair::new(&inst, "RMS".parse().unwrap(), 42);
        for _ in 0..50 {
            assert_eq!(a.next_step(&state), b.next_step(&state));
        }
    }
}
