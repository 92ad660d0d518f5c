//! The reference `RandomFair` that the production scheduler is checked
//! against step for step: the scheduler as it was before attendance was
//! logged from the step's own reads. After each step it scans every
//! in-channel of the updating node, largest id first, for the ones the step
//! attended, and it draws scope-`M` coins through `filter`.
//!
//! It also counts the steps that exercise what the production scheduler
//! must get right: forced steps, and scope-`M` steps whose forced channel
//! the coins missed and which was appended behind a larger drawn channel,
//! so that the step's reads are out of id order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_core::model::CommModel;
use routelab_core::step::Take;
use routelab_engine::{ChannelIndex, IdStep, SchedState};
use routelab_spp::{NodeId, SppInstance};

/// Randomized fair scheduler, built and seeded like
/// `routelab_engine::schedule::RandomFair`.
#[derive(Debug)]
pub struct RandomFairReference {
    model: CommModel,
    index: ChannelIndex,
    rng: StdRng,
    drop_prob: f64,
    window: usize,
    step_no: usize,
    last_attended: Vec<usize>,
    /// Channels from least to most recently attended, as a doubly linked
    /// list over channel ids: `order[c]` is `(prev, next)`, and a sentinel
    /// at index `C` links the back and the front.
    order: Vec<(u32, u32)>,
    just_dropped: Vec<bool>,
    chosen: Vec<usize>,
    /// Steps that force-attended a starved channel.
    pub forced_steps: usize,
    /// Scope-`M` steps whose forced channel was appended behind a larger
    /// channel the coins chose.
    pub appended_steps: usize,
}

impl RandomFairReference {
    /// Creates a randomized fair scheduler.
    pub fn new(inst: &SppInstance, model: CommModel, seed: u64) -> Self {
        let index = ChannelIndex::new(inst.graph());
        let n = index.len();
        RandomFairReference {
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
            forced_steps: 0,
            appended_steps: 0,
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

    /// Moves the channels this step attended to the back of `order`,
    /// largest id first. They are in-channels of the updating node `v`, and
    /// those are listed in increasing id order.
    fn log_attendance(&mut self, v: NodeId) {
        let sentinel = self.last_attended.len();
        for &c in self.index.in_channels(v).iter().rev() {
            if self.last_attended[c] != self.step_no {
                continue;
            }
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

    /// Writes the next step into `out`.
    pub fn next_ids(&mut self, state: &dyn SchedState, out: &mut IdStep) {
        self.step_no += 1;
        // Starvation check: force the most starved channel if over window.
        let forced = self.forced_channel();
        self.forced_steps += usize::from(forced.is_some());
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
                    self.chosen.extend(ins.iter().copied().filter(|_| self.rng.gen_bool(0.5)));
                    if let Some(c) = forced {
                        if !self.chosen.contains(&c) {
                            self.appended_steps += usize::from(self.chosen.iter().any(|&d| d > c));
                            self.chosen.push(c);
                        }
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
        self.log_attendance(v);
    }
}
