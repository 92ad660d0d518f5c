//! The transformation algorithms behind the paper's positive results.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use routelab_core::lattice::Strength;
use routelab_core::step::{ActivationSeq, ActivationStep, ChannelAction, NodeUpdate, Take};
use routelab_core::MessagePolicy;
use routelab_engine::index::ChannelIndex;
use routelab_engine::runner::{Runner, StateView};
use routelab_spp::{Channel, RouteTable, SppInstance};

/// Failure modes of a transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransformError {
    /// The input step updates several nodes; the taxonomy transforms assume
    /// `|U| = 1`.
    MultiNodeStep { step: usize },
    /// The input step does not have the shape its source model requires
    /// (e.g. several channels where scope `1` is expected).
    BadSourceShape { step: usize, reason: &'static str },
    /// Internal invariant broken — indicates a bug, surfaced loudly.
    Internal { step: usize, reason: &'static str },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::MultiNodeStep { step } => {
                write!(f, "step {step} updates multiple nodes")
            }
            TransformError::BadSourceShape { step, reason } => {
                write!(f, "step {step} has the wrong shape for the source model: {reason}")
            }
            TransformError::Internal { step, reason } => {
                write!(f, "internal invariant broken at step {step}: {reason}")
            }
        }
    }
}

impl Error for TransformError {}

/// The route table and channel index of one instance, built once and
/// shared by every construction and check that simulates it: each simulator
/// borrows the table instead of interning the instance's routes again.
#[derive(Debug)]
pub struct Tables<'a> {
    pub(crate) inst: &'a SppInstance,
    pub(crate) index: ChannelIndex,
    table: RouteTable,
}

impl<'a> Tables<'a> {
    /// Interns `inst`'s routes and indexes its channels.
    pub fn new(inst: &'a SppInstance) -> Self {
        Tables { inst, index: ChannelIndex::new(inst.graph()), table: RouteTable::new(inst) }
    }

    /// An untraced runner in the initial state over the shared route table
    /// and channel index.
    pub fn runner(&self) -> Runner<'_> {
        Runner::with_index(self.inst, &self.table, &self.index).tracing(false)
    }
}

/// A transformed sequence plus bookkeeping.
#[derive(Debug, Clone)]
pub struct TransformOutput<'s> {
    /// The activation sequence for the target model: the input itself when
    /// the construction leaves it unchanged, so a chain copies nothing until
    /// a stage rewrites it.
    pub seq: Cow<'s, ActivationSeq>,
    /// The trace relation the construction guarantees.
    pub claimed: Strength,
    /// `false` when a source no-op step could not be represented in the
    /// target model (no empty channel was available for a padding read) and
    /// was skipped; the claimed relation may then fail on traces that
    /// stutter at exactly that point.
    pub lossless: bool,
}

/// Executes `step` and returns the messages it consumed and sent.
fn step_counts(sim: &mut Runner<'_>, step: &ActivationStep) -> (usize, usize) {
    let before = sim.stats();
    sim.step_fast(step);
    let after = sim.stats();
    (after.consumed - before.consumed, after.sent - before.sent)
}

fn single(step: &ActivationStep, t: usize) -> Result<&NodeUpdate, TransformError> {
    match step.updates.as_slice() {
        [u] => Ok(u),
        _ => Err(TransformError::MultiNodeStep { step: t }),
    }
}

/// Finds a state-preserving step for the given message policy: a read on an
/// empty channel (policies `O`/`F`/`A`) or an `f = 0` read anywhere (`S`).
fn noop_step(
    state: StateView<'_>,
    index: &ChannelIndex,
    policy: MessagePolicy,
) -> Option<ActivationStep> {
    // A step is state-preserving only if the activated node has nothing
    // pending to announce (before its first activation the destination owes
    // its bootstrap announcement) and, unless the policy admits `f = 0`,
    // the targeted channel is empty.
    let settled = |c: &Channel| state.chosen(c.to) == state.announced(c.to);
    if policy == MessagePolicy::Some {
        let cid = (0..index.len()).find(|&cid| settled(&index.channel(cid)))?;
        let c = index.channel(cid);
        return Some(ActivationStep::single(NodeUpdate::new(c.to, vec![ChannelAction::skip(c)])));
    }
    let cid = (0..index.len())
        .find(|&cid| state.queue(cid).is_empty() && settled(&index.channel(cid)))?;
    let c = index.channel(cid);
    let action = match policy {
        MessagePolicy::All => ChannelAction::read_all(c),
        _ => ChannelAction::read_one(c),
    };
    Some(ActivationStep::single(NodeUpdate::new(c.to, vec![action])))
}

/// Proposition 3.3: the identity embedding. The sequence is returned as-is,
/// borrowed; it is already syntactically legal in the stronger model.
pub fn identity<'s>(
    _tables: &Tables<'_>,
    seq: &'s ActivationSeq,
) -> Result<TransformOutput<'s>, TransformError> {
    Ok(TransformOutput { seq: Cow::Borrowed(seq), claimed: Strength::Exact, lossless: true })
}

/// Proposition 3.4: `wES` exactly realizes `wMS`. Every update is padded
/// with `f = 0` actions on its unprocessed channels, so scope `E` holds and
/// no extra message is touched.
pub fn pad_m_to_e(
    tables: &Tables<'_>,
    seq: &ActivationSeq,
) -> Result<TransformOutput<'static>, TransformError> {
    let index = &tables.index;
    let mut out = Vec::with_capacity(seq.len());
    for (t, step) in seq.iter().enumerate() {
        let u = single(step, t)?;
        let mut actions = u.actions.clone();
        for &cid in index.in_channels(u.node) {
            let c = index.channel(cid);
            if !actions.iter().any(|a| a.channel() == c) {
                actions.push(ChannelAction::skip(c));
            }
        }
        out.push(ActivationStep::single(NodeUpdate::new(u.node, actions)));
    }
    Ok(TransformOutput { seq: Cow::Owned(out), claimed: Strength::Exact, lossless: true })
}

/// Theorem 3.5: `w1y` realizes `wMy` with repetition. Each multi-channel
/// update is split into single-channel updates, ordered so that the channel
/// providing the *new* best path comes first and the channel that provided
/// the *old* best path comes last (with the proof's tie rule when they
/// coincide), which guarantees at most one π change across the split.
///
/// `policy` is the shared message dimension `y` (used to shape the
/// state-preserving steps that stand in for empty `wMy` updates).
pub fn split_m_to_1(
    tables: &Tables<'_>,
    seq: &ActivationSeq,
    policy: MessagePolicy,
) -> Result<TransformOutput<'static>, TransformError> {
    let (inst, index) = (tables.inst, &tables.index);
    let mut source = tables.runner(); // the wMy execution
    let mut target = tables.runner(); // the w1y execution being built
    let mut out = Vec::new();
    let mut lossless = true;

    for (t, step) in seq.iter().enumerate() {
        let u = single(step, t)?;
        let v = u.node;
        // The source execution never reads the target, so it can take the
        // step before the target's split of it is built.
        let before = source.state().chosen(v).clone();
        source.step_fast(step);
        let after = source.state().chosen(v).clone();

        let chan_of = |route: &routelab_spp::Route| {
            route.as_path().and_then(|p| p.next_hop()).map(|nh| Channel::new(nh, v))
        };
        let c_new = chan_of(&after);
        let c_old = chan_of(&before);

        let mut actions = u.actions.clone();
        if actions.is_empty() {
            // An empty wMy update still re-chooses and may announce (the
            // destination's bootstrap!), so the SAME node must activate:
            // under policy S an `f = 0` read works on any channel; otherwise
            // pick an empty in-channel so no message is consumed.
            let action = if policy == MessagePolicy::Some {
                index.in_channels(v).first().map(|&c| ChannelAction::skip(index.channel(c)))
            } else {
                index
                    .in_channels(v)
                    .iter()
                    .copied()
                    .find(|&c| target.state().queue(c).is_empty())
                    .map(|c| match policy {
                        MessagePolicy::All => ChannelAction::read_all(index.channel(c)),
                        _ => ChannelAction::read_one(index.channel(c)),
                    })
            };
            match action {
                Some(a) => {
                    let s = ActivationStep::single(NodeUpdate::new(v, vec![a]));
                    target.step_fast(&s);
                    out.push(s);
                }
                None => lossless = false,
            }
        } else {
            // Order: new-best channel first, old-best channel last; when
            // they coincide, first iff the new path is weakly preferred.
            let rank_of = |route: &routelab_spp::Route| {
                route.as_path().and_then(|p| inst.rank(v, p)).unwrap_or(u32::MAX)
            };
            let first = match (c_new, c_old) {
                (Some(cn), Some(co)) if cn == co => {
                    if rank_of(&after) <= rank_of(&before) {
                        Some(cn)
                    } else {
                        None
                    }
                }
                (cn, _) => cn,
            };
            let last = match (c_new, c_old) {
                (Some(cn), Some(co)) if cn == co => {
                    if rank_of(&after) > rank_of(&before) {
                        Some(co)
                    } else {
                        None
                    }
                }
                (_, co) => co,
            };
            actions.sort_by_key(|a| {
                if Some(a.channel()) == first {
                    (0, a.channel())
                } else if Some(a.channel()) == last {
                    (2, a.channel())
                } else {
                    (1, a.channel())
                }
            });
            for a in actions {
                let s = ActivationStep::single(NodeUpdate::new(v, vec![a]));
                target.step_fast(&s);
                out.push(s);
            }
        }
    }
    Ok(TransformOutput { seq: Cow::Owned(out), claimed: Strength::Repetition, lossless })
}

/// Proposition 3.6, reliable case: `R1O` realizes `R1S` as a subsequence.
///
/// The construction simulates both systems. Messages in the R1O channels
/// carry a *flag* marking them as counterparts of R1S messages (a node's
/// intermediate announcements within a split batch are unflagged). An R1S
/// read of `f` messages becomes single reads up to and including the `f`-th
/// flagged message; the batch's final announcement is flagged exactly when
/// the R1S system announces.
pub fn flag_r1s_to_r1o(
    tables: &Tables<'_>,
    seq: &ActivationSeq,
) -> Result<TransformOutput<'static>, TransformError> {
    let index = &tables.index;
    let mut s_sim = tables.runner(); // R1S reference execution
    let mut o_sim = tables.runner(); // R1O execution being built
    let mut flags: Vec<VecDeque<bool>> = vec![VecDeque::new(); index.len()];
    let mut out = Vec::new();
    let mut lossless = true;

    for (t, step) in seq.iter().enumerate() {
        if !lossless {
            // A skipped unrepresentable step desynchronized the two systems;
            // the flags are no longer trustworthy, so stop extending the
            // output (the caller sees `lossless = false`).
            break;
        }
        let u = single(step, t)?;
        let v = u.node;
        let [action] = u.actions.as_slice() else {
            return Err(TransformError::BadSourceShape {
                step: t,
                reason: "R1S updates process exactly one channel",
            });
        };
        if !action.is_lossless() {
            return Err(TransformError::BadSourceShape { step: t, reason: "R1S never drops" });
        }
        let cid = index
            .id(action.channel())
            .ok_or(TransformError::Internal { step: t, reason: "unknown channel" })?;
        let m_s = s_sim.state().queue(cid).len();
        let i = match action.take() {
            Take::All => m_s,
            Take::Count(k) => (k as usize).min(m_s),
        };
        // Advance the reference R1S system; whether it *announced* decides
        // which R1O announcement (if any) gets flagged below. (Announcing
        // with an unchanged π happens exactly once: the destination's
        // bootstrap.)
        let s_announced = step_counts(&mut s_sim, step).1 > 0;
        let mut o_announced_for_v = false;

        if i == 0 {
            if s_announced {
                // v must activate so the R1O system announces too; pick a
                // read that cannot consume a flagged message.
                let pick = index
                    .in_channels(v)
                    .iter()
                    .copied()
                    .find(|&c| o_sim.state().queue(c).is_empty())
                    .or_else(|| {
                        index
                            .in_channels(v)
                            .iter()
                            .copied()
                            .find(|&c| flags[c].front() == Some(&false))
                    });
                match pick {
                    Some(pc) => {
                        let s = ActivationStep::single(NodeUpdate::new(
                            v,
                            vec![ChannelAction::read_one(index.channel(pc))],
                        ));
                        let (consumed, sent) = step_counts(&mut o_sim, &s);
                        if consumed == 1 {
                            flags[pc].pop_front();
                        }
                        if sent > 0 {
                            for &oc in index.out_channels(v) {
                                flags[oc].push_back(false);
                            }
                            o_announced_for_v = true;
                        }
                        out.push(s);
                    }
                    None => lossless = false,
                }
            } else {
                // A pure no-op in R1S; mirror it to keep trace stutter.
                match noop_step(o_sim.state(), index, MessagePolicy::One) {
                    Some(s) => {
                        o_sim.step_fast(&s);
                        out.push(s);
                    }
                    None => lossless = false,
                }
            }
        } else {
            let mut flagged_consumed = 0;
            while flagged_consumed < i {
                let fl = flags[cid].pop_front().ok_or(TransformError::Internal {
                    step: t,
                    reason: "flag queue drained before enough flagged messages",
                })?;
                let s = ActivationStep::single(NodeUpdate::new(
                    v,
                    vec![ChannelAction::read_one(action.channel())],
                ));
                let (consumed, sent) = step_counts(&mut o_sim, &s);
                if consumed != 1 {
                    return Err(TransformError::Internal {
                        step: t,
                        reason: "R1O read consumed nothing despite pending flags",
                    });
                }
                if sent > 0 {
                    for &oc in index.out_channels(v) {
                        flags[oc].push_back(false);
                    }
                    o_announced_for_v = true;
                }
                out.push(s);
                if fl {
                    flagged_consumed += 1;
                }
            }
        }

        // Flag v's final in-batch announcement exactly when R1S announced.
        if s_announced && o_announced_for_v {
            for &oc in index.out_channels(v) {
                if let Some(last) = flags[oc].back_mut() {
                    *last = true;
                }
            }
        } else if s_announced && lossless {
            return Err(TransformError::Internal {
                step: t,
                reason: "R1S announced but the R1O batch did not",
            });
        }

        // Invariant: on every channel the flagged messages of the R1O run
        // mirror the R1S channel contents one for one.
        if lossless && cfg!(debug_assertions) {
            for (c, channel_flags) in flags.iter().enumerate().take(index.len()) {
                debug_assert_eq!(
                    channel_flags.iter().filter(|&&f| f).count(),
                    s_sim.state().queue(c).len(),
                    "flag bookkeeping broken on channel {c} after step {t}"
                );
            }
        }
    }
    Ok(TransformOutput { seq: Cow::Owned(out), claimed: Strength::Subsequence, lossless })
}

/// Proposition 3.6, unreliable case: `U1O` realizes `U1S` with repetition.
/// A batch read of `f` messages becomes `f` single reads in which every
/// message except the one the U1S system actually uses is dropped.
pub fn elide_u1s_to_u1o(
    tables: &Tables<'_>,
    seq: &ActivationSeq,
) -> Result<TransformOutput<'static>, TransformError> {
    let index = &tables.index;
    // The U1S execution (the U1O one is identical state-wise).
    let mut sim = tables.runner();
    let mut out = Vec::new();
    let mut lossless = true;

    for (t, step) in seq.iter().enumerate() {
        let u = single(step, t)?;
        let v = u.node;
        let [action] = u.actions.as_slice() else {
            return Err(TransformError::BadSourceShape {
                step: t,
                reason: "U1S updates process exactly one channel",
            });
        };
        let cid = index
            .id(action.channel())
            .ok_or(TransformError::Internal { step: t, reason: "unknown channel" })?;
        let m = sim.state().queue(cid).len();
        let i = match action.take() {
            Take::All => m,
            Take::Count(k) => (k as usize).min(m),
        };
        // The used message: largest index in 1..=i not dropped.
        let j = (1..=i).rev().find(|idx| !action.drops().contains(&(*idx as u32)));

        if i == 0 {
            if m == 0 {
                // The channel is empty in both systems: a single read is a
                // perfect mirror (it also fires any pending bootstrap
                // announcement, since it activates the same node).
                out.push(ActivationStep::single(NodeUpdate::new(
                    v,
                    vec![ChannelAction::read_one(action.channel())],
                )));
            } else {
                // f = 0 on a non-empty channel: U1O cannot read nothing from
                // it, so activate v through one of its empty channels (or
                // any no-op when v has nothing pending).
                let pending = sim.state().chosen(v) != sim.state().announced(v);
                let pick =
                    index.in_channels(v).iter().copied().find(|&c| sim.state().queue(c).is_empty());
                match (pending, pick) {
                    (_, Some(pc)) => out.push(ActivationStep::single(NodeUpdate::new(
                        v,
                        vec![ChannelAction::read_one(index.channel(pc))],
                    ))),
                    (false, None) => match noop_step(sim.state(), index, MessagePolicy::One) {
                        Some(s) => out.push(s),
                        None => lossless = false,
                    },
                    (true, None) => lossless = false,
                }
            }
        } else {
            for r in 1..=i {
                let a = if Some(r) == j {
                    ChannelAction::read_one(action.channel())
                } else {
                    ChannelAction::drop_one(action.channel())
                };
                out.push(ActivationStep::single(NodeUpdate::new(v, vec![a])));
            }
        }
        sim.step_fast(step);
    }
    Ok(TransformOutput { seq: Cow::Owned(out), claimed: Strength::Repetition, lossless })
}

/// Theorem 3.7: `R1S` exactly realizes `U1O`. Dropped reads become `f = 0`
/// reads; a kept read consumes the accumulated backlog of messages the U1O
/// system dropped, learning exactly the message U1O kept.
pub fn coalesce_u1o_to_r1s(
    tables: &Tables<'_>,
    seq: &ActivationSeq,
) -> Result<TransformOutput<'static>, TransformError> {
    let index = &tables.index;
    let mut sim = tables.runner(); // the U1O execution
    let mut backlog = vec![0u32; index.len()];
    let mut out = Vec::with_capacity(seq.len());

    for (t, step) in seq.iter().enumerate() {
        let u = single(step, t)?;
        let v = u.node;
        let [action] = u.actions.as_slice() else {
            return Err(TransformError::BadSourceShape {
                step: t,
                reason: "U1O updates process exactly one channel",
            });
        };
        if action.take() != Take::Count(1) {
            return Err(TransformError::BadSourceShape {
                step: t,
                reason: "U1O reads exactly one message",
            });
        }
        let cid = index
            .id(action.channel())
            .ok_or(TransformError::Internal { step: t, reason: "unknown channel" })?;
        let (consumed, _) = step_counts(&mut sim, step);
        let dropped = !action.is_lossless();
        let a = if consumed == 0 {
            // Empty channel in U1O: nothing happened; R1S reads nothing.
            ChannelAction::skip(action.channel())
        } else if dropped {
            backlog[cid] += 1;
            ChannelAction::skip(action.channel())
        } else {
            let k = backlog[cid] + 1;
            backlog[cid] = 0;
            ChannelAction::read_count(action.channel(), k)
        };
        out.push(ActivationStep::single(NodeUpdate::new(v, vec![a])));
    }
    Ok(TransformOutput { seq: Cow::Owned(out), claimed: Strength::Exact, lossless: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_engine::paper_runs::{self, r1o_step};
    use routelab_engine::trace::{strongest_relation, TraceRelation};
    use routelab_spp::gadgets;
    use routelab_spp::Channel;

    #[test]
    fn identity_is_identity() {
        let (run, _) = paper_runs::a2_reo();
        let out = identity(&Tables::new(&run.instance), &run.seq).unwrap();
        assert!(matches!(out.seq, Cow::Borrowed(seq) if std::ptr::eq(seq, &run.seq)));
        assert_eq!(out.claimed, Strength::Exact);
    }

    #[test]
    fn pad_produces_exact_trace() {
        // A.1's R1O script is a legal RMO (and R1S ⊂ RMS) shape; pad it to
        // scope E and check exactness.
        let (run, _) = paper_runs::a1_r1o();
        let out = pad_m_to_e(&Tables::new(&run.instance), &run.seq).unwrap();
        let base = Runner::trace_of(&run.instance, &run.seq);
        let cand = Runner::trace_of(&run.instance, &out.seq);
        assert_eq!(strongest_relation(&base, &cand), TraceRelation::Exact);
        // Every padded update now covers all channels of its node.
        for step in out.seq.iter() {
            let u = &step.updates[0];
            assert_eq!(u.actions.len(), run.instance.graph().degree(u.node));
        }
    }

    #[test]
    fn split_rea_run_with_repetition() {
        // The REA scripts of A.4/A.5 are legal RMA sequences; split them to
        // R1A and check the repetition relation.
        for run in [paper_runs::a4_rea(), paper_runs::a5_rea()] {
            let out =
                split_m_to_1(&Tables::new(&run.instance), &run.seq, MessagePolicy::All).unwrap();
            assert!(out.lossless);
            let base = Runner::trace_of(&run.instance, &run.seq);
            let cand = Runner::trace_of(&run.instance, &out.seq);
            let rel = strongest_relation(&base, &cand);
            assert!(
                rel >= TraceRelation::Repetition,
                "{}: got {rel:?}\nbase:\n{}cand:\n{}",
                run.name,
                base.render(&run.instance),
                cand.render(&run.instance)
            );
            // Each output step reads exactly one channel.
            for s in out.seq.iter() {
                assert_eq!(s.actions().count(), 1);
            }
        }
    }

    #[test]
    fn flag_construction_on_batched_reads() {
        // Build an R1S run on FIG8 that batches two messages in one read —
        // precisely the situation of Example A.4 — and realize it in R1O.
        let inst = gadgets::fig8();
        let seq = vec![
            r1o_step(&inst, "d", "a"),
            r1o_step(&inst, "a", "d"),
            r1o_step(&inst, "u", "a"),
            r1o_step(&inst, "b", "d"),
            r1o_step(&inst, "u", "b"),
            // s reads BOTH of u's announcements in one R1S batch:
            batch(&inst, "s", "u", 2),
        ];
        let out = flag_r1s_to_r1o(&Tables::new(&inst), &seq).unwrap();
        assert!(out.lossless);
        let base = Runner::trace_of(&inst, &seq);
        let cand = Runner::trace_of(&inst, &out.seq);
        let rel = strongest_relation(&base, &cand);
        assert!(
            rel >= TraceRelation::Subsequence,
            "got {rel:?}\nbase:\n{}cand:\n{}",
            base.render(&inst),
            cand.render(&inst)
        );
        // The R1O run passes through suad — the extra state of Example A.4.
        let suad = inst.parse_path("suad").unwrap();
        let s = inst.node_by_name("s").unwrap();
        assert!(
            cand.iter().any(|pi| pi[s.index()].as_path() == Some(&suad)),
            "R1O realization must pass through suad"
        );
    }

    fn batch(inst: &SppInstance, node: &str, from: &str, k: u32) -> ActivationStep {
        let v = inst.node_by_name(node).unwrap();
        let u = inst.node_by_name(from).unwrap();
        ActivationStep::single(NodeUpdate::new(
            v,
            vec![ChannelAction::read_count(Channel::new(u, v), k)],
        ))
    }

    #[test]
    fn elide_drops_everything_but_the_used_message() {
        let inst = gadgets::fig8();
        // Same batched run as above, but as U1S (drops allowed; none used).
        let seq = vec![
            r1o_step(&inst, "d", "a"),
            r1o_step(&inst, "a", "d"),
            r1o_step(&inst, "u", "a"),
            r1o_step(&inst, "b", "d"),
            r1o_step(&inst, "u", "b"),
            batch(&inst, "s", "u", 2),
        ];
        let out = elide_u1s_to_u1o(&Tables::new(&inst), &seq).unwrap();
        assert!(out.lossless);
        let base = Runner::trace_of(&inst, &seq);
        let cand = Runner::trace_of(&inst, &out.seq);
        let rel = strongest_relation(&base, &cand);
        assert!(rel >= TraceRelation::Repetition, "got {rel:?}");
        // s must never pass through suad here: the intermediate uad message
        // is dropped, not processed.
        let suad = inst.parse_path("suad").unwrap();
        let s = inst.node_by_name("s").unwrap();
        assert!(cand.iter().all(|pi| pi[s.index()].as_path() != Some(&suad)));
    }

    #[test]
    fn coalesce_is_exact() {
        let inst = gadgets::disagree();
        // A U1O run where x's first read of d's announcement is dropped and
        // a later one is kept.
        let drop = |node: &str, from: &str| {
            let v = inst.node_by_name(node).unwrap();
            let u = inst.node_by_name(from).unwrap();
            ActivationStep::single(NodeUpdate::new(
                v,
                vec![ChannelAction::drop_one(Channel::new(u, v))],
            ))
        };
        let seq = vec![
            r1o_step(&inst, "d", "x"), // d announces
            drop("x", "d"),            // x drops d's announcement
            r1o_step(&inst, "y", "d"), // y learns d -> yd, announces
            r1o_step(&inst, "x", "y"), // x learns yd -> xyd
            r1o_step(&inst, "x", "d"), // empty now: the dropped message is gone
        ];
        let out = coalesce_u1o_to_r1s(&Tables::new(&inst), &seq).unwrap();
        let base = Runner::trace_of(&inst, &seq);
        let cand = Runner::trace_of(&inst, &out.seq);
        assert_eq!(
            strongest_relation(&base, &cand),
            TraceRelation::Exact,
            "base:\n{}cand:\n{}",
            base.render(&inst),
            cand.render(&inst)
        );
    }

    #[test]
    fn coalesce_consumes_backlog() {
        let inst = gadgets::fig8();
        // u announces twice into (u, s); U1O drops the first and keeps the
        // second; the R1S realization must read both in one f=2 batch.
        let seq = vec![
            r1o_step(&inst, "d", "a"),
            r1o_step(&inst, "a", "d"),
            r1o_step(&inst, "u", "a"),
            r1o_step(&inst, "b", "d"),
            r1o_step(&inst, "u", "b"),
            {
                let s = inst.node_by_name("s").unwrap();
                let u = inst.node_by_name("u").unwrap();
                ActivationStep::single(NodeUpdate::new(
                    s,
                    vec![ChannelAction::drop_one(Channel::new(u, s))],
                ))
            },
            r1o_step(&inst, "s", "u"),
        ];
        let out = coalesce_u1o_to_r1s(&Tables::new(&inst), &seq).unwrap();
        let base = Runner::trace_of(&inst, &seq);
        let cand = Runner::trace_of(&inst, &out.seq);
        assert_eq!(strongest_relation(&base, &cand), TraceRelation::Exact);
        // The final R1S action must be an f=2 batch.
        let last = out.seq.last().unwrap().actions().next().unwrap().clone();
        assert_eq!(last.take(), Take::Count(2));
        // And the realized system ends on subd (u's latest), not suad.
        let s = inst.node_by_name("s").unwrap();
        assert_eq!(inst.fmt_route(&cand.last().unwrap()[s.index()]), "subd");
    }

    #[test]
    fn multi_node_steps_rejected() {
        let (inst, boot, _) = paper_runs::a6_multinode();
        let err = pad_m_to_e(&Tables::new(&inst), &boot).unwrap_err();
        assert!(matches!(err, TransformError::MultiNodeStep { step: 1 }));
        assert!(err.to_string().contains("multiple nodes"));
    }

    #[test]
    fn bad_shapes_rejected() {
        let inst = gadgets::disagree();
        let x = inst.node_by_name("x").unwrap();
        let two_channels = ActivationStep::single(NodeUpdate::new(
            x,
            inst.graph()
                .neighbors(x)
                .iter()
                .map(|&u| ChannelAction::read_one(Channel::new(u, x)))
                .collect(),
        ));
        let seq = vec![two_channels];
        let tables = Tables::new(&inst);
        assert!(matches!(
            flag_r1s_to_r1o(&tables, &seq),
            Err(TransformError::BadSourceShape { .. })
        ));
        assert!(matches!(
            coalesce_u1o_to_r1s(&tables, &seq),
            Err(TransformError::BadSourceShape { .. })
        ));
        assert!(matches!(
            elide_u1s_to_u1o(&tables, &seq),
            Err(TransformError::BadSourceShape { .. })
        ));
    }
}
