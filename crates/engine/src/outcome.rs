//! Driving a runner to a verdict: convergence, a proven cycle, or a step
//! limit.

use std::collections::HashMap;

use routelab_spp::Route;

use crate::interned::IdStep;
use crate::runner::{RunStats, Runner};
use crate::schedule::Scheduler;

/// The observed outcome of one concrete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// A quiescent state was reached (all channels empty): the assignment
    /// can never change again.
    Converged {
        /// Steps executed.
        steps: usize,
        /// The final assignment π, indexed by node id.
        assignment: Vec<Route>,
    },
    /// The pair (network state, scheduler position) repeated: the run is
    /// provably periodic from `first_seen` with the given period.
    CycleDetected {
        /// Step at which the repeated configuration was first recorded.
        first_seen: usize,
        /// Cycle length in steps.
        period: usize,
        /// `true` when some π changes within the cycle — a genuine
        /// oscillation; `false` means periodic churn with a constant
        /// assignment, which per Definition 2.5 still converges.
        oscillating: bool,
    },
    /// The schedule was exhausted before quiescence (finite scripts).
    ScheduleExhausted {
        /// Steps executed.
        steps: usize,
    },
    /// `max_steps` elapsed without a verdict.
    StepLimit {
        /// Steps executed.
        steps: usize,
    },
}

/// A verdict together with the runner's cumulative counters — the engine's
/// per-run observability record (message/drop/step totals), consumed by the
/// simulation layer's JSON reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveReport {
    /// The verdict.
    pub outcome: RunOutcome,
    /// Steps executed and messages sent / consumed / dropped over the run.
    pub stats: RunStats,
}

/// Like [`drive`], additionally snapshotting the runner's [`RunStats`] at
/// the moment of the verdict and — when telemetry is enabled — emitting the
/// engine's per-run counters and distributions. Telemetry is recorded once
/// per run rather than per step so the activation-step hot path stays free
/// of instrumentation calls.
pub fn drive_report<S: Scheduler>(
    runner: &mut Runner<'_>,
    scheduler: &mut S,
    max_steps: usize,
) -> DriveReport {
    let outcome = drive(runner, scheduler, max_steps);
    let stats = runner.stats();
    if routelab_obs::enabled() {
        routelab_obs::counter("engine.steps", stats.steps as u64);
        routelab_obs::counter("engine.msgs.sent", stats.sent as u64);
        routelab_obs::counter("engine.msgs.consumed", stats.consumed as u64);
        routelab_obs::counter("engine.msgs.dropped", stats.dropped as u64);
        routelab_obs::histogram("engine.run.steps", stats.steps as u64);
        routelab_obs::histogram("engine.run.queue_hwm", stats.max_queue_depth as u64);
        if matches!(outcome, RunOutcome::Converged { .. }) {
            routelab_obs::histogram("engine.run.converge_steps", stats.steps as u64);
        }
    }
    DriveReport { outcome, stats }
}

/// Drives `runner` with `scheduler` until a verdict or `max_steps`.
///
/// Cycle detection is sound because it keys on the pair of state fingerprint
/// and scheduler fingerprint: if the pair repeats, the future of the run is
/// exactly the segment between the repetitions, forever.
pub fn drive<S: Scheduler>(
    runner: &mut Runner<'_>,
    scheduler: &mut S,
    max_steps: usize,
) -> RunOutcome {
    let outcome = drive_inner(runner, scheduler, max_steps);
    if let Some(fl) = runner.flight() {
        let steps = runner.stats().steps as u64;
        match &outcome {
            RunOutcome::Converged { .. } => fl.end("converged", steps, None, None, None),
            RunOutcome::CycleDetected { first_seen, period, oscillating } => {
                // `first_seen` is relative to this drive call, but the trace
                // numbers steps over the whole run (a witness replay executes
                // its prefix before driving). Cycle detection returns after
                // exactly `first_seen + period` drive steps, so the offset of
                // this call within the run is recoverable from the total.
                let base = steps - (*first_seen + *period) as u64;
                fl.end(
                    "cycle",
                    steps,
                    Some(base + *first_seen as u64),
                    Some(*period as u64),
                    Some(*oscillating),
                )
            }
            RunOutcome::ScheduleExhausted { .. } => fl.end("exhausted", steps, None, None, None),
            RunOutcome::StepLimit { .. } => fl.end("step-limit", steps, None, None, None),
        }
    }
    outcome
}

fn drive_inner<S: Scheduler>(
    runner: &mut Runner<'_>,
    scheduler: &mut S,
    max_steps: usize,
) -> RunOutcome {
    // (state fp, scheduler fp) -> (step index, dedup'd trace length)
    let mut seen: HashMap<(u64, u64), (usize, usize)> = HashMap::new();
    let mut distinct_assignments = 1; // initial assignment
                                      // Randomized schedulers never repeat a fingerprint, so no pair can
                                      // recur: skip state fingerprinting and the seen-map entirely (the
                                      // verdicts are identical, the fingerprint work is the hot path's
                                      // dominant cost on large instances).
    let track_cycles = scheduler.may_repeat();
    // One step buffer per run: schedulers refill it in place, on the
    // runner's channel ids.
    let mut step = IdStep::default();

    for step_no in 0..max_steps {
        if runner.state().is_quiescent() {
            return RunOutcome::Converged {
                steps: step_no,
                assignment: runner.state().assignment(),
            };
        }
        if track_cycles {
            let key = (runner.state().fingerprint(), scheduler.fingerprint());
            if let Some(&(first_seen, assignments_then)) = seen.get(&key) {
                return RunOutcome::CycleDetected {
                    first_seen,
                    period: step_no - first_seen,
                    oscillating: distinct_assignments > assignments_then,
                };
            }
            seen.insert(key, (step_no, distinct_assignments));
        }

        if !scheduler.next_ids(&runner.state(), runner.index(), &mut step) {
            return RunOutcome::ScheduleExhausted { steps: step_no };
        }
        if runner.step_ids(&step) {
            distinct_assignments += 1;
        }
    }
    if runner.state().is_quiescent() {
        return RunOutcome::Converged { steps: max_steps, assignment: runner.state().assignment() };
    }
    RunOutcome::StepLimit { steps: max_steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Cyclic, RoundRobin, Scripted};
    use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
    use routelab_spp::{gadgets, Channel};

    #[test]
    fn good_gadget_converges_in_every_model() {
        let inst = gadgets::good_gadget();
        for model in routelab_core::model::CommModel::all() {
            let mut runner = Runner::new(&inst);
            let mut sched = RoundRobin::new(&inst, model);
            match drive(&mut runner, &mut sched, 10_000) {
                RunOutcome::Converged { assignment, .. } => {
                    let rendered: Vec<String> =
                        assignment.iter().map(|r| inst.fmt_route(r)).collect();
                    assert_eq!(rendered, vec!["d", "1d", "2d", "3d"], "{model}");
                }
                other => panic!("{model}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_gadget_cycles_under_round_robin() {
        // BAD-GADGET has no stable assignment, so the deterministic fair
        // round-robin run must hit a cycle with π changing inside it.
        let inst = gadgets::bad_gadget();
        for model in ["R1O", "RMS", "REA", "REO"] {
            let mut runner = Runner::new(&inst);
            let mut sched = RoundRobin::new(&inst, model.parse().unwrap());
            match drive(&mut runner, &mut sched, 100_000) {
                RunOutcome::CycleDetected { oscillating, period, .. } => {
                    assert!(oscillating, "{model}: cycle must oscillate");
                    assert!(period > 0);
                }
                other => panic!("{model}: expected a cycle, got {other:?}"),
            }
        }
    }

    #[test]
    fn scripted_exhaustion_reported() {
        let inst = gadgets::disagree();
        let x = inst.node_by_name("x").unwrap();
        let d = inst.dest();
        let step = ActivationStep::single(NodeUpdate::new(
            d,
            vec![ChannelAction::read_one(Channel::new(x, d))],
        ));
        let mut runner = Runner::new(&inst);
        let mut sched = Scripted::new(vec![step]);
        // After d's bootstrap announcement the network is not quiescent and
        // the script runs dry.
        match drive(&mut runner, &mut sched, 100) {
            RunOutcome::ScheduleExhausted { steps } => assert_eq!(steps, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cycle_without_pi_change_is_not_oscillating() {
        // A cyclic schedule of no-op steps (v polling an empty channel while
        // d never gets to announce): the state repeats but no π ever
        // changes, so the detected cycle is not an oscillation.
        let inst = gadgets::line2();
        let v = inst.node_by_name("v").unwrap();
        let d = inst.dest();
        let mut runner = Runner::new(&inst);
        let mut sched = Cyclic::new(vec![ActivationStep::single(NodeUpdate::new(
            v,
            vec![ChannelAction::read_one(Channel::new(d, v))],
        ))]);
        match drive(&mut runner, &mut sched, 100) {
            RunOutcome::CycleDetected { oscillating, period, .. } => {
                assert!(!oscillating);
                assert_eq!(period, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn step_limit_when_budget_tiny() {
        let inst = gadgets::bad_gadget();
        let mut runner = Runner::new(&inst);
        let mut sched = RoundRobin::new(&inst, "RMS".parse().unwrap());
        match drive(&mut runner, &mut sched, 2) {
            RunOutcome::StepLimit { steps } => assert_eq!(steps, 2),
            RunOutcome::Converged { .. } => {} // d-first order could quiesce
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drive_report_exposes_counters() {
        let inst = gadgets::good_gadget();
        let mut runner = Runner::new(&inst);
        let mut sched = RoundRobin::new(&inst, "RMS".parse().unwrap());
        let report = drive_report(&mut runner, &mut sched, 10_000);
        assert!(matches!(report.outcome, RunOutcome::Converged { .. }));
        assert!(report.stats.sent > 0);
        assert_eq!(report.stats.dropped, 0, "reliable model never drops");
        assert_eq!(report.stats, runner.stats());
    }

    #[test]
    fn line2_converges_fast() {
        let inst = gadgets::line2();
        let mut runner = Runner::new(&inst);
        let mut sched = RoundRobin::new(&inst, "REA".parse().unwrap());
        match drive(&mut runner, &mut sched, 100) {
            RunOutcome::Converged { steps, assignment } => {
                assert!(steps <= 2 * inst.node_count() + 2);
                assert_eq!(inst.fmt_route(&assignment[1]), "vd");
            }
            other => panic!("{other:?}"),
        }
    }
}
