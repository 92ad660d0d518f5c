//! The benchmark's own copy of `montecarlo::run_one_with`, built from the
//! same public calls, that times the scheduler, the step kernel and the
//! quiescence test separately. The copy must measure the same program: the
//! test below holds its run records equal to the library's, and the traced
//! run compares them again on every run it makes.

use std::time::{Duration, Instant};

use routelab_core::model::CommModel;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RandomFair, Scheduler};
use routelab_sim::montecarlo::{run_seed, CellConfig, RunRecord};
use routelab_spp::solve::is_stable;
use routelab_spp::{RouteTable, SppInstance};

use crate::trace::Tracer;

/// Run `run` of a cell, as `montecarlo::run_one_with` executes it, with
/// every `RandomFair::next_step`, `Runner::step_fast` and `is_quiescent`
/// call timed into the tracer's aggregates and `solve::is_stable` as a
/// span.
pub fn run_one_traced(
    inst: &SppInstance,
    table: &RouteTable,
    model: CommModel,
    cfg: &CellConfig,
    run: usize,
    tr: &mut Tracer,
) -> RunRecord {
    let started = Instant::now();
    let mut runner = Runner::with_table(inst, table).tracing(false);
    let mut sched =
        RandomFair::new(inst, model, run_seed(cfg.seed, run)).with_drop_prob(cfg.drop_prob);
    assert!(!sched.may_repeat(), "the drive loop skips cycle detection, as the library's does");

    let (mut quiescence, mut schedule, mut step) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut checks, mut steps) = (0u64, 0u64);
    let mut converged_at = None;
    let mut exhausted = false;
    let mut t = Instant::now();
    for step_no in 0..cfg.max_steps {
        let quiet = runner.state().is_quiescent();
        let t1 = Instant::now();
        quiescence += t1 - t;
        checks += 1;
        if quiet {
            converged_at = Some(step_no);
            break;
        }
        let next = sched.next_step(&runner.state());
        let t2 = Instant::now();
        schedule += t2 - t1;
        let Some(next) = next else {
            exhausted = true;
            break;
        };
        runner.step_fast(&next);
        drop(next);
        let t3 = Instant::now();
        step += t3 - t2;
        steps += 1;
        t = t3;
    }
    if converged_at.is_none() && !exhausted {
        let t = Instant::now();
        if runner.state().is_quiescent() {
            converged_at = Some(cfg.max_steps);
        }
        quiescence += t.elapsed();
        checks += 1;
    }
    tr.aggregate("engine.quiescence", checks, quiescence);
    tr.aggregate("engine.schedule", steps + u64::from(exhausted), schedule);
    tr.aggregate("engine.step", steps, step);

    let stats = runner.stats();
    let mut rec = RunRecord {
        run,
        converged: false,
        converged_unfairly: false,
        steps_to_convergence: 0,
        stable_outcome: false,
        executed_steps: stats.steps,
        sent: stats.sent,
        dropped: stats.dropped,
        wall: Duration::ZERO,
    };
    if let Some(steps) = converged_at {
        let assignment = runner.state().assignment();
        if runner.has_dangling_drops() {
            rec.converged_unfairly = true;
        } else {
            rec.converged = true;
            rec.steps_to_convergence = steps;
        }
        rec.stable_outcome = tr.span("spp.is_stable", |_| is_stable(inst, &assignment));
    }
    rec.wall = started.elapsed();
    rec
}

/// The counters of a run record; everything but the wall clock.
pub fn counters(r: &RunRecord) -> (usize, bool, bool, usize, bool, usize, usize, usize) {
    (
        r.run,
        r.converged,
        r.converged_unfairly,
        r.steps_to_convergence,
        r.stable_outcome,
        r.executed_steps,
        r.sent,
        r.dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_sim::montecarlo::run_one_with;
    use routelab_spp::gadgets;

    #[test]
    fn traced_runs_match_the_library_on_a_small_grid() {
        let cfg = CellConfig { runs: 6, max_steps: 4_000, seed: 11, drop_prob: 0.25 };
        let mut tr = Tracer::new();
        let mut compared = 0;
        for inst in
            [gadgets::disagree(), gadgets::bad_gadget(), gadgets::good_gadget(), gadgets::fig6()]
        {
            let table = RouteTable::new(&inst);
            for model in ["R1O", "REO", "RMS", "UMS", "R1A", "RMA", "REA", "U1O"] {
                let model: CommModel = model.parse().unwrap();
                for run in 0..cfg.runs {
                    let lib = run_one_with(&inst, &table, model, &cfg, run);
                    let ours = run_one_traced(&inst, &table, model, &cfg, run, &mut tr);
                    assert_eq!(counters(&lib), counters(&ours), "{inst} × {model} run {run}");
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 4 * 8 * 6);
        // Runs both converge and hit the step limit on this grid, so both
        // exits of the loop are compared.
        assert!(tr.ns_per_call("engine.step") > 0.0);
    }
}
