//! Differential suite: the interned hot path must be indistinguishable from
//! the reference route-value engine.
//!
//! The reference driver below replays the pre-interning `drive` loop over
//! [`execute_step`] + [`NetworkState`] (including its always-on cycle
//! detection). For every gadget × all 24 communication models × both
//! scheduler families, the verdict, the full step-by-step assignment trace,
//! and the final decoded network state must be identical. And `drive`, whose
//! schedulers write steps on channel ids, must run exactly as a loop that
//! draws each step in the paper's form and lowers it.

use std::collections::HashMap;

use routelab_core::model::CommModel;
use routelab_engine::exec::execute_step;
use routelab_engine::index::ChannelIndex;
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{Periodic, RandomFair, RoundRobin, Scheduler};
use routelab_engine::state::NetworkState;
use routelab_engine::trace::PathTrace;
use routelab_spp::{gadgets, SppInstance};

struct Reference {
    outcome: RunOutcome,
    trace: PathTrace,
    state: NetworkState,
}

/// The pre-interning engine, verbatim: route-value state, per-step hashing
/// for cycle detection, decoded assignment trace.
fn reference_drive<S: Scheduler>(
    inst: &SppInstance,
    scheduler: &mut S,
    max_steps: usize,
) -> Reference {
    let index = ChannelIndex::new(inst.graph());
    let mut state = NetworkState::initial(inst, &index);
    let mut trace = PathTrace::new();
    trace.push(state.assignment());
    let mut seen: HashMap<(u64, u64), (usize, usize)> = HashMap::new();
    let mut distinct = 1;
    let mut outcome = None;
    for step_no in 0..max_steps {
        if state.is_quiescent() {
            outcome =
                Some(RunOutcome::Converged { steps: step_no, assignment: state.assignment() });
            break;
        }
        let key = (state.fingerprint(), scheduler.fingerprint());
        if let Some(&(first_seen, assignments_then)) = seen.get(&key) {
            outcome = Some(RunOutcome::CycleDetected {
                first_seen,
                period: step_no - first_seen,
                oscillating: distinct > assignments_then,
            });
            break;
        }
        seen.insert(key, (step_no, distinct));
        let Some(step) = scheduler.next_step(&state) else {
            outcome = Some(RunOutcome::ScheduleExhausted { steps: step_no });
            break;
        };
        let effect = execute_step(inst, &index, &mut state, &step);
        trace.push(state.assignment());
        if !effect.changed.is_empty() {
            distinct += 1;
        }
    }
    let outcome = outcome.unwrap_or_else(|| {
        if state.is_quiescent() {
            RunOutcome::Converged { steps: max_steps, assignment: state.assignment() }
        } else {
            RunOutcome::StepLimit { steps: max_steps }
        }
    });
    Reference { outcome, trace, state }
}

fn assert_identical(name: &str, model: CommModel, sched: &str, r: &Reference, runner: &Runner<'_>) {
    assert_eq!(
        runner.trace(),
        &r.trace,
        "{name} {model} {sched}: step traces diverge at step {:?}",
        runner.trace().iter().zip(r.trace.iter()).position(|(a, b)| a != b)
    );
    let decoded = runner.state().to_network_state();
    assert_eq!(decoded, r.state, "{name} {model} {sched}: final states diverge");
}

#[test]
fn round_robin_verdicts_traces_and_states_are_identical() {
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all() {
            let mut ref_sched = RoundRobin::new(&inst, model);
            let reference = reference_drive(&inst, &mut ref_sched, 1_500);

            let mut runner = Runner::new(&inst);
            let mut sched = RoundRobin::new(&inst, model);
            let outcome = drive(&mut runner, &mut sched, 1_500);

            assert_eq!(outcome, reference.outcome, "{name} {model} round-robin verdict");
            assert_identical(name, model, "round-robin", &reference, &runner);
        }
    }
}

#[test]
fn random_fair_verdicts_traces_and_states_are_identical() {
    // The interned drive skips cycle tracking for RandomFair
    // (`may_repeat() == false`); the reference keeps the old always-on
    // detection. Verdicts must still agree because RandomFair's fingerprint
    // never repeats. Scheduler RNG streams are exercised by both runs
    // independently (same seed), so any drift in the scheduler rework would
    // also surface here.
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all() {
            for seed in [3, 11] {
                let mut ref_sched = RandomFair::new(&inst, model, seed);
                let reference = reference_drive(&inst, &mut ref_sched, 600);

                let mut runner = Runner::new(&inst);
                let mut sched = RandomFair::new(&inst, model, seed);
                let outcome = drive(&mut runner, &mut sched, 600);

                assert_eq!(outcome, reference.outcome, "{name} {model} seed {seed} verdict");
                assert_identical(name, model, "random-fair", &reference, &runner);
            }
        }
    }
}

#[test]
fn periodic_verdicts_traces_and_states_are_identical() {
    for (name, inst) in gadgets::corpus() {
        for model in ["R1O", "RMS", "REA", "UMS"] {
            let model: CommModel = model.parse().unwrap();
            let periods: Vec<u64> = (0..inst.node_count() as u64).map(|i| 1 + i % 3).collect();
            let mut ref_sched = Periodic::new(&inst, model, periods.clone());
            let reference = reference_drive(&inst, &mut ref_sched, 1_000);

            let mut runner = Runner::new(&inst);
            let mut sched = Periodic::new(&inst, model, periods);
            let outcome = drive(&mut runner, &mut sched, 1_000);

            assert_eq!(outcome, reference.outcome, "{name} {model} periodic verdict");
            assert_identical(name, model, "periodic", &reference, &runner);
        }
    }
}

#[test]
fn shared_table_runs_match_reference_on_generated_instances() {
    // Beyond the hand-built gadgets: random policy instances and Gao–Rexford
    // topologies, driven with a shared route table (the Monte Carlo
    // configuration).
    use routelab_spp::generator::{gao_rexford_instance, random_instance, RandomSppConfig};
    use routelab_spp::RouteTable;

    let mut instances = Vec::new();
    for seed in 0..4 {
        instances.push(
            random_instance(&RandomSppConfig {
                nodes: 6,
                extra_edges: 3,
                max_paths_per_node: 4,
                max_path_len: 5,
                seed,
            })
            .unwrap(),
        );
        instances.push(gao_rexford_instance(12, seed, 6, 4).unwrap());
    }
    for inst in &instances {
        let table = RouteTable::new(inst);
        for model in ["REA", "UMS", "R1O"] {
            let model: CommModel = model.parse().unwrap();
            let mut ref_sched = RandomFair::new(inst, model, 17);
            let reference = reference_drive(inst, &mut ref_sched, 800);

            let mut runner = Runner::with_table(inst, &table);
            let mut sched = RandomFair::new(inst, model, 17);
            let outcome = drive(&mut runner, &mut sched, 800);

            assert_eq!(outcome, reference.outcome, "{model} verdict");
            assert_identical("generated", model, "random-fair", &reference, &runner);
        }
    }
}

/// `drive`'s loop for a randomized scheduler, with each step drawn in the
/// paper's form by `next_step` (the id step lifted) and executed by
/// `step_fast` (lowered again). `RandomFair` never repeats, so neither
/// loop tracks cycles.
fn lifted_drive(runner: &mut Runner<'_>, sched: &mut RandomFair, max_steps: usize) -> RunOutcome {
    for step_no in 0..max_steps {
        if runner.state().is_quiescent() {
            return RunOutcome::Converged {
                steps: step_no,
                assignment: runner.state().assignment(),
            };
        }
        let step = sched.next_step(&runner.state()).expect("random fair schedules are infinite");
        runner.step_fast(&step);
    }
    if runner.state().is_quiescent() {
        return RunOutcome::Converged { steps: max_steps, assignment: runner.state().assignment() };
    }
    RunOutcome::StepLimit { steps: max_steps }
}

#[test]
fn id_steps_drive_like_lifted_and_lowered_steps() {
    use routelab_spp::RouteTable;

    let (mut dangling, mut dropped) = (0, 0);
    for (name, inst) in gadgets::corpus() {
        let table = RouteTable::new(&inst);
        for model in CommModel::all() {
            for seed in 1..=3 {
                let cell = format!("{name} {model} seed {seed}");
                let sched = || RandomFair::new(&inst, model, seed).with_drop_prob(0.5);
                let mut runner = Runner::with_table(&inst, &table).tracing(false);
                let outcome = drive(&mut runner, &mut sched(), 2_000);
                let mut lifted = Runner::with_table(&inst, &table).tracing(false);
                let want = lifted_drive(&mut lifted, &mut sched(), 2_000);
                assert_eq!(outcome, want, "{cell}");
                assert_eq!(runner.stats(), lifted.stats(), "{cell}");
                assert_eq!(runner.has_dangling_drops(), lifted.has_dangling_drops(), "{cell}");
                let state = runner.state().to_network_state();
                assert_eq!(state, lifted.state().to_network_state(), "{cell}");
                dangling += usize::from(runner.has_dangling_drops());
                dropped += runner.stats().dropped;
            }
        }
    }
    assert!(dangling > 0 && dropped > 0, "{dangling} runs end on a drop, {dropped} drops");
}
