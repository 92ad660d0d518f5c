//! The Monte-Carlo drive loop allocates nothing per step once warm.
//!
//! A counting global allocator counts only on a thread that has set its
//! thread-local flag, so other test threads do not count. `RandomFair`
//! drives BAD-GADGET under each model of the pinned Monte-Carlo grid.
//!
//! BAD-GADGET has no stable assignment, so reliable runs never converge:
//! after a warm-up that sizes every reused buffer, `drive` must make as
//! many allocations in 1,000 further steps as in 10,000.
//!
//! Unreliable runs that drop nine reads in ten lose every route and
//! quiesce within a few dozen steps. So each run is driven three times
//! from the initial state with the same seed: once to size every queue for
//! it, then capped at ten steps, then to quiescence. `Runner::reset` keeps
//! the queues' allocations, so the last two must allocate alike, apart
//! from the assignment a converged run returns.

mod support {
    pub mod counting_alloc;
}

use std::hint::black_box;

use routelab_core::model::CommModel;
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::RandomFair;
use routelab_spp::{gadgets, RouteTable};
use support::counting_alloc::allocations_during;

#[test]
fn warm_random_fair_drive_allocates_nothing_per_step() {
    let inst = gadgets::bad_gadget();
    let table = RouteTable::new(&inst);
    for model in ["R1O", "REO", "RMS", "R1A", "RMA", "REA"] {
        let model: CommModel = model.parse().unwrap();
        let mut runner = Runner::with_table(&inst, &table).tracing(false);
        let mut sched = RandomFair::new(&inst, model, 42);
        let warm = drive(&mut runner, &mut sched, 5_000);
        assert_eq!(warm, RunOutcome::StepLimit { steps: 5_000 }, "{model}");
        let short = allocations_during(|| {
            drive(&mut runner, &mut sched, 1_000);
        });
        let long = allocations_during(|| {
            drive(&mut runner, &mut sched, 10_000);
        });
        assert_eq!(short, long, "{model}: allocations grow with the step count");
        assert_eq!(runner.stats().steps, 16_000, "{model}");
    }
}

#[test]
fn warm_lossy_random_fair_drive_allocates_nothing_per_step() {
    let inst = gadgets::bad_gadget();
    let table = RouteTable::new(&inst);
    for model in ["UMS", "U1O"] {
        let model: CommModel = model.parse().unwrap();
        let mut runner = Runner::with_table(&inst, &table).tracing(false);
        let (mut checked, mut dropped) = (0, 0);
        for seed in 1..=400 {
            // Drives run `seed` from the initial state for at most
            // `max_steps` steps, counting the allocations of `drive` alone.
            let mut run = |max_steps| {
                let mut sched = RandomFair::new(&inst, model, seed).with_drop_prob(0.9);
                runner.reset();
                let mut outcome = None;
                let allocations = allocations_during(|| {
                    outcome = Some(black_box(drive(&mut runner, &mut sched, max_steps)));
                });
                (outcome.unwrap(), allocations)
            };
            let (sized, _) = run(2_000);
            let RunOutcome::Converged { steps, .. } = sized else {
                panic!("{model}: seed {seed} did not quiesce: {sized:?}");
            };
            let (_, short) = run(10);
            let (again, long) = run(2_000);
            assert_eq!(again, sized, "{model}: seed {seed} replays differently");
            if steps <= 10 {
                continue;
            }
            let assignment = allocations_during(|| {
                black_box(runner.state().assignment());
            });
            assert_eq!(long, short + assignment, "{model}: seed {seed} allocates per step");
            checked += steps - 10;
            dropped += runner.stats().dropped;
        }
        assert!(checked >= 5_000, "{model}: {checked} steps checked");
        assert!(dropped > 0, "{model}: nothing dropped");
    }
}
