//! The Monte-Carlo drive loop allocates nothing per step once warm.
//!
//! A counting global allocator counts only on a thread that has set its
//! thread-local flag, so other test threads do not count. `RandomFair`
//! drives BAD-GADGET, which has no stable assignment and so never
//! converges, through a warm-up that sizes every reused buffer. After it,
//! `drive` must make as many allocations in 1,000 further steps as in
//! 10,000, under each reliable model of the pinned Monte-Carlo grid.
//!
//! Unreliable models are left out on purpose: a drop set is a `BTreeSet`
//! inside core's `ChannelAction`, so every step that drops a message still
//! allocates one.

mod support {
    pub mod counting_alloc;
}

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
