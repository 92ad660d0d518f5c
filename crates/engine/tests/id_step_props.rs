//! A step in the paper's form, lowered onto dense channel ids and executed
//! there, does exactly what the reference engine's `execute_step` does on
//! route values; and lifting the lowered step gives it back unchanged.
//!
//! The steps are arbitrary legal ones: one or two updating nodes, each
//! reading a random subset of its in-channels with `f` from `0` to `∞` and a
//! random drop set within Definition 2.2's bounds, executed from states a
//! random fair prefix left with messages in flight.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate, Take};
use routelab_engine::exec::execute_step;
use routelab_engine::interned::IdStep;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RandomFair, Scheduler};
use routelab_spp::{gadgets, Channel, NodeId, SppInstance};

/// An arbitrary legal step on the runner's graph.
fn arbitrary_step(runner: &Runner<'_>, rng: &mut StdRng) -> ActivationStep {
    let index = runner.index();
    let n = runner.state().node_count();
    let first = rng.gen_range(0..n);
    let mut nodes = vec![first];
    if n > 1 && rng.gen_bool(0.3) {
        nodes.push((first + rng.gen_range(1..n)) % n);
    }
    let mut updates = Vec::new();
    for v in nodes {
        let v = NodeId(v as u32);
        let mut actions = Vec::new();
        for &c in index.in_channels(v) {
            if rng.gen_bool(0.3) {
                continue;
            }
            let (take, bound) = match rng.gen_range(0..5u32) {
                4 => (Take::All, 6),
                k => (Take::Count(k), k),
            };
            let drops = (1..=bound).filter(|_| rng.gen_bool(0.4)).collect();
            actions.push(ChannelAction::new(index.channel(c), take, drops).expect("g ⊆ 1..=f"));
        }
        updates.push(NodeUpdate::new(v, actions));
    }
    ActivationStep::simultaneous(updates)
}

/// Lowers `step`, checks that lifting gives it back, then executes it on
/// the runner and on the runner's decoded state through the reference
/// engine, and compares the effects and the states after.
fn check(inst: &SppInstance, runner: &mut Runner<'_>, step: &ActivationStep) -> TestCaseResult {
    let index = runner.index().clone();
    let mut ids = IdStep::default();
    ids.lower(step, &index);
    let mut lifted = ActivationStep::simultaneous(Vec::new());
    ids.lift_into(&index, &mut lifted);
    prop_assert_eq!(&lifted, step, "{inst}: lowering then lifting");
    let mut reference = runner.state().to_network_state();
    let want = execute_step(inst, &index, &mut reference, step);
    prop_assert_eq!(runner.step(step), want, "{inst}: effect of {step}");
    prop_assert_eq!(runner.state().to_network_state(), reference, "{inst}: state after {step}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn lowered_steps_execute_like_the_reference(
        gadget in 0usize..8,
        seed in 0u64..1_000_000,
        warm in 0usize..40,
    ) {
        let (_, inst) = gadgets::corpus().swap_remove(gadget);
        let mut runner = Runner::new(&inst);
        let mut sched = RandomFair::new(&inst, "UMA".parse().unwrap(), seed);
        for _ in 0..warm {
            let step = sched.next_step(&runner.state()).unwrap();
            runner.step_fast(&step);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let step = arbitrary_step(&runner, &mut rng);
            check(&inst, &mut runner, &step)?;
        }
    }
}

#[test]
fn example_a6_and_scripted_drop_sets_execute_like_the_reference() {
    let (inst, boot, cycle) = routelab_engine::paper_runs::a6_multinode();
    let (d, x, y) = (inst.dest(), inst.node_by_name("x").unwrap(), inst.node_by_name("y").unwrap());
    let dropping = |c, take, drops: &[u32]| {
        ChannelAction::new(c, take, drops.iter().copied().collect()).unwrap()
    };
    // A.6's two-node steps without d's reads: x and y change their routes
    // at every mutual poll, so their channels to d fill up.
    let mut steps = boot.clone();
    for _ in 0..3 {
        steps.push(cycle[0].clone());
        steps.push(cycle[2].clone());
    }
    steps.push(ActivationStep::single(NodeUpdate::new(
        d,
        vec![
            dropping(Channel::new(x, d), Take::Count(3), &[2]),
            dropping(Channel::new(y, d), Take::All, &[1, 3]),
        ],
    )));
    steps.push(cycle[0].clone());
    steps.push(ActivationStep::simultaneous(vec![
        NodeUpdate::new(
            x,
            vec![
                ChannelAction::skip(Channel::new(y, x)),
                ChannelAction::read_all(Channel::new(d, x)),
            ],
        ),
        NodeUpdate::new(y, vec![dropping(Channel::new(x, y), Take::Count(2), &[1])]),
    ]));
    steps.extend(cycle.iter().cloned());
    let mut runner = Runner::new(&inst);
    for step in &steps {
        check(&inst, &mut runner, step).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(runner.stats().dropped >= 3, "{:?}", runner.stats());
}
