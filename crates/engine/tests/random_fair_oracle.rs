//! `RandomFair` against its reference, step for step.
//!
//! The production scheduler logs attendance from the step's own reads and
//! draws scope-`M` coins without a branch; the reference in
//! `support/random_fair_reference.rs` scans the updating node's
//! in-channels and filters its coins. A runner executes the production
//! scheduler's steps, and at every step the reference, handed the same
//! state, must write the same `IdStep`. The attendance log decides which
//! channel is forced later, so equal steps over many forced steps pin the
//! log as well.

mod support {
    pub mod random_fair_reference;
}

use routelab_core::model::CommModel;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RandomFair, Scheduler};
use routelab_engine::IdStep;
use routelab_spp::generator::{gao_rexford_instance, random_instance, RandomSppConfig};
use routelab_spp::{gadgets, RouteTable, SppInstance};
use support::random_fair_reference::RandomFairReference;

const STEPS: usize = 2_000;

/// The corpus gadgets, a Gao–Rexford instance and a random one.
fn instances() -> Vec<(String, SppInstance)> {
    let mut all: Vec<_> =
        gadgets::corpus().into_iter().map(|(name, inst)| (name.to_string(), inst)).collect();
    all.push(("Gao-Rexford n=50".into(), gao_rexford_instance(50, 7, 6, 4).unwrap()));
    let cfg = RandomSppConfig {
        nodes: 12,
        extra_edges: 12,
        max_paths_per_node: 6,
        max_path_len: 5,
        seed: 3,
    };
    all.push(("random n=12".into(), random_instance(&cfg).unwrap()));
    all
}

#[test]
fn random_fair_steps_equal_the_reference() {
    let (mut forced, mut appended) = (0, 0);
    for (name, inst) in instances() {
        let table = RouteTable::new(&inst);
        for model in CommModel::all() {
            for seed in 1..=3 {
                // The default window, and a short one that forces often.
                for window in [None, Some(6)] {
                    // The drop probability draws only under U models.
                    let mut sched = RandomFair::new(&inst, model, seed).with_drop_prob(0.9);
                    let mut reference =
                        RandomFairReference::new(&inst, model, seed).with_drop_prob(0.9);
                    if let Some(w) = window {
                        sched = sched.with_window(w);
                        reference = reference.with_window(w);
                    }
                    let mut runner = Runner::with_table(&inst, &table).tracing(false);
                    let (mut step, mut want) = (IdStep::default(), IdStep::default());
                    for k in 0..STEPS {
                        assert!(sched.next_ids(&runner.state(), runner.index(), &mut step));
                        reference.next_ids(&runner.state(), &mut want);
                        assert_eq!(
                            step, want,
                            "{name} {model} seed {seed} window {window:?} step {k}"
                        );
                        runner.step_ids(&step);
                    }
                    forced += reference.forced_steps;
                    appended += reference.appended_steps;
                }
            }
        }
    }
    // Forced steps, and forced channels appended behind a larger drawn
    // channel, must be common: otherwise the merge went untested. The
    // sweep makes 1,173,703 and 57,586.
    assert!(forced >= 500_000, "{forced} forced steps");
    assert!(appended >= 25_000, "{appended} appended forced channels");
}
