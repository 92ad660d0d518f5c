//! Cross-crate integration: text format → instance → execution →
//! transformation → model checking, all through the public API.

use routelab::core::model::CommModel;
use routelab::core::validate::check_sequence;
use routelab::engine::outcome::{drive, RunOutcome};
use routelab::engine::runner::Runner;
use routelab::engine::schedule::{RandomFair, RoundRobin, Scheduler};
use routelab::explore::graph::ExploreConfig;
use routelab::explore::oscillation::{analyze, Verdict};
use routelab::explore::Spec;
use routelab::realize::verify::verify_path;
use routelab::spp::{format, gadgets};

/// A DISAGREE variant written in the text format by hand.
const DISAGREE_TEXT: &str = "\
spp v1
node d
node x
node y
edge x d
edge y d
edge x y
dest d
prefs x xyd xd
prefs y yxd yd
";

#[test]
fn parsed_instance_behaves_like_the_gadget() {
    let inst = format::from_text(DISAGREE_TEXT).unwrap();
    assert_eq!(inst, gadgets::disagree());
    // It oscillates in R1O and converges in REA, like the built-in one.
    let cfg = ExploreConfig::default();
    let verdict = |model: &str| analyze(&inst, Spec::Uniform(model.parse().unwrap()), &cfg);
    assert!(matches!(verdict("R1O").unwrap(), Verdict::CanOscillate { .. }));
    assert!(matches!(verdict("REA").unwrap(), Verdict::AlwaysConverges { .. }));
}

#[test]
fn serialization_round_trips_through_execution() {
    for (name, inst) in gadgets::corpus() {
        let text = format::to_text(&inst);
        let back = format::from_text(&text).unwrap();
        // Identical instances produce identical round-robin traces.
        let mut r1 = Runner::new(&inst);
        let mut r2 = Runner::new(&back);
        let mut s1 = RoundRobin::new(&inst, "RMS".parse().unwrap());
        let mut s2 = RoundRobin::new(&back, "RMS".parse().unwrap());
        for _ in 0..3 * inst.node_count() {
            let step1 = s1.next_step(&r1.state()).unwrap();
            let step2 = s2.next_step(&r2.state()).unwrap();
            assert_eq!(step1, step2, "{name}");
            r1.step(&step1);
            r2.step(&step2);
        }
        assert_eq!(r1.trace(), r2.trace(), "{name}");
    }
}

#[test]
fn recorded_runs_replay_in_stronger_models() {
    // Record a randomized fair U1O run on FIG7, realize it in RMS (exactly)
    // and replay: same trace.
    let inst = gadgets::fig7();
    let from: CommModel = "U1O".parse().unwrap();
    let mut sched = RandomFair::new(&inst, from, 99).with_drop_prob(0.3);
    let mut runner = Runner::new(&inst);
    let mut seq = Vec::new();
    for _ in 0..60 {
        let s = sched.next_step(&runner.state()).unwrap();
        runner.step(&s);
        seq.push(s);
    }
    check_sequence(from, inst.graph(), &seq).unwrap();
    let report =
        verify_path(&inst, &seq, from, "RMS".parse().unwrap()).unwrap().expect("chain exists");
    assert!(report.holds(), "{report}");
}

#[test]
fn every_model_round_robin_converges_on_wheel_free_instances() {
    for (name, inst) in [("GOOD-GADGET", gadgets::good_gadget()), ("FIG7", gadgets::fig7())] {
        for model in CommModel::all() {
            let mut runner = Runner::new(&inst);
            let mut sched = RoundRobin::new(&inst, model);
            match drive(&mut runner, &mut sched, 50_000) {
                RunOutcome::Converged { .. } => {}
                other => panic!("{name} under {model}: {other:?}"),
            }
        }
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // Spot-check that the re-exported module tree is complete enough to
    // write a whole workflow against `routelab::…` paths only.
    let inst = routelab::spp::gadgets::line2();
    let solutions = routelab::spp::solve::enumerate_stable_assignments(&inst, 1_000).unwrap();
    assert_eq!(solutions.len(), 1);
    let bounds =
        routelab::core::closure::derive_bounds(&routelab::core::edges::foundational_facts());
    assert!(bounds.is_consistent());
    let stats = routelab::sim::montecarlo::run_cell(
        &inst,
        "RMS".parse().unwrap(),
        &routelab::sim::montecarlo::CellConfig { runs: 3, max_steps: 500, seed: 0, drop_prob: 0.0 },
    );
    assert_eq!(stats.converged, 3);
}
