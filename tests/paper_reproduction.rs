//! End-to-end reproduction checks across crates: the Figure 3/4 closure,
//! the Appendix A executions, the separation results, and the realization
//! machinery — everything driven through the public `routelab` API.

use routelab::core::closure::derive_bounds;
use routelab::core::edges::foundational_facts;
use routelab::core::model::CommModel;
use routelab::core::paper::{compare, figure3, figure4, CellVerdict};
use routelab::engine::outcome::{drive, RunOutcome};
use routelab::engine::paper_runs;
use routelab::engine::runner::Runner;
use routelab::engine::schedule::Cyclic;
use routelab::explore::graph::ExploreConfig;
use routelab::explore::oscillation::{analyze, Verdict};
use routelab::explore::trace_search::{search, SearchGoal};
use routelab::explore::Spec;
use routelab::realize::verify::verify_path;
use routelab::spp::gadgets;

#[test]
fn figures_3_and_4_are_reproduced_cell_for_cell() {
    let bounds = derive_bounds(&foundational_facts());
    for table in [figure3(), figure4()] {
        let cmp = compare(&bounds, &table);
        assert_eq!(cmp.count(CellVerdict::Conflict), 0, "{}:\n{cmp}", table.name);
        assert_eq!(cmp.count(CellVerdict::Looser), 0, "{}:\n{cmp}", table.name);
        assert_eq!(cmp.count(CellVerdict::Incomparable), 0, "{}:\n{cmp}", table.name);
    }
    // Figure 4 matches exactly; Figure 3 matches except for four cells the
    // closure legitimately *tightens*: combining Prop 3.11 (REA not
    // realizable with repetition in R1O) with U1O/UMO realizing REA with
    // repetition shows R1O and RMO cannot realize U1O or UMO with
    // repetition — a corollary the paper's table does not record.
    let cmp4 = compare(&bounds, &figure4());
    assert_eq!(cmp4.count(CellVerdict::Match), 24 * 12 - 12, "Figure 4");
    let cmp3 = compare(&bounds, &figure3());
    assert_eq!(cmp3.count(CellVerdict::Match), 24 * 12 - 12 - 4, "Figure 3");
    assert_eq!(cmp3.count(CellVerdict::Tighter), 4, "Figure 3");
    let tighter: Vec<String> = cmp3
        .cells
        .iter()
        .filter(|c| c.verdict == CellVerdict::Tighter)
        .map(|c| format!("{}<-{}", c.realized, c.realizer))
        .collect();
    assert_eq!(tighter, ["U1O<-R1O", "U1O<-RMO", "UMO<-R1O", "UMO<-RMO"]);
}

#[test]
fn appendix_a_step_tables_replay_exactly() {
    for run in paper_runs::all_runs() {
        paper_runs::verify(&run).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn disagree_separation_thm_3_8() {
    let inst = gadgets::disagree();
    let cfg = ExploreConfig::default();
    let verdict = |model: &str| analyze(&inst, Spec::Uniform(model.parse().unwrap()), &cfg);
    assert!(matches!(verdict("R1O").unwrap(), Verdict::CanOscillate { .. }));
    for weak in ["REO", "REF", "R1A", "RMA", "REA"] {
        assert!(matches!(verdict(weak).unwrap(), Verdict::AlwaysConverges { .. }), "{weak}");
    }
}

#[test]
fn a1_and_a2_oscillations_run_forever() {
    for (run, cycle) in [paper_runs::a1_r1o(), paper_runs::a2_reo()] {
        let mut runner = Runner::new(&run.instance);
        runner.run(&run.seq);
        let mut sched = Cyclic::new(cycle);
        match drive(&mut runner, &mut sched, 20_000) {
            RunOutcome::CycleDetected { oscillating, .. } => {
                assert!(oscillating, "{} must oscillate", run.name)
            }
            other => panic!("{}: {other:?}", run.name),
        }
    }
}

#[test]
fn negative_examples_a3_a4_a5_via_search() {
    let cfg = ExploreConfig {
        channel_cap: 6,
        max_states: 2_000_000,
        max_steps_per_state: 50_000,
        ..ExploreConfig::default()
    };
    let a3 = paper_runs::a3_reo();
    let t3 = Runner::trace_of(&a3.instance, &a3.seq);
    assert!(search(&a3.instance, "R1O".parse().unwrap(), &t3, SearchGoal::Exact, &cfg)
        .unwrap()
        .is_impossible());

    let a4 = paper_runs::a4_rea();
    let t4 = Runner::trace_of(&a4.instance, &a4.seq);
    assert!(search(&a4.instance, "R1O".parse().unwrap(), &t4, SearchGoal::Repetition, &cfg)
        .unwrap()
        .is_impossible());
    assert!(search(&a4.instance, "R1O".parse().unwrap(), &t4, SearchGoal::Subsequence, &cfg)
        .unwrap()
        .is_found());

    let a5 = paper_runs::a5_rea();
    let t5 = Runner::trace_of(&a5.instance, &a5.seq);
    assert!(search(&a5.instance, "R1S".parse().unwrap(), &t5, SearchGoal::Exact, &cfg)
        .unwrap()
        .is_impossible());
}

#[test]
fn realization_chains_hold_on_the_a2_prefix() {
    let (run, _) = paper_runs::a2_reo();
    let from: CommModel = "REO".parse().unwrap();
    for target in ["RMO", "RMS", "UMS", "R1S", "R1O", "UES"] {
        let to: CommModel = target.parse().unwrap();
        let report = verify_path(&run.instance, &run.seq, from, to)
            .unwrap()
            .unwrap_or_else(|| panic!("no chain REO -> {to}"));
        assert!(report.holds(), "{report}");
    }
    // No chain may exist into the models that provably drop oscillations.
    for weak in ["REA", "RMA", "R1A"] {
        let to: CommModel = weak.parse().unwrap();
        assert!(
            verify_path(&run.instance, &run.seq, from, to).unwrap().is_none(),
            "REO must not be realizable in {weak}"
        );
    }
}

#[test]
fn stable_solutions_and_wheels_line_up() {
    use routelab::spp::dispute::is_wheel_free;
    use routelab::spp::solve::enumerate_stable_assignments;
    // Wheel-free instances have exactly one stable solution on this corpus;
    // DISAGREE has two; BAD-GADGET none.
    for (name, inst, expected) in [
        ("DISAGREE", gadgets::disagree(), 2usize),
        ("BAD-GADGET", gadgets::bad_gadget(), 0),
        ("GOOD-GADGET", gadgets::good_gadget(), 1),
        ("FIG7", gadgets::fig7(), 1),
        ("FIG8", gadgets::fig8(), 1),
        ("FIG9", gadgets::fig9(), 1),
    ] {
        let n = enumerate_stable_assignments(&inst, 10_000_000).unwrap().len();
        assert_eq!(n, expected, "{name}");
        if expected == 1 {
            assert!(is_wheel_free(&inst) || name == "FIG6", "{name}");
        }
    }
}
