//! Experiments E3–E8: reproduce the executions and separation claims of
//! Examples A.1–A.6 (Figures 5–9).
//!
//! Usage: `exp-examples [--threads N] [--no-reduce] [a1|a2|a3|a4|a5|a6|all]`
//! (default `all`). `--threads` (or `ROUTELAB_THREADS`) sizes the parallel
//! expand phase inside each exploration; every thread count prints the
//! same bytes. `--no-reduce` disables the state-space reduction (verdicts
//! are identical, only the explored-state counts change).

use routelab_core::model::CommModel;
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::paper_runs::{self, PaperRun};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::Cyclic;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{try_analyze, Verdict};
use routelab_explore::trace_search::{try_search, SearchGoal, SearchResult};
use routelab_sim::cli;
use routelab_sim::examples::step_table;
use routelab_sim::table::Table;

fn print_run(run: &PaperRun) -> bool {
    println!("== Example {} ({}; instance below) ==", run.name, run.model);
    print!("{}", run.instance);
    let steps = step_table(run);
    println!("{}", steps.table);
    println!("step table {}\n", if steps.matches_paper { "MATCHES the paper" } else { "MISMATCH" });
    steps.matches_paper
}

fn oscillation_claims(
    inst: &routelab_spp::SppInstance,
    oscillating: &[&str],
    converging: &[&str],
    cfg: &ExploreConfig,
) -> bool {
    let mut table = Table::new(vec!["model".into(), "verdict".into(), "paper".into()]);
    let mut ok = true;
    let mut check = |m: &str, want_oscillation: bool| {
        let v = match try_analyze(inst, m.parse::<CommModel>().expect("model"), cfg) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("exp-examples: {e}");
                ok = false;
                return;
            }
        };
        let (good, paper) = if want_oscillation {
            (matches!(v, Verdict::CanOscillate { .. }), "oscillates")
        } else {
            (matches!(v, Verdict::AlwaysConverges { .. }), "always converges")
        };
        ok &= good;
        table.row(vec![m.to_string(), format!("{v:?}"), paper.into()]);
    };
    for m in oscillating {
        check(m, true);
    }
    for m in converging {
        check(m, false);
    }
    println!("{table}");
    ok
}

fn a1(base: &ExploreConfig) -> bool {
    let (run, cycle) = paper_runs::a1_r1o();
    let mut ok = print_run(&run);

    println!("driving the fair R1O cycle after the prefix:");
    let mut runner = Runner::new(&run.instance);
    runner.run(&run.seq);
    let mut sched = Cyclic::new(cycle);
    match drive(&mut runner, &mut sched, 10_000) {
        RunOutcome::CycleDetected { first_seen, period, oscillating } => {
            println!("  state cycle: first seen at step {first_seen}, period {period}, oscillating = {oscillating}");
            ok &= oscillating;
        }
        other => {
            println!("  unexpected outcome {other:?}");
            ok = false;
        }
    }
    println!("\nexhaustive verdicts (Thm 3.8 separation on DISAGREE):");
    ok &= oscillation_claims(
        &run.instance,
        &["R1O", "RMO"],
        &["REO", "REF", "R1A", "RMA", "REA"],
        base,
    );
    ok
}

fn a2(base: &ExploreConfig) -> bool {
    let (run, cycle) = paper_runs::a2_reo();
    let mut ok = print_run(&run);
    println!("driving the fair REO cycle (v, u, a) after the 13-step prefix:");
    let mut runner = Runner::new(&run.instance);
    runner.run(&run.seq);
    let mut sched = Cyclic::new(cycle);
    match drive(&mut runner, &mut sched, 10_000) {
        RunOutcome::CycleDetected { period, oscillating, .. } => {
            println!("  state cycle of period {period}, oscillating = {oscillating}");
            ok &= oscillating;
        }
        other => {
            println!("  unexpected outcome {other:?}");
            ok = false;
        }
    }
    println!("\nexhaustive verdicts (Thm 3.9 separation on Fig. 6; the reduced R1A and");
    println!("RMA explorations close in a few hundred states — ~654k raw with --no-reduce):");
    let cfg = ExploreConfig {
        channel_cap: 3,
        max_states: 1_500_000,
        max_steps_per_state: 20_000,
        ..base.clone()
    };
    ok &= oscillation_claims(&run.instance, &["REO", "REF"], &["R1A", "RMA", "REA"], &cfg);
    ok
}

fn search_claim(
    run: &PaperRun,
    model: &str,
    goal: SearchGoal,
    expect_found: bool,
    base: &ExploreConfig,
) -> bool {
    let target = Runner::trace_of(&run.instance, &run.seq);
    let cfg = ExploreConfig {
        channel_cap: 6,
        max_states: 2_000_000,
        max_steps_per_state: 50_000,
        ..base.clone()
    };
    let res = match try_search(&run.instance, model.parse().expect("model"), &target, goal, &cfg) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("exp-examples: {e}");
            return false;
        }
    };
    let ok = matches!(
        (&res, expect_found),
        (SearchResult::Found(_), true) | (SearchResult::Impossible { .. }, false)
    );
    let shown = match &res {
        SearchResult::Found(seq) => format!("FOUND ({} steps)", seq.len()),
        SearchResult::Impossible { visited } => {
            format!("IMPOSSIBLE (exhausted {visited} configurations)")
        }
        SearchResult::BoundExceeded { visited } => format!("BOUND EXCEEDED ({visited})"),
    };
    println!(
        "  realize {} trace in {} as {:?}: {} (paper: {})",
        run.name,
        model,
        goal,
        shown,
        if expect_found { "possible" } else { "impossible" }
    );
    ok
}

fn a3(base: &ExploreConfig) -> bool {
    let run = paper_runs::a3_reo();
    let mut ok = print_run(&run);
    println!("Prop 3.10 via exhaustive search (Fig. 7):");
    ok &= search_claim(&run, "R1O", SearchGoal::Exact, false, base);
    ok &= search_claim(&run, "R1O", SearchGoal::Subsequence, true, base);
    ok &= search_claim(&run, "RMS", SearchGoal::Exact, true, base);
    ok
}

fn a4(base: &ExploreConfig) -> bool {
    let run = paper_runs::a4_rea();
    let mut ok = print_run(&run);
    println!("Prop 3.11 via exhaustive search (Fig. 8):");
    ok &= search_claim(&run, "R1O", SearchGoal::Repetition, false, base);
    ok &= search_claim(&run, "R1O", SearchGoal::Subsequence, true, base);
    ok &= search_claim(&run, "R1S", SearchGoal::Repetition, true, base);
    ok
}

fn a5(base: &ExploreConfig) -> bool {
    let run = paper_runs::a5_rea();
    let mut ok = print_run(&run);
    println!("Props 3.12/3.13 via exhaustive search (Fig. 9):");
    ok &= search_claim(&run, "R1S", SearchGoal::Exact, false, base);
    ok &= search_claim(&run, "RMS", SearchGoal::Exact, true, base);
    ok
}

fn a6() -> bool {
    println!("== Example A.6 (DISAGREE, multi-node polling) ==");
    let (inst, boot, cycle) = paper_runs::a6_multinode();
    let mut runner = Runner::new(&inst);
    runner.run(&boot);
    let x = inst.node_by_name("x").expect("x");
    let y = inst.node_by_name("y").expect("y");
    println!(
        "after simultaneous bootstrap: pi_x = {}, pi_y = {}",
        inst.fmt_route(runner.state().chosen(x)),
        inst.fmt_route(runner.state().chosen(y))
    );
    let mut sched = Cyclic::new(cycle);
    match drive(&mut runner, &mut sched, 1_000) {
        RunOutcome::CycleDetected { period, oscillating, .. } => {
            println!(
                "simultaneous polling cycles with period {period}, oscillating = {oscillating}"
            );
            println!("(single-updater polling provably converges on DISAGREE — see a1)");
            oscillating
        }
        other => {
            println!("unexpected outcome {other:?}");
            false
        }
    }
}

fn main() {
    let opts = cli::parse_common("exp-examples");
    if opts.rest.len() > 1 {
        eprintln!("usage: exp-examples [--threads N] [--no-reduce] [a1|a2|a3|a4|a5|a6|all]");
        opts.exit(2);
    }
    let arg = opts.rest.first().cloned().unwrap_or_else(|| "all".into());
    let base = ExploreConfig {
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };
    let mut ok = true;
    let run_a = |name: &str, ok: &mut bool| match name {
        "a1" => *ok &= a1(&base),
        "a2" => *ok &= a2(&base),
        "a3" => *ok &= a3(&base),
        "a4" => *ok &= a4(&base),
        "a5" => *ok &= a5(&base),
        "a6" => *ok &= a6(),
        other => {
            eprintln!("unknown example {other:?}; expected a1..a6 or all");
            *ok = false;
        }
    };
    if arg == "all" {
        for name in ["a1", "a2", "a3", "a4", "a5", "a6"] {
            run_a(name, &mut ok);
            println!();
        }
    } else {
        run_a(&arg, &mut ok);
    }
    println!("overall: {}", if ok { "ALL CLAIMS REPRODUCED" } else { "MISMATCH" });
    opts.exit(if ok { 0 } else { 1 });
}
