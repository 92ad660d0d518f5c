//! The experiments behind `routelab exp <name>`, one function each, which
//! regenerate every table and figure of the paper (DESIGN.md §4 indexes
//! them):
//!
//! * `fig3`, `fig4` (E1, E2) — Figures 3 and 4 from the foundational
//!   results, compared cell by cell with the published tables,
//! * `examples [a1|…|a6|all]` (E3–E8) — the executions and separation
//!   claims of Examples A.1–A.6,
//! * `survey` (E9) — which models admit fair oscillations on which gadgets,
//! * `transform` (E10) — every registered construction verified on fair
//!   runs, plus composed realizations,
//! * `montecarlo [runs]` (E11) — randomized-schedule convergence statistics,
//!   or one large Gao–Rexford family with `--family gao-rexford`,
//! * `hetero` (E13), `beyond` (E14), `timers` (E15) — the extensions.
//!
//! An experiment prints its report on stdout (progress goes to stderr
//! through [`CommonOpts::progress`]) and [`run`] turns its outcome into the
//! process exit status: 0 when the claims are reproduced, 1 on a mismatch,
//! 2 on a usage or I/O error. Every experiment rejects an argument it does
//! not take.

use std::error::Error;
use std::time::Instant;

use routelab_core::closure::derive_bounds;
use routelab_core::dims::{MessagePolicy, NeighborScope};
use routelab_core::edges::foundational_facts;
use routelab_core::hetero::{HeteroModel, NodeModel};
use routelab_core::model::CommModel;
use routelab_core::paper::{compare, figure3, figure4, CellVerdict, PaperTable};
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::paper_runs::{self, PaperRun};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{Cyclic, Periodic};
use routelab_explore::effects::Spec;
use routelab_explore::error::ExploreError;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{analyze, Verdict};
use routelab_explore::trace_search::{search, SearchGoal, SearchResult};
use routelab_obs::JVal;
use routelab_realize::plan::fair_prefix;
use routelab_realize::registry::Registry;
use routelab_realize::verify::{verify_edge, verify_path};
use routelab_spp::generator::gao_rexford_instance;
use routelab_spp::{dispute, gadgets, Channel, SppInstance};

use crate::beyond::{disagree_separations, extended_bounds, newly_determined};
use crate::cli::{self, CommonOpts};
use crate::examples::step_table;
use crate::montecarlo::{pinned, try_run_grid_with, CellConfig, CellReport};
use crate::report::{write_json, GroupReport, RunReport};
use crate::survey::{survey_instance, SurveyConfig, SurveyOutcome};
use crate::table::Table;

/// Why an experiment stopped without a verdict (exit status 2).
#[derive(Debug)]
enum ExpError {
    /// An argument the experiment does not take.
    Usage(String),
    /// A failed exploration, grid run, instance generation or results write.
    Failed(Box<dyn Error>),
}

impl<E: Error + 'static> From<E> for ExpError {
    fn from(e: E) -> Self {
        ExpError::Failed(Box::new(e))
    }
}

/// An experiment: takes its own arguments (the shared flags are already
/// parsed into the options) and says whether its claims were reproduced.
type Experiment = fn(&CommonOpts, &[String]) -> Result<bool, ExpError>;

/// Every experiment by name, with the arguments it takes.
const EXPERIMENTS: [(&str, &str, Experiment); 9] = [
    ("fig3", "", fig3),
    ("fig4", "", fig4),
    ("examples", " [a1|a2|a3|a4|a5|a6|all]", examples),
    ("survey", "", survey),
    ("transform", "", transform),
    (
        "montecarlo",
        " [runs] [--family gao-rexford --nodes N] [--models LIST] [--max-steps M]",
        montecarlo,
    ),
    ("hetero", "", hetero),
    ("beyond", "", beyond),
    ("timers", "", timers),
];

const SHARED_FLAGS: &str = "[--threads N] [--quiet] [--obs] [--trace] [--no-reduce]";

/// Runs `routelab exp <name> [args]` and returns the exit status: 0 when
/// the experiment reproduced its claims, 1 on a mismatch, 2 on a usage or
/// I/O error. A missing or unknown name lists the experiments.
pub fn run(opts: &CommonOpts, args: &[String]) -> u8 {
    let found = args.split_first().and_then(|(name, rest)| {
        EXPERIMENTS.iter().find(|(n, ..)| name == n).map(|exp| (exp, rest))
    });
    let Some(((name, synopsis, experiment), rest)) = found else {
        if let Some(name) = args.first() {
            eprintln!("error: unknown experiment {name:?}");
        }
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
        eprintln!("usage: routelab exp <{}> [args] {SHARED_FLAGS}", names.join("|"));
        return 2;
    };
    match experiment(opts, rest) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(ExpError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("usage: routelab exp {name}{synopsis} {SHARED_FLAGS}");
            2
        }
        Err(ExpError::Failed(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn unexpected(arg: &str) -> ExpError {
    ExpError::Usage(format!("unexpected argument {arg:?}"))
}

/// Rejects the first argument of an experiment that takes none.
fn no_args(args: &[String]) -> Result<(), ExpError> {
    args.first().map_or(Ok(()), |arg| Err(unexpected(arg)))
}

/// E1: **Figure 3** — the ability of reliable-channel models to realize all
/// 24 models — from the foundational results, compared cell by cell with
/// the published table.
fn fig3(_: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    println!("Figure 3 (computed): entry (row A, col B) = B's ability to realize A");
    println!("4 exact | 3 repetition | 2 subsequence | -1 no oscillation preservation");
    println!(">=k / <=k bounds | . unknown | - diagonal\n");
    Ok(figure(3, &CommModel::all_reliable(), &figure3()))
}

/// E2: **Figure 4** — the ability of unreliable-channel models to realize
/// all 24 models — compared with the published table.
fn fig4(_: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    println!("Figure 4 (computed): entry (row A, col B) = B's ability to realize A\n");
    Ok(figure(4, &CommModel::all_unreliable(), &figure4()))
}

/// Prints the derived bounds over `cols` and their comparison with
/// published Figure `n`; true when nothing conflicts or is weaker.
fn figure(n: u8, cols: &[CommModel], published: &PaperTable) -> bool {
    let bounds = derive_bounds(&foundational_facts());
    println!("{}", bounds.render(cols));
    let cmp = compare(&bounds, published);
    println!("Comparison with the published Figure {n}:");
    println!("{cmp}");
    let ok = cmp.count(CellVerdict::Conflict) == 0 && cmp.count(CellVerdict::Looser) == 0;
    println!(
        "verdict: {}",
        if ok { "REPRODUCED (no conflicts, nothing weaker than published)" } else { "MISMATCH" }
    );
    ok
}

/// One Appendix A example: prints its report and says whether every claim
/// held, or why an exploration stopped without a verdict.
type Example = fn(&ExploreConfig) -> Result<bool, ExpError>;

/// The Appendix A examples by name. `--threads` (or `ROUTELAB_THREADS`)
/// sizes the parallel expand phase inside each exploration, and every
/// thread count prints the same bytes; `--no-reduce` disables the
/// state-space reduction (verdicts are identical, only the explored-state
/// counts change).
const EXAMPLES: [(&str, Example); 6] =
    [("a1", a1), ("a2", a2), ("a3", a3), ("a4", a4), ("a5", a5), ("a6", a6)];

/// E3–E8: the executions and separation claims of Examples A.1–A.6
/// (Figures 5–9), one example or `all` (the default).
fn examples(opts: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    let picked = match args {
        [] => None,
        [all] if all == "all" => None,
        [name] => Some(EXAMPLES.iter().find(|(n, _)| n == name).ok_or_else(|| {
            ExpError::Usage(format!("unknown example {name:?}; expected a1..a6 or all"))
        })?),
        [_, extra, ..] => return Err(unexpected(extra)),
    };
    let base = ExploreConfig {
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };
    let ok = match picked {
        Some((_, example)) => example(&base)?,
        None => {
            let mut ok = true;
            for (_, example) in EXAMPLES {
                ok &= example(&base)?;
                println!();
            }
            ok
        }
    };
    println!("overall: {}", if ok { "ALL CLAIMS REPRODUCED" } else { "MISMATCH" });
    Ok(ok)
}

fn print_run(run: &PaperRun) -> bool {
    println!("== Example {} ({}; instance below) ==", run.name, run.model);
    print!("{}", run.instance);
    let steps = step_table(run);
    println!("{}", steps.table);
    println!("step table {}\n", if steps.matches_paper { "MATCHES the paper" } else { "MISMATCH" });
    steps.matches_paper
}

/// Prints the exhaustive verdict of every listed model on `inst` next to
/// the paper's, and says whether each matched. A failed exploration is an
/// error, not a mismatch.
fn oscillation_claims(
    inst: &SppInstance,
    oscillating: &[&str],
    converging: &[&str],
    cfg: &ExploreConfig,
) -> Result<bool, ExpError> {
    let mut table = Table::new(vec!["model".into(), "verdict".into(), "paper".into()]);
    let mut ok = true;
    let claims = oscillating.iter().map(|m| (m, true)).chain(converging.iter().map(|m| (m, false)));
    for (m, want_oscillation) in claims {
        let v = analyze(inst, Spec::Uniform(m.parse().expect("model")), cfg)?;
        let (good, paper) = if want_oscillation {
            (matches!(v, Verdict::CanOscillate { .. }), "oscillates")
        } else {
            (matches!(v, Verdict::AlwaysConverges { .. }), "always converges")
        };
        ok &= good;
        table.row(vec![m.to_string(), format!("{v:?}"), paper.into()]);
    }
    println!("{table}");
    Ok(ok)
}

fn a1(base: &ExploreConfig) -> Result<bool, ExpError> {
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
    )?;
    Ok(ok)
}

fn a2(base: &ExploreConfig) -> Result<bool, ExpError> {
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
    ok &= oscillation_claims(&run.instance, &["REO", "REF"], &["R1A", "RMA", "REA"], &cfg)?;
    Ok(ok)
}

fn search_claim(
    run: &PaperRun,
    model: &str,
    goal: SearchGoal,
    expect_found: bool,
    base: &ExploreConfig,
) -> Result<bool, ExpError> {
    let target = Runner::trace_of(&run.instance, &run.seq);
    let cfg = ExploreConfig {
        channel_cap: 6,
        max_states: 2_000_000,
        max_steps_per_state: 50_000,
        ..base.clone()
    };
    let res = search(&run.instance, model.parse().expect("model"), &target, goal, &cfg)?;
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
    Ok(ok)
}

fn a3(base: &ExploreConfig) -> Result<bool, ExpError> {
    let run = paper_runs::a3_reo();
    let mut ok = print_run(&run);
    println!("Prop 3.10 via exhaustive search (Fig. 7):");
    ok &= search_claim(&run, "R1O", SearchGoal::Exact, false, base)?;
    ok &= search_claim(&run, "R1O", SearchGoal::Subsequence, true, base)?;
    ok &= search_claim(&run, "RMS", SearchGoal::Exact, true, base)?;
    Ok(ok)
}

fn a4(base: &ExploreConfig) -> Result<bool, ExpError> {
    let run = paper_runs::a4_rea();
    let mut ok = print_run(&run);
    println!("Prop 3.11 via exhaustive search (Fig. 8):");
    ok &= search_claim(&run, "R1O", SearchGoal::Repetition, false, base)?;
    ok &= search_claim(&run, "R1O", SearchGoal::Subsequence, true, base)?;
    ok &= search_claim(&run, "R1S", SearchGoal::Repetition, true, base)?;
    Ok(ok)
}

fn a5(base: &ExploreConfig) -> Result<bool, ExpError> {
    let run = paper_runs::a5_rea();
    let mut ok = print_run(&run);
    println!("Props 3.12/3.13 via exhaustive search (Fig. 9):");
    ok &= search_claim(&run, "R1S", SearchGoal::Exact, false, base)?;
    ok &= search_claim(&run, "RMS", SearchGoal::Exact, true, base)?;
    Ok(ok)
}

fn a6(_: &ExploreConfig) -> Result<bool, ExpError> {
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
    let oscillating = match drive(&mut runner, &mut sched, 1_000) {
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
    };
    Ok(oscillating)
}

/// Probe-state budget for one survey gadget. Only FIG6 needs more than a
/// quarter million states — and only without reduction: Thm 3.9's R1A/RMA
/// convergence proofs are exhaustive at 654,312 raw states under channel
/// cap 3 (the reduced quotient is a few hundred).
fn probe_budget(gadget: &str) -> usize {
    if gadget == "FIG6" {
        1_500_000
    } else {
        250_000
    }
}

/// Phase-2 budget for the survey's direct checks of lattice-undecided
/// models, sized so every reduced space decides (FIG6 × U1A/UMA is the
/// largest, exhaustive at 365,721 states). The `--no-reduce` run keeps the
/// historical 25k cap: without the set collapse the unreliable-All spaces
/// are unbounded and without the route-class projection the rest dwarf any
/// practical budget, so a bigger cap would only burn minutes to print the
/// same `?`.
fn direct_budget(reduce: bool) -> usize {
    if reduce {
        400_000
    } else {
        25_000
    }
}

fn outcome_json(o: &SurveyOutcome) -> JVal {
    let (verdict, via) = match o {
        SurveyOutcome::Oscillates { via } => ("oscillates", via),
        SurveyOutcome::Converges { via } => ("converges", via),
        SurveyOutcome::Unknown => ("unknown", &None),
    };
    JVal::obj([
        ("verdict", JVal::str(verdict)),
        ("via", via.map_or(JVal::Null, |p| JVal::str(p.to_string()))),
    ])
}

/// E9: the oscillation survey — for every gadget in the corpus and every
/// one of the 24 models, can a fair activation sequence fail to converge?
/// Exhaustive verdicts on probe models transfer along the realization
/// lattice, exactly as the paper argues in Sec. 3.5.
///
/// Budgets are per gadget ([`probe_budget`]); phase-2 direct checks of the
/// lattice-undecided models get [`direct_budget`], which decides every cell
/// of the reduced table. The `--no-reduce` run may leave cells open.
/// Prints the text table and writes `results/exp-survey.json`.
fn survey(opts: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    let t0 = Instant::now();
    let corpus = gadgets::corpus();

    let mut surveys = Vec::with_capacity(corpus.len());
    let mut gadget_walls = Vec::with_capacity(corpus.len());
    for (name, inst) in &corpus {
        let cfg = SurveyConfig {
            explore: ExploreConfig {
                channel_cap: 3,
                max_states: probe_budget(name),
                max_steps_per_state: 20_000,
                threads: opts.pool.threads,
                reduce: opts.reduce(),
            },
            direct_budget: Some(direct_budget(opts.reduce())),
            ..SurveyConfig::default()
        };
        let g0 = Instant::now();
        opts.progress_part(format!(
            "surveying {name} (probe budget {} states) ... ",
            cfg.explore.max_states
        ));
        let mut gadget_span = routelab_obs::span("survey.gadget");
        gadget_span.field("gadget", *name);
        gadget_span.field("probe_budget", cfg.explore.max_states);
        let entries = survey_instance(inst, &cfg).inspect_err(|_| opts.progress("failed"))?;
        surveys.push(entries);
        drop(gadget_span);
        let wall = g0.elapsed();
        opts.progress(format!("done in {:.1} s", wall.as_secs_f64()));
        gadget_walls.push(wall);
    }

    let mut header = vec!["model".to_string()];
    header.extend(corpus.iter().map(|(n, _)| n.to_string()));
    let mut table = Table::new(header);

    let models = CommModel::all();
    for (i, model) in models.iter().enumerate() {
        let mut row = vec![model.to_string()];
        for s in &surveys {
            let cell = match &s[i].outcome {
                SurveyOutcome::Oscillates { via: None } => "osc!".to_string(),
                SurveyOutcome::Oscillates { via: Some(p) } => format!("osc<{p}"),
                SurveyOutcome::Converges { via: None } => "conv!".to_string(),
                SurveyOutcome::Converges { via: Some(p) } => format!("conv<{p}"),
                SurveyOutcome::Unknown => "?".to_string(),
            };
            row.push(cell);
        }
        table.row(row);
    }
    println!("Oscillation survey (osc! / conv! = exhaustively checked;");
    println!(
        "osc<M / conv<M = transferred along the realization lattice from probe M; ? = open)\n"
    );
    println!("{table}");

    // Headline checks from the paper.
    let find = |gadget: &str, model: &str| -> SurveyOutcome {
        let gi = corpus.iter().position(|(n, _)| *n == gadget).expect("gadget");
        let mi = models.iter().position(|m| m.to_string() == model).expect("model");
        surveys[gi][mi].outcome.clone()
    };
    let mut ok = true;
    for m in ["REO", "REF", "R1A", "RMA", "REA"] {
        ok &= matches!(find("DISAGREE", m), SurveyOutcome::Converges { .. });
    }
    ok &= matches!(find("DISAGREE", "R1O"), SurveyOutcome::Oscillates { .. });
    for m in ["REO", "REF"] {
        ok &= matches!(find("FIG6", m), SurveyOutcome::Oscillates { .. });
    }
    for m in ["R1A", "RMA", "REA"] {
        ok &= matches!(find("FIG6", m), SurveyOutcome::Converges { .. });
    }
    let open = surveys
        .iter()
        .flat_map(|s| s.iter())
        .filter(|e| matches!(e.outcome, SurveyOutcome::Unknown))
        .count();
    // Only the reduced (default) run is required to decide every cell;
    // the raw explorer cannot close the unreliable-All spaces at all.
    if opts.reduce() {
        ok &= open == 0;
    }
    println!("open (?) cells: {open}");
    println!(
        "paper separations (Thm 3.8, Thm 3.9): {}",
        if ok { "REPRODUCED" } else { "MISMATCH" }
    );

    let json = JVal::obj([
        ("experiment", JVal::str("survey")),
        ("wall_ms", JVal::Num(t0.elapsed().as_secs_f64() * 1e3)),
        (
            "config",
            JVal::obj([
                ("channel_cap", JVal::int(3)),
                ("max_steps_per_state", JVal::int(20_000)),
                ("direct_budget", JVal::int(direct_budget(opts.reduce()))),
                ("reduce", JVal::Bool(opts.reduce())),
            ]),
        ),
        (
            "gadgets",
            JVal::Arr(
                corpus
                    .iter()
                    .zip(&gadget_walls)
                    .map(|((n, _), wall)| {
                        JVal::obj([
                            ("name", JVal::str(*n)),
                            ("probe_budget", JVal::int(probe_budget(n))),
                            ("wall_ms", JVal::Num(wall.as_secs_f64() * 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "models",
            JVal::Arr(
                models
                    .iter()
                    .enumerate()
                    .map(|(i, model)| {
                        JVal::obj([
                            ("model", JVal::str(model.to_string())),
                            (
                                "cells",
                                JVal::Arr(
                                    surveys.iter().map(|s| outcome_json(&s[i].outcome)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("separations_reproduced", JVal::Bool(ok)),
    ]);
    println!("wrote {}", write_json("exp-survey", &json)?.display());
    Ok(ok)
}

/// E10: mechanically verify every foundational positive result (Props 3.3,
/// 3.4, Thm 3.5, Prop 3.6, Thm 3.7) on fair runs over the gadget corpus,
/// plus composed realizations for notable model pairs.
///
/// The edge table is drawn from the named-transformation registry, so this
/// experiment can never drift from the transforms the library exposes.
fn transform(_: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    let corpus = gadgets::corpus();
    let reg = Registry::global();
    let mut ok = true;

    println!("Registered transformations on round-robin runs (4n steps per gadget):\n");
    let mut table =
        Table::new(vec!["edge".into(), "via".into(), "claimed".into(), "gadgets verified".into()]);
    for entry in reg.transforms() {
        for edge in entry.edges() {
            let mut passed = 0;
            for (name, inst) in &corpus {
                let seq = fair_prefix(inst, edge.realized, 4 * inst.node_count());
                match verify_edge(inst, &seq, edge.kind, edge.realized, edge.realizer) {
                    Ok(report) if report.holds() => passed += 1,
                    Ok(report) => {
                        println!("FAIL {name}: {report}");
                        ok = false;
                    }
                    Err(e) => {
                        println!("ERROR {name}: {e}");
                        ok = false;
                    }
                }
            }
            table.row(vec![
                format!("{} <= {}", edge.realized, edge.realizer),
                entry.meta.cache_key(),
                edge.strength.to_string(),
                format!("{passed}/{}", corpus.len()),
            ]);
        }
    }
    println!("{table}");

    println!("Composed realizations (strongest registered chains):\n");
    let mut table =
        Table::new(vec!["pair".into(), "claimed".into(), "achieved".into(), "steps".into()]);
    let pairs = [
        ("REA", "UMS"),
        ("REO", "RMS"),
        ("RMA", "R1O"),
        ("U1O", "RMS"),
        ("REA", "R1O"),
        ("UES", "UMS"),
    ];
    let inst = gadgets::fig6();
    for (from, to) in pairs {
        let from: CommModel = from.parse().expect("model");
        let to: CommModel = to.parse().expect("model");
        let seq = fair_prefix(&inst, from, 3 * inst.node_count());
        match verify_path(&inst, &seq, from, to) {
            Ok(Some(report)) => {
                ok &= report.holds();
                table.row(vec![
                    format!("{from} inside {to}"),
                    report.claimed.to_string(),
                    format!("{:?}", report.achieved),
                    format!("{} -> {}", report.steps.0, report.steps.1),
                ]);
            }
            Ok(None) => {
                table.row(vec![
                    format!("{from} inside {to}"),
                    "no chain".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Err(e) => {
                println!("ERROR {from} -> {to}: {e}");
                ok = false;
            }
        }
    }
    println!("{table}");
    println!("verdict: {}", if ok { "ALL CONSTRUCTIONS HOLD" } else { "MISMATCH" });
    Ok(ok)
}

/// The arguments of `routelab exp montecarlo`.
struct McArgs {
    /// The positional run count, absent so the two lanes can default it
    /// differently.
    runs: Option<usize>,
    /// `--family gao-rexford`: the large-topology lane.
    family: bool,
    nodes: Option<usize>,
    models: Option<Vec<CommModel>>,
    max_steps: Option<usize>,
}

impl McArgs {
    fn parse(args: &[String]) -> Result<McArgs, ExpError> {
        let mut out =
            McArgs { runs: None, family: false, nodes: None, models: None, max_steps: None };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value =
                || it.next().ok_or_else(|| ExpError::Usage(format!("{arg} needs a value")));
            let number = |v: &String, min: usize| {
                v.parse().ok().filter(|&n| n >= min).ok_or_else(|| {
                    ExpError::Usage(format!("{arg} {v:?} is not an integer >= {min}"))
                })
            };
            match arg.as_str() {
                "--family" => match value()?.as_str() {
                    "gao-rexford" => out.family = true,
                    other => {
                        return Err(ExpError::Usage(format!(
                            "unknown family {other:?} (supported: gao-rexford)"
                        )))
                    }
                },
                "--nodes" => out.nodes = Some(number(value()?, 0)?),
                "--max-steps" => out.max_steps = Some(number(value()?, 1)?),
                "--models" => {
                    let list = value()?;
                    let parsed: Result<Vec<CommModel>, _> =
                        list.split(',').map(|s| s.trim().parse()).collect();
                    match parsed {
                        Ok(models) if !models.is_empty() => out.models = Some(models),
                        _ => return Err(ExpError::Usage(format!("bad --models list {list:?}"))),
                    }
                }
                other => {
                    out.runs = Some(cli::parse_count("run count", other).map_err(ExpError::Usage)?);
                }
            }
        }
        match (out.family, out.nodes, out.max_steps) {
            (false, Some(_), _) => Err(ExpError::Usage("--nodes needs --family".into())),
            (false, _, Some(_)) => Err(ExpError::Usage("--max-steps needs --family".into())),
            _ => Ok(out),
        }
    }
}

/// E11: Monte-Carlo convergence statistics of randomized fair schedules
/// across communication models and instance families — dispute-wheel
/// gadgets, wheel-free Gao–Rexford topologies, and random policies.
///
/// `runs` is in 1..=100000 (default 40). Prints text tables and writes
/// `results/exp-montecarlo.json` (full report) plus
/// `results/BENCH_montecarlo.json` (throughput summary, whose per-worker
/// rate `scripts/check_bench.py` gates); see EXPERIMENTS.md for the schema.
/// `--family gao-rexford` runs the large-topology lane instead
/// ([`montecarlo_family`]).
fn montecarlo(opts: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    let t0 = Instant::now();
    let args = McArgs::parse(args)?;
    if args.family {
        return montecarlo_family(opts, &args, t0);
    }
    let pool = opts.pool;
    let cfg = pinned::config(args.runs.unwrap_or(40));
    let models = args.models.unwrap_or_else(pinned::models);

    let mut groups = Vec::new();
    for (name, inst) in &pinned::instances() {
        groups.push(mc_group(opts, name, inst, &models, &cfg)?);
    }

    println!("interpretation: wheel-free instances must show conv rate 1.00 in every model;");
    println!("instances with a dispute wheel converge under randomized fair schedules with");
    println!("probability depending on the model — polling models (R1A/RMA/REA) converge on");
    println!("DISAGREE/FIG6 always, message-passing and queueing models may stall (rate < 1).");
    println!("'unfair quiesce' counts runs that went quiet only because the final message on");
    println!("some channel was dropped — executions Definition 2.4 rules out (this is how a");
    println!("lossy network can appear to 'solve' even the unsolvable BAD-GADGET); 'stable");
    println!("outcome' is the fraction of quiescent runs (fair or not) whose final assignment");
    println!("is actually a stable solution of the instance.");

    let run_report = RunReport {
        experiment: "montecarlo".into(),
        threads: pool.resolved_threads(),
        config: cfg,
        groups,
        wall: t0.elapsed(),
    };
    let p = write_json("exp-montecarlo", &run_report.to_json())?;
    let b = write_json("BENCH_montecarlo", &run_report.bench_json())?;
    println!("wrote {} and {}", p.display(), b.display());
    Ok(true)
}

/// One instance's row group of the pinned grid.
fn mc_group(
    opts: &CommonOpts,
    name: &str,
    inst: &SppInstance,
    models: &[CommModel],
    cfg: &CellConfig,
) -> Result<GroupReport, ExpError> {
    let wheel_free = dispute::is_wheel_free(inst);
    let wheel = if wheel_free { "wheel-free" } else { "has dispute wheel" };
    println!(
        "== {name}: {} nodes, {} edges, {wheel} ==",
        inst.node_count(),
        inst.graph().edge_count()
    );
    opts.progress(format!("running {name}: {} models x {} runs", models.len(), cfg.runs));
    let mut group_span = routelab_obs::span("mc.group");
    group_span.field("group", name.to_string());
    let cells: Vec<CellReport> = try_run_grid_with(inst, models, cfg, &opts.pool)?;
    let mut table = Table::new(vec![
        "model".into(),
        "conv rate".into(),
        "unfair quiesce".into(),
        "stable outcome".into(),
        "mean steps".into(),
        "mean msgs".into(),
        "mean drops".into(),
    ]);
    for c in &cells {
        let stats = &c.stats;
        table.row(vec![
            c.model.to_string(),
            format!("{:.2}", stats.convergence_rate()),
            format!("{:.2}", stats.converged_unfairly as f64 / stats.runs.max(1) as f64),
            format!("{:.2}", stats.stable_outcome as f64 / stats.runs.max(1) as f64),
            format!("{:.1}", stats.mean_steps),
            format!("{:.1}", stats.mean_messages),
            format!("{:.1}", stats.mean_dropped),
        ]);
    }
    println!("{table}");
    Ok(GroupReport::new(name, inst, wheel_free, cells))
}

/// The `--family gao-rexford --nodes N` lane: one large-topology cell
/// family (default 10,000 nodes, 8 runs, REA) with streaming statistics
/// (no per-run records are retained, so 10k nodes fit a CI smoke budget),
/// reported with standard deviations and throughput in
/// `results/exp-montecarlo-family.json`, whose convergence
/// `scripts/check_bench.py` gates.
fn montecarlo_family(opts: &CommonOpts, args: &McArgs, t0: Instant) -> Result<bool, ExpError> {
    let nodes = args.nodes.unwrap_or(10_000);
    let runs = args.runs.unwrap_or(8);
    let max_steps = args.max_steps.unwrap_or_else(|| pinned::family_max_steps(nodes));
    let models = args.models.clone().unwrap_or_else(|| vec!["REA".parse().expect("model")]);
    let cfg = CellConfig { runs, max_steps, seed: 42, drop_prob: 0.25 };

    opts.progress(format!("generating gao-rexford n={nodes}"));
    let gen0 = Instant::now();
    let inst = pinned::try_family_instance(nodes)?;
    let gen_ms = gen0.elapsed().as_secs_f64() * 1e3;
    println!(
        "== GAO-REXFORD n={nodes}: {} nodes, {} edges, generated in {gen_ms:.0} ms ==",
        inst.node_count(),
        inst.graph().edge_count()
    );
    opts.progress(format!(
        "running {} models x {runs} runs, {max_steps} step budget",
        models.len()
    ));
    let cells = try_run_grid_with(&inst, &models, &cfg, &opts.pool)?;

    let mut table = Table::new(vec![
        "model".into(),
        "conv rate".into(),
        "mean steps".into(),
        "std steps".into(),
        "mean msgs".into(),
        "steps/s".into(),
    ]);
    for c in &cells {
        table.row(vec![
            c.model.to_string(),
            format!("{:.2}", c.stats.convergence_rate()),
            format!("{:.1}", c.stats.mean_steps),
            format!("{:.1}", c.steps_std),
            format!("{:.1}", c.stats.mean_messages),
            format!("{:.0}", c.steps_per_sec()),
        ]);
    }
    println!("{table}");
    println!("interpretation: Gao–Rexford policies are wheel-free, so every reliable-model");
    println!("run must converge within the step budget; 'std steps' is the sample standard");
    println!("deviation of steps-to-convergence across runs (streaming Welford accumulator).");

    let json = JVal::obj([
        ("experiment", JVal::str("montecarlo-family")),
        ("family", JVal::str("gao-rexford")),
        ("nodes", JVal::int(inst.node_count())),
        ("edges", JVal::int(inst.graph().edge_count())),
        ("threads", JVal::int(opts.pool.resolved_threads())),
        ("wall_ms", JVal::Num(t0.elapsed().as_secs_f64() * 1e3)),
        ("generate_ms", JVal::Num(gen_ms)),
        (
            "config",
            JVal::obj([
                ("runs", JVal::int(cfg.runs)),
                ("max_steps", JVal::int(cfg.max_steps)),
                ("seed", JVal::int(cfg.seed as usize)),
                ("drop_prob", JVal::Num(cfg.drop_prob)),
            ]),
        ),
        (
            "cells",
            JVal::Arr(
                cells
                    .iter()
                    .map(|c| {
                        JVal::obj([
                            ("model", JVal::str(c.model.to_string())),
                            ("runs", JVal::int(c.stats.runs)),
                            ("converged", JVal::int(c.stats.converged)),
                            ("converged_unfairly", JVal::int(c.stats.converged_unfairly)),
                            ("stable_outcome", JVal::int(c.stats.stable_outcome)),
                            ("convergence_rate", JVal::Num(c.stats.convergence_rate())),
                            ("mean_steps", JVal::Num(c.stats.mean_steps)),
                            ("steps_std", JVal::Num(c.steps_std)),
                            ("mean_messages", JVal::Num(c.stats.mean_messages)),
                            ("mean_dropped", JVal::Num(c.stats.mean_dropped)),
                            ("wall_ms", JVal::Num(c.wall.as_secs_f64() * 1e3)),
                            ("steps_per_sec", JVal::Num(c.steps_per_sec())),
                            ("total_steps", JVal::int(c.total_steps)),
                            ("total_sent", JVal::int(c.total_sent)),
                            ("total_dropped", JVal::int(c.total_dropped)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("wrote {}", write_json("exp-montecarlo-family", &json)?.display());
    Ok(true)
}

const POLL: NodeModel = NodeModel { scope: NeighborScope::Every, messages: MessagePolicy::All };
const EVENT: NodeModel = NodeModel { scope: NeighborScope::One, messages: MessagePolicy::One };

fn verdict_str(v: &Verdict) -> String {
    match v {
        Verdict::CanOscillate { states, scc_size } => {
            format!("OSCILLATES (SCC of {scc_size} among {states} states)")
        }
        Verdict::AlwaysConverges { states } => format!("always converges ({states} states)"),
        Verdict::NoOscillationWithinBound { states } => {
            format!("no oscillation within bound ({states} states)")
        }
    }
}

fn analyze_row(
    table: &mut Table,
    label: &str,
    inst: &SppInstance,
    model: &HeteroModel,
    cfg: &ExploreConfig,
) -> Result<(), ExploreError> {
    let v = analyze(inst, Spec::Hetero(model), cfg)?;
    table.row(vec![label.to_string(), verdict_str(&v)]);
    Ok(())
}

/// E13: the paper's open questions from Sec. 5 — *mixed* configurations.
/// "Although unreliable channels model reliable channels … we do not have
/// results when, e.g., some nodes poll and others act on messages." This
/// experiment answers those questions for the paper's own gadgets by
/// exhaustive model checking.
fn hetero(opts: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    let cfg = ExploreConfig {
        channel_cap: 3,
        max_states: 400_000,
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };

    println!("== Mixed node behavior on DISAGREE (Fig. 5) ==");
    println!("(baseline: pure polling always converges; pure event-driven oscillates)\n");
    let inst = gadgets::disagree();
    let x = inst.node_by_name("x").expect("x");
    let y = inst.node_by_name("y").expect("y");
    let rea: CommModel = "REA".parse().expect("model");
    let r1o: CommModel = "R1O".parse().expect("model");

    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    analyze_row(
        &mut table,
        "all nodes poll (REA)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), rea),
        &cfg,
    )?;
    analyze_row(
        &mut table,
        "all nodes event-driven (R1O)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), r1o),
        &cfg,
    )?;
    let mut h = HeteroModel::uniform(inst.node_count(), r1o);
    h.set_node(x, POLL);
    analyze_row(&mut table, "x polls, y event-driven", &inst, &h, &cfg)?;
    let mut h = HeteroModel::uniform(inst.node_count(), r1o);
    h.set_node(x, POLL);
    h.set_node(y, POLL);
    analyze_row(&mut table, "x and y poll, d event-driven", &inst, &h, &cfg)?;
    println!("{table}");

    println!("== Mixed channel reliability on DISAGREE under polling (REA) ==\n");
    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    let mut h = HeteroModel::uniform(inst.node_count(), rea);
    h.set_lossy(Channel::new(x, y));
    analyze_row(&mut table, "lossy x->y only", &inst, &h, &cfg)?;
    let mut h = HeteroModel::uniform(inst.node_count(), rea);
    h.set_lossy(Channel::new(x, y));
    h.set_lossy(Channel::new(y, x));
    analyze_row(&mut table, "lossy x<->y", &inst, &h, &cfg)?;
    analyze_row(
        &mut table,
        "all channels lossy (UEA)",
        &inst,
        &HeteroModel::uniform(inst.node_count(), "UEA".parse().expect("model")),
        &cfg,
    )?;
    println!("{table}");

    println!("== Mixed node behavior on Fig. 6 ==\n");
    let inst = gadgets::fig6();
    let u = inst.node_by_name("u").expect("u");
    let v = inst.node_by_name("v").expect("v");
    let reo: CommModel = "REO".parse().expect("model");
    let mut table = Table::new(vec!["configuration".into(), "verdict".into()]);
    let mut h = HeteroModel::uniform(inst.node_count(), reo);
    h.set_node(u, POLL);
    analyze_row(&mut table, "u polls, rest REO", &inst, &h, &cfg)?;
    let mut h = HeteroModel::uniform(inst.node_count(), reo);
    h.set_node(u, POLL);
    h.set_node(v, POLL);
    analyze_row(&mut table, "u and v poll, rest REO", &inst, &h, &cfg)?;
    let mut h = HeteroModel::uniform(inst.node_count(), "REA".parse().expect("model"));
    h.set_node(u, EVENT);
    analyze_row(&mut table, "u event-driven, rest REA", &inst, &h, &cfg)?;
    println!("{table}");
    Ok(true)
}

/// E14: resolve blank Figure 3/4 cells by combining exhaustive verdicts on
/// DISAGREE with the Sec. 3.4 closure. Prints the text report and writes
/// `results/exp-beyond.json`.
fn beyond(opts: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    let t0 = Instant::now();
    let cfg = ExploreConfig {
        threads: opts.pool.threads,
        reduce: opts.reduce(),
        ..ExploreConfig::default()
    };
    opts.progress("harvesting exhaustive verdicts for all 24 models on DISAGREE…");
    let mut harvest_span = routelab_obs::span("beyond.harvest");
    let seps = disagree_separations(&cfg)?;
    harvest_span.field("separations", seps.len());
    drop(harvest_span);
    println!("{} empirical separations found\n", seps.len());

    let base = derive_bounds(&foundational_facts());
    let (facts, extended) = extended_bounds(&seps);
    println!(
        "facts: {} positives, {} negatives ({} empirical)",
        facts.positives.len(),
        facts.negatives.len(),
        facts.negatives.len() - foundational_facts().negatives.len(),
    );
    println!("newly determined or tightened cells: {}\n", newly_determined(&base, &extended));

    println!("extended Figure 4 (new -1 entries fill formerly blank cells):\n");
    println!("{}", extended.render(&CommModel::all_unreliable()));

    // Show exactly which formerly-blank published cells are now decided.
    let mut tightened: Vec<(CommModel, CommModel, String, String)> = Vec::new();
    let mut table =
        Table::new(vec!["realized".into(), "realizer".into(), "published".into(), "now".into()]);
    for paper_table in [figure3(), figure4()] {
        for &a in &paper_table.rows {
            for &b in &paper_table.cols {
                let Some(published) = paper_table.get(a, b) else { continue };
                let now = extended.get(a, b);
                if now.refines(published) && now != published {
                    tightened.push((a, b, published.token(), now.token()));
                    table.row(vec![a.to_string(), b.to_string(), published.token(), now.token()]);
                }
            }
        }
    }
    println!("published cells tightened by the extension ({}):\n", table.len());
    println!("{table}");

    let mut ok = true;
    for t in [figure3(), figure4()] {
        let cmp = compare(&extended, &t);
        ok &= cmp.count(CellVerdict::Conflict) == 0 && cmp.count(CellVerdict::Looser) == 0;
    }
    println!(
        "consistency with the published tables: {}",
        if ok { "OK (extension only tightens)" } else { "CONFLICT" }
    );
    println!("\ncaveat: for O/F-policy unreliable models the convergence verdicts use the");
    println!("strict reading of Definition 2.4 drop fairness; for A-policy models (U1A,");
    println!("UMA, UEA) the readings coincide, so those -1 entries are unconditional.");

    let json = JVal::obj([
        ("experiment", JVal::str("beyond")),
        ("wall_ms", JVal::Num(t0.elapsed().as_secs_f64() * 1e3)),
        ("separations", JVal::int(seps.len())),
        (
            "facts",
            JVal::obj([
                ("positives", JVal::int(facts.positives.len())),
                ("negatives", JVal::int(facts.negatives.len())),
                (
                    "empirical_negatives",
                    JVal::int(facts.negatives.len() - foundational_facts().negatives.len()),
                ),
            ]),
        ),
        ("newly_determined", JVal::int(newly_determined(&base, &extended))),
        (
            "tightened_published_cells",
            JVal::Arr(
                tightened
                    .iter()
                    .map(|(a, b, published, now)| {
                        JVal::obj([
                            ("realized", JVal::str(a.to_string())),
                            ("realizer", JVal::str(b.to_string())),
                            ("published", JVal::str(published.clone())),
                            ("now", JVal::str(now.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("consistent_with_published", JVal::Bool(ok)),
    ]);
    println!("wrote {}", write_json("exp-beyond", &json)?.display());
    Ok(ok)
}

/// One sweep of the timers experiment: `hub`'s activation period runs
/// through 1, 2, 4, 8, 16 while every other node stays at 1.
fn sweep(name: &str, inst: &SppInstance, hub: &str, model: CommModel) {
    let hub_id = inst.node_by_name(hub).expect("hub exists");
    println!("== {name}: slowing node {hub} under {model} ==");
    let mut table =
        Table::new(vec!["hub period".into(), "outcome".into(), "steps".into(), "messages".into()]);
    for w in [1u64, 2, 4, 8, 16] {
        let mut periods = vec![1u64; inst.node_count()];
        periods[hub_id.index()] = w;
        let mut runner = Runner::new(inst);
        let mut sched = Periodic::new(inst, model, periods);
        let outcome = drive(&mut runner, &mut sched, 200_000);
        let stats = runner.stats();
        let desc = match outcome {
            RunOutcome::Converged { steps, .. } => {
                table.row(vec![
                    w.to_string(),
                    "converged".into(),
                    steps.to_string(),
                    stats.sent.to_string(),
                ]);
                continue;
            }
            RunOutcome::CycleDetected { oscillating: true, .. } => "oscillates".to_string(),
            RunOutcome::CycleDetected { oscillating: false, .. } => "quiet cycle".to_string(),
            other => format!("{other:?}"),
        };
        table.row(vec![w.to_string(), desc, "-".into(), stats.sent.to_string()]);
    }
    println!("{table}");
}

/// E15: announcement wait times. The paper's related-work section observes
/// that BGP's configurable wait times cut both ways: "longer wait times may
/// slow BGP convergence because nodes' discovery of potential routes is
/// delayed; in other cases, longer wait times may hasten convergence because
/// nodes do not waste resources on spurious or transient announcements."
/// This experiment measures that trade-off on a deterministic periodic
/// schedule where one hub node's activation period is swept.
fn timers(_: &CommonOpts, args: &[String]) -> Result<bool, ExpError> {
    no_args(args)?;
    let rms: CommModel = "RMS".parse().expect("model");
    // FIG6: node a is the hub every route passes through; slowing it only
    // delays discovery (no transients: it always reads all spokes first).
    sweep("FIG6", &gadgets::fig6(), "a", rms);
    // FIG6 again, but slowing z — the spoke carrying a's best route. Now a
    // announces transient axd/ayd routes that u and v chase, so slowing a
    // *source* inflates both steps and messages.
    sweep("FIG6 (slow source)", &gadgets::fig6(), "z", rms);
    // GOOD-GADGET: slow one rim node.
    sweep("GOOD-GADGET", &gadgets::good_gadget(), "1", rms);
    // A Gao–Rexford topology: slow the destination's neighborhood.
    let gr = gao_rexford_instance(12, 3, 6, 5).expect("generator");
    let hub = gr.name(routelab_spp::NodeId(1)).to_string();
    sweep("GAO-REXFORD n=12", &gr, &hub, rms);

    println!("interpretation: the two FIG6 sweeps show both halves of the paper's");
    println!("related-work observation about BGP wait times. Slowing the hub a (which");
    println!("waits for all spokes anyway) only delays convergence; slowing the source z");
    println!("makes a announce transient routes (axd, ayd) that u and v chase, so the");
    println!("network pays in *both* steps and messages — whereas making a patient again");
    println!("(reading everything before announcing) suppresses those spurious updates.");
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::{NodeId, SppBuilder};

    /// An instance whose route table overflows the u16 id space: 60 leaves
    /// around a 7-node clique whose nodes all neighbor `d`, each leaf
    /// permitting its simple paths to `d` through at most 4 clique nodes.
    fn overflowing_instance() -> SppInstance {
        fn extend(core: &[NodeId], d: NodeId, path: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
            for &c in core {
                if path.contains(&c) {
                    continue;
                }
                path.push(c);
                out.push([path.as_slice(), &[d]].concat());
                if path.len() < 5 {
                    extend(core, d, path, out);
                }
                path.pop();
            }
        }
        let mut b = SppBuilder::new();
        let d = b.node("d");
        let core: Vec<NodeId> = (0..7).map(|i| b.node(&format!("c{i}"))).collect();
        for (i, &c) in core.iter().enumerate() {
            b.edge_between(c, d).unwrap();
            for &e in &core[i + 1..] {
                b.edge_between(c, e).unwrap();
            }
        }
        for i in 0..60 {
            let leaf = b.node(&format!("l{i}"));
            for &c in &core {
                b.edge_between(leaf, c).unwrap();
            }
            let mut paths = Vec::new();
            extend(&core, d, &mut vec![leaf], &mut paths);
            // 7 + 7·6 + 7·6·5 + 7·6·5·4 ordered choices of clique nodes.
            assert_eq!(paths.len(), 1_099);
            b.prefer(leaf, paths).unwrap();
        }
        b.dest(d).unwrap();
        b.build().unwrap()
    }

    /// A route table past the u16 id space (65,940 leaf routes) is an
    /// exploration error, which `examples` reports with exit status 2 like
    /// `survey` and `beyond`, not a claim that failed to reproduce (status
    /// 1).
    #[test]
    fn a_failed_exploration_is_an_error_not_a_mismatch() {
        let inst = overflowing_instance();
        let cfg = ExploreConfig { threads: Some(1), ..ExploreConfig::default() };
        let err = oscillation_claims(&inst, &["R1O"], &[], &cfg).unwrap_err();
        let ExpError::Failed(e) = err else { panic!("expected a failed exploration, got {err:?}") };
        assert!(e.to_string().contains("route table overflow (65942 routes"), "{e}");
    }

    /// The overflow's error names its cell by node count, destination and
    /// model, not by the instance's 65,942 paths: one line under 1 KB.
    #[test]
    fn an_overflow_error_renders_as_one_short_line() {
        let inst = overflowing_instance();
        let cfg = ExploreConfig { threads: Some(1), ..ExploreConfig::default() };
        let model = "R1O".parse().unwrap();
        let spec = Spec::Uniform(model);
        let err = routelab_explore::graph::try_build_spec(&inst, spec, &cfg)
            .expect_err("the route table overflows");
        let msg = err.to_string();
        assert!(!msg.contains('\n') && msg.len() < 1024, "{} bytes: {msg:.200}", msg.len());
        assert_eq!(err.cell, "68-node instance, dest d × R1O");
    }
}
