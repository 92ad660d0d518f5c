//! Experiment E9: the oscillation survey — for every gadget in the corpus
//! and every one of the 24 models, can a fair activation sequence fail to
//! converge? Exhaustive verdicts on probe models transfer along the
//! realization lattice, exactly as the paper argues in Sec. 3.5.
//!
//! Budgets are per gadget: FIG6 keeps a 1.5M-state probe cap so that the
//! `--no-reduce` escape hatch can still finish its polling convergence
//! proofs exhaustively (R1A/RMA are ~654k raw states; the default reduced
//! build reaches quiescence in a few hundred); every other gadget decides
//! its probes well under a 250k cap. Phase-2 direct checks of the
//! lattice-undecided models get 400k states: the largest such space —
//! FIG6 under U1A/UMA, finite only because the unreliable-All set collapse
//! bounds its queues — is exhaustive at 365,721 reduced states, so every
//! cell of the table now prints a decided verdict. The `--no-reduce` run
//! keeps a 25k phase-2 cap and is allowed to leave cells open (see
//! [`direct_budget`]).
//!
//! Prints the text table and writes `results/exp-survey.json` (schema in
//! EXPERIMENTS.md).

use std::time::Instant;

use routelab_explore::graph::ExploreConfig;
use routelab_sim::cli;
use routelab_sim::report::{write_json, Json};
use routelab_sim::survey::{try_survey_instance, SurveyConfig, SurveyOutcome};
use routelab_sim::table::Table;
use routelab_spp::gadgets;

/// Probe-state budget for one gadget. Only FIG6 needs more than a quarter
/// million states — and only without reduction: Thm 3.9's R1A/RMA
/// convergence proofs are exhaustive at 654,312 raw states under channel
/// cap 3 (the reduced quotient is a few hundred).
fn probe_budget(gadget: &str) -> usize {
    if gadget == "FIG6" {
        1_500_000
    } else {
        250_000
    }
}

/// Phase-2 budget for the direct checks of lattice-undecided models,
/// sized so every reduced space decides (FIG6 × U1A/UMA is the largest,
/// exhaustive at 365,721 states). The `--no-reduce` run keeps the
/// historical 25k cap: without the set collapse the unreliable-All
/// spaces are unbounded and without the route-class projection the rest
/// dwarf any practical budget, so a bigger cap would only burn minutes
/// to print the same `?`.
fn direct_budget(reduce: bool) -> usize {
    if reduce {
        400_000
    } else {
        25_000
    }
}

fn outcome_json(o: &SurveyOutcome) -> Json {
    let (verdict, via) = match o {
        SurveyOutcome::Oscillates { via } => ("oscillates", via),
        SurveyOutcome::Converges { via } => ("converges", via),
        SurveyOutcome::Unknown => ("unknown", &None),
    };
    Json::obj([
        ("verdict", Json::str(verdict)),
        ("via", via.map_or(Json::Null, |p| Json::str(p.to_string()))),
    ])
}

fn main() {
    let opts = cli::parse_common("exp-survey");
    if !opts.rest.is_empty() {
        eprintln!("usage: exp-survey [--threads N] [--quiet] [--obs] [--no-reduce]");
        opts.exit(2);
    }
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
        match try_survey_instance(inst, &cfg) {
            Ok(entries) => surveys.push(entries),
            Err(e) => {
                opts.progress("failed");
                eprintln!("exp-survey: {e}");
                opts.exit(2);
            }
        }
        drop(gadget_span);
        let wall = g0.elapsed();
        opts.progress(format!("done in {:.1} s", wall.as_secs_f64()));
        gadget_walls.push(wall);
    }

    let mut header = vec!["model".to_string()];
    header.extend(corpus.iter().map(|(n, _)| n.to_string()));
    let mut table = Table::new(header);

    let models = routelab_core::model::CommModel::all();
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

    let json = Json::obj([
        ("experiment", Json::str("survey")),
        ("wall_ms", Json::Num(t0.elapsed().as_secs_f64() * 1e3)),
        (
            "config",
            Json::obj([
                ("channel_cap", Json::int(3)),
                ("max_steps_per_state", Json::int(20_000)),
                ("direct_budget", Json::int(direct_budget(opts.reduce()))),
                ("reduce", Json::Bool(opts.reduce())),
            ]),
        ),
        (
            "gadgets",
            Json::Arr(
                corpus
                    .iter()
                    .zip(&gadget_walls)
                    .map(|((n, _), wall)| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("probe_budget", Json::int(probe_budget(n))),
                            ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "models",
            Json::Arr(
                models
                    .iter()
                    .enumerate()
                    .map(|(i, model)| {
                        Json::obj([
                            ("model", Json::str(model.to_string())),
                            (
                                "cells",
                                Json::Arr(
                                    surveys.iter().map(|s| outcome_json(&s[i].outcome)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("separations_reproduced", Json::Bool(ok)),
    ]);
    match write_json("exp-survey", &json) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("error writing JSON results: {e}");
            opts.exit(2);
        }
    }
    opts.exit(if ok { 0 } else { 1 });
}
