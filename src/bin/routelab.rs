//! The `routelab` command-line tool: audit routing policies, check
//! convergence per communication model, solve for stable assignments, and
//! replay executions across models.
//!
//! ```text
//! routelab models
//! routelab audit    <instance>
//! routelab solve    <instance>
//! routelab check    <instance> <model> [--witness]
//! routelab realize  <instance> <from-model> <to-model> [steps]
//! routelab plan     <from-model> <to-model> [instance]
//! routelab pipeline "<source> | <stage> | …"
//! routelab transforms list
//! routelab simulate <instance> <model> [runs] [--threads N]
//! routelab exp      <fig3|fig4|examples|survey|transform|montecarlo|hetero|beyond|timers> [args]
//! routelab obs summarize <telemetry-dir> [--json]
//! routelab trace record <instance> <model>
//! routelab trace explain <trace.ndjson>
//! routelab trace export-chrome <trace.ndjson> [-o <out.json>]
//! ```
//!
//! Every subcommand also accepts `--obs` (write NDJSON telemetry under the
//! results dir; equivalent to `ROUTELAB_OBS=1`), `--trace` (record a causal
//! flight-recorder trace; equivalent to `ROUTELAB_TRACE=1`) and `--quiet`
//! (suppress progress/heartbeat output on stderr). `trace record` captures a
//! divergent run of a gadget × model cell; `trace explain` reconstructs its
//! oscillation cycle and cross-checks it against the explorer's witness;
//! `trace export-chrome` emits Chrome `trace_event` JSON loadable in
//! `chrome://tracing` or Perfetto. `exp` runs one of the experiments that
//! regenerate the paper's tables and figures (see `routelab_sim::exp`) and
//! exits 0 when its claims are reproduced, 1 on a mismatch and 2 on a usage
//! or I/O error; the other subcommands exit 1 on an error of their own (a
//! bad shared flag exits 2 everywhere).
//!
//! `<instance>` is either a gadget name (`DISAGREE`, `FIG6`, `FIG7`, `FIG8`,
//! `FIG9`, `BAD-GADGET`, `GOOD-GADGET`, `LINE2`) or a path to an `spp v1`
//! text file (see `routelab::spp::format`).
//!
//! `pipeline` and `plan` resolve names against the registry in
//! `routelab::realize::registry` (`transforms list` prints it): a pipeline
//! is a `|`-separated chain — a generator first (`fig6`, `wheel 5`), then
//! transforms (`split`, `pad`, `embed UMS`), model pins (`RMS`), and checks
//! (`verify`) — type-checked for model compatibility before anything runs.
//! `plan` searches the realization lattice for the strongest composite
//! transform route between two models and validates it end to end on a fair
//! run before printing it.

use std::error::Error;
use std::process::ExitCode;

use routelab::core::model::CommModel;
use routelab::engine::outcome::{drive, RunOutcome};
use routelab::engine::runner::Runner;
use routelab::engine::schedule::Cyclic;
use routelab::explore::effects::Spec;
use routelab::explore::graph::ExploreConfig;
use routelab::explore::oscillation::{analyze, Verdict};
use routelab::explore::witness::oscillation_witness;
use routelab::realize::plan::fair_prefix;
use routelab::realize::verify::verify_path;
use routelab::sim::cli::{parse_count, CommonOpts};
use routelab::sim::flight::{export_chrome, oscillation_cycle, parse_trace, render_explain};
use routelab::sim::montecarlo::{try_run_grid_with, CellConfig};
use routelab::sim::pool::PoolConfig;
use routelab::sim::survey::{survey_instance, SurveyConfig, SurveyOutcome};
use routelab::spp::solve::{enumerate_stable_assignments, fmt_assignment};
use routelab::spp::{dispute, format, gadgets, SppInstance};

/// A subcommand's outcome; `main` prints an error as one `error:` line.
type CliResult = Result<(), Box<dyn Error>>;

fn load_instance(spec: &str) -> Result<SppInstance, String> {
    for (name, inst) in gadgets::corpus() {
        if name.eq_ignore_ascii_case(spec) {
            return Ok(inst);
        }
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec:?}: {e}"))?;
    format::from_text(&text).map_err(|e| format!("cannot parse {spec:?}: {e}"))
}

fn parse_model(s: &str) -> Result<CommModel, String> {
    s.parse().map_err(|e| format!("{e}"))
}

fn cmd_models() {
    println!("the 24 communication models (reliability × neighbors × messages):\n");
    for m in CommModel::all() {
        println!("  {m}  ({:?})", m.family());
    }
    println!("\npolling = learn neighbors' current state; message-passing = one queued");
    println!("message per channel; queueing = unrestricted (closest to deployed BGP).");
}

fn cmd_audit(inst: &SppInstance) -> CliResult {
    print!("{inst}");
    let solutions = enumerate_stable_assignments(inst, 10_000_000)?;
    println!("stable path assignments: {}", solutions.len());
    for s in solutions.iter().take(8) {
        println!("  {}", fmt_assignment(inst, s));
    }
    if solutions.len() > 8 {
        println!("  … and {} more", solutions.len() - 8);
    }
    match dispute::find_dispute_wheel(inst) {
        Some(w) => println!("dispute wheel: {}", w.display(inst)),
        None => println!("no dispute wheel: converges under every fair schedule in every model"),
    }
    println!("\nper-model verdicts:");
    let cfg = SurveyConfig {
        explore: ExploreConfig { channel_cap: 3, ..ExploreConfig::default() },
        ..SurveyConfig::default()
    };
    for entry in survey_instance(inst, &cfg)? {
        let v = match entry.outcome {
            SurveyOutcome::Oscillates { via: None } => "can oscillate".into(),
            SurveyOutcome::Oscillates { via: Some(p) } => format!("can oscillate (via {p})"),
            SurveyOutcome::Converges { via: None } => "always converges".into(),
            SurveyOutcome::Converges { via: Some(p) } => format!("always converges (via {p})"),
            SurveyOutcome::Unknown => "undecided within bounds".into(),
        };
        println!("  {}: {v}", entry.model);
    }
    Ok(())
}

fn cmd_solve(inst: &SppInstance) -> CliResult {
    let solutions = enumerate_stable_assignments(inst, 50_000_000)?;
    println!("{} stable path assignment(s)", solutions.len());
    for s in &solutions {
        println!("  {}", fmt_assignment(inst, s));
    }
    Ok(())
}

fn cmd_check(inst: &SppInstance, model: CommModel, want_witness: bool) -> CliResult {
    let cfg = ExploreConfig { channel_cap: 3, max_states: 1_000_000, ..ExploreConfig::default() };
    match analyze(inst, Spec::Uniform(model), &cfg)? {
        Verdict::CanOscillate { states, scc_size } => {
            println!("{model}: CAN OSCILLATE (fair SCC of {scc_size} states; {states} explored)");
            if want_witness {
                let w = oscillation_witness(inst, model, &cfg)?
                    .ok_or("witness extraction failed unexpectedly")?;
                println!("witness prefix ({} steps):", w.prefix.len());
                for s in &w.prefix {
                    println!("  {s}");
                }
                println!("witness cycle ({} steps, repeat forever):", w.cycle.len());
                for s in &w.cycle {
                    println!("  {s}");
                }
                let mut runner = Runner::new(inst);
                runner.run(&w.prefix);
                let mut sched = Cyclic::new(w.cycle);
                if let RunOutcome::CycleDetected { period, .. } =
                    drive(&mut runner, &mut sched, 10_000)
                {
                    println!("replay confirms a state cycle of period {period}");
                }
            }
        }
        Verdict::AlwaysConverges { states } => {
            println!("{model}: ALWAYS CONVERGES (exhaustive over {states} states)");
        }
        Verdict::NoOscillationWithinBound { states } => {
            println!("{model}: no oscillation found within bounds ({states} states; verdict open)");
        }
    }
    Ok(())
}

fn cmd_realize(inst: &SppInstance, from: CommModel, to: CommModel, steps: usize) -> CliResult {
    let seq = fair_prefix(inst, from, steps);
    match verify_path(inst, &seq, from, to)? {
        Some(report) => {
            println!("{report}");
            println!("holds: {}", report.holds());
        }
        None => println!("no realization chain exists from {from} into {to}"),
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> CliResult {
    let usage = "usage: routelab plan <from-model> <to-model> [instance]";
    let from = parse_model(args.first().ok_or(usage)?)?;
    let to = parse_model(args.get(1).ok_or(usage)?)?;
    let spec = args.get(2).map(String::as_str).unwrap_or("FIG6");
    let inst = load_instance(spec)?;
    let reg = routelab::realize::Registry::global();
    let out = routelab::sim::pipeline::render_plan(reg, &inst, spec, from, to)?;
    print!("{out}");
    Ok(())
}

fn cmd_pipeline(args: &[String]) -> CliResult {
    let usage = "usage: routelab pipeline \"<source> | <stage> | …\"\n\
                 \u{20}  e.g. routelab pipeline \"fig6 | split | pad | verify\"";
    let spec = match args {
        [one] => one.clone(),
        [] => return Err(usage.into()),
        // Allow an unquoted pipeline: rejoin the shell-split words.
        many => many.join(" "),
    };
    let reg = routelab::realize::Registry::global();
    let out = routelab::sim::pipeline::render_pipeline(reg, &spec)?;
    print!("{out}");
    Ok(())
}

fn cmd_transforms(args: &[String]) -> CliResult {
    let usage = "usage: routelab transforms list";
    match args.first().map(String::as_str) {
        Some("list") => {
            let reg = routelab::realize::Registry::global();
            print!("{}", routelab::sim::pipeline::render_transforms_list(reg));
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

fn cmd_simulate(inst: &SppInstance, model: CommModel, runs: usize, pool: &PoolConfig) -> CliResult {
    let cfg = CellConfig { runs, max_steps: 30_000, seed: 42, drop_prob: 0.25 };
    // One cell, decomposed into per-run jobs on the worker pool; the
    // statistics are identical for every thread count.
    let cells = try_run_grid_with(inst, &[model], &cfg, pool)?;
    let stats = cells[0].stats;
    println!(
        "{model}: {}/{} runs converged (rate {:.2}), mean steps {:.1}, mean messages {:.1}, mean drops {:.1}",
        stats.converged,
        stats.runs,
        stats.convergence_rate(),
        stats.mean_steps,
        stats.mean_messages,
        stats.mean_dropped
    );
    Ok(())
}

fn cmd_obs_summarize(args: &[String]) -> CliResult {
    let usage = "usage: routelab obs summarize <telemetry-dir> [--json]";
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let json = args.iter().any(|a| a == "--json");
            let dir = args.iter().skip(1).find(|a| !a.starts_with("--")).ok_or(usage)?;
            let dir = std::path::Path::new(dir);
            // An absent or empty telemetry dir just means nothing was
            // recorded yet — explain rather than fail.
            if !dir.is_dir() {
                println!(
                    "no telemetry directory at {} — run a command with --obs \
                     (or ROUTELAB_OBS=1) first",
                    dir.display()
                );
                return Ok(());
            }
            let summary = routelab::obs::summarize_dir(dir)
                .map_err(|e| format!("cannot summarize {}: {e}", dir.display()))?;
            if summary.files == 0 {
                println!(
                    "no *.ndjson telemetry files in {} — run a command with --obs \
                     (or ROUTELAB_OBS=1) first",
                    dir.display()
                );
                return Ok(());
            }
            if json {
                println!("{}", summary.to_json_string());
            } else {
                print!("{}", summary.render_table());
            }
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

/// The exploration bounds shared by `check`, `trace record`, and the
/// `trace explain` cross-check: identical bounds keep the recomputed witness
/// bit-identical to the one the trace was recorded from.
fn witness_config() -> ExploreConfig {
    ExploreConfig { channel_cap: 3, max_states: 1_000_000, ..ExploreConfig::default() }
}

fn cmd_trace(args: &[String], opts: &CommonOpts) -> CliResult {
    let usage = "usage: routelab trace record <instance> <model>\n\
                 \u{20}      routelab trace explain <trace.ndjson>\n\
                 \u{20}      routelab trace export-chrome <trace.ndjson> [-o <out.json>]";
    match args.first().map(String::as_str) {
        Some("record") => {
            let spec = args.get(1).ok_or(usage)?;
            let model = parse_model(args.get(2).ok_or(usage)?)?;
            let inst = load_instance(spec)?;
            cmd_trace_record(&inst, spec, model, opts)
        }
        Some("explain") => cmd_trace_explain(args.get(1).ok_or(usage)?, opts),
        Some("export-chrome") => {
            let path = args.get(1).ok_or(usage)?;
            let out =
                args.iter().position(|a| a == "-o" || a == "--out").and_then(|i| args.get(i + 1));
            cmd_trace_export(path, out.map(String::as_str))
        }
        _ => Err(usage.into()),
    }
}

/// Records a divergent run of `inst` under `model`: finds the explorer's
/// oscillation witness (capturing the explorer's own phase profile in the
/// same trace), then replays prefix + cycle with the flight recorder on.
fn cmd_trace_record(
    inst: &SppInstance,
    spec: &str,
    model: CommModel,
    opts: &CommonOpts,
) -> CliResult {
    // Enable tracing before the exploration so the explorer's phase spans
    // land in the same file (idempotent when --trace already enabled it).
    let path = routelab::obs::enable_trace_to_dir(&routelab::obs::telemetry_dir(), "routelab")
        .ok_or("cannot create a trace file under the telemetry directory")?;
    routelab::obs::trace_note("gadget", spec);
    routelab::obs::trace_note("model", &model.to_string());
    opts.progress(format!("searching {spec} × {model} for a fair oscillation …"));
    let w = oscillation_witness(inst, model, &witness_config())?.ok_or_else(|| {
        format!(
            "{spec} under {model}: no fair oscillation within bounds — nothing to record \
             (try a divergent cell such as FIG6 REO or DISAGREE R1O)"
        )
    })?;
    opts.progress(format!(
        "replaying witness ({} prefix steps + {}-step cycle) with the flight recorder on",
        w.prefix.len(),
        w.cycle.len()
    ));
    let mut runner = Runner::new(inst);
    runner.run(&w.prefix);
    let mut sched = Cyclic::new(w.cycle);
    match drive(&mut runner, &mut sched, 10_000) {
        RunOutcome::CycleDetected { period, oscillating, .. } => {
            opts.progress(format!("cycle confirmed: period {period}, oscillating {oscillating}"));
        }
        other => return Err(format!("witness replay did not cycle: {other:?}").into()),
    }
    routelab::obs::shutdown();
    // The trace path is the last stdout line so scripts can `tail -n 1` it.
    println!("{}", path.display());
    Ok(())
}

/// Reconstructs the oscillation cycle recorded in a trace file and, when the
/// trace names its gadget × model cell, cross-checks the cycle's route
/// adoptions against a fresh replay of the explorer's witness.
fn cmd_trace_explain(path: &str, opts: &CommonOpts) -> CliResult {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let tf = parse_trace(&content)?;
    let report = oscillation_cycle(&tf)?;
    print!("{}", render_explain(&tf, &report));
    let (Some(gadget), Some(model)) = (tf.notes.get("gadget"), tf.notes.get("model")) else {
        opts.progress("(trace carries no gadget/model notes: skipping the witness cross-check)");
        return Ok(());
    };
    let inst = load_instance(gadget)?;
    let model = parse_model(model)?;
    opts.progress(format!("cross-checking against the explorer's witness for {gadget} × {model}"));
    let w = oscillation_witness(&inst, model, &witness_config())?.ok_or_else(|| {
        format!("cross-check failed: the explorer finds no oscillation for {gadget} × {model}")
    })?;
    // Replay the witness exactly as `trace record` did and collect the route
    // adoptions inside the trace's own cycle window [first_seen,
    // first_seen + period) — determinism makes this an equality check.
    let Some(cycle_steps) = (report.first_seen + report.period).checked_sub(w.prefix.len() as u64)
    else {
        return Err("cross-check failed: the trace's cycle window ends before the witness \
                    prefix does — the trace was not recorded from this witness"
            .into());
    };
    let mut runner = Runner::new(&inst);
    for s in &w.prefix {
        runner.step(s);
    }
    let mut expected = std::collections::BTreeSet::new();
    let cycle_schedule = w.cycle.iter().cycle().take(cycle_steps as usize);
    for (global_step, s) in (w.prefix.len() as u64..).zip(cycle_schedule) {
        let effect = runner.step(s);
        if global_step >= report.first_seen {
            for (v, _, new) in &effect.changed {
                expected.insert((inst.name(*v).to_string(), inst.fmt_route(new)));
            }
        }
    }
    if expected == report.pi_changes {
        println!(
            "witness cross-check: consistent — the recorded cycle's route adoptions match \
             the explorer's witness replay"
        );
        Ok(())
    } else {
        let fmt = |set: &std::collections::BTreeSet<(String, String)>| {
            set.iter().map(|(v, r)| format!("{v}←{r}")).collect::<Vec<_>>().join(" ")
        };
        Err(format!(
            "witness cross-check MISMATCH:\n  trace:   {}\n  witness: {}",
            fmt(&report.pi_changes),
            fmt(&expected)
        )
        .into())
    }
}

fn cmd_trace_export(path: &str, out: Option<&str>) -> CliResult {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let tf = parse_trace(&content)?;
    let json = export_chrome(&tf);
    match out {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("cannot write {out:?}: {e}"))?;
            println!(
                "wrote {out} ({} bytes) — load in chrome://tracing or https://ui.perfetto.dev",
                json.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn run(opts: &CommonOpts) -> CliResult {
    let args = &opts.rest;
    let usage = "usage: routelab <models|audit|solve|check|realize|plan|pipeline|transforms|\
         simulate|exp|obs|trace> …\n\
         run `routelab help` for details";
    match args.first().map(String::as_str) {
        Some("models") => cmd_models(),
        Some("audit") => {
            let inst = load_instance(args.get(1).ok_or(usage)?)?;
            cmd_audit(&inst)?;
        }
        Some("solve") => {
            let inst = load_instance(args.get(1).ok_or(usage)?)?;
            cmd_solve(&inst)?;
        }
        Some("check") => {
            let inst = load_instance(args.get(1).ok_or(usage)?)?;
            let model = parse_model(args.get(2).ok_or(usage)?)?;
            let witness = args.iter().any(|a| a == "--witness");
            cmd_check(&inst, model, witness)?;
        }
        Some("realize") => {
            let inst = load_instance(args.get(1).ok_or(usage)?)?;
            let from = parse_model(args.get(2).ok_or(usage)?)?;
            let to = parse_model(args.get(3).ok_or(usage)?)?;
            let steps = args.get(4).map_or(Ok(24), |s| parse_count("step count", s))?;
            cmd_realize(&inst, from, to, steps)?;
        }
        Some("plan") => cmd_plan(&args[1..])?,
        Some("pipeline") => cmd_pipeline(&args[1..])?,
        Some("transforms") => cmd_transforms(&args[1..])?,
        Some("simulate") => {
            // `--threads N` is stripped into `opts.pool` by the common parser.
            let inst = load_instance(args.get(1).ok_or(usage)?)?;
            let model = parse_model(args.get(2).ok_or(usage)?)?;
            let runs = args.get(3).map_or(Ok(50), |s| parse_count("run count", s))?;
            cmd_simulate(&inst, model, runs, &opts.pool)?;
        }
        Some("obs") => cmd_obs_summarize(&args[1..])?,
        Some("trace") => cmd_trace(&args[1..], opts)?,
        Some("help") | None => {
            println!("{usage}");
            println!("\ninstances: DISAGREE FIG6 FIG7 FIG8 FIG9 BAD-GADGET GOOD-GADGET LINE2");
            println!("           or a path to an `spp v1` file");
            println!("models:    [RU][1ME][OSFA], e.g. RMS, R1O, REA");
            println!("pipelines: `routelab pipeline \"fig6 | split | pad | verify\"` chains");
            println!("           registry stages; `routelab transforms list` names them;");
            println!("           `routelab plan REA UMS` finds and verifies a composite route");
            println!("paper:     `routelab exp <name>` regenerates a table or figure;");
            println!("           `routelab exp` lists the names");
            println!("telemetry: add --obs (or ROUTELAB_OBS=1) to any subcommand, then");
            println!("           `routelab obs summarize results/telemetry` to aggregate");
            println!("tracing:   `routelab trace record FIG6 REO` captures a divergent run,");
            println!("           `trace explain <file>` reconstructs its oscillation cycle,");
            println!("           `trace export-chrome <file>` emits Perfetto-loadable JSON");
        }
        Some(other) => return Err(format!("unknown subcommand {other:?}\n{usage}").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = routelab::sim::cli::parse_common("routelab");
    let code = match opts.rest.split_first() {
        Some((cmd, args)) if cmd == "exp" => ExitCode::from(routelab::sim::exp::run(&opts, args)),
        _ => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    };
    // Flush any buffered telemetry before the process unwinds.
    opts.finish();
    code
}
