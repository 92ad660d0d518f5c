//! Experiment E11 (extension): Monte-Carlo convergence statistics of
//! randomized fair schedules across communication models and instance
//! families — dispute-wheel-carrying gadgets, wheel-free Gao–Rexford
//! topologies, and random policies.
//!
//! Usage: `exp_montecarlo [runs] [--threads N] [--quiet] [--obs]`, with
//! `runs` in 1..=100000 (anything else is an `error:` and exit code 2). Prints
//! text tables and writes `results/exp-montecarlo.json` (full report) plus
//! `results/BENCH_montecarlo.json` (throughput summary, whose per-worker
//! rate `scripts/check_bench.py` gates); see EXPERIMENTS.md for the schema.
//!
//! The large-topology lane `exp_montecarlo [runs] --family gao-rexford
//! --nodes N [--models LIST] [--max-steps M]` runs one Internet-scale
//! Gao–Rexford cell family instead of the classic grid. Statistics stream
//! through bounded-memory accumulators (no per-run records are retained),
//! so `--nodes 10000` works in a CI smoke budget; results land in
//! `results/exp-montecarlo-family.json`, whose convergence
//! `scripts/check_bench.py` gates.

use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_sim::cli::{self, CommonOpts};
use routelab_sim::montecarlo::{pinned, try_run_grid_with, CellConfig, CellReport};
use routelab_sim::pool::PoolConfig;
use routelab_sim::report::{write_json, GroupReport, Json, RunReport};
use routelab_sim::table::Table;
use routelab_spp::{dispute, SppInstance};

const USAGE: &str = "usage: exp-montecarlo [runs] [--family gao-rexford --nodes N] \
                     [--models LIST] [--max-steps M] [--threads N] [--quiet] [--obs]";

fn report(
    opts: &CommonOpts,
    name: &str,
    inst: &SppInstance,
    models: &[CommModel],
    cfg: &CellConfig,
    pool: &PoolConfig,
) -> GroupReport {
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
    let cells: Vec<CellReport> = match try_run_grid_with(inst, models, cfg, pool) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("error: {e}");
            opts.exit(2);
        }
    };
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
    GroupReport::new(name, inst, wheel_free, cells)
}

/// Parsed command line; `runs` stays `None` until a positional count is
/// given so the grid and family lanes can apply different defaults.
struct Args {
    runs: Option<usize>,
    family: Option<String>,
    nodes: usize,
    models: Option<Vec<CommModel>>,
    max_steps: Option<usize>,
}

fn usage(opts: &CommonOpts) -> ! {
    eprintln!("{USAGE}");
    opts.exit(2)
}

fn parse_args(opts: &CommonOpts) -> Args {
    let mut args = Args { runs: None, family: None, nodes: 10_000, models: None, max_steps: None };
    let mut it = opts.rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--family" => args.family = Some(it.next().unwrap_or_else(|| usage(opts)).clone()),
            "--nodes" => {
                args.nodes = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(opts));
            }
            "--max-steps" => {
                args.max_steps =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(opts)));
            }
            "--models" => {
                let list = it.next().unwrap_or_else(|| usage(opts));
                let parsed: Result<Vec<CommModel>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(models) if !models.is_empty() => args.models = Some(models),
                    _ => {
                        eprintln!("error: bad --models list {list:?}");
                        usage(opts)
                    }
                }
            }
            other => match cli::parse_count("run count", other) {
                Ok(n) => args.runs = Some(n),
                Err(e) => {
                    eprintln!("error: {e}");
                    usage(opts)
                }
            },
        }
    }
    args
}

/// The `--family` lane: one large-topology cell family with streaming
/// statistics, reported with standard deviations and throughput.
fn run_family(opts: &CommonOpts, args: &Args, t0: Instant) {
    let family = args.family.as_deref().expect("family lane");
    if family != "gao-rexford" {
        eprintln!("error: unknown family {family:?} (supported: gao-rexford)");
        opts.exit(2);
    }
    let nodes = args.nodes;
    let runs = args.runs.unwrap_or(8);
    let max_steps = args.max_steps.unwrap_or_else(|| pinned::family_max_steps(nodes));
    let models = args.models.clone().unwrap_or_else(|| vec!["REA".parse().expect("model")]);
    let cfg = CellConfig { runs, max_steps, seed: 42, drop_prob: 0.25 };

    opts.progress(format!("generating gao-rexford n={nodes}"));
    let gen0 = Instant::now();
    let inst = match pinned::try_family_instance(nodes) {
        Ok(inst) => inst,
        Err(e) => {
            eprintln!("error: {e}");
            opts.exit(2);
        }
    };
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
    let cells = match try_run_grid_with(&inst, &models, &cfg, &opts.pool) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("error: {e}");
            opts.exit(2);
        }
    };

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

    let json = Json::obj([
        ("experiment", Json::str("montecarlo-family")),
        ("family", Json::str(family)),
        ("nodes", Json::int(inst.node_count())),
        ("edges", Json::int(inst.graph().edge_count())),
        ("threads", Json::int(opts.pool.resolved_threads())),
        ("wall_ms", Json::Num(t0.elapsed().as_secs_f64() * 1e3)),
        ("generate_ms", Json::Num(gen_ms)),
        (
            "config",
            Json::obj([
                ("runs", Json::int(cfg.runs)),
                ("max_steps", Json::int(cfg.max_steps)),
                ("seed", Json::int(cfg.seed as usize)),
                ("drop_prob", Json::Num(cfg.drop_prob)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("model", Json::str(c.model.to_string())),
                            ("runs", Json::int(c.stats.runs)),
                            ("converged", Json::int(c.stats.converged)),
                            ("converged_unfairly", Json::int(c.stats.converged_unfairly)),
                            ("stable_outcome", Json::int(c.stats.stable_outcome)),
                            ("convergence_rate", Json::Num(c.stats.convergence_rate())),
                            ("mean_steps", Json::Num(c.stats.mean_steps)),
                            ("steps_std", Json::Num(c.steps_std)),
                            ("mean_messages", Json::Num(c.stats.mean_messages)),
                            ("mean_dropped", Json::Num(c.stats.mean_dropped)),
                            ("wall_ms", Json::Num(c.wall.as_secs_f64() * 1e3)),
                            ("steps_per_sec", Json::Num(c.steps_per_sec())),
                            ("total_steps", Json::int(c.total_steps)),
                            ("total_sent", Json::int(c.total_sent)),
                            ("total_dropped", Json::int(c.total_dropped)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    match write_json("exp-montecarlo-family", &json) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("error writing JSON results: {e}");
            opts.exit(2);
        }
    }
    opts.finish();
}

fn main() {
    let opts = cli::parse_common("exp-montecarlo");
    let t0 = Instant::now();
    let args = parse_args(&opts);
    if args.family.is_some() {
        run_family(&opts, &args, t0);
        return;
    }
    let pool = opts.pool;
    let cfg = pinned::config(args.runs.unwrap_or(40));
    let models = args.models.clone().unwrap_or_else(pinned::models);

    let groups: Vec<GroupReport> = pinned::instances()
        .iter()
        .map(|(name, inst)| report(&opts, name, inst, &models, &cfg, &pool))
        .collect();

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
    match write_json("exp-montecarlo", &run_report.to_json())
        .and_then(|p| write_json("BENCH_montecarlo", &run_report.bench_json()).map(|b| (p, b)))
    {
        Ok((p, b)) => println!("wrote {} and {}", p.display(), b.display()),
        Err(e) => {
            eprintln!("error writing JSON results: {e}");
            opts.exit(2);
        }
    }
    opts.finish();
}
