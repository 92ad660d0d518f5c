//! Engine throughput benchmark: measures the interned hot path on the
//! pinned Monte-Carlo workload and writes `results/BENCH_engine.json`,
//! gated by `scripts/check_bench.py`.
//!
//! Two sections:
//!
//! * **grid** — the exact default `exp-montecarlo` grid (same instances,
//!   models, and cell configuration via [`pinned`]) at **one worker**, so
//!   the headline steps/s is a per-core engine number comparable across
//!   machines of the CI class. The JSON carries its own baseline (the
//!   pre-interning engine's figure) and the minimum speedup the gate
//!   enforces.
//! * **tenk** — a 10 000-node Gao–Rexford REA cell, the Internet-scale
//!   smoke: every run must converge within the step budget, proving the
//!   zero-allocation path handles large state without drowning in cache
//!   misses or memory.
//!
//! Usage: `exp_engine_bench [runs] [--threads N] [--quiet] [--obs]`
//! (`--threads` only affects the tenk section; the grid is always 1
//! worker).

use std::time::Instant;

use routelab_sim::cli;
use routelab_sim::montecarlo::{pinned, try_run_grid_with, CellConfig, CellReport};
use routelab_sim::pool::PoolConfig;
use routelab_sim::report::{write_json, Json};

/// Single-worker steps/s of the pinned grid before the interned-route
/// engine landed (`BENCH_montecarlo.json`, threads = 1). Only ever raise
/// this.
const BASELINE_STEPS_PER_SEC: f64 = 242_116.0;

/// The gate: the interned engine must hold at least this multiple of the
/// baseline on the pinned grid.
const MIN_SPEEDUP: f64 = 3.0;

const TENK_NODES: usize = 10_000;
const TENK_RUNS: usize = 4;

fn main() {
    let opts = cli::parse_common("exp-engine-bench");
    let mut runs = 40usize;
    for arg in &opts.rest {
        if let Ok(n) = arg.parse() {
            runs = n;
        } else {
            eprintln!("usage: exp-engine-bench [runs] [--threads N] [--quiet] [--obs]");
            opts.exit(2);
        }
    }

    // Section 1: the pinned grid, one worker.
    let cfg = pinned::config(runs);
    let models = pinned::models();
    let instances = pinned::instances();
    let one = PoolConfig::with_threads(1);
    opts.progress(format!(
        "grid: {} instances x {} models x {runs} runs @1t",
        instances.len(),
        models.len()
    ));
    let t0 = Instant::now();
    let mut total_steps = 0usize;
    for (name, inst) in &instances {
        let cells = match try_run_grid_with(inst, &models, &cfg, &one) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("error in {name}: {e}");
                opts.exit(2);
            }
        };
        total_steps += cells.iter().map(|c| c.total_steps).sum::<usize>();
    }
    let grid_wall = t0.elapsed();
    let steps_per_sec = total_steps as f64 / grid_wall.as_secs_f64();
    let speedup = steps_per_sec / BASELINE_STEPS_PER_SEC;
    println!(
        "grid @1t: {total_steps} steps in {:.0} ms -> {steps_per_sec:.0} steps/s \
         ({speedup:.2}x the {BASELINE_STEPS_PER_SEC:.0} steps/s baseline, gate {MIN_SPEEDUP:.1}x)",
        grid_wall.as_secs_f64() * 1e3
    );

    // Section 2: the 10k-node Gao–Rexford cell.
    let tenk_threads = opts.pool.resolved_threads();
    opts.progress(format!("tenk: gao-rexford n={TENK_NODES}, {TENK_RUNS} runs @{tenk_threads}t"));
    let t1 = Instant::now();
    let inst = pinned::family_instance(TENK_NODES);
    let tenk_cfg = CellConfig {
        runs: TENK_RUNS,
        max_steps: pinned::family_max_steps(TENK_NODES),
        seed: 42,
        drop_prob: 0.25,
    };
    let rea = vec!["REA".parse().expect("model")];
    let tenk: CellReport = match try_run_grid_with(&inst, &rea, &tenk_cfg, &opts.pool) {
        Ok(cells) => cells[0],
        Err(e) => {
            eprintln!("error in tenk cell: {e}");
            opts.exit(2);
        }
    };
    let tenk_wall = t1.elapsed();
    println!(
        "tenk @{tenk_threads}t: {}/{} converged, mean {:.0} +/- {:.0} steps, {:.0} steps/s, {:.0} ms",
        tenk.stats.converged,
        tenk.stats.runs,
        tenk.stats.mean_steps,
        tenk.steps_std,
        tenk.steps_per_sec(),
        tenk_wall.as_secs_f64() * 1e3
    );

    let json = Json::obj([
        ("bench", Json::str("engine")),
        ("threads", Json::int(1)),
        (
            "host_parallelism",
            Json::int(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("baseline_steps_per_sec", Json::Num(BASELINE_STEPS_PER_SEC)),
        ("min_speedup", Json::Num(MIN_SPEEDUP)),
        ("wall_ms", Json::Num(grid_wall.as_secs_f64() * 1e3)),
        ("total_steps", Json::int(total_steps)),
        ("steps_per_sec", Json::Num(steps_per_sec)),
        ("speedup", Json::Num(speedup)),
        (
            "tenk",
            Json::obj([
                ("nodes", Json::int(inst.node_count())),
                ("edges", Json::int(inst.graph().edge_count())),
                ("model", Json::str("REA")),
                ("threads", Json::int(tenk_threads)),
                ("runs", Json::int(tenk.stats.runs)),
                ("max_steps", Json::int(tenk_cfg.max_steps)),
                ("converged", Json::int(tenk.stats.converged)),
                ("mean_steps", Json::Num(tenk.stats.mean_steps)),
                ("steps_std", Json::Num(tenk.steps_std)),
                ("wall_ms", Json::Num(tenk_wall.as_secs_f64() * 1e3)),
                ("steps_per_sec", Json::Num(tenk.steps_per_sec())),
                ("total_steps", Json::int(tenk.total_steps)),
            ]),
        ),
    ]);
    match write_json("BENCH_engine", &json) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("error writing JSON results: {e}");
            opts.exit(2);
        }
    }
    opts.finish();
}
