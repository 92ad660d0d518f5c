//! Telemetry overhead on the full 24-model DISAGREE Monte-Carlo grid (8
//! runs per cell, 4 workers): the grid's median wall clock with telemetry
//! off, with the obs sink on, and with the flight recorder on, written to
//! `results/BENCH_obs_overhead.json` and gated by `scripts/check_bench.py`.
//!
//! Usage: `cargo bench -p routelab-bench --bench obs_overhead`
//! (`ROUTELAB_RESULTS_DIR` redirects the JSON).

use std::hint::black_box;
use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_obs::JVal;
use routelab_sim::montecarlo::{try_run_grid_with, CellConfig};
use routelab_sim::pool::PoolConfig;
use routelab_sim::report::write_json_to;
use routelab_spp::gadgets;

/// Median wall-clock milliseconds over `reps` runs of the grid.
fn grid_wall_ms(reps: usize) -> f64 {
    let inst = gadgets::disagree();
    let models: Vec<CommModel> = CommModel::all();
    let cfg = CellConfig { runs: 8, max_steps: 4_000, seed: 11, drop_prob: 0.25 };
    let pool = PoolConfig::with_threads(4);
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let cells = try_run_grid_with(&inst, &models, &cfg, &pool).expect("no run panics");
            black_box(cells.len());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    walls[walls.len() / 2]
}

/// The obs-off baseline MUST run first, then obs-on, then trace-on, because
/// both sink and flight-recorder enablement are one-way within a process (so
/// the trace-on figure includes the obs sink too — it is the full diagnostic
/// stack). The acceptance targets are <3% for obs and ~0% disabled
/// (disabled cost is a single relaxed atomic load per instrumentation
/// site). The flight recorder formats every step's causal record, so its
/// gate is deliberately loose — it is a diagnostic tool, not an always-on
/// layer.
fn main() {
    const REPS: usize = 15;
    let _ = grid_wall_ms(4); // warm-up
    let off_ms = grid_wall_ms(REPS);

    let dir = std::env::temp_dir().join(format!("routelab-obs-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    routelab_obs::enable_to_dir(&dir, "obs-overhead-bench");
    let on_ms = grid_wall_ms(REPS);

    // Bound the ring so the traced reps measure recording cost, not
    // allocator growth. Single-threaded here (every grid's workers have
    // joined), so mutating the environment is safe.
    std::env::set_var("ROUTELAB_TRACE_CAP", "4096");
    routelab_obs::enable_trace_to_dir(&dir, "obs-overhead-bench");
    let trace_on_ms = grid_wall_ms(REPS);
    routelab_obs::shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
    let trace_overhead_pct = (trace_on_ms - off_ms) / off_ms * 100.0;
    println!(
        "obs_overhead: obs-off {off_ms:.2} ms, obs-on {on_ms:.2} ms ({overhead_pct:+.2}%), \
         trace-on {trace_on_ms:.2} ms ({trace_overhead_pct:+.2}%)"
    );
    let json = JVal::obj([
        ("bench", JVal::str("obs_overhead")),
        ("workload", JVal::str("disagree 24-model grid, 8 runs/cell, 4 threads")),
        ("reps", JVal::int(REPS)),
        ("obs_off_ms", JVal::Num(off_ms)),
        ("obs_on_ms", JVal::Num(on_ms)),
        ("overhead_pct", JVal::Num(overhead_pct)),
        ("trace_on_ms", JVal::Num(trace_on_ms)),
        ("trace_overhead_pct", JVal::Num(trace_overhead_pct)),
    ]);
    // `cargo bench` sets the CWD to the package root, so resolve the
    // workspace-level results dir explicitly rather than relying on a
    // relative default.
    let dir = std::env::var("ROUTELAB_RESULTS_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    match write_json_to(std::path::Path::new(&dir), "BENCH_obs_overhead", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_obs_overhead.json: {e}"),
    }
}
