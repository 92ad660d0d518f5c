//! Thread-scaling of the frontier engine on the Appendix A.2
//! acceptance workload: the Fig. 6 polling cells (R1A, RMA) whose
//! exhaustive closures visit ≈654k raw states each under channel cap 3 —
//! run both with the default state-space reduction (route-class
//! projection + queue normal forms + symmetry quotient) and with
//! `reduce` off.
//!
//! For every thread count the run re-verifies the determinism contract —
//! interned states, π fingerprints, and edge stores (every edge and the
//! step table) must be bit-identical to the single-thread build of the
//! same mode — and that the reduced and unreduced builds agree on the
//! oscillation verdict. Wall clock, the frontier statistics (candidates,
//! dedup hits, peak frontier, resident payload bytes, edge-store bytes),
//! and the reduction counters (class rewrites, absorbed reads, set
//! collapses, symmetry hits, group order) go to
//! `results/BENCH_explore.json`.
//!
//! The speedup column is only meaningful on a multi-core host; the JSON
//! records `host_parallelism` so a single-core CI runner's numbers (ties
//! across thread counts) are not misread as a scaling regression.

use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_explore::oscillation::analyze_graph;
use routelab_obs::JVal;
use routelab_sim::report::write_json_to;
use routelab_spp::gadgets;

const THREADS: [usize; 3] = [1, 2, 8];

/// Unreduced FIG6 × R1A throughput (states/s, 1 thread) of the pre-delta
/// arena engine, from the checked-in `results/BENCH_explore.json` baseline
/// (654,312 states in 60,133.8 ms). `scripts/check_bench.py` gates on the
/// headline run staying above this.
const BASELINE_UNREDUCED_STATES_PER_S: f64 = 10_881.6;

/// The determinism contract: same states, π fingerprints, edge store
/// (targets, step ids, π-change bits, group elements and the step table)
/// and truncation flag.
fn identical(a: &StateGraph, b: &StateGraph) -> bool {
    a.nodes == b.nodes && a.pi_fp == b.pi_fp && a.edges == b.edges && a.truncated == b.truncated
}

fn main() {
    let inst = gadgets::fig6();
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    println!("explore_scaling: host parallelism {host_parallelism}");

    let mut cells_json = Vec::new();
    let mut all_identical = true;
    let mut all_consistent = true;
    for model_s in ["R1A", "RMA"] {
        let model: CommModel = model_s.parse().expect("static model");
        let spec = Spec::Uniform(model);
        let mut verdicts = Vec::new();
        for reduce in [true, false] {
            let mode = if reduce { "reduced" } else { "unreduced" };
            let mut baseline: Option<StateGraph> = None;
            let mut walls = Vec::new();
            let mut runs_json = Vec::new();
            let mut states = 0usize;
            let mut reduction_json = JVal::Null;
            for &threads in &THREADS {
                let cfg = ExploreConfig {
                    channel_cap: 3,
                    max_states: 1_500_000,
                    max_steps_per_state: 20_000,
                    threads: Some(threads),
                    reduce,
                };
                let t0 = Instant::now();
                let g = try_build_spec(&inst, spec, &cfg)
                    .unwrap_or_else(|e| panic!("FIG6 × {model_s} {mode} @{threads}t: {e}"));
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let states_per_s = g.len() as f64 / (wall_ms / 1e3);
                let same = baseline.as_ref().is_none_or(|b| identical(b, &g));
                all_identical &= same;
                println!(
                    "explore_scaling/FIG6×{model_s} {mode} t{threads}: {} states in {:.0} ms \
                     ({:.0} states/s, dedup hit-rate {:.1}%, peak frontier {}, \
                     {:.1} MiB resident, {:.1} MiB of edges{})",
                    g.len(),
                    wall_ms,
                    states_per_s,
                    g.stats.dedup_hit_rate() * 100.0,
                    g.stats.peak_frontier,
                    g.stats.bytes_resident as f64 / (1 << 20) as f64,
                    g.stats.edge_bytes as f64 / (1 << 20) as f64,
                    if same { "" } else { ", MISMATCH vs 1-thread build" },
                );
                runs_json.push(JVal::obj([
                    ("threads", JVal::int(threads)),
                    ("wall_ms", JVal::Num(wall_ms)),
                    ("states", JVal::int(g.len())),
                    ("states_per_s", JVal::Num(states_per_s)),
                    ("candidates", JVal::int(g.stats.candidates as usize)),
                    ("dedup_hits", JVal::int(g.stats.dedup_hits as usize)),
                    ("peak_frontier", JVal::int(g.stats.peak_frontier)),
                    ("bytes_resident", JVal::int(g.stats.bytes_resident as usize)),
                    ("edge_bytes", JVal::int(g.stats.edge_bytes as usize)),
                    ("identical_to_single_thread", JVal::Bool(same)),
                ]));
                walls.push(wall_ms);
                states = g.len();
                if reduce {
                    let r = g.reduction;
                    reduction_json = JVal::obj([
                        ("canon_rewrites", JVal::int(r.canon_rewrites as usize)),
                        ("absorb_pops", JVal::int(r.absorb_pops as usize)),
                        ("set_collapses", JVal::int(r.set_collapses as usize)),
                        ("sym_hits", JVal::int(r.sym_hits as usize)),
                        ("group_order", JVal::int(r.group_order)),
                    ]);
                }
                if baseline.is_none() {
                    verdicts.push(analyze_graph(spec, &g));
                    baseline = Some(g);
                }
            }
            let speedup_8t = walls[0] / walls[THREADS.len() - 1];
            println!(
                "explore_scaling/FIG6×{model_s} {mode}: speedup at 8 threads = {speedup_8t:.2}×"
            );
            cells_json.push(JVal::obj([
                ("model", JVal::str(model_s)),
                ("gadget", JVal::str("FIG6")),
                ("reduce", JVal::Bool(reduce)),
                ("states", JVal::int(states)),
                ("reduction", reduction_json),
                ("runs", JVal::Arr(runs_json)),
                ("speedup_8t", JVal::Num(speedup_8t)),
            ]));
        }
        let consistent =
            std::mem::discriminant(&verdicts[0]) == std::mem::discriminant(&verdicts[1]);
        all_consistent &= consistent;
        println!(
            "explore_scaling/FIG6×{model_s}: reduced verdict {:?} vs unreduced {:?}{}",
            verdicts[0],
            verdicts[1],
            if consistent { "" } else { " — MISMATCH" },
        );
    }

    let json = JVal::obj([
        ("bench", JVal::str("explore_scaling")),
        (
            "workload",
            JVal::str("A.2: FIG6 × {R1A, RMA}, channel cap 3, exhaustive (~654k raw states)"),
        ),
        ("host_parallelism", JVal::int(host_parallelism)),
        ("baseline_states_per_s", JVal::Num(BASELINE_UNREDUCED_STATES_PER_S)),
        ("bit_identical_across_thread_counts", JVal::Bool(all_identical)),
        ("reduced_verdicts_match_unreduced", JVal::Bool(all_consistent)),
        ("cells", JVal::Arr(cells_json)),
    ]);
    let dir = std::env::var("ROUTELAB_RESULTS_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_string());
    match write_json_to(std::path::Path::new(&dir), "BENCH_explore", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_explore.json: {e}"),
    }
    assert!(all_identical, "determinism contract violated across thread counts");
    assert!(all_consistent, "reduction changed an oscillation verdict");
}
