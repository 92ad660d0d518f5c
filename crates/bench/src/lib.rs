//! The plain (`harness = false`) benches of routelab; this library holds no
//! code. Each bench writes one `results/BENCH_*.json` that
//! `scripts/check_bench.py` gates:
//!
//! * `obs_overhead` — the cost of the telemetry sink and the flight
//!   recorder on a Monte-Carlo grid (`BENCH_obs_overhead.json`),
//! * `explore_scaling` — explorer thread scaling and determinism on the
//!   Appendix A.2 cells (`BENCH_explore.json`).
//!
//! Engine throughput is not timed here: `exp-montecarlo` records it for the
//! pinned grid in `BENCH_montecarlo.json`, which the same script gates.
