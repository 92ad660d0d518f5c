#!/usr/bin/env python3
"""Bench-regression gate, dispatching on the JSON's own `bench` (or
`experiment`) field.

Usage: check_bench.py [path/to/BENCH_*.json | path/to/exp-montecarlo-family.json]

For `results/BENCH_explore.json` (the default), fails (exit 1) when:
  * the headline cell (unreduced FIG6 x R1A, 1 thread) falls below the
    baseline throughput the JSON itself carries (`baseline_states_per_s`,
    the pre-delta-arena engine's figure);
  * any run was not bit-identical across thread counts;
  * the reduced and unreduced oscillation verdicts disagree.

For `results/BENCH_montecarlo.json` (`"bench": "montecarlo"`, written by
`routelab exp montecarlo` on the pinned grid), fails when the engine's per-worker
throughput, `total_steps / run_time_ms`, drops below MIN_SPEEDUP times
BASELINE_STEPS_PER_SEC. `run_time_ms` sums the wall time of every run, so
the figure is per worker whatever `--threads` was.

For `exp-montecarlo-family.json` (`"experiment": "montecarlo-family"`,
written by `routelab exp montecarlo --family gao-rexford`), fails when any cell has
a run that did not converge within its step budget: Gao-Rexford instances
are wheel-free, so every run of a reliable model must converge.

For `results/BENCH_obs_overhead.json` (`"bench": "obs_overhead"`), fails
when the enabled telemetry sink costs more than OBS_OVERHEAD_MAX_PCT on the
Monte-Carlo grid workload, or the flight recorder (obs + trace, the full
diagnostic stack) costs more than TRACE_OVERHEAD_MAX_PCT. The trace gate
is deliberately loose: the recorder formats every step's causal record and
is a diagnostic tool, not an always-on layer — the gate only catches
pathological regressions (accidental I/O or lock storms on the hot path).

The explore gate compares states/s, not wall-clock, so it is robust to the
cell size changing; the baseline constant lives in the bench source
(crates/bench/benches/explore_scaling.rs) and must only ever be raised.
"""

import json
import sys

OBS_OVERHEAD_MAX_PCT = 10.0
TRACE_OVERHEAD_MAX_PCT = 300.0
# Single-worker steps/s of the pinned Monte-Carlo grid before the
# interned-route engine landed. Only ever raise it.
BASELINE_STEPS_PER_SEC = 242_116.0
# The engine must hold at least this multiple of the baseline per worker.
MIN_SPEEDUP = 3.0


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_obs_overhead(bench: dict) -> None:
    for key in ("obs_off_ms", "obs_on_ms", "overhead_pct", "trace_on_ms", "trace_overhead_pct"):
        if key not in bench:
            fail(f"no {key} in the JSON (bench too old?)")
    print(
        f"check_bench: obs-off {bench['obs_off_ms']:.2f} ms, "
        f"obs-on {bench['obs_on_ms']:.2f} ms ({bench['overhead_pct']:+.2f}%), "
        f"trace-on {bench['trace_on_ms']:.2f} ms ({bench['trace_overhead_pct']:+.2f}%)"
    )
    if bench["overhead_pct"] > OBS_OVERHEAD_MAX_PCT:
        fail(
            f"obs overhead {bench['overhead_pct']:.2f}% exceeds the "
            f"{OBS_OVERHEAD_MAX_PCT:.0f}% gate"
        )
    if bench["trace_overhead_pct"] > TRACE_OVERHEAD_MAX_PCT:
        fail(
            f"flight-recorder overhead {bench['trace_overhead_pct']:.2f}% exceeds the "
            f"{TRACE_OVERHEAD_MAX_PCT:.0f}% gate"
        )
    print("check_bench: OK")


def check_montecarlo(bench: dict) -> None:
    for key in ("total_steps", "run_time_ms"):
        if key not in bench:
            fail(f"no {key} in the JSON (bench too old?)")
    if bench["run_time_ms"] <= 0:
        fail(f"run_time_ms is {bench['run_time_ms']}: no run was timed")
    rate = bench["total_steps"] / (bench["run_time_ms"] / 1e3)
    floor = MIN_SPEEDUP * BASELINE_STEPS_PER_SEC
    print(
        f"check_bench: pinned grid: {rate:,.0f} steps/s per worker "
        f"({rate / BASELINE_STEPS_PER_SEC:.2f}x the {BASELINE_STEPS_PER_SEC:,.0f} steps/s "
        f"baseline, gate {MIN_SPEEDUP:.1f}x; threads {bench.get('threads')}, "
        f"host parallelism {bench.get('host_parallelism')})"
    )
    if rate < floor:
        fail(
            f"engine throughput {rate:,.0f} steps/s per worker is below the gate "
            f"({MIN_SPEEDUP:.1f}x {BASELINE_STEPS_PER_SEC:,.0f} = {floor:,.0f} steps/s)"
        )
    print("check_bench: OK")


def check_family(doc: dict) -> None:
    cells = doc.get("cells")
    if not cells:
        fail("no cells in the family JSON")
    for cell in cells:
        for key in ("model", "runs", "converged"):
            if key not in cell:
                fail(f"no cells[].{key} in the JSON (too old?)")
        print(
            f"check_bench: {doc.get('family')} n={doc.get('nodes')} x {cell['model']}: "
            f"{cell['converged']}/{cell['runs']} converged"
        )
        if cell["converged"] != cell["runs"]:
            max_steps = doc.get("config", {}).get("max_steps")
            fail(
                f"{cell['model']}: only {cell['converged']}/{cell['runs']} runs converged "
                f"within {max_steps} steps (Gao-Rexford is wheel-free; all must)"
            )
    print("check_bench: OK")


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "results/BENCH_explore.json"
    with open(path) as f:
        bench = json.load(f)

    if bench.get("bench") == "obs_overhead":
        check_obs_overhead(bench)
        return

    if bench.get("bench") == "montecarlo":
        check_montecarlo(bench)
        return

    if bench.get("experiment") == "montecarlo-family":
        check_family(bench)
        return

    if not bench.get("bit_identical_across_thread_counts"):
        fail("outputs were not bit-identical across thread counts")
    if not bench.get("reduced_verdicts_match_unreduced"):
        fail("reduction changed an oscillation verdict")

    baseline = bench.get("baseline_states_per_s")
    if not baseline:
        fail("no baseline_states_per_s in the JSON (bench too old?)")

    headline = None
    for cell in bench["cells"]:
        if cell["model"] == "R1A" and cell["gadget"] == "FIG6" and not cell["reduce"]:
            for run in cell["runs"]:
                if run["threads"] == 1:
                    headline = run
    if headline is None:
        fail("headline cell (unreduced FIG6 x R1A @1t) missing from the JSON")

    rate = headline["states_per_s"]
    ratio = rate / baseline
    print(
        f"check_bench: unreduced FIG6 x R1A @1t: {rate:,.0f} states/s "
        f"({ratio:.2f}x the {baseline:,.0f} states/s baseline)"
    )
    if rate < baseline:
        fail(f"throughput regressed below the baseline ({rate:,.0f} < {baseline:,.0f} states/s)")
    print("check_bench: OK")


if __name__ == "__main__":
    main()
