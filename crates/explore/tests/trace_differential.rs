//! Flight-recorder neutrality: enabling tracing must not change a single
//! bit of the explorer's results or the engine's run outcomes.
//!
//! Trace enablement is one-way for the process (the recorder is a
//! process-global `OnceLock`), so this file holds exactly ONE test:
//! everything is computed trace-OFF first, tracing is then enabled into a
//! temp directory, and the same computations re-run trace-ON. Integration
//! tests compile to their own binary, so the enablement cannot leak into
//! any other test.

use routelab_core::model::CommModel;
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::RoundRobin;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_spp::gadgets;

fn explore_cfg(threads: usize) -> ExploreConfig {
    ExploreConfig {
        channel_cap: 3,
        max_states: 10_000,
        max_steps_per_state: 20_000,
        threads: Some(threads),
        ..ExploreConfig::default()
    }
}

fn build_cells(threads: usize) -> Vec<StateGraph> {
    let mut graphs = Vec::new();
    for (name, model) in [("DISAGREE", "R1O"), ("GOOD-GADGET", "REA")] {
        let inst = gadgets::corpus()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, i)| i)
            .expect("gadget");
        let model: CommModel = model.parse().expect("model");
        let g = try_build_spec(&inst, Spec::Uniform(model), &explore_cfg(threads))
            .unwrap_or_else(|e| panic!("{name} × {model} @{threads}t: {e}"));
        graphs.push(g);
    }
    graphs
}

fn drive_outcomes() -> Vec<RunOutcome> {
    let mut outcomes = Vec::new();
    for (name, model) in [("BAD-GADGET", "R1O"), ("GOOD-GADGET", "RMS")] {
        let inst = gadgets::corpus()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, i)| i)
            .expect("gadget");
        let mut runner = Runner::new(&inst);
        let mut sched = RoundRobin::new(&inst, model.parse().expect("model"));
        outcomes.push(drive(&mut runner, &mut sched, 50_000));
    }
    outcomes
}

fn assert_same_graph(threads: usize, on: &StateGraph, off: &StateGraph) {
    assert_eq!(on.nodes, off.nodes, "@{threads}t: interned states differ with tracing on");
    assert_eq!(on.edges, off.edges, "@{threads}t: edge lists differ with tracing on");
    assert_eq!(on.truncated, off.truncated, "@{threads}t: truncation differs with tracing on");
}

#[test]
fn tracing_is_bit_neutral_for_explorer_and_engine() {
    // Phase 1: everything with tracing off (the recorder must not exist yet).
    assert!(!routelab_obs::trace_enabled(), "tracing leaked in before the off phase");
    let off_graphs: Vec<(usize, Vec<StateGraph>)> =
        [1usize, 2, 8].into_iter().map(|t| (t, build_cells(t))).collect();
    let off_outcomes = drive_outcomes();

    // Phase 2: enable tracing (one-way for this process) and recompute.
    let dir = std::env::temp_dir().join(format!("routelab-trace-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = routelab_obs::enable_trace_to_dir(&dir, "trace-differential")
        .expect("trace enablement must succeed");
    assert!(routelab_obs::trace_enabled());

    for (threads, off) in &off_graphs {
        let on = build_cells(*threads);
        for (g_on, g_off) in on.iter().zip(off) {
            assert_same_graph(*threads, g_on, g_off);
        }
    }
    let on_outcomes = drive_outcomes();
    assert_eq!(on_outcomes, off_outcomes, "run outcomes differ with tracing on");

    // The recorder must actually have captured the traced runs: per-run
    // headers, step events, and verdicts.
    routelab_obs::flush_trace();
    let content = std::fs::read_to_string(&path).expect("trace file");
    for tag in ["\"t\":\"tmeta\"", "\"t\":\"trun\"", "\"t\":\"tstep\"", "\"t\":\"tend\""] {
        assert!(content.contains(tag), "trace file is missing {tag} lines");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
