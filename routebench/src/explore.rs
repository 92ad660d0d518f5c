//! The explorer workloads: exhaustive verdicts under Example A.2's bounds
//! on one thread, in the reduced mode and in the raw one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use routelab_core::model::CommModel;
use routelab_engine::exec::execute_step;
use routelab_explore::effects::{all_steps, Spec};
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_explore::oscillation::{analyze_graph, Verdict};
use routelab_explore::ExploreError;
use routelab_spp::{gadgets, SppInstance};

use crate::trace::Tracer;
use crate::{measure, shuffled, Args, Checks, Outcome, Paired};

/// The verdict a cell must reach.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Oscillates,
    Converges,
    /// No oscillation among exactly this many states, the state budget.
    NoneWithin(usize),
}

/// One explorer workload: a set of (gadget, model) cells, reduced or raw.
pub struct Workload {
    reduce: bool,
    cells: &'static [(&'static str, &'static str, Expect)],
    max_states: usize,
}

/// The default (reduced) mode behind `exp-survey` and `exp-examples`:
/// Appendix A's separations (A.1 on DISAGREE, the converging side of A.2 on
/// Fig. 6) and the survey's mid-size cells, each under about a quarter of
/// a second. Fig. 6 × REO (88,598 states, 4–6 s and 220 MB in one call)
/// and Fig. 7 × UEA (16,571 states, about a second) are left out: on a
/// shared host the fastest of a run's samples of a call that long still
/// moved by a third between runs of the same code.
pub const REDUCED: Workload = Workload {
    reduce: true,
    cells: &[
        ("DISAGREE", "R1O", Expect::Oscillates),
        ("DISAGREE", "REO", Expect::Converges),
        ("DISAGREE", "RMA", Expect::Converges),
        ("FIG6", "R1A", Expect::Converges),
        ("FIG6", "RMA", Expect::Converges),
        ("FIG6", "REA", Expect::Converges),
        ("FIG7", "REO", Expect::Converges),
        ("FIG7", "REF", Expect::Converges),
        ("FIG9", "REO", Expect::Converges),
        ("FIG9", "REF", Expect::Converges),
        ("FIG9", "UEA", Expect::Converges),
        ("BAD-GADGET", "REO", Expect::Oscillates),
        ("BAD-GADGET", "REF", Expect::Oscillates),
    ],
    max_states: 1_500_000,
};

/// The same explorer with reduction off: the packed fast path, the delta
/// arena, and an analysis that takes about a third of the time. The full
/// Fig. 6 × R1A space has 654,312 states and takes about 20 s in one call;
/// the budget keeps the build near a fifth of a second, short enough for
/// the fastest of a run's samples to repeat from run to run.
pub const RAW: Workload = Workload {
    reduce: false,
    cells: &[("FIG6", "R1A", Expect::NoneWithin(RAW_STATES))],
    max_states: RAW_STATES,
};

const RAW_STATES: usize = 30_000;

/// A cell: the gadget's name and position in [`gadgets::corpus`], the
/// model, and the verdict it must reach.
type Cell = (&'static str, usize, CommModel, Expect);

impl Workload {
    /// A.2's bounds on one worker thread.
    fn config(&self, max_states: usize) -> ExploreConfig {
        ExploreConfig {
            channel_cap: 3,
            max_states,
            max_steps_per_state: 20_000,
            threads: Some(1),
            reduce: self.reduce,
            ..ExploreConfig::default()
        }
    }

    fn cells(&self, seed: u64) -> Vec<Cell> {
        let names: Vec<&str> = gadgets::corpus().iter().map(|&(n, _)| n).collect();
        let cells = self
            .cells
            .iter()
            .map(|&(gadget, model, expect)| {
                let at = names.iter().position(|&n| n == gadget).expect("a corpus gadget");
                (gadget, at, model.parse().expect("model name"), expect)
            })
            .collect();
        shuffled(cells, seed)
    }

    /// Set-up: the corpus, and for every cell the explorer's codec, reducer
    /// and tables, timed from outside as a build capped at one state.
    fn setup(&self, cells: &[Cell]) -> Vec<(&'static str, SppInstance)> {
        let corpus = gadgets::corpus();
        let cfg = self.config(1);
        for &(_, at, model, _) in cells {
            try_build_spec(&corpus[at].1, Spec::Uniform(model), &cfg)
                .expect("a one-state build succeeds");
        }
        corpus
    }

    /// The verdict of one cell: build its state graph and analyze it.
    fn verdict(
        inst: &SppInstance,
        model: CommModel,
        cfg: &ExploreConfig,
    ) -> Result<Verdict, ExploreError> {
        let spec = Spec::Uniform(model);
        try_build_spec(inst, spec, cfg).map(|g| analyze_graph(spec, &g))
    }

    fn check(cell: &Cell, verdict: &Result<Verdict, ExploreError>, checks: &mut Checks) {
        let &(gadget, _, model, expect) = cell;
        let ok = match (expect, verdict) {
            (Expect::Oscillates, Ok(Verdict::CanOscillate { .. })) => true,
            (Expect::Converges, Ok(Verdict::AlwaysConverges { .. })) => true,
            (Expect::NoneWithin(n), Ok(Verdict::NoOscillationWithinBound { states })) => {
                *states == n
            }
            _ => false,
        };
        checks.record(ok, || format!("{gadget} × {model}: expected {expect:?}, got {verdict:?}"));
    }

    /// The untraced run: every cell's build and its analysis are two units
    /// of a pass.
    pub fn untraced(&self, args: &Args) -> Outcome {
        let cells = self.cells(args.seed);
        let cfg = self.config(self.max_states);
        measure(
            args.seconds,
            || self.setup(&cells),
            |corpus, units, checks| {
                for cell in &cells {
                    let (inst, spec) = (&corpus[cell.1].1, Spec::Uniform(cell.2));
                    let built = units.time(|| try_build_spec(inst, spec, &cfg));
                    let verdict = built.map(|g| units.time(|| analyze_graph(spec, &g)));
                    Self::check(cell, &verdict, checks);
                }
            },
        )
    }

    /// The traced run: traced set-up, then every cell once to warm up,
    /// once with a span around its build and its analysis, and once
    /// untraced, then (reduced mode only) a replay of the expand path's
    /// public stages over every built state.
    pub fn traced(&self, args: &Args, tr: &mut Tracer) -> Outcome {
        let cells = self.cells(args.seed);
        let corpus = tr.span("spp.generate", |_| gadgets::corpus());
        let one_state = self.config(1);
        for &(_, at, model, _) in &cells {
            tr.span("explore.setup", |_| {
                try_build_spec(&corpus[at].1, Spec::Uniform(model), &one_state)
            })
            .expect("a one-state build succeeds");
        }
        let cfg = self.config(self.max_states);
        let mut checks = Checks::default();
        let mut paired = Paired::default();
        let mut graphs = Vec::new();
        for cell in &cells {
            let &(gadget, at, model, _) = cell;
            let (inst, spec) = (&corpus[at].1, Spec::Uniform(model));
            // A first build warms the allocator for graphs of this size, so
            // that neither timed build below pays for fresh pages.
            let want = Self::verdict(inst, model, &cfg);
            Self::check(cell, &want, &mut checks);
            let (built, verdict) = paired.traced(tr, |tr| {
                let built = tr.span("explore.build", |_| try_build_spec(inst, spec, &cfg));
                let analyze = |g| tr.span("explore.analyze", |_| analyze_graph(spec, g));
                let verdict = built.as_ref().ok().map(analyze);
                (built, verdict)
            });
            let again = paired.untraced(|| Self::verdict(inst, model, &cfg));
            let same =
                matches!((&verdict, &again, &want), (Some(a), Ok(b), Ok(c)) if a == b && b == c);
            checks.record(same, || {
                format!("{gadget} × {model}: traced {verdict:?}, untraced {again:?} and {want:?}")
            });
            if let Ok(g) = built {
                graphs.push((inst, spec, g));
            }
        }

        let mut m = BTreeMap::new();
        paired.metrics(&mut m);
        m.insert("spp.generate_s", tr.seconds("spp.generate"));
        m.insert("explore.setup_s", tr.seconds("explore.setup"));
        let build_s = tr.seconds("explore.build");
        m.insert("explore.build_s", build_s);
        m.insert("explore.analyze_s", tr.seconds("explore.analyze"));
        let sum = |f: &dyn Fn(&StateGraph) -> u64| graphs.iter().map(|(_, _, g)| f(g)).sum::<u64>();
        let max =
            |f: &dyn Fn(&StateGraph) -> u64| graphs.iter().map(|(_, _, g)| f(g)).max().unwrap_or(0);
        let states = sum(&|g| g.len() as u64);
        let candidates = sum(&|g| g.stats.candidates);
        m.insert("explore.states", states as f64);
        m.insert("explore.edges", sum(&|g| g.edges.iter().map(|e| e.len() as u64).sum()) as f64);
        m.insert("explore.candidates", candidates as f64);
        m.insert("explore.dedup_hits", sum(&|g| g.stats.dedup_hits) as f64);
        m.insert("explore.new_state_ratio", states as f64 / candidates.max(1) as f64);
        let us_per_state = build_s * 1e6 / states.max(1) as f64;
        m.insert("explore.us_per_state", us_per_state);
        m.insert("explore.bytes_resident", max(&|g| g.stats.bytes_resident) as f64);
        m.insert("explore.peak_frontier", max(&|g| g.stats.peak_frontier as u64) as f64);
        m.insert("reduce.canon_rewrites", sum(&|g| g.reduction.canon_rewrites) as f64);
        m.insert("reduce.absorb_pops", sum(&|g| g.reduction.absorb_pops) as f64);

        if self.reduce {
            for (inst, spec, g) in &graphs {
                replay(inst, *spec, g, &cfg, tr).expect("built states decode and re-encode");
            }
            let per_state = |name: &str| tr.seconds(name) * 1e6 / states.max(1) as f64;
            let stages = [
                ("explore.materialize_us", per_state("explore.materialize")),
                ("explore.decode_us", per_state("explore.decode")),
                ("explore.step_enum_us", per_state("explore.step_enum")),
                ("engine.exec_step_us", per_state("engine.exec_step")),
                ("explore.encode_us", per_state("explore.encode")),
            ];
            let replayed: f64 = stages.iter().map(|(_, v)| v).sum();
            m.extend(stages);
            m.insert("explore.unreplayed_us", us_per_state - replayed);
        }
        Outcome { checks, metrics: m }
    }
}

/// Re-runs, for every state of `g`, the public stages of the reduced
/// expand path: materialize the arena entry, decode it, enumerate the
/// canonical steps, and execute and re-encode every successor. The stages
/// the path runs in between (normalize, canonicalize, dedup, intern) are
/// not public; their cost is what `explore.unreplayed_us` leaves over.
fn replay(
    inst: &SppInstance,
    spec: Spec<'_>,
    g: &StateGraph,
    cfg: &ExploreConfig,
    tr: &mut Tracer,
) -> Result<(), ExploreError> {
    let mut times = [Duration::ZERO; 5];
    let mut successors = 0u64;
    let mut enc = Vec::new();
    for i in 0..g.len() {
        let t0 = Instant::now();
        let words = g.nodes.node_vec(i as u32);
        let t1 = Instant::now();
        let state = g.codec.decode_words(&words)?;
        let t2 = Instant::now();
        let (steps, _) =
            all_steps(spec, &g.index, &state, inst.node_count(), cfg.max_steps_per_state);
        let t3 = Instant::now();
        times[0] += t1 - t0;
        times[1] += t2 - t1;
        times[2] += t3 - t2;
        for cs in &steps {
            let a = Instant::now();
            let activation = cs.to_activation(spec, &g.index);
            let mut next = state.clone();
            execute_step(inst, &g.index, &mut next, &activation);
            let b = Instant::now();
            g.codec.encode_into(&next, &mut enc)?;
            let c = Instant::now();
            times[3] += b - a;
            times[4] += c - b;
        }
        successors += steps.len() as u64;
    }
    let states = g.len() as u64;
    tr.aggregate("explore.materialize", states, times[0]);
    tr.aggregate("explore.decode", states, times[1]);
    tr.aggregate("explore.step_enum", states, times[2]);
    tr.aggregate("engine.exec_step", successors, times[3]);
    tr.aggregate("explore.encode", successors, times[4]);
    Ok(())
}
