//! The Monte-Carlo workloads: the grid `exp-montecarlo` publishes, and the
//! 10k-node Gao–Rexford REA cell of the engine bench.

use std::collections::BTreeMap;
use std::path::Path;

use routelab_core::model::CommModel;
use routelab_obs::JVal;
use routelab_sim::montecarlo::{
    pinned, run_one_with, run_seed, try_run_grid_with, CellAccum, CellConfig, CellReport,
    RunRecord,
};
use routelab_sim::pool::PoolConfig;
use routelab_spp::{RouteTable, SppInstance};

use crate::drive::{counters, run_one_traced};
use crate::trace::Tracer;
use crate::{measure, shuffled, Args, Checks, Outcome, Paired};

/// Runs per cell of the published grid.
const GRID_RUNS: usize = 40;

/// Runs per unit of the untraced `mc-grid` pass: short units are what keep
/// the fastest of a run's samples steady on a shared host (see README.md).
const CHUNK_RUNS: usize = 4;

const TENK_NODES: usize = 10_000;
const TENK_RUNS: usize = 4;

/// The published statistics of one cell: everything `exp-montecarlo`
/// writes except the wall clock and the rates derived from it.
#[derive(Debug, Clone, PartialEq)]
struct CellFacts {
    runs: usize,
    converged: usize,
    converged_unfairly: usize,
    stable_outcome: usize,
    mean_steps: f64,
    mean_messages: f64,
    mean_dropped: f64,
    total_steps: usize,
    total_sent: usize,
    total_dropped: usize,
}

impl CellFacts {
    fn of(c: &CellReport) -> CellFacts {
        CellFacts {
            runs: c.stats.runs,
            converged: c.stats.converged,
            converged_unfairly: c.stats.converged_unfairly,
            stable_outcome: c.stats.stable_outcome,
            mean_steps: c.stats.mean_steps,
            mean_messages: c.stats.mean_messages,
            mean_dropped: c.stats.mean_dropped,
            total_steps: c.total_steps,
            total_sent: c.total_sent,
            total_dropped: c.total_dropped,
        }
    }

    /// The facts of a whole cell from the reports of its consecutive
    /// chunks of runs. The library's means are integer sums divided once
    /// by a count, so they are rebuilt bit for bit from the chunks' sums.
    fn of_chunks(chunks: &[CellReport]) -> CellFacts {
        let sum = |f: &dyn Fn(&CellReport) -> usize| chunks.iter().map(f).sum::<usize>();
        let runs = sum(&|c| c.stats.runs);
        let converged = sum(&|c| c.stats.converged);
        // A chunk's mean steps times its converged runs is its integer sum.
        let steps = sum(&|c| (c.stats.mean_steps * c.stats.converged as f64).round() as usize);
        let (total_sent, total_dropped) = (sum(&|c| c.total_sent), sum(&|c| c.total_dropped));
        CellFacts {
            runs,
            converged,
            converged_unfairly: sum(&|c| c.stats.converged_unfairly),
            stable_outcome: sum(&|c| c.stats.stable_outcome),
            mean_steps: if converged > 0 { steps as f64 / converged as f64 } else { 0.0 },
            mean_messages: total_sent as f64 / runs as f64,
            mean_dropped: total_dropped as f64 / runs as f64,
            total_steps: sum(&|c| c.total_steps),
            total_sent,
            total_dropped,
        }
    }

    fn parse(cell: &JVal) -> Option<CellFacts> {
        let int = |k: &str| cell.get(k).and_then(JVal::as_u64).map(|v| v as usize);
        let num = |k: &str| match cell.get(k) {
            Some(JVal::Num(v)) => Some(*v),
            _ => None,
        };
        Some(CellFacts {
            runs: int("runs")?,
            converged: int("converged")?,
            converged_unfairly: int("converged_unfairly")?,
            stable_outcome: int("stable_outcome")?,
            mean_steps: num("mean_steps")?,
            mean_messages: num("mean_messages")?,
            mean_dropped: num("mean_dropped")?,
            total_steps: int("total_steps")?,
            total_sent: int("total_sent")?,
            total_dropped: int("total_dropped")?,
        })
    }
}

/// The published grid, keyed by (instance, model).
type Expected = BTreeMap<(String, String), CellFacts>;

/// Where `exp-montecarlo` publishes the grid, from the repository root.
const PUBLISHED: &str = "results/exp-montecarlo.json";

/// Reads `results/exp-montecarlo.json` and checks that it was produced with
/// the pinned configuration this workload runs.
fn load_expected() -> Result<Expected, String> {
    let path = Path::new(PUBLISHED);
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = routelab_obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let cfg = pinned::config(GRID_RUNS);
    let config = doc.get("config").ok_or_else(|| bad("no config"))?;
    let same_config = config.get("runs").and_then(JVal::as_u64) == Some(cfg.runs as u64)
        && config.get("max_steps").and_then(JVal::as_u64) == Some(cfg.max_steps as u64)
        && config.get("seed").and_then(JVal::as_u64) == Some(cfg.seed)
        && config.get("drop_prob") == Some(&JVal::Num(cfg.drop_prob));
    if !same_config {
        return Err(bad("not produced with the pinned grid configuration"));
    }
    let Some(JVal::Arr(groups)) = doc.get("groups") else { return Err(bad("no groups")) };
    let mut expected = Expected::new();
    for g in groups {
        let inst = g.get("instance").and_then(JVal::as_str).ok_or_else(|| bad("unnamed group"))?;
        let Some(JVal::Arr(cells)) = g.get("cells") else { return Err(bad("group without cells")) };
        for c in cells {
            let model = c.get("model").and_then(JVal::as_str).ok_or_else(|| bad("unnamed cell"))?;
            let facts = CellFacts::parse(c).ok_or_else(|| bad("cell with missing fields"))?;
            expected.insert((inst.to_string(), model.to_string()), facts);
        }
    }
    Ok(expected)
}

/// Checks one cell's statistics against the published grid.
fn check_cell(
    inst: &str,
    model: CommModel,
    got: &Result<CellFacts, String>,
    expected: &Expected,
    checks: &mut Checks,
) {
    let want = expected.get(&(inst.to_string(), model.to_string()));
    let ok = matches!((got, want), (Ok(g), Some(w)) if g == w);
    checks.record(ok, || format!("{inst} × {model}: got {got:?}, published {want:?}"));
}

/// The metric-name suffix of a pinned instance: `GAO-REXFORD n=8` becomes
/// `gao-rexford-n-8`.
fn slug(name: &str) -> String {
    let mut out = String::new();
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out
}

/// The metric `mc.grid_s.<slug>` as the `&'static` name the metric table
/// uses.
fn grid_metric(name: &str) -> &'static str {
    let metric = format!("mc.grid_s.{}", slug(name));
    crate::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == metric)
        .unwrap_or_else(|| panic!("no per-layer metric {metric}"))
}

/// The untraced `mc-grid` run. A pass calls `try_run_grid_with` on the
/// pool's one-worker path once per chunk of [`CHUNK_RUNS`] consecutive runs
/// of a cell: a route table and the chunk's runs, folded in run order. Run
/// `k` of a cell is seeded `run_seed(seed, k)`, the seed plus `k`, so a
/// one-model call with the seed of a chunk's first run reproduces that
/// chunk of the full grid. Each call is one unit of the pass, at most
/// about 30 ms (a chunk of BAD-GADGET's non-converging runs).
pub fn grid_untraced(args: &Args) -> Result<Outcome, String> {
    let expected = load_expected()?;
    let (models, cfg) = (pinned::models(), pinned::config(GRID_RUNS));
    let one = PoolConfig::with_threads(1);
    let setup = || shuffled(pinned::instances(), args.seed);
    Ok(measure(args.seconds, setup, |instances, units, checks| {
        for (name, inst) in instances {
            for (i, &model) in models.iter().enumerate() {
                let chunks: Result<Vec<CellReport>, _> = (0..cfg.runs)
                    .step_by(CHUNK_RUNS)
                    .map(|first| {
                        let chunk = CellConfig {
                            runs: CHUNK_RUNS.min(cfg.runs - first),
                            seed: run_seed(cfg.seed, first),
                            ..cfg
                        };
                        units
                            .time(|| try_run_grid_with(inst, &models[i..=i], &chunk, &one))
                            .map(|mut c| c.swap_remove(0))
                    })
                    .collect();
                let got = chunks.map(|c| CellFacts::of_chunks(&c)).map_err(|e| e.to_string());
                check_cell(name, model, &got, &expected, checks);
            }
        }
    }))
}

/// The traced `mc-grid` run: every instance's grid runs untraced through
/// `try_run_grid_with` (`mc.grid_s.*`, the `mc.grid` span), and then
/// through the benchmark's own drive loop, which must reproduce its
/// statistics.
pub fn grid_traced(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let expected = load_expected()?;
    let (models, cfg) = (pinned::models(), pinned::config(GRID_RUNS));
    let instances = tr.span("spp.generate", |_| shuffled(pinned::instances(), args.seed));
    let one = PoolConfig::with_threads(1);
    let mut checks = Checks::default();
    let mut paired = Paired::default();
    let mut totals = Totals::default();
    let mut m = BTreeMap::new();
    for (name, inst) in &instances {
        let before = paired.untraced_s();
        let cells = paired.untraced(|| try_run_grid_with(inst, &models, &cfg, &one));
        m.insert(grid_metric(name), paired.untraced_s() - before);
        for (i, &model) in models.iter().enumerate() {
            let got = cells.as_ref().map(|c| CellFacts::of(&c[i])).map_err(|e| e.to_string());
            check_cell(name, model, &got, &expected, &mut checks);
        }
        let ours: Vec<CellFacts> = paired.traced(tr, |tr| {
            let table = tr.span("spp.route_table", |_| RouteTable::new(inst));
            let mut ours = Vec::new();
            for &model in &models {
                let mut acc = CellAccum::new(model);
                for run in 0..cfg.runs {
                    acc.push(&totals.add(run_one_traced(inst, &table, model, &cfg, run, tr)));
                }
                ours.push(CellFacts::of(&acc.finish()));
            }
            ours
        });
        for (i, (model, ours)) in models.iter().zip(&ours).enumerate() {
            let want = cells.as_ref().map(|c| CellFacts::of(&c[i]));
            let same = matches!(&want, Ok(w) if w == ours);
            checks.record(same, || format!("{name} × {model}: traced {ours:?}, untraced {want:?}"));
        }
    }
    paired.metrics(&mut m);
    totals.metrics(&mut m, tr, paired.untraced_s());
    m.insert("spp.generate_s", tr.seconds("spp.generate"));
    m.insert("spp.route_table_s", tr.seconds("spp.route_table"));
    Ok(Outcome { checks, metrics: m })
}

/// Counts over the drive loop's runs.
#[derive(Debug, Default)]
struct Totals {
    steps: usize,
    sent: usize,
    dropped: usize,
}

impl Totals {
    fn add(&mut self, r: RunRecord) -> RunRecord {
        self.steps += r.executed_steps;
        self.sent += r.sent;
        self.dropped += r.dropped;
        r
    }

    /// The per-step and per-run metrics of the drive loop; the step rate
    /// is over the untraced time of the same runs.
    fn metrics(&self, m: &mut BTreeMap<&'static str, f64>, tr: &Tracer, untraced_s: f64) {
        m.insert("spp.is_stable_s", tr.seconds("spp.is_stable"));
        m.insert("engine.schedule_ns", tr.ns_per_call("engine.schedule"));
        m.insert("engine.step_ns", tr.ns_per_call("engine.step"));
        m.insert("engine.quiescence_ns", tr.ns_per_call("engine.quiescence"));
        m.insert("engine.steps", self.steps as f64);
        m.insert("engine.msgs_sent", self.sent as f64);
        m.insert("engine.msgs_dropped", self.dropped as f64);
        m.insert("engine.steps_per_s", self.steps as f64 / untraced_s);
    }
}

/// The 10k-node cell's set-up: the k-best generator and the route table.
struct Tenk {
    inst: SppInstance,
    table: RouteTable,
    model: CommModel,
    cfg: CellConfig,
}

impl Tenk {
    fn new(inst: SppInstance, table: RouteTable) -> Tenk {
        let cfg = CellConfig {
            runs: TENK_RUNS,
            max_steps: pinned::family_max_steps(TENK_NODES),
            seed: 42,
            drop_prob: 0.25,
        };
        Tenk { inst, table, model: "REA".parse().expect("model name"), cfg }
    }

    fn setup() -> Tenk {
        let inst = pinned::family_instance(TENK_NODES);
        let table = RouteTable::new(&inst);
        Tenk::new(inst, table)
    }

    fn run(&self, run: usize) -> RunRecord {
        run_one_with(&self.inst, &self.table, self.model, &self.cfg, run)
    }

    fn check(r: &RunRecord, checks: &mut Checks) {
        // Gao–Rexford instances have no dispute wheel, and REA's channels
        // are reliable: every run must settle on a stable assignment.
        let ok = r.converged && r.stable_outcome;
        checks.record(ok, || format!("tenk run {}: {:?}", r.run, counters(r)));
    }
}

/// The untraced `mc-tenk` run: every run of the cell is one unit of a
/// pass, in an order drawn from the seed.
pub fn tenk_untraced(args: &Args) -> Outcome {
    let order = shuffled((0..TENK_RUNS).collect::<Vec<_>>(), args.seed);
    measure(args.seconds, Tenk::setup, |tenk, units, checks| {
        for &run in &order {
            let rec = units.time(|| tenk.run(run));
            Tenk::check(&rec, checks);
        }
    })
}

/// The traced `mc-tenk` run: traced set-up, then every run untraced and
/// then through the drive loop, which must reproduce its record.
pub fn tenk_traced(args: &Args, tr: &mut Tracer) -> Outcome {
    let order = shuffled((0..TENK_RUNS).collect::<Vec<_>>(), args.seed);
    let inst = tr.span("spp.generate", |_| pinned::family_instance(TENK_NODES));
    let table = tr.span("spp.route_table", |_| RouteTable::new(&inst));
    let tenk = Tenk::new(inst, table);
    let mut checks = Checks::default();
    let mut paired = Paired::default();
    let mut totals = Totals::default();
    for &run in &order {
        let want = paired.untraced(|| tenk.run(run));
        Tenk::check(&want, &mut checks);
        let ours = paired.traced(tr, |tr| {
            totals.add(run_one_traced(&tenk.inst, &tenk.table, tenk.model, &tenk.cfg, run, tr))
        });
        checks.record(counters(&want) == counters(&ours), || {
            format!("tenk run {run}: untraced {:?}, traced {:?}", counters(&want), counters(&ours))
        });
    }
    let mut m = BTreeMap::new();
    paired.metrics(&mut m);
    totals.metrics(&mut m, tr, paired.untraced_s());
    m.insert("spp.generate_s", tr.seconds("spp.generate"));
    m.insert("spp.route_table_s", tr.seconds("spp.route_table"));
    Outcome { checks, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_instance_has_a_grid_metric() {
        for (name, _) in pinned::instances() {
            grid_metric(&name);
        }
        assert_eq!(slug("GAO-REXFORD n=16"), "gao-rexford-n-16");
    }

    #[test]
    fn chunks_rebuild_the_whole_cell() {
        let (models, one) = (pinned::models(), PoolConfig::with_threads(1));
        let cfg = CellConfig { runs: 10, max_steps: 3_000, seed: 42, drop_prob: 0.25 };
        for (name, inst) in pinned::instances() {
            let whole = try_run_grid_with(&inst, &models, &cfg, &one).unwrap();
            for (i, model) in models.iter().enumerate() {
                let chunks: Vec<CellReport> = [(0, 4), (4, 4), (8, 2)]
                    .into_iter()
                    .map(|(first, runs)| {
                        let chunk = CellConfig { runs, seed: run_seed(cfg.seed, first), ..cfg };
                        try_run_grid_with(&inst, &models[i..=i], &chunk, &one).unwrap().remove(0)
                    })
                    .collect();
                let want = CellFacts::of(&whole[i]);
                assert_eq!(CellFacts::of_chunks(&chunks), want, "{name} × {model}");
            }
        }
    }
}
