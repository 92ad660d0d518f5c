//! Monte-Carlo convergence experiments (DESIGN.md experiment E11).
//!
//! For an instance and a communication model, run many randomized fair
//! schedules and record how often and how fast the algorithm converges, and
//! how many messages it spends. Instances without a dispute wheel must show
//! 100 % convergence in every model; instances with one separate the models
//! the way the paper's taxonomy predicts.
//!
//! Execution decomposes into run-granularity jobs — run `i` of a cell is a
//! pure function of `(instance, model, run_seed(cfg.seed, i))` — scheduled
//! on the shared [`pool`](crate::pool) and merged back in run order, so a
//! grid's statistics are bit-identical for every worker count.

use std::fmt;
use std::time::{Duration, Instant};

use routelab_core::model::CommModel;
use routelab_engine::outcome::{drive_report, RunOutcome};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::RandomFair;
use routelab_spp::solve::is_stable;
use routelab_spp::{RouteTable, SppInstance};

use crate::pool::{self, PoolConfig};

/// Configuration of one experiment cell (instance × model).
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    /// Independent randomized runs.
    pub runs: usize,
    /// Step budget per run.
    pub max_steps: usize,
    /// Base RNG seed (run `i` uses [`run_seed`]`(seed, i)`).
    pub seed: u64,
    /// Per-read drop probability for unreliable models.
    pub drop_prob: f64,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig { runs: 50, max_steps: 20_000, seed: 0, drop_prob: 0.25 }
    }
}

/// The RNG seed of run `run` within a cell with base seed `base`.
///
/// Within one cell the derived seeds are pairwise distinct for any
/// `runs ≤ 2⁶⁴` (wrapping addition of distinct offsets), so no two runs of a
/// cell ever share a schedule.
pub fn run_seed(base: u64, run: usize) -> u64 {
    base.wrapping_add(run as u64)
}

/// Everything one randomized run produces — the unit merged into
/// [`CellStats`], and the engine-level observability record (wall-clock and
/// message counters) feeding the JSON reports.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord {
    /// Run index within the cell.
    pub run: usize,
    /// Reached quiescence along a fair prefix.
    pub converged: bool,
    /// Reached quiescence only by unfairly dropping a final message.
    pub converged_unfairly: bool,
    /// Steps to convergence (meaningful when `converged`).
    pub steps_to_convergence: usize,
    /// The final assignment is a stable path assignment (quiescent runs).
    pub stable_outcome: bool,
    /// Steps actually executed (all runs).
    pub executed_steps: usize,
    /// Messages sent.
    pub sent: usize,
    /// Messages dropped.
    pub dropped: usize,
    /// Wall-clock time of this run.
    pub wall: Duration,
}

/// Aggregated results of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellStats {
    /// Runs performed.
    pub runs: usize,
    /// Runs that reached quiescence along a fair prefix.
    pub converged: usize,
    /// Runs that reached quiescence only by *unfairly* dropping the final
    /// message on some channel (possible with unreliable channels; such
    /// executions are excluded by Definition 2.4).
    pub converged_unfairly: usize,
    /// Mean steps to convergence (over fairly converged runs).
    pub mean_steps: f64,
    /// Mean messages sent per run (all runs).
    pub mean_messages: f64,
    /// Mean messages dropped per run (all runs).
    pub mean_dropped: f64,
    /// Quiescent runs (fair or not) whose final assignment is a *stable*
    /// path assignment of the instance — with loss, a network can go quiet
    /// on an inconsistent assignment built from stale information.
    pub stable_outcome: usize,
}

impl CellStats {
    /// Fraction of runs that converged.
    pub fn convergence_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.converged as f64 / self.runs as f64
        }
    }

    /// Folds per-run records (in run order) into cell statistics. The fold
    /// order is fixed, so the result is independent of which worker
    /// produced which record.
    pub fn from_records(records: &[RunRecord]) -> CellStats {
        let mut stats = CellStats { runs: records.len(), ..CellStats::default() };
        let mut steps_sum = 0usize;
        for r in records {
            if r.converged {
                stats.converged += 1;
                steps_sum += r.steps_to_convergence;
            }
            if r.converged_unfairly {
                stats.converged_unfairly += 1;
            }
            if r.stable_outcome {
                stats.stable_outcome += 1;
            }
            stats.mean_messages += r.sent as f64;
            stats.mean_dropped += r.dropped as f64;
        }
        if stats.converged > 0 {
            stats.mean_steps = steps_sum as f64 / stats.converged as f64;
        }
        if stats.runs > 0 {
            stats.mean_messages /= stats.runs as f64;
            stats.mean_dropped /= stats.runs as f64;
        }
        stats
    }
}

/// Streaming per-cell aggregation: folds [`RunRecord`]s one at a time (in
/// run order) and never retains them, so a cell's memory footprint is O(1)
/// in the number of runs — the Internet-scale cells run tens of thousands
/// of runs without materializing a record vector.
///
/// The accumulation replays [`CellStats::from_records`]'s exact operation
/// order (integer sums for counters, sequential f64 `+=` for the message
/// means, one final division), so the finished statistics are bit-identical
/// to the batch fold. On top of that it keeps a Welford accumulator over
/// steps-to-convergence, giving the large-topology reports a numerically
/// stable standard deviation with no second pass.
#[derive(Debug, Clone, Copy)]
pub struct CellAccum {
    model: CommModel,
    runs: usize,
    converged: usize,
    converged_unfairly: usize,
    stable_outcome: usize,
    steps_sum: usize,
    sum_messages: f64,
    sum_dropped: f64,
    welford_mean: f64,
    welford_m2: f64,
    wall: Duration,
    total_steps: usize,
    total_sent: usize,
    total_dropped: usize,
}

impl CellAccum {
    /// An empty accumulator for one cell.
    pub fn new(model: CommModel) -> CellAccum {
        CellAccum {
            model,
            runs: 0,
            converged: 0,
            converged_unfairly: 0,
            stable_outcome: 0,
            steps_sum: 0,
            sum_messages: 0.0,
            sum_dropped: 0.0,
            welford_mean: 0.0,
            welford_m2: 0.0,
            wall: Duration::ZERO,
            total_steps: 0,
            total_sent: 0,
            total_dropped: 0,
        }
    }

    /// Folds one run's record in. Records must arrive in run order for the
    /// floating-point sums to be bit-identical to the batch fold.
    pub fn push(&mut self, r: &RunRecord) {
        self.runs += 1;
        if r.converged {
            self.converged += 1;
            self.steps_sum += r.steps_to_convergence;
            let x = r.steps_to_convergence as f64;
            let d = x - self.welford_mean;
            self.welford_mean += d / self.converged as f64;
            self.welford_m2 += d * (x - self.welford_mean);
        }
        if r.converged_unfairly {
            self.converged_unfairly += 1;
        }
        if r.stable_outcome {
            self.stable_outcome += 1;
        }
        self.sum_messages += r.sent as f64;
        self.sum_dropped += r.dropped as f64;
        self.wall += r.wall;
        self.total_steps += r.executed_steps;
        self.total_sent += r.sent;
        self.total_dropped += r.dropped;
    }

    /// Sample standard deviation of steps-to-convergence over fairly
    /// converged runs (0 with fewer than two samples).
    pub fn steps_std(&self) -> f64 {
        if self.converged >= 2 {
            (self.welford_m2 / (self.converged - 1) as f64).sqrt()
        } else {
            0.0
        }
    }

    /// The finished per-cell report.
    pub fn finish(&self) -> CellReport {
        let mut stats = CellStats {
            runs: self.runs,
            converged: self.converged,
            converged_unfairly: self.converged_unfairly,
            stable_outcome: self.stable_outcome,
            mean_steps: 0.0,
            mean_messages: self.sum_messages,
            mean_dropped: self.sum_dropped,
        };
        if stats.converged > 0 {
            stats.mean_steps = self.steps_sum as f64 / stats.converged as f64;
        }
        if stats.runs > 0 {
            stats.mean_messages /= stats.runs as f64;
            stats.mean_dropped /= stats.runs as f64;
        }
        CellReport {
            model: self.model,
            stats,
            steps_std: self.steps_std(),
            wall: self.wall,
            total_steps: self.total_steps,
            total_sent: self.total_sent,
            total_dropped: self.total_dropped,
        }
    }
}

/// Executes run `run` of one cell: a pure function of its arguments.
///
/// Builds a fresh [`RouteTable`] for the instance; grids amortize that cost
/// across runs with [`run_one_with`].
pub fn run_one(inst: &SppInstance, model: CommModel, cfg: &CellConfig, run: usize) -> RunRecord {
    run_one_with(inst, &RouteTable::new(inst), model, cfg, run)
}

/// [`run_one`] against a prebuilt route table, shared (by reference) across
/// every run and worker of a grid. The runner records no assignment trace —
/// Monte-Carlo statistics never read it — which keeps the per-run
/// allocation profile flat.
pub fn run_one_with(
    inst: &SppInstance,
    table: &RouteTable,
    model: CommModel,
    cfg: &CellConfig,
    run: usize,
) -> RunRecord {
    let t0 = Instant::now();
    let mut runner = Runner::with_table(inst, table).tracing(false);
    let mut sched =
        RandomFair::new(inst, model, run_seed(cfg.seed, run)).with_drop_prob(cfg.drop_prob);
    let report = drive_report(&mut runner, &mut sched, cfg.max_steps);
    let mut rec = RunRecord {
        run,
        converged: false,
        converged_unfairly: false,
        steps_to_convergence: 0,
        stable_outcome: false,
        executed_steps: report.stats.steps,
        sent: report.stats.sent,
        dropped: report.stats.dropped,
        wall: Duration::ZERO,
    };
    if let RunOutcome::Converged { steps, assignment } = report.outcome {
        if runner.has_dangling_drops() {
            rec.converged_unfairly = true;
        } else {
            rec.converged = true;
            rec.steps_to_convergence = steps;
        }
        rec.stable_outcome = is_stable(inst, &assignment);
    }
    rec.wall = t0.elapsed();
    if routelab_obs::enabled() {
        routelab_obs::histogram("mc.run.wall_ns", rec.wall.as_nanos() as u64);
    }
    rec
}

/// Runs one cell sequentially on the calling thread, streaming each run
/// into a [`CellAccum`] (no record retention).
pub fn run_cell(inst: &SppInstance, model: CommModel, cfg: &CellConfig) -> CellStats {
    let table = RouteTable::new(inst);
    let mut acc = CellAccum::new(model);
    for i in 0..cfg.runs {
        acc.push(&run_one_with(inst, &table, model, cfg, i));
    }
    acc.finish().stats
}

/// One cell's statistics plus execution observability: wall-clock (summed
/// over the cell's runs, so it is CPU-time-like and comparable across
/// worker counts) and raw step/message totals.
#[derive(Debug, Clone, Copy)]
pub struct CellReport {
    /// The communication model of this cell.
    pub model: CommModel,
    /// Deterministic aggregate statistics.
    pub stats: CellStats,
    /// Sample standard deviation of steps-to-convergence over fairly
    /// converged runs (Welford; 0 with fewer than two samples). Reported by
    /// the large-topology family lane; the classic grid JSON ignores it.
    pub steps_std: f64,
    /// Total time spent executing this cell's runs.
    pub wall: Duration,
    /// Steps executed across all runs.
    pub total_steps: usize,
    /// Messages sent across all runs.
    pub total_sent: usize,
    /// Messages dropped across all runs.
    pub total_dropped: usize,
}

impl CellReport {
    /// Simulation throughput of this cell in engine steps per second.
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_steps as f64 / secs
        } else {
            0.0
        }
    }
}

/// A simulation run that panicked, located by cell and seed so the
/// diverging run is reproducible: rerun with `RandomFair::new(inst, model,
/// seed)` under the same configuration.
#[derive(Debug)]
pub struct GridError {
    /// Model of the failing cell.
    pub model: CommModel,
    /// Run index within the cell.
    pub run: usize,
    /// The exact scheduler seed of the failing run.
    pub seed: u64,
    /// Rendered panic payload.
    pub panic: String,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation run panicked in cell model={} run={} (scheduler seed {}): {}",
            self.model, self.run, self.seed, self.panic
        )
    }
}

impl std::error::Error for GridError {}

/// Runs a grid of cells (one per model) on the shared worker pool,
/// decomposed into run-granularity jobs; results are merged in `(cell,
/// run)` order and are bit-identical for every worker count.
///
/// # Errors
///
/// Returns a [`GridError`] naming the cell `(model, seed)` and run of the
/// earliest panicking job.
pub fn try_run_grid_with(
    inst: &SppInstance,
    models: &[CommModel],
    cfg: &CellConfig,
    pool_cfg: &PoolConfig,
) -> Result<Vec<CellReport>, GridError> {
    let runs = cfg.runs;
    let jobs = models.len() * runs;
    let mut grid_span = routelab_obs::span("mc.grid");
    grid_span.field("models", models.len());
    grid_span.field("runs_per_cell", runs);
    // One route table for the whole grid, shared by reference across every
    // worker; records stream into per-cell accumulators in job order (cell-
    // major, so each cell sees its runs in run order) and are never
    // retained.
    let table = RouteTable::new(inst);
    let mut accums: Vec<CellAccum> = models.iter().map(|&m| CellAccum::new(m)).collect();
    pool::execute_fold(
        jobs,
        pool_cfg.resolved_threads(),
        &|job| run_one_with(inst, &table, models[job / runs], cfg, job % runs),
        &mut accums,
        &mut |accs, job, rec| accs[job / runs].push(&rec),
    )
    .map_err(|p| GridError {
        model: models[p.job / runs],
        run: p.job % runs,
        seed: run_seed(cfg.seed, p.job % runs),
        panic: p.message,
    })?;
    Ok(accums.iter().map(|a| a.finish()).collect())
}

/// The pinned Monte-Carlo workload: the instance families, model list and
/// cell configuration `routelab exp montecarlo` publishes (whose
/// `BENCH_montecarlo.json` is also the engine throughput gate), and the
/// Gao–Rexford family of its large-topology lane, in one place so every
/// caller runs exactly the published workload.
pub mod pinned {
    use super::CellConfig;
    use routelab_core::model::CommModel;
    use routelab_spp::generator::{gao_rexford_instance, random_instance, RandomSppConfig};
    use routelab_spp::{gadgets, SppError, SppInstance};

    /// Instance groups of the default grid, in report order.
    pub fn instances() -> Vec<(String, SppInstance)> {
        let mut v = vec![
            ("DISAGREE".to_string(), gadgets::disagree()),
            ("BAD-GADGET".to_string(), gadgets::bad_gadget()),
            ("GOOD-GADGET".to_string(), gadgets::good_gadget()),
            ("FIG6".to_string(), gadgets::fig6()),
        ];
        for n in [8, 16] {
            let inst = gao_rexford_instance(n, 7, 6, 5).expect("generator");
            v.push((format!("GAO-REXFORD n={n}"), inst));
        }
        let rnd = random_instance(&RandomSppConfig { nodes: 10, seed: 5, ..Default::default() })
            .expect("generator");
        v.push(("RANDOM n=10".to_string(), rnd));
        v
    }

    /// The eight models of the published grid.
    pub fn models() -> Vec<CommModel> {
        ["R1O", "REO", "RMS", "UMS", "R1A", "RMA", "REA", "U1O"]
            .iter()
            .map(|s| s.parse().expect("model"))
            .collect()
    }

    /// The pinned cell configuration with `runs` runs per cell.
    pub fn config(runs: usize) -> CellConfig {
        CellConfig { runs, max_steps: 30_000, seed: 42, drop_prob: 0.25 }
    }

    /// A Gao–Rexford family instance of `nodes` nodes — the construction of
    /// the large-topology lane (`--family gao-rexford --nodes N`).
    ///
    /// # Panics
    ///
    /// Panics for fewer than two nodes; see [`try_family_instance`].
    pub fn family_instance(nodes: usize) -> SppInstance {
        try_family_instance(nodes).expect("generator")
    }

    /// [`family_instance`], or the generator's error for fewer than two
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SppError::TooFewNodes`] for `nodes < 2`.
    pub fn try_family_instance(nodes: usize) -> Result<SppInstance, SppError> {
        gao_rexford_instance(nodes, 7, 6, 5)
    }

    /// The family lane's step budget for an `n`-node instance: randomized
    /// single-channel activation needs a coupon-collector factor over the
    /// channel count times a few convergence waves.
    pub fn family_max_steps(nodes: usize) -> usize {
        (120 * nodes).max(30_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;

    fn quick() -> CellConfig {
        CellConfig { runs: 12, max_steps: 6_000, seed: 7, drop_prob: 0.25 }
    }

    #[test]
    fn wheel_free_instances_always_converge() {
        let inst = gadgets::good_gadget();
        for model in ["R1O", "RMS", "REA"] {
            let stats = run_cell(&inst, model.parse().unwrap(), &quick());
            assert_eq!(stats.converged, stats.runs, "{model}: {stats:?}");
            assert_eq!(stats.converged_unfairly, 0, "{model}: {stats:?}");
            assert!(stats.mean_steps > 0.0);
        }
        // With lossy channels every run still quiesces, but a random
        // schedule usually ends some channel on a dropped message, which the
        // harness reports as unfair quiescence — and the resulting frozen
        // assignment need not even be stable (stale routes).
        for model in ["UMS", "U1O"] {
            let stats = run_cell(&inst, model.parse().unwrap(), &quick());
            assert_eq!(
                stats.converged + stats.converged_unfairly,
                stats.runs,
                "{model}: {stats:?}"
            );
        }
    }

    #[test]
    fn bad_gadget_never_converges() {
        // No stable assignment exists, so no run can reach quiescence.
        let inst = gadgets::bad_gadget();
        for model in ["RMS", "REA"] {
            let stats = run_cell(&inst, model.parse().unwrap(), &quick());
            assert_eq!(stats.converged, 0, "{model}: {stats:?}");
        }
    }

    #[test]
    fn bad_gadget_unreliable_quiescence_is_always_unfair() {
        // With lossy channels BAD-GADGET *can* go quiet — by dropping the
        // final message on some channel, which Definition 2.4 forbids. The
        // harness classifies those runs separately.
        let inst = gadgets::bad_gadget();
        let stats = run_cell(&inst, "UMS".parse().unwrap(), &quick());
        assert_eq!(stats.converged, 0, "{stats:?}");
        assert!(stats.converged_unfairly > 0, "{stats:?}");
    }

    #[test]
    fn disagree_polling_always_converges_randomized() {
        // RMA guarantees convergence on DISAGREE (Example A.1): every
        // randomized fair run must reach quiescence.
        let inst = gadgets::disagree();
        let stats = run_cell(&inst, "RMA".parse().unwrap(), &quick());
        assert_eq!(stats.converged, stats.runs, "{stats:?}");
    }

    #[test]
    fn stats_are_deterministic_per_seed() {
        let inst = gadgets::disagree();
        let a = run_cell(&inst, "RMS".parse().unwrap(), &quick());
        let b = run_cell(&inst, "RMS".parse().unwrap(), &quick());
        assert_eq!(a, b);
    }

    #[test]
    fn grid_matches_cells() {
        let inst = gadgets::good_gadget();
        let models: Vec<CommModel> = vec!["R1O".parse().unwrap(), "REA".parse().unwrap()];
        let grid =
            try_run_grid_with(&inst, &models, &quick(), &PoolConfig::default()).expect("no panics");
        assert_eq!(grid.len(), 2);
        for c in grid {
            assert_eq!(c.stats, run_cell(&inst, c.model, &quick()));
        }
    }

    #[test]
    fn cell_reports_carry_observability() {
        let inst = gadgets::good_gadget();
        let models: Vec<CommModel> = vec!["RMS".parse().unwrap(), "UMS".parse().unwrap()];
        let cells = try_run_grid_with(&inst, &models, &quick(), &PoolConfig::with_threads(2))
            .expect("no panics");
        for c in &cells {
            assert!(c.total_steps > 0);
            assert!(c.total_sent > 0);
            assert!(c.wall > Duration::ZERO);
            assert!(c.steps_per_sec() > 0.0);
        }
        // Only the unreliable cell drops.
        assert_eq!(cells[0].total_dropped, 0);
        assert!(cells[1].total_dropped > 0);
    }

    #[test]
    fn unreliable_runs_record_drops() {
        let inst = gadgets::good_gadget();
        let stats = run_cell(&inst, "UMS".parse().unwrap(), &quick());
        assert!(stats.mean_dropped > 0.0, "{stats:?}");
        let reliable = run_cell(&inst, "RMS".parse().unwrap(), &quick());
        assert_eq!(reliable.mean_dropped, 0.0);
    }

    #[test]
    fn convergence_rate_helper() {
        let s = CellStats { runs: 10, converged: 7, ..CellStats::default() };
        assert!((s.convergence_rate() - 0.7).abs() < 1e-9);
        assert_eq!(CellStats::default().convergence_rate(), 0.0);
    }

    #[test]
    fn streaming_accumulator_is_bit_identical_to_batch_fold() {
        // The streaming CellAccum must replay CellStats::from_records'
        // exact operation order: identical counters AND bit-identical f64
        // means on the same record sequence.
        let inst = gadgets::bad_gadget();
        let table = routelab_spp::RouteTable::new(&inst);
        for model in ["RMS", "UMS", "REA", "U1O"] {
            let model: CommModel = model.parse().unwrap();
            let records: Vec<RunRecord> = (0..quick().runs)
                .map(|i| run_one_with(&inst, &table, model, &quick(), i))
                .collect();
            let batch = CellStats::from_records(&records);
            let mut acc = CellAccum::new(model);
            for r in &records {
                acc.push(r);
            }
            let streamed = acc.finish();
            assert_eq!(streamed.stats, batch, "{model}");
            assert_eq!(streamed.stats.mean_steps.to_bits(), batch.mean_steps.to_bits());
            assert_eq!(streamed.stats.mean_messages.to_bits(), batch.mean_messages.to_bits());
            assert_eq!(streamed.stats.mean_dropped.to_bits(), batch.mean_dropped.to_bits());
        }
    }

    #[test]
    fn shared_table_runs_match_per_run_tables() {
        let inst = gadgets::fig7();
        let table = routelab_spp::RouteTable::new(&inst);
        for model in ["R1O", "UMS"] {
            let model: CommModel = model.parse().unwrap();
            for run in 0..4 {
                let a = run_one(&inst, model, &quick(), run);
                let b = run_one_with(&inst, &table, model, &quick(), run);
                assert_eq!(a.converged, b.converged);
                assert_eq!(a.converged_unfairly, b.converged_unfairly);
                assert_eq!(a.steps_to_convergence, b.steps_to_convergence);
                assert_eq!(a.stable_outcome, b.stable_outcome);
                assert_eq!(a.executed_steps, b.executed_steps);
                assert_eq!(a.sent, b.sent);
                assert_eq!(a.dropped, b.dropped);
            }
        }
    }

    #[test]
    fn grid_reports_are_bit_identical_across_thread_counts() {
        // The thread-count half of the differential suite: every statistic
        // the JSON reports (other than wall clock) must be reproduced
        // exactly at 1, 2, and 8 workers.
        for inst in [gadgets::disagree(), gadgets::bad_gadget()] {
            let models: Vec<CommModel> =
                ["R1O", "RMS", "UMS", "REA"].iter().map(|s| s.parse().unwrap()).collect();
            let base = try_run_grid_with(&inst, &models, &quick(), &PoolConfig::with_threads(1))
                .expect("no panics");
            for threads in [2, 8] {
                let other =
                    try_run_grid_with(&inst, &models, &quick(), &PoolConfig::with_threads(threads))
                        .expect("no panics");
                for (a, b) in base.iter().zip(&other) {
                    assert_eq!(a.model, b.model, "threads={threads}");
                    assert_eq!(a.stats, b.stats, "threads={threads} model={}", a.model);
                    assert_eq!(a.steps_std.to_bits(), b.steps_std.to_bits());
                    assert_eq!(a.total_steps, b.total_steps);
                    assert_eq!(a.total_sent, b.total_sent);
                    assert_eq!(a.total_dropped, b.total_dropped);
                }
            }
        }
    }

    #[test]
    fn steps_std_matches_two_pass_formula() {
        let inst = gadgets::good_gadget();
        let table = routelab_spp::RouteTable::new(&inst);
        let model: CommModel = "RMS".parse().unwrap();
        let records: Vec<RunRecord> =
            (0..quick().runs).map(|i| run_one_with(&inst, &table, model, &quick(), i)).collect();
        let mut acc = CellAccum::new(model);
        for r in &records {
            acc.push(r);
        }
        let steps: Vec<f64> =
            records.iter().filter(|r| r.converged).map(|r| r.steps_to_convergence as f64).collect();
        assert!(steps.len() >= 2, "good gadget always converges");
        let mean = steps.iter().sum::<f64>() / steps.len() as f64;
        let var = steps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (steps.len() - 1) as f64;
        assert!((acc.steps_std() - var.sqrt()).abs() < 1e-9 * (1.0 + var.sqrt()));
        assert_eq!(CellAccum::new(model).steps_std(), 0.0);
    }

    #[test]
    fn fairly_converged_runs_end_stable() {
        // A run that quiesces along a fair prefix has processed every
        // message, so its final π must be a stable assignment. Unfair
        // quiescence is left out on purpose: a run that went quiet only
        // because its last message was dropped can freeze on a stale ρ
        // (DISAGREE × UMS quiesces unfairly in most runs and ends unstable
        // in some of them).
        let cfg = pinned::config(3);
        let mut fair = 0;
        for (name, inst) in pinned::instances() {
            let table = RouteTable::new(&inst);
            for model in pinned::models() {
                for run in 0..cfg.runs {
                    let r = run_one_with(&inst, &table, model, &cfg, run);
                    assert!(!r.converged || r.stable_outcome, "{name} × {model} run {run}");
                    fair += usize::from(r.converged);
                }
            }
        }
        assert!(fair > 0, "some pinned runs converge fairly");
    }

    #[test]
    fn run_seed_is_offset_addition() {
        assert_eq!(run_seed(10, 0), 10);
        assert_eq!(run_seed(10, 5), 15);
        assert_eq!(run_seed(u64::MAX, 1), 0); // wraps, still distinct within a cell
    }
}
