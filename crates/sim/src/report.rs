//! Machine-readable experiment reports.
//!
//! Every experiment prints human-oriented text tables; this module layers a
//! JSON artifact (`results/<experiment>.json`) on top so the performance
//! trajectory (`BENCH_*.json`) and downstream tooling have structured data
//! to consume. Values are [`JVal`]s, rendered by [`JVal::render`] with
//! object keys in insertion order so regenerated files diff cleanly.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use routelab_obs::JVal;
use routelab_spp::SppInstance;

use crate::montecarlo::{CellConfig, CellReport};

/// One instance's worth of Monte-Carlo cells.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Instance name as printed in the text table.
    pub instance: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Whether the instance is dispute-wheel-free.
    pub wheel_free: bool,
    /// One report per communication model.
    pub cells: Vec<CellReport>,
}

impl GroupReport {
    /// Builds a group from an instance and its freshly computed cells.
    pub fn new(name: &str, inst: &SppInstance, wheel_free: bool, cells: Vec<CellReport>) -> Self {
        GroupReport {
            instance: name.to_string(),
            nodes: inst.node_count(),
            edges: inst.graph().edge_count(),
            wheel_free,
            cells,
        }
    }
}

/// A whole experiment's structured results: configuration, per-cell
/// statistics and observability counters, and aggregate throughput.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Experiment name (`montecarlo`, `survey`, …).
    pub experiment: String,
    /// Worker threads the engine resolved to.
    pub threads: usize,
    /// Cell configuration shared by all groups.
    pub config: CellConfig,
    /// Per-instance groups.
    pub groups: Vec<GroupReport>,
    /// End-to-end wall clock of the experiment binary.
    pub wall: Duration,
}

impl RunReport {
    /// Total engine steps across every cell.
    pub fn total_steps(&self) -> usize {
        self.groups.iter().flat_map(|g| &g.cells).map(|c| c.total_steps).sum()
    }

    /// Summed per-run wall time across every cell (CPU-time-like).
    pub fn total_run_time(&self) -> Duration {
        self.groups.iter().flat_map(|g| &g.cells).map(|c| c.wall).sum()
    }

    /// Aggregate throughput in engine steps per second of end-to-end wall
    /// clock — the headline number tracked by `BENCH_montecarlo.json`.
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_steps() as f64 / secs
        } else {
            0.0
        }
    }

    /// The full structured report.
    pub fn to_json(&self) -> JVal {
        JVal::obj([
            ("experiment", JVal::str(&self.experiment)),
            ("threads", JVal::int(self.threads)),
            ("wall_ms", JVal::Num(self.wall.as_secs_f64() * 1e3)),
            ("steps_per_sec", JVal::Num(self.steps_per_sec())),
            (
                "config",
                JVal::obj([
                    ("runs", JVal::int(self.config.runs)),
                    ("max_steps", JVal::int(self.config.max_steps)),
                    ("seed", JVal::int(self.config.seed as usize)),
                    ("drop_prob", JVal::Num(self.config.drop_prob)),
                ]),
            ),
            (
                "groups",
                JVal::Arr(
                    self.groups
                        .iter()
                        .map(|g| {
                            JVal::obj([
                                ("instance", JVal::str(&g.instance)),
                                ("nodes", JVal::int(g.nodes)),
                                ("edges", JVal::int(g.edges)),
                                ("wheel_free", JVal::Bool(g.wheel_free)),
                                ("cells", JVal::Arr(g.cells.iter().map(cell_json).collect())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The compact throughput summary written to `results/BENCH_<name>.json`
    /// — one sample of the perf trajectory. `total_steps / run_time_ms` is
    /// the per-worker engine throughput `scripts/check_bench.py` gates.
    pub fn bench_json(&self) -> JVal {
        JVal::obj([
            ("bench", JVal::str(&self.experiment)),
            ("threads", JVal::int(self.threads)),
            (
                "host_parallelism",
                JVal::int(std::thread::available_parallelism().map_or(1, usize::from)),
            ),
            ("wall_ms", JVal::Num(self.wall.as_secs_f64() * 1e3)),
            ("total_steps", JVal::int(self.total_steps())),
            ("steps_per_sec", JVal::Num(self.steps_per_sec())),
            ("run_time_ms", JVal::Num(self.total_run_time().as_secs_f64() * 1e3)),
        ])
    }
}

fn cell_json(c: &CellReport) -> JVal {
    JVal::obj([
        ("model", JVal::str(c.model.to_string())),
        ("runs", JVal::int(c.stats.runs)),
        ("converged", JVal::int(c.stats.converged)),
        ("converged_unfairly", JVal::int(c.stats.converged_unfairly)),
        ("stable_outcome", JVal::int(c.stats.stable_outcome)),
        ("convergence_rate", JVal::Num(c.stats.convergence_rate())),
        ("mean_steps", JVal::Num(c.stats.mean_steps)),
        ("mean_messages", JVal::Num(c.stats.mean_messages)),
        ("mean_dropped", JVal::Num(c.stats.mean_dropped)),
        ("wall_ms", JVal::Num(c.wall.as_secs_f64() * 1e3)),
        ("steps_per_sec", JVal::Num(c.steps_per_sec())),
        ("total_steps", JVal::int(c.total_steps)),
        ("total_sent", JVal::int(c.total_sent)),
        ("total_dropped", JVal::int(c.total_dropped)),
    ])
}

/// Writes `json` to `<dir>/<stem>.json`, creating `dir` if needed.
///
/// This is the testable core of [`write_json`]: callers (and tests) pass the
/// resolved directory explicitly instead of mutating process environment,
/// which is racy across concurrently running test threads.
///
/// # Errors
///
/// A filesystem error, its message naming the file.
pub fn write_json_to(dir: &Path, stem: &str, json: &JVal) -> io::Result<PathBuf> {
    let path = dir.join(format!("{stem}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json.render()))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Writes `json` to `<results dir>/<stem>.json` (creating the directory),
/// where the results dir is `$ROUTELAB_RESULTS_DIR` or `results/`.
///
/// # Errors
///
/// As [`write_json_to`].
pub fn write_json(stem: &str, json: &JVal) -> io::Result<PathBuf> {
    let dir = std::env::var("ROUTELAB_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    write_json_to(Path::new(&dir), stem, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{try_run_grid_with, CellConfig};
    use crate::pool::PoolConfig;
    use routelab_core::model::CommModel;
    use routelab_spp::gadgets;

    #[test]
    fn run_report_round_trip_shape() {
        let inst = gadgets::disagree();
        let cfg = CellConfig { runs: 4, max_steps: 2_000, seed: 3, drop_prob: 0.25 };
        let models: Vec<CommModel> = vec!["RMS".parse().unwrap(), "UMS".parse().unwrap()];
        let cells = try_run_grid_with(&inst, &models, &cfg, &PoolConfig::with_threads(1))
            .expect("no panics");
        let report = RunReport {
            experiment: "unit".into(),
            threads: 1,
            config: cfg,
            groups: vec![GroupReport::new("DISAGREE", &inst, false, cells)],
            wall: Duration::from_millis(5),
        };
        assert!(report.total_steps() > 0);
        let json = report.to_json().render();
        for key in [
            "\"experiment\": \"unit\"",
            "\"instance\": \"DISAGREE\"",
            "\"model\": \"RMS\"",
            "\"total_dropped\"",
            "\"steps_per_sec\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let bench = report.bench_json().render();
        assert!(bench.contains("\"bench\": \"unit\""), "{bench}");
        assert!(bench.contains("\"host_parallelism\": "), "{bench}");
    }

    #[test]
    fn write_json_creates_file() {
        // The directory is passed explicitly — `set_var` would race with
        // other tests reading the environment on parallel test threads.
        let dir = std::env::temp_dir().join(format!("routelab-report-test-{}", std::process::id()));
        let path = write_json_to(&dir, "unit-test", &JVal::obj([("ok", JVal::Bool(true))]))
            .expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.contains("\"ok\": true"));
        assert!(path.ends_with("unit-test.json"), "{}", path.display());
    }
}
