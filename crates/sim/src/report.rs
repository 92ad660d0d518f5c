//! Machine-readable experiment reports.
//!
//! Every experiment binary prints human-oriented text tables; this module
//! layers a JSON artifact (`results/<experiment>.json`) on top so the
//! performance trajectory (`BENCH_*.json`) and downstream tooling have
//! structured data to consume. The writer is hand-rolled — the offline
//! vendor set has no serde — and keeps object keys in insertion order so
//! regenerated files diff cleanly.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use routelab_spp::SppInstance;

use crate::montecarlo::{CellConfig, CellReport};

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| ≤ 2⁵³).
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// An object builder from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

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
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("experiment", Json::str(&self.experiment)),
            ("threads", Json::int(self.threads)),
            ("wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
            ("steps_per_sec", Json::Num(self.steps_per_sec())),
            (
                "config",
                Json::obj([
                    ("runs", Json::int(self.config.runs)),
                    ("max_steps", Json::int(self.config.max_steps)),
                    ("seed", Json::int(self.config.seed as usize)),
                    ("drop_prob", Json::Num(self.config.drop_prob)),
                ]),
            ),
            (
                "groups",
                Json::Arr(
                    self.groups
                        .iter()
                        .map(|g| {
                            Json::obj([
                                ("instance", Json::str(&g.instance)),
                                ("nodes", Json::int(g.nodes)),
                                ("edges", Json::int(g.edges)),
                                ("wheel_free", Json::Bool(g.wheel_free)),
                                ("cells", Json::Arr(g.cells.iter().map(cell_json).collect())),
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
    pub fn bench_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str(&self.experiment)),
            ("threads", Json::int(self.threads)),
            (
                "host_parallelism",
                Json::int(std::thread::available_parallelism().map_or(1, usize::from)),
            ),
            ("wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
            ("total_steps", Json::int(self.total_steps())),
            ("steps_per_sec", Json::Num(self.steps_per_sec())),
            ("run_time_ms", Json::Num(self.total_run_time().as_secs_f64() * 1e3)),
        ])
    }
}

fn cell_json(c: &CellReport) -> Json {
    Json::obj([
        ("model", Json::str(c.model.to_string())),
        ("runs", Json::int(c.stats.runs)),
        ("converged", Json::int(c.stats.converged)),
        ("converged_unfairly", Json::int(c.stats.converged_unfairly)),
        ("stable_outcome", Json::int(c.stats.stable_outcome)),
        ("convergence_rate", Json::Num(c.stats.convergence_rate())),
        ("mean_steps", Json::Num(c.stats.mean_steps)),
        ("mean_messages", Json::Num(c.stats.mean_messages)),
        ("mean_dropped", Json::Num(c.stats.mean_dropped)),
        ("wall_ms", Json::Num(c.wall.as_secs_f64() * 1e3)),
        ("steps_per_sec", Json::Num(c.steps_per_sec())),
        ("total_steps", Json::int(c.total_steps)),
        ("total_sent", Json::int(c.total_sent)),
        ("total_dropped", Json::int(c.total_dropped)),
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
/// Propagates filesystem errors.
pub fn write_json_to(dir: &Path, stem: &str, json: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, json.render())?;
    Ok(path)
}

/// Writes `json` to `<results dir>/<stem>.json` (creating the directory),
/// where the results dir is `$ROUTELAB_RESULTS_DIR` or `results/`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(stem: &str, json: &Json) -> io::Result<PathBuf> {
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
    fn json_rendering_covers_all_value_kinds() {
        let v = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("int", Json::int(42)),
            ("frac", Json::Num(0.25)),
            ("inf", Json::Num(f64::INFINITY)),
            ("text", Json::str("a \"b\"\nc\\d\u{1}")),
            ("arr", Json::Arr(vec![Json::int(1), Json::int(2)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj([])),
        ]);
        let s = v.render();
        assert!(s.contains("\"null\": null"), "{s}");
        assert!(s.contains("\"flag\": true"), "{s}");
        assert!(s.contains("\"int\": 42"), "{s}");
        assert!(s.contains("\"frac\": 0.25"), "{s}");
        assert!(s.contains("\"inf\": null"), "{s}");
        assert!(s.contains(r#"a \"b\"\nc\\d\u0001"#), "{s}");
        assert!(s.contains("\"empty_arr\": []"), "{s}");
        assert!(s.contains("\"empty_obj\": {}"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn large_integers_render_without_exponent() {
        assert_eq!(Json::int(1_000_000_000).render(), "1000000000\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
    }

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
        let path = write_json_to(&dir, "unit-test", &Json::obj([("ok", Json::Bool(true))]))
            .expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.contains("\"ok\": true"));
        assert!(path.ends_with("unit-test.json"), "{}", path.display());
    }

    #[test]
    fn string_escaping_covers_json_special_cases() {
        let cases: &[(&str, &str)] = &[
            ("plain", r#""plain""#),
            ("with \"quotes\"", r#""with \"quotes\"""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nbreak", r#""line\nbreak""#),
            ("carriage\rreturn", r#""carriage\rreturn""#),
            ("tab\there", r#""tab\there""#),
            ("nul\u{0}byte", r#""nul\u0000byte""#),
            ("esc\u{1b}ape", r#""esc\u001bape""#),
            ("unit\u{1f}sep", r#""unit\u001fsep""#),
            // Non-ASCII passes through unescaped (the files are UTF-8).
            ("π ≤ ∞ désolé", r#""π ≤ ∞ désolé""#),
            ("emoji \u{1f600}", "\"emoji \u{1f600}\""),
        ];
        for (input, want) in cases {
            let mut out = String::new();
            write_escaped(&mut out, input);
            assert_eq!(&out, want, "escaping {input:?}");
        }
    }
}
