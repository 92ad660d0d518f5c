//! routebench: the layered benchmark of routelab.
//!
//! One process runs one named workload on one worker thread, checks every
//! output it produces, and prints one JSON line as the last line of its
//! standard output:
//!
//! ```text
//! routebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! With `--trace 0` the line carries the end-to-end metrics (`wall_s`,
//! `setup_s`, `peak_rss_mb`). With `--trace 1` the process runs every unit
//! of the workload untraced and then with a span around every call into a
//! layer, and the line carries the per-layer metrics; the spans are written
//! to `--spans`. Run it from the repository root: `mc-grid` reads the
//! published grid from `results/exp-montecarlo.json`. See README.md for the
//! workloads and the metrics. `BENCHMARK.json` at the repository root lists
//! the same metrics, and a test below holds the two lists equal.

mod drive;
mod explore;
mod mc;
mod plan;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use trace::Tracer;

/// Every workload the binary runs: the ones `BENCHMARK.json` lists, and
/// `mc-tenk`, whose time follows other tenants' use of the shared cache
/// too closely to be gated (see README.md) but whose traced run still
/// gives the engine's per-step costs on a working set beyond cache.
const WORKLOADS: [&str; 5] =
    ["explore-reduced", "explore-raw", "mc-grid", "mc-tenk", "plan-verify"];

/// The per-layer metrics of the traced run and their units. Every traced
/// run reports all of them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("spp.generate_s", "s"),
    ("spp.route_table_s", "s"),
    ("spp.is_stable_s", "s"),
    ("engine.schedule_ns", "ns"),
    ("engine.step_ns", "ns"),
    ("engine.quiescence_ns", "ns"),
    ("engine.steps", "count"),
    ("engine.msgs_sent", "count"),
    ("engine.msgs_dropped", "count"),
    ("engine.steps_per_s", "1/s"),
    ("mc.grid_s.disagree", "s"),
    ("mc.grid_s.bad-gadget", "s"),
    ("mc.grid_s.good-gadget", "s"),
    ("mc.grid_s.fig6", "s"),
    ("mc.grid_s.gao-rexford-n-8", "s"),
    ("mc.grid_s.gao-rexford-n-16", "s"),
    ("mc.grid_s.random-n-10", "s"),
    ("explore.setup_s", "s"),
    ("explore.build_s", "s"),
    ("explore.analyze_s", "s"),
    ("explore.states", "count"),
    ("explore.edges", "count"),
    ("explore.candidates", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.new_state_ratio", "ratio"),
    ("explore.us_per_state", "us"),
    ("explore.bytes_resident", "bytes"),
    ("explore.peak_frontier", "count"),
    ("reduce.canon_rewrites", "count"),
    ("reduce.absorb_pops", "count"),
    ("explore.materialize_us", "us"),
    ("explore.decode_us", "us"),
    ("explore.step_enum_us", "us"),
    ("engine.exec_step_us", "us"),
    ("explore.encode_us", "us"),
    ("explore.unreplayed_us", "us"),
    ("realize.plan_s", "s"),
    ("realize.prefix_s", "s"),
    ("realize.apply_s", "s"),
    ("engine.trace_of_s", "s"),
    ("engine.relation_s", "s"),
    ("core.check_sequence_s", "s"),
    ("realize.routes", "count"),
    ("realize.no_routes", "count"),
    ("realize.verifications", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every untraced run makes at least this many passes over the work,
/// whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Set-up runs in bursts, one before every pass over the work and one
/// after the last: each burst repeats it until [`SETUP_BURST`] has passed
/// (at most [`SETUP_BURST_MAX`] times).
const SETUP_BURST: Duration = Duration::from_millis(50);
const SETUP_BURST_MAX: usize = 200;

/// The clock probe: a register-only loop of this many rounds, about a
/// millisecond. It touches no memory, so it reads the core's speed and
/// leaves the workload's caches alone. An untraced run reads it after a
/// unit of work or a set-up burst whenever [`CLOCK_EVERY`] has passed
/// since the last reading.
const CLOCK_ROUNDS: u64 = 250_000;
const CLOCK_EVERY: Duration = Duration::from_millis(50);

/// The probe's time, in seconds, on the reference core: the fast readings
/// of an Intel Xeon vCPU (2 vCPUs, 105 MiB shared L3). The end-to-end
/// times are scaled to that speed.
const CLOCK_REF_S: f64 = 0.000_92;

/// Readings of the clock probe over one run.
#[derive(Default)]
pub struct Clock {
    readings: Vec<f64>,
    last: Option<Instant>,
}

impl Clock {
    fn read(&mut self) {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..black_box(CLOCK_ROUNDS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        }
        black_box(x);
        let now = Instant::now();
        self.readings.push((now - t).as_secs_f64());
        self.last = Some(now);
    }

    fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= CLOCK_EVERY) {
            self.read();
        }
    }

    /// The reading at quantile `q` (nearest rank).
    fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.readings.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, spans: None };
    let mut seen = (false, false, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                seen.0 = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                seen.1 = args.seconds > 0.0;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
                seen.2 = true;
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if seen != (true, true, true) {
        return Err("--seed, a positive --seconds and --trace are required".into());
    }
    Ok(args)
}

/// Checked outputs: each is one attempted operation, and a mismatch is a
/// failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("routebench: check failed: {}", what());
        }
    }
}

/// A finished workload: its checks and its metrics by name.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Wall-clock samples of a workload's units of work, one list per unit.
/// A pass runs the units in the same order every time, so a unit is known
/// by its position in the pass.
#[derive(Default)]
pub struct Units {
    samples: Vec<Vec<f64>>,
    next: usize,
    clock: Clock,
}

impl Units {
    /// Runs one unit of work and records how long it took.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = black_box(work());
        let took = t.elapsed().as_secs_f64();
        if self.next == self.samples.len() {
            self.samples.push(Vec::new());
        }
        self.samples[self.next].push(took);
        self.next += 1;
        self.clock.tick();
        out
    }

    /// The time of one pass with every unit at its fastest.
    fn fastest_pass(&self) -> f64 {
        self.samples.iter().map(|s| min(s)).sum()
    }
}

/// Repeats `setup` for one burst and returns the last input it built.
fn setup_burst<I>(setup: &mut impl FnMut() -> I, samples: &mut Vec<f64>, clock: &mut Clock) -> I {
    let started = Instant::now();
    for rep in 1.. {
        let t = Instant::now();
        let input = black_box(setup());
        samples.push(t.elapsed().as_secs_f64());
        if rep >= SETUP_BURST_MAX || started.elapsed() >= SETUP_BURST {
            clock.tick();
            return input;
        }
    }
    unreachable!("the burst loop only ends by returning")
}

/// The untraced measurement: set-up bursts around passes over the work
/// until another pass would end after `seconds` and at least
/// [`MIN_PASSES`] passes ran.
///
/// The work is deterministic, so host interference only ever adds time.
/// Every unit of a pass is counted at its fastest over the passes, and
/// set-up at its fastest; on a host whose speed drops in spells of a
/// fraction of a second to several seconds, those minimums over samples
/// taken seconds apart are what repeat from run to run. Spells that last
/// minutes slow the core's clock for the whole run, so both times are
/// then scaled to the reference core by the clock probe: its reading at
/// the quantile 1 / (passes + 1), where a unit's fastest of that many
/// passes falls, against [`CLOCK_REF_S`] (see README.md).
pub fn measure<I>(
    seconds: f64,
    mut setup: impl FnMut() -> I,
    mut pass: impl FnMut(&I, &mut Units, &mut Checks),
) -> Outcome {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut units = Units::default();
    let mut checks = Checks::default();
    let mut pass_s: Vec<f64> = Vec::new();
    loop {
        let input = setup_burst(&mut setup, &mut setups, &mut units.clock);
        let ends_at = started.elapsed().as_secs_f64() + pass_s.last().copied().unwrap_or(0.0);
        if pass_s.len() >= MIN_PASSES && ends_at > seconds {
            break;
        }
        units.next = 0;
        let t = Instant::now();
        pass(&input, &mut units, &mut checks);
        pass_s.push(t.elapsed().as_secs_f64());
    }
    let passes = pass_s.len();
    let clock = units.clock.quantile(1.0 / (passes + 1) as f64);
    let scale = CLOCK_REF_S / clock;
    let (wall, setup) = (units.fastest_pass(), min(&setups));
    eprintln!(
        "routebench: {passes} passes of {pass_s:?} s, {} set-ups; fastest pass {wall} s, \
         fastest set-up {setup} s; clock probe {clock} s of {} readings, scale {scale}",
        setups.len(),
        units.clock.readings.len()
    );
    let metrics = BTreeMap::from([
        ("wall_s", wall * scale),
        ("setup_s", setup * scale),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    Outcome { checks, metrics }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `items` in an order drawn from `seed`. The units a workload permutes
/// are independent, so the order changes no result, only the sequence in
/// which caches and the allocator see them.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    items.shuffle(&mut StdRng::seed_from_u64(seed));
    items
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

/// Wall times of a traced run. Every unit of work runs untraced and
/// traced back to back, so that both see the host in the same state and
/// their difference is the cost of tracing.
#[derive(Debug, Default)]
pub struct Paired {
    untraced: Duration,
    traced: Duration,
    attributed_s: f64,
}

impl Paired {
    pub fn untraced<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = black_box(work());
        self.untraced += t.elapsed();
        out
    }

    /// Runs `work` with tracing and adds the time its spans cover.
    pub fn traced<R>(&mut self, tr: &mut Tracer, work: impl FnOnce(&mut Tracer) -> R) -> R {
        let before = tr.attributed_s();
        let t = Instant::now();
        let out = black_box(work(tr));
        self.traced += t.elapsed();
        self.attributed_s += tr.attributed_s() - before;
        out
    }

    pub fn untraced_s(&self) -> f64 {
        self.untraced.as_secs_f64()
    }

    /// The bench-level per-layer metrics: wall times, the time no span
    /// covers, and the cost of tracing.
    pub fn metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        let (untraced, traced) = (self.untraced.as_secs_f64(), self.traced.as_secs_f64());
        let unattributed = traced - self.attributed_s;
        m.insert("bench.untraced_wall_s", untraced);
        m.insert("bench.traced_wall_s", traced);
        m.insert("bench.unattributed_s", unattributed);
        m.insert("bench.unattributed_pct", 100.0 * unattributed / traced);
        m.insert("bench.trace_overhead_pct", 100.0 * (traced / untraced - 1.0));
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return match args.workload.as_str() {
            "explore-reduced" => Ok(explore::REDUCED.untraced(args)),
            "explore-raw" => Ok(explore::RAW.untraced(args)),
            "mc-grid" => mc::grid_untraced(args),
            "mc-tenk" => Ok(mc::tenk_untraced(args)),
            "plan-verify" => Ok(plan::untraced(args)),
            _ => unreachable!("workload names are checked when parsing"),
        };
    }
    let mut tr = Tracer::new();
    let mut outcome = match args.workload.as_str() {
        "explore-reduced" => explore::REDUCED.traced(args, &mut tr),
        "explore-raw" => explore::RAW.traced(args, &mut tr),
        "mc-grid" => mc::grid_traced(args, &mut tr)?,
        "mc-tenk" => mc::tenk_traced(args, &mut tr),
        "plan-verify" => plan::traced(args, &mut tr),
        _ => unreachable!("workload names are checked when parsing"),
    };
    for (name, _) in PER_LAYER {
        outcome.metrics.entry(name).or_insert(0.0);
    }
    if let Some(path) = &args.spans {
        tr.write(path).map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn render(outcome: &Outcome) -> String {
    let units: BTreeMap<&str, &str> = PER_LAYER
        .into_iter()
        .chain([("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")])
        .collect();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.get(name).unwrap_or_else(|| panic!("metric {name} has no unit"));
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("routebench: {e}");
            eprintln!(
                "usage: routebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--spans <file>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("routebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = routelab_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(routelab_obs::JVal::Arr(items)) = doc.get(key) else { panic!("no {key}") };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        assert_eq!(
            listed("end_to_end"),
            ours(&[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")])
        );
        let Some(routelab_obs::JVal::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(|v| v.as_str()).unwrap()).collect();
        let gated: Vec<&str> = WORKLOADS.into_iter().filter(|&w| w != "mc-tenk").collect();
        assert_eq!(names, gated);
    }

    #[test]
    fn a_pass_counts_every_unit_at_its_fastest() {
        let mut units = Units::default();
        for pass in 0..3 {
            units.next = 0;
            // Unit 0 is slow in the first pass, unit 1 in the second.
            let slow = |n| if pass == n { 20 } else { 2 };
            units.time(|| std::thread::sleep(Duration::from_millis(slow(0))));
            units.time(|| std::thread::sleep(Duration::from_millis(slow(1))));
        }
        let wall = units.fastest_pass();
        assert!((0.004..0.015).contains(&wall), "fastest pass {wall}");
        assert!(!units.clock.readings.is_empty());
    }

    #[test]
    fn the_clock_quantile_is_a_nearest_rank() {
        let clock = Clock { readings: vec![5.0, 1.0, 4.0, 2.0, 3.0], last: None };
        assert_eq!(clock.quantile(0.0), 1.0);
        assert_eq!(clock.quantile(0.2), 1.0);
        assert_eq!(clock.quantile(0.25), 2.0);
        assert_eq!(clock.quantile(1.0), 5.0);
    }

    #[test]
    fn measure_stops_at_the_deadline_after_the_minimum_passes() {
        let mut calls = 0;
        let outcome = measure(
            0.0,
            || (),
            |_, units, checks| {
                calls += 1;
                units.time(|| std::thread::sleep(Duration::from_millis(2)));
                checks.record(true, String::new);
            },
        );
        assert_eq!(calls, MIN_PASSES);
        assert_eq!(outcome.checks.attempted, MIN_PASSES as u64);
        assert!(outcome.metrics["wall_s"] > 0.0 && outcome.metrics["setup_s"] > 0.0);
    }
}
