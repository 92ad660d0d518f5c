//! Flight-recorder trace analysis.
//!
//! The read side of `routelab_obs::trace`: parse a `*.trace.ndjson` file
//! back into typed events ([`parse_trace`]), reconstruct the oscillation
//! cycle of a divergent run ([`oscillation_cycle`] / [`render_explain`]),
//! and export the whole trace — runs and explorer phases — as Chrome
//! `trace_event` JSON ([`export_chrome`]) viewable in `chrome://tracing` or
//! Perfetto.
//!
//! Time bases in the Chrome export: explorer phase events keep their real
//! recorded nanoseconds (scaled to microseconds). Run step events use a
//! synthetic timeline of 10 µs per activation step — steps are logical time,
//! and a fixed pitch renders the repeating pattern legibly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use routelab_obs::{escape_json, parse_json, JVal};

/// One activation step's causal record, indices resolved against the owning
/// run's directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepEvent {
    /// Step index within the run (0-based).
    pub step: u64,
    /// Recording timestamp (ns since trace enable).
    pub ns: u64,
    /// Activated node indices.
    pub nodes: Vec<u32>,
    /// Route changes `(node, old, new)` (ε is the empty route).
    pub pi: Vec<(u32, String, String)>,
    /// Messages enqueued `(channel, route)`.
    pub sent: Vec<(u32, String)>,
    /// Channels a message was delivered from.
    pub delivered: Vec<u32>,
    /// Channels a message was dropped from.
    pub dropped: Vec<u32>,
}

/// A run's recorded verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndEvent {
    /// `converged` / `cycle` / `exhausted` / `step-limit`.
    pub verdict: String,
    /// Total steps executed.
    pub steps: u64,
    /// Cycle start (cycle verdicts only).
    pub first_seen: Option<u64>,
    /// Cycle length (cycle verdicts only).
    pub period: Option<u64>,
    /// Whether π changes within the cycle (cycle verdicts only).
    pub oscillating: Option<bool>,
}

/// One recorded run: directory plus its event stream.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Human label from the run's `trun` line.
    pub label: String,
    /// Node names, indexed by node id.
    pub nodes: Vec<String>,
    /// Channel endpoints `(from, to)` as node indices, indexed by channel id.
    pub chans: Vec<(u32, u32)>,
    /// Step records in recording order (possibly a suffix, after overflow).
    pub steps: Vec<StepEvent>,
    /// The verdict, when the run completed inside the ring.
    pub end: Option<EndEvent>,
}

impl RunInfo {
    fn node_name(&self, v: u32) -> String {
        self.nodes.get(v as usize).cloned().unwrap_or_else(|| format!("#{v}"))
    }

    fn chan_name(&self, c: u32) -> String {
        match self.chans.get(c as usize) {
            Some(&(f, t)) => format!("{}→{}", self.node_name(f), self.node_name(t)),
            None => format!("ch{c}"),
        }
    }
}

/// An explorer pipeline phase slice.
#[derive(Debug, Clone, Default)]
pub struct PhaseEvent {
    /// Phase name (`expand`, `route`, `dedup`, `merge`, `publish`).
    pub name: String,
    /// End timestamp (ns since trace enable); start is `ns - dur_ns`.
    pub ns: u64,
    /// Slice duration.
    pub dur_ns: u64,
    /// Frontier block index.
    pub block: u64,
    /// Phase-specific counters (`parents`, `candidates`, `hits`, `interned`).
    pub args: Vec<(String, u64)>,
}

/// A whole parsed trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// Recording process name.
    pub proc: String,
    /// Header notes (e.g. `gadget`, `model` from `routelab trace record`).
    pub notes: BTreeMap<String, String>,
    /// Runs by run id.
    pub runs: BTreeMap<u32, RunInfo>,
    /// Explorer phase slices in recording order.
    pub phases: Vec<PhaseEvent>,
    /// Point counters `(name, ns, value)` in recording order.
    pub counters: Vec<(String, u64, u64)>,
    /// Events evicted from the ring before persistence.
    pub dropped: u64,
}

fn ju(v: &JVal, key: &str) -> Option<u64> {
    v.get(key).and_then(JVal::as_u64)
}

fn ju32_list(v: &JVal, key: &str) -> Vec<u32> {
    match v.get(key) {
        Some(JVal::Arr(items)) => {
            items.iter().filter_map(|i| i.as_u64()).map(|n| n as u32).collect()
        }
        _ => Vec::new(),
    }
}

/// Parses a trace file's NDJSON content. Unknown tags are skipped (forward
/// compatibility); a truncated final line (no trailing newline, unparsable)
/// is tolerated like `obs summarize` does. Errors only when the content
/// contains no trace header at all — i.e. it is not a flight-recorder file.
pub fn parse_trace(content: &str) -> Result<TraceFile, String> {
    let mut tf = TraceFile::default();
    let mut saw_meta = false;
    let complete = content.is_empty() || content.ends_with('\n');
    let mut lines = content.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match parse_json(line) {
            Ok(v) => v,
            Err(e) => {
                if lines.peek().is_none() && !complete {
                    break; // truncated tail: writer killed mid-write
                }
                return Err(format!("malformed trace line {line:?}: {e}"));
            }
        };
        match v.get("t").and_then(JVal::as_str).unwrap_or("") {
            "tmeta" => {
                saw_meta = true;
                tf.proc = v.get("proc").and_then(JVal::as_str).unwrap_or("").to_string();
            }
            "tnote" => {
                if let (Some(k), Some(val)) =
                    (v.get("key").and_then(JVal::as_str), v.get("value").and_then(JVal::as_str))
                {
                    tf.notes.insert(k.to_string(), val.to_string());
                }
            }
            "trun" => {
                let Some(run) = ju(&v, "run") else { continue };
                let info = tf.runs.entry(run as u32).or_default();
                info.label = v.get("label").and_then(JVal::as_str).unwrap_or("").to_string();
                if let Some(JVal::Arr(names)) = v.get("nodes") {
                    info.nodes =
                        names.iter().filter_map(|n| n.as_str().map(str::to_string)).collect();
                }
                if let Some(JVal::Arr(chans)) = v.get("chans") {
                    info.chans = chans
                        .iter()
                        .filter_map(|c| match c {
                            JVal::Arr(ft) if ft.len() == 2 => {
                                Some((ft[0].as_u64()? as u32, ft[1].as_u64()? as u32))
                            }
                            _ => None,
                        })
                        .collect();
                }
            }
            "tstep" => {
                let Some(run) = ju(&v, "run") else { continue };
                let mut ev = StepEvent {
                    step: ju(&v, "step").unwrap_or(0),
                    ns: ju(&v, "ns").unwrap_or(0),
                    nodes: ju32_list(&v, "nodes"),
                    sent: Vec::new(),
                    pi: Vec::new(),
                    delivered: ju32_list(&v, "dlv"),
                    dropped: ju32_list(&v, "drop"),
                };
                if let Some(JVal::Arr(pi)) = v.get("pi") {
                    for entry in pi {
                        if let JVal::Arr(e) = entry {
                            if let (Some(n), Some(old), Some(new)) = (
                                e.first().and_then(JVal::as_u64),
                                e.get(1).and_then(JVal::as_str),
                                e.get(2).and_then(JVal::as_str),
                            ) {
                                ev.pi.push((n as u32, old.to_string(), new.to_string()));
                            }
                        }
                    }
                }
                if let Some(JVal::Arr(sent)) = v.get("sent") {
                    for entry in sent {
                        if let JVal::Arr(e) = entry {
                            if let (Some(c), Some(route)) =
                                (e.first().and_then(JVal::as_u64), e.get(1).and_then(JVal::as_str))
                            {
                                ev.sent.push((c as u32, route.to_string()));
                            }
                        }
                    }
                }
                tf.runs.entry(run as u32).or_default().steps.push(ev);
            }
            "tend" => {
                let Some(run) = ju(&v, "run") else { continue };
                tf.runs.entry(run as u32).or_default().end = Some(EndEvent {
                    verdict: v.get("verdict").and_then(JVal::as_str).unwrap_or("").to_string(),
                    steps: ju(&v, "steps").unwrap_or(0),
                    first_seen: ju(&v, "first_seen"),
                    period: ju(&v, "period"),
                    oscillating: match v.get("oscillating") {
                        Some(JVal::Bool(b)) => Some(*b),
                        _ => None,
                    },
                });
            }
            "tph" => {
                let mut args = Vec::new();
                if let Some(JVal::Obj(pairs)) = v.get("args") {
                    for (k, val) in pairs {
                        if let Some(n) = val.as_u64() {
                            args.push((k.clone(), n));
                        }
                    }
                }
                tf.phases.push(PhaseEvent {
                    name: v.get("name").and_then(JVal::as_str).unwrap_or("").to_string(),
                    ns: ju(&v, "ns").unwrap_or(0),
                    dur_ns: ju(&v, "dur_ns").unwrap_or(0),
                    block: ju(&v, "block").unwrap_or(0),
                    args,
                });
            }
            "tctr" => {
                if let Some(name) = v.get("name").and_then(JVal::as_str) {
                    tf.counters.push((
                        name.to_string(),
                        ju(&v, "ns").unwrap_or(0),
                        ju(&v, "value").unwrap_or(0),
                    ));
                }
            }
            "tdrop" => tf.dropped += ju(&v, "count").unwrap_or(0),
            _ => {} // unknown tag: skip
        }
    }
    if !saw_meta {
        return Err("not a flight-recorder trace (no tmeta header line)".to_string());
    }
    Ok(tf)
}

/// The reconstructed repeating pattern of a divergent run.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// The diagnosed run's id.
    pub run: u32,
    /// Step index where the periodic regime starts.
    pub first_seen: u64,
    /// Cycle length in steps.
    pub period: u64,
    /// The cycle's step records, in order.
    pub steps: Vec<StepEvent>,
    /// Route adoptions within one period as `(node name, new route)` —
    /// the channel/route pattern to check against the explorer's witness.
    pub pi_changes: std::collections::BTreeSet<(String, String)>,
}

/// A step's repetition signature: everything except the wall-clock stamp.
type StepSig<'a> =
    (&'a [u32], &'a [(u32, String, String)], &'a [(u32, String)], &'a [u32], &'a [u32]);

fn step_sig(s: &StepEvent) -> StepSig<'_> {
    (&s.nodes, &s.pi, &s.sent, &s.delivered, &s.dropped)
}

/// Reconstructs the oscillation cycle from the trace: picks the latest run
/// with an oscillating-cycle verdict (the replay a `trace record` invocation
/// performs last) and slices its periodic tail. When the verdict line carries
/// `first_seen`/`period` those bounds are used; otherwise (e.g. the end event
/// was evicted) the smallest period whose last two occurrences repeat
/// verbatim is inferred from the step stream itself.
pub fn oscillation_cycle(tf: &TraceFile) -> Result<CycleReport, String> {
    let (run_id, run) = tf
        .runs
        .iter()
        .rev()
        .find(|(_, r)| {
            r.end.as_ref().is_some_and(|e| e.verdict == "cycle" && e.oscillating == Some(true))
        })
        .or_else(|| tf.runs.iter().rev().find(|(_, r)| !r.steps.is_empty()))
        .ok_or("trace contains no runs with step records")?;

    let end = run.end.as_ref();
    if end.is_some_and(|e| e.verdict != "cycle") {
        return Err(format!(
            "run {run_id} did not diverge (verdict: {})",
            end.map(|e| e.verdict.as_str()).unwrap_or("missing")
        ));
    }
    let (first_seen, period) = match end.and_then(|e| Some((e.first_seen?, e.period?))) {
        Some((f, p)) if p > 0 => (f, p),
        _ => infer_period(&run.steps).ok_or_else(|| {
            format!("run {run_id} has no cycle verdict and no repeating step pattern")
        })?,
    };

    let steps: Vec<StepEvent> = run
        .steps
        .iter()
        .filter(|s| s.step >= first_seen && s.step < first_seen + period)
        .cloned()
        .collect();
    if steps.is_empty() {
        return Err(format!(
            "run {run_id}: cycle window [{first_seen}, {}) has no recorded steps \
             (ring overflow dropped {} events — raise ROUTELAB_TRACE_CAP)",
            first_seen + period,
            tf.dropped
        ));
    }
    let mut pi_changes = std::collections::BTreeSet::new();
    for s in &steps {
        for (v, _, new) in &s.pi {
            pi_changes.insert((run.node_name(*v), new.clone()));
        }
    }
    Ok(CycleReport { run: *run_id, first_seen, period, steps, pi_changes })
}

/// Infers `(first_seen, period)` from a raw step stream: the smallest period
/// `p` whose last two windows of length `p` repeat verbatim, with a π change
/// inside the window (a genuine oscillation, not quiescent churn).
fn infer_period(steps: &[StepEvent]) -> Option<(u64, u64)> {
    let n = steps.len();
    for p in 1..=n / 2 {
        let (a, b) = (&steps[n - 2 * p..n - p], &steps[n - p..]);
        let matches = a.iter().zip(b).all(|(x, y)| step_sig(x) == step_sig(y));
        if matches && b.iter().any(|s| !s.pi.is_empty()) {
            return Some((steps[n - p..].first()?.step, p as u64));
        }
    }
    None
}

/// Renders the human diagnosis: which run diverged, the repeating pattern,
/// one line per cycle step.
pub fn render_explain(tf: &TraceFile, report: &CycleReport) -> String {
    let run = &tf.runs[&report.run];
    let mut out = String::new();
    for key in ["gadget", "model"] {
        if let Some(v) = tf.notes.get(key) {
            let _ = writeln!(out, "{key}: {v}");
        }
    }
    let _ = writeln!(out, "run {}: {}", report.run, run.label);
    if tf.dropped > 0 {
        let _ = writeln!(out, "note: ring overflow dropped {} event(s)", tf.dropped);
    }
    let _ = writeln!(
        out,
        "oscillation cycle: period {} step(s), entered at step {}",
        report.period, report.first_seen
    );
    for s in &report.steps {
        let names: Vec<String> = s.nodes.iter().map(|&v| run.node_name(v)).collect();
        let _ = write!(out, "  [{:>4}] activate {}", s.step, names.join(","));
        for (v, old, new) in &s.pi {
            let _ = write!(out, "; π({}) {old} → {new}", run.node_name(*v));
        }
        for (c, route) in &s.sent {
            let _ = write!(out, "; send {route} on {}", run.chan_name(*c));
        }
        for &c in &s.delivered {
            let _ = write!(out, "; deliver {}", run.chan_name(c));
        }
        for &c in &s.dropped {
            let _ = write!(out, "; drop {}", run.chan_name(c));
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "route adoptions per period: {}",
        report.pi_changes.iter().map(|(v, r)| format!("{v}←{r}")).collect::<Vec<_>>().join(" ")
    );
    out
}

/// Microseconds per activation step on the synthetic run timeline.
const STEP_PITCH_US: f64 = 10.0;

struct ChromeOut {
    out: String,
    first: bool,
}

impl ChromeOut {
    fn new() -> Self {
        ChromeOut { out: String::from("{\"traceEvents\":[\n"), first: true }
    }

    /// Appends one event object; `fields` is pre-rendered JSON members.
    fn push(&mut self, fields: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(fields);
        self.out.push('}');
    }

    fn meta(&mut self, pid: u64, tid: u64, what: &str, name: &str) {
        let mut f = String::new();
        let _ = write!(f, "\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":");
        escape_json(&mut f, what);
        f.push_str(",\"args\":{\"name\":");
        escape_json(&mut f, name);
        f.push_str("}}");
        f.pop(); // keep only the args closing brace
        self.push(&f);
    }

    fn complete(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: f64, dur: f64) {
        let mut f = String::new();
        f.push_str("\"ph\":\"X\",\"name\":");
        escape_json(&mut f, name);
        f.push_str(",\"cat\":");
        escape_json(&mut f, cat);
        let _ = write!(f, ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3}");
        self.push(&f);
    }

    fn instant(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: f64) {
        let mut f = String::new();
        f.push_str("\"ph\":\"i\",\"s\":\"t\",\"name\":");
        escape_json(&mut f, name);
        f.push_str(",\"cat\":");
        escape_json(&mut f, cat);
        let _ = write!(f, ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3}");
        self.push(&f);
    }

    fn counter(&mut self, pid: u64, name: &str, ts: f64, value: u64) {
        let mut f = String::new();
        f.push_str("\"ph\":\"C\",\"name\":");
        escape_json(&mut f, name);
        let _ = write!(f, ",\"pid\":{pid},\"tid\":0,\"ts\":{ts:.3},\"args\":{{\"value\":{value}}}");
        self.push(&f);
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Explorer events render under this pid; runs under `RUN_PID_BASE + run`.
const EXPLORER_PID: u64 = 1;
const RUN_PID_BASE: u64 = 100;

/// Exports the trace as Chrome `trace_event` JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper), loadable in `chrome://tracing` and
/// Perfetto. Every run becomes a process with one thread per node and one
/// per channel; explorer phases become one `explorer` process with per-phase
/// complete events and counters.
pub fn export_chrome(tf: &TraceFile) -> String {
    let mut c = ChromeOut::new();

    if !tf.phases.is_empty() || !tf.counters.is_empty() {
        c.meta(EXPLORER_PID, 0, "process_name", &format!("explorer ({})", tf.proc));
        c.meta(EXPLORER_PID, 1, "thread_name", "frontier pipeline");
        for p in &tf.phases {
            let start = p.ns.saturating_sub(p.dur_ns) as f64 / 1e3;
            let name = format!("{} #{}", p.name, p.block);
            c.complete(EXPLORER_PID, 1, &name, "explorer", start, p.dur_ns as f64 / 1e3);
        }
        for (name, ns, value) in &tf.counters {
            c.counter(EXPLORER_PID, name, *ns as f64 / 1e3, *value);
        }
    }

    for (run_id, run) in &tf.runs {
        let pid = RUN_PID_BASE + *run_id as u64;
        c.meta(pid, 0, "process_name", &format!("run {run_id}: {}", run.label));
        for (v, name) in run.nodes.iter().enumerate() {
            c.meta(pid, v as u64 + 1, "thread_name", &format!("node {name}"));
        }
        let chan_tid = |ci: u32| run.nodes.len() as u64 + 1 + ci as u64;
        for ci in 0..run.chans.len() {
            c.meta(
                pid,
                chan_tid(ci as u32),
                "thread_name",
                &format!("chan {}", run.chan_name(ci as u32)),
            );
        }
        for s in &run.steps {
            let ts = s.step as f64 * STEP_PITCH_US;
            for &v in &s.nodes {
                c.complete(
                    pid,
                    v as u64 + 1,
                    &format!("step {}", s.step),
                    "activation",
                    ts,
                    STEP_PITCH_US * 0.8,
                );
            }
            for (v, old, new) in &s.pi {
                c.instant(
                    pid,
                    *v as u64 + 1,
                    &format!("π {old} → {new}"),
                    "route",
                    ts + STEP_PITCH_US * 0.4,
                );
            }
            for (ci, route) in &s.sent {
                c.instant(
                    pid,
                    chan_tid(*ci),
                    &format!("send {route}"),
                    "msg",
                    ts + STEP_PITCH_US * 0.2,
                );
            }
            for &ci in &s.delivered {
                c.instant(pid, chan_tid(ci), "deliver", "msg", ts + STEP_PITCH_US * 0.6);
            }
            for &ci in &s.dropped {
                c.instant(pid, chan_tid(ci), "drop ✗", "msg", ts + STEP_PITCH_US * 0.6);
            }
        }
        if let Some(end) = &run.end {
            let ts = end.steps as f64 * STEP_PITCH_US;
            let name = match (&end.first_seen, &end.period) {
                (Some(f), Some(p)) => {
                    format!("verdict: {} (first_seen={f}, period={p})", end.verdict)
                }
                _ => format!("verdict: {}", end.verdict),
            };
            c.instant(pid, 0, &name, "verdict", ts);
        }
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written trace exercising the documented wire format: one
    /// divergent run of period 2 plus explorer phases, with hostile strings.
    const SAMPLE: &str = concat!(
        "{\"t\":\"tmeta\",\"proc\":\"routelab\",\"pid\":7,\"cap\":1024}\n",
        "{\"t\":\"tnote\",\"key\":\"gadget\",\"value\":\"DISAGREE\"}\n",
        "{\"t\":\"tnote\",\"key\":\"model\",\"value\":\"R1O\"}\n",
        "{\"t\":\"trun\",\"run\":0,\"ns\":10,\"label\":\"3 nodes, dest d\",",
        "\"nodes\":[\"d\",\"x\",\"y \\\"q\\\"\"],\"chans\":[[0,1],[0,2],[1,2],[2,1]]}\n",
        "{\"t\":\"tstep\",\"run\":0,\"step\":0,\"ns\":20,\"nodes\":[1],",
        "\"pi\":[[1,\"ε\",\"xd\"]],\"sent\":[[2,\"xd\"]],\"dlv\":[0]}\n",
        "{\"t\":\"tstep\",\"run\":0,\"step\":1,\"ns\":30,\"nodes\":[2],",
        "\"pi\":[[2,\"yxd\",\"yd\"]],\"sent\":[[3,\"yd\"]],\"dlv\":[2],\"drop\":[1]}\n",
        "{\"t\":\"tstep\",\"run\":0,\"step\":2,\"ns\":40,\"nodes\":[1],",
        "\"pi\":[[1,\"xd\",\"ε\"]],\"sent\":[[2,\"xd\"]],\"dlv\":[0]}\n",
        "{\"t\":\"tstep\",\"run\":0,\"step\":3,\"ns\":50,\"nodes\":[2],",
        "\"pi\":[[2,\"yd\",\"yxd\"]],\"sent\":[[3,\"yd\"]],\"dlv\":[2],\"drop\":[1]}\n",
        "{\"t\":\"tend\",\"run\":0,\"ns\":60,\"steps\":4,\"verdict\":\"cycle\",",
        "\"first_seen\":2,\"period\":2,\"oscillating\":true}\n",
        "{\"t\":\"tph\",\"name\":\"expand\",\"ns\":5000,\"dur_ns\":700,\"block\":0,",
        "\"args\":{\"parents\":1}}\n",
        "{\"t\":\"tph\",\"name\":\"merge\",\"ns\":9000,\"dur_ns\":300,\"block\":0,",
        "\"args\":{\"interned\":5}}\n",
        "{\"t\":\"tctr\",\"name\":\"explore.stepcatalog.hits\",\"ns\":9500,\"value\":12}\n",
    );

    #[test]
    fn parses_the_documented_wire_format() {
        let tf = parse_trace(SAMPLE).unwrap();
        assert_eq!(tf.proc, "routelab");
        assert_eq!(tf.notes["gadget"], "DISAGREE");
        assert_eq!(tf.notes["model"], "R1O");
        let run = &tf.runs[&0];
        assert_eq!(run.nodes, vec!["d", "x", "y \"q\""]);
        assert_eq!(run.chans.len(), 4);
        assert_eq!(run.steps.len(), 4);
        assert_eq!(run.steps[1].pi, vec![(2, "yxd".into(), "yd".into())]);
        assert_eq!(run.steps[1].dropped, vec![1]);
        let end = run.end.as_ref().unwrap();
        assert_eq!((end.first_seen, end.period), (Some(2), Some(2)));
        assert_eq!(tf.phases.len(), 2);
        assert_eq!(tf.phases[1].args, vec![("interned".into(), 5)]);
        assert_eq!(tf.counters, vec![("explore.stepcatalog.hits".into(), 9500, 12)]);
    }

    #[test]
    fn truncated_tail_is_tolerated_but_garbage_is_not() {
        let cut = &SAMPLE[..SAMPLE.len() - 30]; // mid-line, no trailing newline
        let tf = parse_trace(cut).unwrap();
        assert_eq!(tf.runs[&0].steps.len(), 4);
        assert!(parse_trace("{\"t\":\"tmeta\",\"proc\":\"p\",\"pid\":1}\nnope\n{}\n").is_err());
        assert!(parse_trace("").is_err(), "no tmeta → not a trace");
    }

    #[test]
    fn explains_the_cycle_from_the_verdict_bounds() {
        let tf = parse_trace(SAMPLE).unwrap();
        let report = oscillation_cycle(&tf).unwrap();
        assert_eq!((report.run, report.first_seen, report.period), (0, 2, 2));
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.steps[0].step, 2);
        let changes: Vec<(String, String)> = report.pi_changes.iter().cloned().collect();
        assert_eq!(changes, vec![("x".into(), "ε".into()), ("y \"q\"".into(), "yxd".into())]);
        let text = render_explain(&tf, &report);
        assert!(text.contains("gadget: DISAGREE"), "{text}");
        assert!(text.contains("oscillation cycle: period 2 step(s), entered at step 2"), "{text}");
        assert!(text.contains("π(x) xd → ε"), "{text}");
        assert!(text.contains("drop d→y \"q\""), "{text}");
    }

    #[test]
    fn infers_the_period_when_the_end_event_is_missing() {
        // No tend line at all (e.g. evicted by ring overflow): diagnosis must
        // fall back to detecting the verbatim-repeating suffix. Steps 1/2
        // repeat as 3/4 → period 2 entered at step 3's window start.
        let trace = concat!(
            "{\"t\":\"tmeta\",\"proc\":\"p\",\"pid\":1,\"cap\":16}\n",
            "{\"t\":\"trun\",\"run\":0,\"ns\":1,\"label\":\"l\",",
            "\"nodes\":[\"d\",\"x\",\"y\"],\"chans\":[[0,1],[1,2]]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":0,\"ns\":2,\"nodes\":[0],\"sent\":[[0,\"d\"]]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":1,\"ns\":3,\"nodes\":[1],",
            "\"pi\":[[1,\"ε\",\"xd\"]],\"dlv\":[0]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":2,\"ns\":4,\"nodes\":[2],\"drop\":[1]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":3,\"ns\":5,\"nodes\":[1],",
            "\"pi\":[[1,\"ε\",\"xd\"]],\"dlv\":[0]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":4,\"ns\":6,\"nodes\":[2],\"drop\":[1]}\n",
        );
        let tf = parse_trace(trace).unwrap();
        let report = oscillation_cycle(&tf).unwrap();
        assert_eq!((report.first_seen, report.period), (3, 2));
        assert_eq!(report.steps.len(), 2);
    }

    #[test]
    fn converged_runs_are_not_explained() {
        let converged = concat!(
            "{\"t\":\"tmeta\",\"proc\":\"p\",\"pid\":1,\"cap\":16}\n",
            "{\"t\":\"trun\",\"run\":0,\"ns\":1,\"label\":\"l\",\"nodes\":[\"d\"],\"chans\":[]}\n",
            "{\"t\":\"tstep\",\"run\":0,\"step\":0,\"ns\":2,\"nodes\":[0]}\n",
            "{\"t\":\"tend\",\"run\":0,\"ns\":3,\"steps\":1,\"verdict\":\"converged\"}\n",
        );
        let tf = parse_trace(converged).unwrap();
        let err = oscillation_cycle(&tf).unwrap_err();
        assert!(err.contains("did not diverge"), "{err}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_events() {
        let tf = parse_trace(SAMPLE).unwrap();
        let json = export_chrome(&tf);
        let v = parse_json(&json).unwrap_or_else(|e| panic!("chrome export must parse: {e}"));
        let JVal::Arr(events) = v.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty());
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(JVal::as_str)).collect();
        assert!(names.contains(&"process_name"), "{names:?}");
        assert!(names.contains(&"expand #0"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("π ")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("send xd")), "{names:?}");
        assert!(names.contains(&"verdict: cycle (first_seen=2, period=2)"), "{names:?}");
        // Hostile node name survives the double escape (NDJSON → Chrome).
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JVal::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(JVal::as_str))
            .collect();
        assert!(thread_names.contains(&"node y \"q\""), "{thread_names:?}");
        // Every event has the mandatory fields.
        for e in events {
            assert!(e.get("ph").is_some() && e.get("pid").is_some(), "{e:?}");
        }
    }
}
