//! Flight recorder: bounded causal event traces for runs and explorations.
//!
//! Where the sink in [`crate::sink`] aggregates *metrics* (counters, spans,
//! histograms), this module records *causal event streams*: which nodes
//! activated at each step, which routes were adopted or withdrawn, and which
//! messages were sent, delivered, or dropped on which channel — plus
//! phase-level timing events from the state-space explorer. The stream is the
//! raw material for `routelab trace explain` (oscillation-cycle
//! reconstruction) and `routelab trace export-chrome` (Chrome `trace_event`
//! timelines).
//!
//! Design rules mirror the sink:
//!
//! - **Disabled is near-free.** Every recording call starts with one relaxed
//!   atomic load ([`trace_enabled`]); nothing allocates until tracing is
//!   enabled (`--trace` flag or `ROUTELAB_TRACE=1`).
//! - **Recording never perturbs results.** Verdicts, state ids, edges, and
//!   witnesses are bit-identical with tracing on or off (enforced by
//!   `crates/explore/tests/trace_differential.rs`).
//! - **Bounded memory.** Events land in a ring buffer (capacity
//!   `ROUTELAB_TRACE_CAP` lines, default 2¹⁸). On overflow the *oldest*
//!   events are evicted — the tail of a divergent run is what diagnosis
//!   needs — and the evicted count is reported in a `tdrop` marker line.
//! - **Crash-tolerant persistence.** [`flush_trace`] rewrites the whole file
//!   (header, drop marker, ring contents) and is idempotent; it runs from
//!   [`crate::shutdown`] so traces survive `std::process::exit`.
//!
//! Wire format (NDJSON, one object per line, discriminated by `t`):
//!
//! ```text
//! {"t":"tmeta","proc":"routelab","pid":4242,"cap":262144}
//! {"t":"tnote","key":"gadget","value":"FIG6"}
//! {"t":"trun","run":0,"ns":1200,"label":"...","nodes":["d","1","2"],"chans":[[1,0],[2,0]]}
//! {"t":"tstep","run":0,"step":7,"ns":3400,"nodes":[1],"pi":[[1,"ε","(1 0)"]],
//!  "sent":[[0,"(1 0)"]],"dlv":[3],"drop":[2]}
//! {"t":"tend","run":0,"ns":9000,"steps":40,"verdict":"cycle","first_seen":8,
//!  "period":16,"oscillating":true}
//! {"t":"tph","name":"expand","ns":5000,"dur_ns":700,"block":3,"args":{"parents":4096}}
//! {"t":"tctr","name":"explore.stepcatalog.hits","ns":9100,"value":12345}
//! {"t":"tdrop","count":120}
//! ```
//!
//! `ns` is monotonic nanoseconds since the recorder was enabled. `tmeta`,
//! `tnote`, and `trun` lines are *header* lines: they are kept outside the
//! ring so run directories (node names, channel endpoints) survive overflow.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::escape_into;

/// Environment variable that enables tracing (`1`/`true`/`yes`/`on`).
pub const TRACE_ENV: &str = "ROUTELAB_TRACE";
/// Environment variable overriding the ring-buffer capacity (in lines).
pub const TRACE_CAP_ENV: &str = "ROUTELAB_TRACE_CAP";
/// Default ring capacity: 2¹⁸ lines (~40 MB worst case at ~150 B/line).
pub const DEFAULT_TRACE_CAP: usize = 1 << 18;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<TraceRecorder> = OnceLock::new();
static NEXT_RUN: AtomicU32 = AtomicU32::new(0);

/// A bounded line buffer: on overflow the oldest line is evicted and counted.
/// Keeping the *newest* events is deliberate — for divergence diagnosis the
/// repeating tail of the run matters, not the prefix.
#[derive(Debug)]
struct EventRing {
    cap: usize,
    dropped: u64,
    buf: VecDeque<String>,
}

impl EventRing {
    fn new(cap: usize) -> Self {
        EventRing { cap: cap.max(1), dropped: 0, buf: VecDeque::new() }
    }

    fn push(&mut self, line: String) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(line);
    }
}

#[derive(Debug)]
struct RecorderState {
    /// Header lines (meta, notes, run directories) — never evicted.
    header: Vec<String>,
    ring: EventRing,
}

/// The process-global flight recorder: a header list plus an `EventRing`,
/// persisted to one NDJSON file by [`flush_trace`].
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    path: PathBuf,
    state: Mutex<RecorderState>,
}

impl TraceRecorder {
    fn push_header(&self, line: String) {
        self.state.lock().unwrap().header.push(line);
    }

    fn push_event(&self, line: String) {
        self.state.lock().unwrap().ring.push(line);
    }
}

/// Whether trace recording is enabled. One relaxed atomic load; inline so the
/// disabled path costs nothing beyond the branch.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the recorder was enabled (0 when disabled).
pub fn trace_now_ns() -> u64 {
    match RECORDER.get() {
        Some(r) => r.epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

/// The trace file path, when tracing has been enabled.
pub fn trace_path() -> Option<PathBuf> {
    RECORDER.get().map(|r| r.path.clone())
}

fn ring_cap_from_env() -> usize {
    match std::env::var(TRACE_CAP_ENV) {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&c| c > 0).unwrap_or(DEFAULT_TRACE_CAP),
        Err(_) => DEFAULT_TRACE_CAP,
    }
}

/// Enables trace recording, writing to `<dir>/traces/<proc>-<pid>.trace.ndjson`.
///
/// Like the metrics sink, enabling is one-way per process; a second call is a
/// no-op that returns the already-chosen path. Returns `None` only if the
/// trace directory cannot be created.
pub fn enable_trace_to_dir(dir: &Path, proc_name: &str) -> Option<PathBuf> {
    let traces = dir.join("traces");
    if std::fs::create_dir_all(&traces).is_err() {
        return None;
    }
    let recorder = RECORDER.get_or_init(|| {
        let pid = std::process::id();
        let path = traces.join(format!("{proc_name}-{pid}.trace.ndjson"));
        let cap = ring_cap_from_env();
        let mut header = Vec::new();
        let mut line = String::new();
        line.push_str("{\"t\":\"tmeta\",\"proc\":");
        escape_into(&mut line, proc_name);
        let _ = write!(line, ",\"pid\":{pid},\"cap\":{cap}}}");
        header.push(line);
        TraceRecorder {
            epoch: Instant::now(),
            path,
            state: Mutex::new(RecorderState { header, ring: EventRing::new(cap) }),
        }
    });
    TRACE_ENABLED.store(true, Ordering::SeqCst);
    Some(recorder.path.clone())
}

/// Enables tracing if [`TRACE_ENV`] is set truthy; returns the trace path
/// when enabled. Binaries call this once at startup (the `--trace` flag calls
/// [`enable_trace_to_dir`] directly).
pub fn init_trace_from_env(proc_name: &str) -> Option<PathBuf> {
    match std::env::var(TRACE_ENV) {
        Ok(v) if crate::truthy(&v) => enable_trace_to_dir(&crate::telemetry_dir(), proc_name),
        _ => None,
    }
}

/// Records a free-form header note (e.g. the gadget and model names a CLI
/// invocation is recording). Notes survive ring overflow.
pub fn trace_note(key: &str, value: &str) {
    if !trace_enabled() {
        return;
    }
    let Some(r) = RECORDER.get() else { return };
    let mut line = String::new();
    line.push_str("{\"t\":\"tnote\",\"key\":");
    escape_into(&mut line, key);
    line.push_str(",\"value\":");
    escape_into(&mut line, value);
    line.push('}');
    r.push_header(line);
}

/// Records an explorer phase event (one timed slice of one pipeline phase).
/// `dur_ns` is the slice duration; the event timestamp is "now", so readers
/// recover the start as `ns - dur_ns`.
pub fn trace_phase(name: &str, dur_ns: u64, block: u64, args: &[(&str, u64)]) {
    if !trace_enabled() {
        return;
    }
    let Some(r) = RECORDER.get() else { return };
    let ns = r.epoch.elapsed().as_nanos() as u64;
    let mut line = String::new();
    line.push_str("{\"t\":\"tph\",\"name\":");
    escape_into(&mut line, name);
    let _ = write!(line, ",\"ns\":{ns},\"dur_ns\":{dur_ns},\"block\":{block}");
    if !args.is_empty() {
        line.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            escape_into(&mut line, k);
            let _ = write!(line, ":{v}");
        }
        line.push('}');
    }
    line.push('}');
    r.push_event(line);
}

/// Records a named point-in-time counter value (e.g. a step-catalog hit
/// total at the end of an exploration).
pub fn trace_counter(name: &str, value: u64) {
    if !trace_enabled() {
        return;
    }
    let Some(r) = RECORDER.get() else { return };
    let ns = r.epoch.elapsed().as_nanos() as u64;
    let mut line = String::new();
    line.push_str("{\"t\":\"tctr\",\"name\":");
    escape_into(&mut line, name);
    let _ = write!(line, ",\"ns\":{ns},\"value\":{value}}}");
    r.push_event(line);
}

/// Everything that happened in one activation step, referencing nodes and
/// channels by the indices declared in the run's `trun` directory line.
#[derive(Debug, Default, Clone)]
pub struct StepRecord<'a> {
    /// Indices of the nodes activated this step.
    pub nodes: &'a [u32],
    /// Route adoptions/withdrawals: `(node, old_route, new_route)`.
    pub pi: &'a [(u32, String, String)],
    /// Messages enqueued: `(channel, route)`.
    pub sent: &'a [(u32, String)],
    /// Channels a message was delivered (read and kept) from.
    pub delivered: &'a [u32],
    /// Channels a message was dropped from.
    pub dropped: &'a [u32],
}

/// A handle for recording one run's causal events; created by
/// [`trace_run_begin`], carried by the engine's `Runner`.
#[derive(Debug, Clone, Copy)]
pub struct RunTrace {
    run: u32,
}

/// Begins a new run trace: allocates a run id and writes the run's directory
/// (label, node names, channel endpoints) to the header. Returns `None` when
/// tracing is disabled so callers can store the handle in an `Option`.
///
/// Run ids are allocated from a process-global counter; under a parallel run
/// pool their *numbering* order is scheduling-dependent (the events of each
/// run are still internally ordered and self-consistent — the ids exist only
/// for diagnosis and never feed back into results).
pub fn trace_run_begin(label: &str, nodes: &[&str], chans: &[(u32, u32)]) -> Option<RunTrace> {
    if !trace_enabled() {
        return None;
    }
    let r = RECORDER.get()?;
    let run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
    let ns = r.epoch.elapsed().as_nanos() as u64;
    let mut line = String::new();
    let _ = write!(line, "{{\"t\":\"trun\",\"run\":{run},\"ns\":{ns},\"label\":");
    escape_into(&mut line, label);
    line.push_str(",\"nodes\":[");
    for (i, name) in nodes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape_into(&mut line, name);
    }
    line.push_str("],\"chans\":[");
    for (i, (from, to)) in chans.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "[{from},{to}]");
    }
    line.push_str("]}");
    r.push_header(line);
    Some(RunTrace { run })
}

impl RunTrace {
    /// This run's id (the `run` field on all of its trace lines).
    pub fn run(&self) -> u32 {
        self.run
    }

    /// Records one step's causal record.
    pub fn step(&self, step: u64, rec: &StepRecord<'_>) {
        if !trace_enabled() {
            return;
        }
        let Some(r) = RECORDER.get() else { return };
        let ns = r.epoch.elapsed().as_nanos() as u64;
        let mut line = String::new();
        let _ = write!(line, "{{\"t\":\"tstep\",\"run\":{},\"step\":{step},\"ns\":{ns}", self.run);
        line.push_str(",\"nodes\":[");
        for (i, v) in rec.nodes.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{v}");
        }
        line.push(']');
        if !rec.pi.is_empty() {
            line.push_str(",\"pi\":[");
            for (i, (v, old, new)) in rec.pi.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{v},");
                escape_into(&mut line, old);
                line.push(',');
                escape_into(&mut line, new);
                line.push(']');
            }
            line.push(']');
        }
        if !rec.sent.is_empty() {
            line.push_str(",\"sent\":[");
            for (i, (c, route)) in rec.sent.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{c},");
                escape_into(&mut line, route);
                line.push(']');
            }
            line.push(']');
        }
        if !rec.delivered.is_empty() {
            line.push_str(",\"dlv\":[");
            for (i, c) in rec.delivered.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{c}");
            }
            line.push(']');
        }
        if !rec.dropped.is_empty() {
            line.push_str(",\"drop\":[");
            for (i, c) in rec.dropped.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{c}");
            }
            line.push(']');
        }
        line.push('}');
        r.push_event(line);
    }

    /// Records the run's outcome. `first_seen`/`period`/`oscillating` are
    /// present only for cycle verdicts.
    pub fn end(
        &self,
        verdict: &str,
        steps: u64,
        first_seen: Option<u64>,
        period: Option<u64>,
        oscillating: Option<bool>,
    ) {
        if !trace_enabled() {
            return;
        }
        let Some(r) = RECORDER.get() else { return };
        let ns = r.epoch.elapsed().as_nanos() as u64;
        let mut line = String::new();
        let _ = write!(line, "{{\"t\":\"tend\",\"run\":{},\"ns\":{ns},\"steps\":{steps}", self.run);
        line.push_str(",\"verdict\":");
        escape_into(&mut line, verdict);
        if let Some(f) = first_seen {
            let _ = write!(line, ",\"first_seen\":{f}");
        }
        if let Some(p) = period {
            let _ = write!(line, ",\"period\":{p}");
        }
        if let Some(o) = oscillating {
            let _ = write!(line, ",\"oscillating\":{o}");
        }
        line.push('}');
        r.push_event(line);
    }
}

/// Persists the recorded trace: rewrites the trace file with the header
/// lines, a `tdrop` marker when the ring overflowed, and the ring contents
/// (oldest first). Idempotent — the ring is not cleared — and called from
/// [`crate::shutdown`] so explicit-exit binaries keep their traces.
pub fn flush_trace() {
    let Some(r) = RECORDER.get() else { return };
    let state = r.state.lock().unwrap();
    let mut out = String::new();
    for line in &state.header {
        out.push_str(line);
        out.push('\n');
    }
    if state.ring.dropped > 0 {
        let _ = writeln!(out, "{{\"t\":\"tdrop\",\"count\":{}}}", state.ring.dropped);
    }
    for line in &state.ring.buf {
        out.push_str(line);
        out.push('\n');
    }
    // Write-then-rename would be more atomic, but the file lives in a
    // results directory on one filesystem and a torn tail is tolerated by
    // every reader (`obs summarize` and the trace parser both skip a
    // truncated final line) — plain truncate+write keeps it simple.
    if let Ok(mut f) = std::fs::File::create(&r.path) {
        let _ = f.write_all(out.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_json, JVal};

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(format!("line{i}"));
        }
        assert_eq!(ring.dropped, 2);
        let kept: Vec<&str> = ring.buf.iter().map(|s| s.as_str()).collect();
        assert_eq!(kept, ["line2", "line3", "line4"], "newest lines must survive");
        // Exactly at capacity: nothing dropped.
        let mut ring = EventRing::new(2);
        ring.push("a".into());
        ring.push("b".into());
        assert_eq!(ring.dropped, 0);
        assert_eq!(ring.buf.len(), 2);
        // Degenerate capacity clamps to 1.
        let mut ring = EventRing::new(0);
        ring.push("a".into());
        ring.push("b".into());
        assert_eq!((ring.cap, ring.dropped, ring.buf.len()), (1, 1, 1));
    }

    // Enabling the recorder is one-way per process, so the full
    // enable → record → flush → parse round trip lives in one test.
    #[test]
    fn end_to_end_round_trip() {
        let dir = std::env::temp_dir().join(format!("routelab-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Disabled: everything is a no-op.
        assert!(!trace_enabled());
        assert!(trace_run_begin("early", &["a"], &[]).is_none());
        trace_note("k", "v");
        trace_phase("expand", 10, 0, &[]);
        flush_trace();
        assert!(!dir.exists());

        let path = enable_trace_to_dir(&dir, "unit-test").expect("enable");
        assert!(trace_enabled());
        assert_eq!(enable_trace_to_dir(&dir, "other"), Some(path.clone()));

        trace_note("gadget", "FIG6 \"q\"\n😀");
        let rt = trace_run_begin("demo run", &["d", "n\\1", "π-node"], &[(1, 0), (2, 0), (1, 2)])
            .expect("run begin");
        rt.step(
            0,
            &StepRecord {
                nodes: &[1, 2],
                pi: &[(1, "ε".into(), "(1 0) \u{1}".into())],
                sent: &[(0, "(1 0)".into())],
                delivered: &[2],
                dropped: &[1],
            },
        );
        rt.step(1, &StepRecord::default());
        rt.end("cycle", 2, Some(0), Some(2), Some(true));
        trace_phase("dedup", 1234, 7, &[("hits", 42), ("candidates", 50)]);
        trace_counter("explore.stepcatalog.hits", 99);
        flush_trace();
        // Flush twice: idempotent.
        flush_trace();

        let content = std::fs::read_to_string(&path).expect("trace written");
        let lines: Vec<JVal> = content
            .lines()
            .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
            .collect();
        let tag = |v: &JVal| v.get("t").and_then(JVal::as_str).unwrap().to_string();
        let tags: Vec<String> = lines.iter().map(&tag).collect();
        // Header lines (meta, note, run directory) come first, then events.
        assert_eq!(tags, ["tmeta", "tnote", "trun", "tstep", "tstep", "tend", "tph", "tctr"]);

        let note = &lines[1];
        assert_eq!(note.get("value").and_then(JVal::as_str), Some("FIG6 \"q\"\n😀"));
        let run = &lines[2];
        let JVal::Arr(nodes) = run.get("nodes").unwrap() else { panic!() };
        assert_eq!(nodes[2].as_str(), Some("π-node"));
        let step = &lines[3];
        let JVal::Arr(pi) = step.get("pi").unwrap() else { panic!() };
        let JVal::Arr(entry) = &pi[0] else { panic!() };
        assert_eq!(entry[1].as_str(), Some("ε"));
        assert_eq!(entry[2].as_str(), Some("(1 0) \u{1}"));
        let end = &lines[5];
        assert_eq!(end.get("verdict").and_then(JVal::as_str), Some("cycle"));
        assert_eq!(end.get("period").and_then(JVal::as_u64), Some(2));
        assert_eq!(end.get("oscillating"), Some(&JVal::Bool(true)));
        let ph = &lines[6];
        assert_eq!(ph.get("args").and_then(|a| a.get("hits")).and_then(JVal::as_u64), Some(42));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
