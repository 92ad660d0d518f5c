//! The global telemetry sink and thread-local buffers.
//!
//! Write path: instrumentation calls land in a thread-local `LocalBuf`
//! (plain `Vec` pushes, no locks, no syscalls). When a buffer fills — or a
//! thread exits, or someone calls [`flush`] — the buffered events are encoded
//! into an NDJSON chunk and pushed onto a lock-free Treiber stack shared by
//! all threads. Draining (on flush/shutdown/heartbeat) swaps the stack head,
//! reverses the chunks back into push order, and appends them to the log
//! file; only drainers contend on the file mutex, never the hot path.
//!
//! The sink is disabled by default and enabling is one-way for the process
//! lifetime: a single relaxed atomic load guards every instrumentation call,
//! so a build with telemetry compiled in but not enabled pays one branch.

use std::cell::RefCell;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::{Event, FieldVal};
use crate::hist::LogHistogram;

/// Flush a thread-local buffer once it holds this many span/counter events.
const LOCAL_FLUSH_THRESHOLD: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static QUIET: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<Sink> = OnceLock::new();

struct Chunk {
    data: String,
    next: *mut Chunk,
}

/// Lock-free multi-producer chunk stack (Treiber stack). Producers only push;
/// the drain path detaches the whole list with one swap.
struct ChunkStack {
    head: AtomicPtr<Chunk>,
}

// Chunk pointers are only ever owned by the stack (push moves the Box in,
// drain takes them all back out), so sending them across threads is sound.
unsafe impl Send for ChunkStack {}
unsafe impl Sync for ChunkStack {}

impl ChunkStack {
    const fn new() -> Self {
        ChunkStack { head: AtomicPtr::new(ptr::null_mut()) }
    }

    fn push(&self, data: String) {
        let node = Box::into_raw(Box::new(Chunk { data, next: ptr::null_mut() }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            unsafe { (*node).next = head };
            match self.head.compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Detaches every pushed chunk, returned oldest-first.
    fn drain(&self) -> Vec<String> {
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut out = Vec::new();
        while !node.is_null() {
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            out.push(boxed.data);
        }
        out.reverse();
        out
    }
}

impl Drop for ChunkStack {
    fn drop(&mut self) {
        self.drain();
    }
}

struct Sink {
    epoch: Instant,
    path: PathBuf,
    chunks: ChunkStack,
    /// Serialises file appends on the drain path only.
    file: Mutex<()>,
}

impl Sink {
    fn drain_to_file(&self) {
        let chunks = self.chunks.drain();
        if chunks.is_empty() {
            return;
        }
        let _guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(&self.path) {
            for c in &chunks {
                let _ = f.write_all(c.as_bytes());
            }
        }
    }
}

/// Per-thread event buffer. Spans and counters append to `events`; histograms
/// accumulate in place (keyed by static name, linear scan — the set of
/// histogram names per thread is tiny) and flush as partial histograms that
/// the summarizer merges.
#[derive(Default)]
struct LocalBuf {
    events: Vec<Event>,
    hists: Vec<(&'static str, LogHistogram)>,
}

impl LocalBuf {
    fn encode_and_push(&mut self, sink: &Sink) {
        if self.events.is_empty() && self.hists.iter().all(|(_, h)| h.is_empty()) {
            return;
        }
        let mut out = String::with_capacity(self.events.len() * 64 + 64);
        for e in self.events.drain(..) {
            e.encode(&mut out);
        }
        for (name, hist) in self.hists.iter_mut() {
            if !hist.is_empty() {
                Event::Hist { name, hist: Box::new(hist.clone()) }.encode(&mut out);
                *hist = LogHistogram::default();
            }
        }
        sink.chunks.push(out);
    }
}

struct LocalBufGuard(RefCell<LocalBuf>);

impl Drop for LocalBufGuard {
    fn drop(&mut self) {
        if let Some(sink) = SINK.get() {
            self.0.borrow_mut().encode_and_push(sink);
        }
    }
}

thread_local! {
    static LOCAL: LocalBufGuard = LocalBufGuard(RefCell::new(LocalBuf::default()));
}

/// Whether telemetry is enabled for this process.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether heartbeat/progress stderr output is suppressed.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Suppresses (or re-enables) heartbeat stderr output.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Enables telemetry, writing NDJSON to `<dir>/<proc>-<pid>.ndjson`.
///
/// Enabling is one-way for the process lifetime; calling again (or
/// concurrently) keeps the first sink and is a no-op. Returns the log path,
/// or `None` when the directory could not be created.
pub fn enable_to_dir(dir: &Path, proc_name: &str) -> Option<PathBuf> {
    if fs::create_dir_all(dir).is_err() {
        return None;
    }
    let pid = std::process::id();
    let sink = SINK.get_or_init(|| Sink {
        epoch: Instant::now(),
        path: dir.join(format!("{proc_name}-{pid}.ndjson")),
        chunks: ChunkStack::new(),
        file: Mutex::new(()),
    });
    if !ENABLED.swap(true, Ordering::SeqCst) {
        let mut out = String::new();
        Event::Meta { proc: proc_name.to_string(), pid }.encode(&mut out);
        sink.chunks.push(out);
    }
    Some(sink.path.clone())
}

/// Monotonic nanoseconds since telemetry was enabled (0 when disabled).
pub fn now_ns() -> u64 {
    match SINK.get() {
        Some(s) => s.epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

fn with_local(f: impl FnOnce(&mut LocalBuf, &Sink)) {
    let Some(sink) = SINK.get() else { return };
    // If the thread-local is already torn down (event emitted from another
    // destructor during thread exit), drop the event rather than panic.
    let _ = LOCAL.try_with(|guard| {
        let mut buf = guard.0.borrow_mut();
        f(&mut buf, sink);
        if buf.events.len() >= LOCAL_FLUSH_THRESHOLD {
            buf.encode_and_push(sink);
        }
    });
}

pub(crate) fn push_event(e: Event) {
    with_local(|buf, _| buf.events.push(e));
}

pub(crate) fn record_hist(name: &'static str, value: u64) {
    with_local(|buf, _| match buf.hists.iter_mut().find(|(n, _)| *n == name) {
        Some((_, h)) => h.record(value),
        None => {
            let mut h = LogHistogram::default();
            h.record(value);
            buf.hists.push((name, h));
        }
    });
}

/// Flushes this thread's buffer and appends all pending chunks to the log.
pub fn flush() {
    let Some(sink) = SINK.get() else { return };
    let _ = LOCAL.try_with(|guard| guard.0.borrow_mut().encode_and_push(sink));
    sink.drain_to_file();
}

/// Final flush. Call before `std::process::exit`, which skips destructors —
/// only the calling thread's buffer and the shared chunk stack are written,
/// so worker threads must have exited (or flushed) first. Also persists the
/// flight-recorder trace, if one was enabled.
pub fn shutdown() {
    flush();
    crate::trace::flush_trace();
}

/// A RAII span: records begin on creation, end (with duration and any
/// attached fields) on drop.
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldVal)>,
    live: bool,
}

impl SpanGuard {
    /// Attaches a field reported on the span-end event.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldVal>) {
        if self.live {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            let ns = now_ns();
            push_event(Event::SpanEnd {
                name: self.name,
                ns,
                dur_ns: ns.saturating_sub(self.start_ns),
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

/// Opens a span. When telemetry is disabled this is a single branch and the
/// returned guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start_ns: 0, fields: Vec::new(), live: false };
    }
    let start_ns = now_ns();
    push_event(Event::SpanBegin { name, ns: start_ns });
    SpanGuard { name, start_ns, fields: Vec::new(), live: true }
}

/// Records a counter increment.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if enabled() && value > 0 {
        push_event(Event::Counter { name, ns: now_ns(), value });
    }
}

/// Records a point-in-time gauge sample.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if enabled() {
        push_event(Event::Gauge { name, ns: now_ns(), value });
    }
}

/// Records a histogram sample (log₂ buckets, merged across threads).
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        record_hist(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::ChunkStack;
    use std::sync::Arc;

    #[test]
    fn chunk_stack_drains_in_push_order() {
        let s = ChunkStack::new();
        s.push("a".into());
        s.push("b".into());
        s.push("c".into());
        assert_eq!(s.drain(), vec!["a", "b", "c"]);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn chunk_stack_is_safe_under_contention() {
        let s = Arc::new(ChunkStack::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        s.push(format!("{t}:{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut all = s.drain();
        assert_eq!(all.len(), 800);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 800, "no chunk lost or duplicated");
    }
}
