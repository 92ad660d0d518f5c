//! Deterministic parallel breadth-first frontier engine.
//!
//! Every exhaustive check in this crate — state-graph construction, trace
//! realization search — is a breadth-first closure over an implicit graph:
//! intern a root, repeatedly expand un-expanded nodes into candidate
//! successors, dedup candidates against everything seen, stop on a cap or
//! an accepting node. [`bfs`] runs that loop one block of frontier nodes at
//! a time, under a strict determinism contract:
//!
//! **The result — node ids, node count, edges, parents, truncation point,
//! accepted node — is bit-identical at any thread count**, and identical to
//! the plain sequential reference the tests compare it with
//! (`bfs_reference`, test-only). Each block runs in two phases:
//!
//! 1. *Expand*, in parallel: `std::thread::scope` workers expand contiguous
//!    runs of the block's parents, each appending its parents' candidates,
//!    in each parent's canonical successor order, to its own
//!    [`Candidates`] buffer.
//! 2. *Merge*, serially: one pass walks the buffers in (worker, parent,
//!    successor) order — which is (parent, successor) order, since worker
//!    `w` holds the `w`-th run — looks each candidate up in one exact id
//!    table, interns first occurrences, and hands every edge and
//!    first-discovery link to the client's [`Record`]. That is exactly the
//!    numbering of a sequential breadth-first loop, and a cap or an
//!    acceptance stops at exactly the candidate where the sequential loop
//!    stops.
//!
//! Threads only change who expands a parent, never the order in which
//! candidates are merged, so thread count and scheduling cannot leak into
//! the output.
//!
//! **Block sizing.** A block gives each worker a run of
//! `PARENTS_PER_WORKER` parents (the last run takes what is left, so a
//! frontier narrower than one run is expanded inline), so the merge reads
//! candidates a worker wrote moments before, while they are still in
//! cache, and a worker's buffer holds one block's share of candidates at
//! most. The size is a measured choice, not a tuning input: in a sweep on
//! routebench's unreduced Fig. 6 workload at one thread, 64 to 256 parents
//! per block ran 0.021–0.022 s per pass and 512 to 4,096 ran 0.027–0.030 s,
//! and peak memory at 256 read 13.5 MB against 16.3 MB at 4,096; 256 is
//! the largest size in the fast range (EXPERIMENTS.md, explorer memory).
//! Block boundaries (and so [`FrontierStats::blocks`] and
//! [`FrontierStats::peak_frontier`]) depend on the worker count; results
//! do not.
//!
//! **Flat buffers.** Nodes are plain `u16` word buffers. A worker's
//! [`Candidates`] keeps every candidate's words back to back, with its end
//! offset, its fingerprint ([`hash_words`], computed on the worker) and its
//! `Copy` label alongside, and per parent the end of its candidates and
//! whether a bound cut its expansion. The buffer is cleared, capacity kept,
//! for every block, so a search holds one buffer and one client scratch per
//! worker however many blocks it takes, and expansion performs no
//! per-candidate allocation. The id table keys on the fingerprints but
//! verifies every match word for word against the interned node, so dedup
//! stays *exact*. Interned nodes live in one flat [`NodeArena`], written
//! only by the merge.
//!
//! The same contract as the run-level pool (`ROUTELAB_THREADS`), pushed
//! down into a single gadget × model cell.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::arena::NodeArena;
use crate::error::ExploreError;

/// Parents each worker expands per block (see the module doc's block
/// sizing). Purely a performance choice — the ordinal merge makes results
/// independent of block size.
const PARENTS_PER_WORKER: usize = 256;

/// Env var overriding the worker count of the explorer and of the
/// run-level pool.
pub const THREADS_ENV: &str = "ROUTELAB_THREADS";

/// A `ROUTELAB_THREADS` value as a worker count: `None` unless `raw` is a
/// positive integer (surrounding whitespace allowed).
pub fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&t| t > 0)
}

/// Parses a `ROUTELAB_THREADS` value. Invalid or zero values are a hard
/// error naming the offending string — a typo in a CI matrix must fail the
/// job, not silently fall back to machine parallelism.
///
/// # Panics
///
/// Panics when `raw` is not a positive integer.
pub fn threads_from_env(raw: &str) -> usize {
    parse_threads(raw)
        .unwrap_or_else(|| panic!("{THREADS_ENV} must be a positive integer, got {raw:?}"))
}

/// Resolves a worker count: explicit setting, else `ROUTELAB_THREADS`, else
/// the machine's available parallelism.
///
/// # Panics
///
/// Panics when `ROUTELAB_THREADS` is set to a non-numeric or zero value
/// (see [`threads_from_env`]).
pub fn resolved_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit.filter(|&t| t > 0) {
        return t;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        return threads_from_env(&raw);
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The fixed-key 64-bit node fingerprint, computed on the expanding worker.
/// [`IdTable`] keys on its low 32 bits. Never trusted alone — every
/// fingerprint match is verified word-for-word, so a collision costs one
/// comparison, never correctness. Never feeds id assignment.
pub(crate) fn hash_words(ws: &[u16]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    const M: u64 = 0x9DDF_EA08_EB38_2D69;
    let mut h: u64 = 0x8F1B_BCDC_BF69_63D1 ^ (ws.len() as u64).wrapping_mul(K);
    let mut chunks = ws.chunks_exact(4);
    for c in &mut chunks {
        let x =
            (c[0] as u64) | ((c[1] as u64) << 16) | ((c[2] as u64) << 32) | ((c[3] as u64) << 48);
        h = (h ^ x.wrapping_mul(K)).rotate_left(29).wrapping_mul(M);
    }
    for &w in chunks.remainder() {
        h = (h ^ (w as u64).wrapping_mul(K)).rotate_left(17).wrapping_mul(M);
    }
    h ^ (h >> 32)
}

/// The exact node → id map of [`bfs`]: an open-addressing array of
/// `(low 32 fingerprint bits, id + 1)` slots, probed linearly from the
/// fingerprint's low bits and kept at most half full; `(_, 0)` is an empty
/// slot. Growth doubles the array and re-places the stored tags, without
/// rehashing a node.
struct IdTable {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Default for IdTable {
    fn default() -> Self {
        IdTable { slots: vec![(0, 0); 16], len: 0 }
    }
}

impl IdTable {
    /// The id of `node` (fingerprint `fp`), if interned. A fingerprint
    /// match counts only once the words equal the arena's.
    fn find(&self, arena: &NodeArena, node: &[u16], fp: u64) -> Option<u32> {
        let (tag, mask) = (fp as u32, self.slots.len() - 1);
        let mut i = tag as usize & mask;
        loop {
            match self.slots[i] {
                (_, 0) => return None,
                (t, id1) if t == tag && arena.node(id1 - 1) == node => return Some(id1 - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Records `id` for a node with fingerprint `fp` that [`IdTable::find`]
    /// does not hold yet.
    fn insert(&mut self, fp: u64, id: u32) {
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (tag, id1) in old.into_iter().filter(|&(_, id1)| id1 != 0) {
                self.place(tag, id1);
            }
        }
        // `NodeArena::intern` keeps ids below `u32::MAX`.
        self.place(fp as u32, id + 1);
    }

    fn place(&mut self, tag: u32, id1: u32) {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (tag, id1);
    }
}

/// One worker's candidate successors for its run of a block's parents, in
/// one flat buffer: every candidate's words back to back, with its end
/// offset, fingerprint and label alongside, and per expanded parent the end
/// of its candidates and its cut flag. [`Expand::expand`] appends one
/// parent's candidates; the frontier closes the parent after it returns.
#[derive(Debug)]
pub struct Candidates<L> {
    words: Vec<u16>,
    /// End of each candidate in `words`; a candidate starts where the one
    /// before it ends.
    ends: Vec<usize>,
    hashes: Vec<u64>,
    labels: Vec<L>,
    /// Per parent: the end of its candidates in `ends`, and whether a bound
    /// cut its expansion.
    parents: Vec<(usize, bool)>,
}

impl<L> Default for Candidates<L> {
    fn default() -> Self {
        Candidates {
            words: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            labels: Vec::new(),
            parents: Vec::new(),
        }
    }
}

impl<L: Copy> Candidates<L> {
    /// Marks the start of a new candidate; pass the mark to
    /// [`Candidates::commit`] or [`Candidates::cancel`].
    pub fn mark(&self) -> usize {
        self.words.len()
    }

    /// The shared word buffer — append the candidate's words here.
    pub fn words(&mut self) -> &mut Vec<u16> {
        &mut self.words
    }

    /// The words written since `mark` (the in-progress candidate).
    pub fn since(&self, mark: usize) -> &[u16] {
        &self.words[mark..]
    }

    /// Commits the words written since `mark` as one candidate.
    pub fn commit(&mut self, mark: usize, label: L) {
        debug_assert_eq!(mark, self.ends.last().copied().unwrap_or(0), "one candidate at a time");
        let end = self.words.len();
        self.hashes.push(hash_words(&self.words[mark..end]));
        self.ends.push(end);
        self.labels.push(label);
    }

    /// Discards the words written since `mark`.
    pub fn cancel(&mut self, mark: usize) {
        self.words.truncate(mark);
    }

    /// Appends a complete candidate in one call.
    pub fn push(&mut self, ws: &[u16], label: L) {
        let m = self.mark();
        self.words.extend_from_slice(ws);
        self.commit(m, label);
    }

    fn clear(&mut self) {
        self.words.clear();
        self.ends.clear();
        self.hashes.clear();
        self.labels.clear();
        self.parents.clear();
    }

    /// Closes the current parent's candidates; `cut` is its expansion's
    /// bound flag.
    fn close(&mut self, cut: bool) {
        self.parents.push((self.ends.len(), cut));
    }

    /// Each closed parent's candidate range and cut flag, in order.
    fn parents(&self) -> impl Iterator<Item = (Range<usize>, bool)> + '_ {
        let starts = std::iter::once(0).chain(self.parents.iter().map(|&(end, _)| end));
        starts.zip(&self.parents).map(|(start, &(end, cut))| (start..end, cut))
    }

    fn node(&self, i: usize) -> &[u16] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start..self.ends[i]]
    }
}

/// A client of the frontier engine: how to expand a node, and which nodes
/// finish the search.
pub trait Expand: Sync {
    /// Per-edge payload, copied through the candidate buffer. A label may
    /// refer into the expanding worker's scratch (a step catalog id, say):
    /// the merge hands [`Record`] that scratch with it.
    type Label: Copy + Send;
    /// Per-worker reusable scratch threaded through [`Expand::expand`]
    /// (step catalogs, encode buffers — whatever the client reuses to
    /// avoid per-candidate allocation). [`bfs`] keeps one per worker for
    /// the whole search.
    type Scratch: Default + Send;

    /// Appends `node`'s successors to `out` in canonical order. Returns
    /// `true` when some transition was cut by a bound (the closure is then
    /// incomplete and the caller's verdict must say so).
    ///
    /// # Errors
    ///
    /// Any [`ExploreError`] aborts the whole search, attributed to its cell.
    fn expand(
        &self,
        id: u32,
        node: &[u16],
        out: &mut Candidates<Self::Label>,
        scratch: &mut Self::Scratch,
    ) -> Result<bool, ExploreError>;

    /// Called once per node, at interning, in id order. Returning `true`
    /// stops the search immediately (candidates after this one, in ordinal
    /// order, are discarded — on every thread count alike).
    fn accept(&self, _id: u32, _node: &[u16]) -> bool {
        false
    }
}

/// What a client keeps of a search, written by the merge in merge order,
/// each call with the scratch of the worker whose expansion produced the
/// label. Both methods default to keeping nothing.
pub trait Record<L, S> {
    /// Node `id` (never the root) was interned, first reached from `parent`
    /// by `label`. Called before that candidate's [`Record::edge`].
    fn node(&mut self, _id: u32, _parent: u32, _label: L, _scratch: &mut S) {}

    /// The candidate `label` of `from` resolved to node `to`. Calls come in
    /// (`from`, successor) order, so each node's edges arrive together.
    fn edge(&mut self, _from: u32, _to: u32, _label: L, _scratch: &mut S) {}
}

/// Engine knobs. `threads` must already be resolved (≥ 1).
#[derive(Debug, Clone)]
pub struct BfsOptions {
    /// Worker count (1 = run everything inline).
    pub threads: usize,
    /// Maximum nodes interned; hitting the cap truncates the search.
    pub max_nodes: usize,
    /// Heartbeat/progress label for long closures.
    pub progress_label: &'static str,
}

/// Aggregate behavior of one [`bfs`] run (feeds `explore.*` telemetry and
/// the scaling bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Worker threads used.
    pub threads: usize,
    /// Parallel blocks processed.
    pub blocks: u64,
    /// Nodes expanded.
    pub expanded: u64,
    /// Successor candidates generated.
    pub candidates: u64,
    /// Candidates that resolved to an already-interned node.
    pub dedup_hits: u64,
    /// Largest un-expanded frontier observed at a block boundary.
    pub peak_frontier: usize,
    /// Bytes of node payload held at the end of the run.
    pub bytes_resident: u64,
    /// Bytes of the edges the client kept: for a state graph, its edge
    /// store and step table (`crate::graph::EdgeStore::bytes`); 0 when
    /// nothing was kept.
    pub edge_bytes: u64,
}

impl FrontierStats {
    /// Dedup hit rate in [0, 1].
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.candidates as f64
        }
    }
}

/// Output of a frontier run; edges and parent links went to its
/// [`Record`].
#[derive(Debug)]
pub struct BfsResult {
    /// Interned nodes; index = id, id 0 = root.
    pub nodes: NodeArena,
    /// `true` when a bound cut the closure (expand-reported or node cap).
    pub truncated: bool,
    /// The first accepted node, if any.
    pub accepted: Option<u32>,
    /// Run statistics.
    pub stats: FrontierStats,
}

/// Expands the parents of `block`: worker `w` takes the `w`-th run of
/// [`PARENTS_PER_WORKER`] parents, appending their candidates to `bufs[w]`
/// with `scratches[w]`. Panics inside `expand` are caught and attributed
/// to `cell`.
fn expand_block<E: Expand>(
    exp: &E,
    arena: &NodeArena,
    block: Range<usize>,
    bufs: &mut [Candidates<E::Label>],
    scratches: &mut [E::Scratch],
    cell: &str,
) -> Result<(), ExploreError> {
    let run = |w: usize, buf: &mut Candidates<E::Label>, scratch: &mut E::Scratch| {
        buf.clear();
        let first = block.start + w * PARENTS_PER_WORKER;
        for id in first..block.end.min(first + PARENTS_PER_WORKER) {
            let id = id as u32;
            let expanded =
                catch_unwind(AssertUnwindSafe(|| exp.expand(id, arena.node(id), buf, scratch)));
            match expanded {
                Ok(cut) => buf.close(cut?),
                Err(payload) => {
                    return Err(ExploreError::worker_panic(cell, panic_message(&*payload)))
                }
            }
        }
        Ok(())
    };
    if let ([buf], [scratch]) = (&mut *bufs, &mut *scratches) {
        return run(0, buf, scratch);
    }
    let mut failures: Vec<(usize, ExploreError)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, (buf, scratch)) in bufs.iter_mut().zip(scratches).enumerate() {
            let run = &run;
            handles.push((w, scope.spawn(move || run(w, buf, scratch))));
        }
        for (w, h) in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failures.push((w, e)),
                // A panic that escaped catch_unwind (e.g. in the harness
                // itself) — still attribute it.
                Err(payload) => {
                    failures.push((w, ExploreError::worker_panic(cell, panic_message(&*payload))))
                }
            }
        }
    });
    // Earliest worker's failure wins, deterministically.
    failures.sort_by_key(|&(w, _)| w);
    match failures.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Per-block phase timer for the explorer pipeline. Active only when
/// telemetry or tracing is enabled; each `lap` emits an obs histogram sample
/// and a flight-recorder `tph` event, so a whole exploration renders as a
/// timeline in the Chrome export. Timing only observes — results are
/// bit-identical with profiling on or off.
struct PhaseProfiler {
    on: bool,
    last: std::time::Instant,
}

impl PhaseProfiler {
    fn new() -> Self {
        PhaseProfiler {
            on: routelab_obs::enabled() || routelab_obs::trace_enabled(),
            last: std::time::Instant::now(),
        }
    }

    /// Marks the start of a phase (re-arms the clock).
    fn start(&mut self) {
        if self.on {
            self.last = std::time::Instant::now();
        }
    }

    /// Closes the current phase: `hist` is the obs histogram name, `name`
    /// the short phase name in the trace.
    fn lap(&mut self, hist: &'static str, name: &str, block: u64, args: &[(&str, u64)]) {
        if !self.on {
            return;
        }
        let now = std::time::Instant::now();
        let dur_ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        routelab_obs::histogram(hist, dur_ns);
        routelab_obs::trace_phase(name, dur_ns, block, args);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the parallel breadth-first closure from the root node `root` (its
/// raw words), writing edges and parent links to `record`.
///
/// # Errors
///
/// Propagates the first [`ExploreError`] (in deterministic order) from
/// expansion, attributed to `cell`.
pub fn bfs<E: Expand>(
    exp: &E,
    root: &[u16],
    cell: &str,
    opts: &BfsOptions,
    record: &mut impl Record<E::Label, E::Scratch>,
) -> Result<BfsResult, ExploreError> {
    let threads = opts.threads.max(1);
    let mut stats = FrontierStats { threads, ..FrontierStats::default() };

    let mut arena = NodeArena::new();
    let mut table = IdTable::default();
    let mut truncated = false;
    let mut accepted = None;

    table.insert(hash_words(root), arena.intern(root));
    if exp.accept(0, root) {
        accepted = Some(0);
    }
    let mut profiler = PhaseProfiler::new();

    let mut heartbeat = routelab_obs::Heartbeat::new(opts.progress_label, opts.max_nodes as u64);
    let mut expanded = 0usize;
    let mut done = accepted.is_some();
    // One candidate buffer and one scratch (step catalogs, kernel buffers)
    // per worker, each kept for the whole search, sized for the most
    // workers a block can take so that none moves once created.
    let most = threads.min(opts.max_nodes.div_ceil(PARENTS_PER_WORKER));
    let mut bufs: Vec<Candidates<E::Label>> = Vec::with_capacity(most);
    let mut scratches: Vec<E::Scratch> = Vec::with_capacity(most);
    while !done && expanded < arena.len() {
        stats.peak_frontier = stats.peak_frontier.max(arena.len() - expanded);
        let width = PARENTS_PER_WORKER.saturating_mul(threads);
        let block = expanded..arena.len().min(expanded.saturating_add(width));
        let workers = block.len().div_ceil(PARENTS_PER_WORKER);
        while bufs.len() < workers {
            bufs.push(Candidates::default());
            scratches.push(E::Scratch::default());
        }
        expanded = block.end;
        stats.blocks += 1;
        stats.expanded += block.len() as u64;
        heartbeat.tick(arena.len() as u64);

        let block_no = stats.blocks - 1;

        // Phase 1 (parallel): each worker expands its run of parents into
        // its own buffer, in each parent's canonical successor order.
        profiler.start();
        let (bufs, scratches) = (&mut bufs[..workers], &mut scratches[..workers]);
        expand_block(exp, &arena, block.clone(), bufs, scratches, cell)?;
        profiler.lap("frontier.expand_ns", "expand", block_no, &[("parents", block.len() as u64)]);

        // Phase 2 (serial): walk candidates in (worker, parent, successor)
        // order, interning first occurrences — exactly the numbering, the
        // statistics and the cut point of the sequential reference.
        let interned_before = arena.len();
        'merge: for (w, (buf, scratch)) in bufs.iter().zip(scratches).enumerate() {
            for (k, (candidates, cut)) in buf.parents().enumerate() {
                let from = (block.start + w * PARENTS_PER_WORKER + k) as u32;
                truncated |= cut;
                stats.candidates += candidates.len() as u64;
                for i in candidates {
                    let (node, fp, label) = (buf.node(i), buf.hashes[i], buf.labels[i]);
                    let to = match table.find(&arena, node, fp) {
                        Some(id) => {
                            stats.dedup_hits += 1;
                            id
                        }
                        None => {
                            if arena.len() >= opts.max_nodes {
                                truncated = true;
                                done = true;
                                break 'merge;
                            }
                            let id = arena.intern(node);
                            table.insert(fp, id);
                            record.node(id, from, label, scratch);
                            if exp.accept(id, node) {
                                accepted = Some(id);
                                done = true;
                            }
                            id
                        }
                    };
                    record.edge(from, to, label, scratch);
                    if done {
                        break 'merge;
                    }
                }
            }
        }
        profiler.lap(
            "frontier.merge_ns",
            "merge",
            block_no,
            &[("interned", (arena.len() - interned_before) as u64)],
        );
    }
    stats.bytes_resident = arena.bytes_resident();
    Ok(BfsResult { nodes: arena, truncated, accepted, stats })
}

/// The plain sequential reference implementation: one queue, one exact
/// (full-buffer-keyed) map, no blocks, one parent's candidates at a time.
/// Kept deliberately independent of [`bfs`]'s machinery — the differential
/// tests assert the two agree bit-for-bit, which in particular
/// cross-checks the fingerprint dedup against exact hashing.
///
/// # Errors
///
/// Propagates the first [`ExploreError`] from expansion.
#[cfg(test)]
pub(crate) fn bfs_reference<E: Expand>(
    exp: &E,
    root: &[u16],
    cell: &str,
    opts: &BfsOptions,
    record: &mut impl Record<E::Label, E::Scratch>,
) -> Result<BfsResult, ExploreError> {
    let mut arena = NodeArena::new();
    let mut ids: std::collections::HashMap<Vec<u16>, u32> = Default::default();
    let mut truncated = false;
    let mut accepted = None;
    let mut stats = FrontierStats { threads: 1, ..FrontierStats::default() };

    ids.insert(root.to_vec(), 0);
    if exp.accept(0, root) {
        accepted = Some(0);
    }
    arena.intern(root);

    let mut scratch = E::Scratch::default();
    let mut buf: Candidates<E::Label> = Candidates::default();
    'search: while expanded_lt(&arena, accepted, stats.expanded) {
        let from = stats.expanded as u32;
        stats.expanded += 1;
        stats.peak_frontier = stats.peak_frontier.max(arena.len() - from as usize);
        buf.clear();
        let cut = catch_unwind(AssertUnwindSafe(|| {
            exp.expand(from, arena.node(from), &mut buf, &mut scratch)
        }))
        .map_err(|p| ExploreError::worker_panic(cell, panic_message(&*p)))??;
        truncated |= cut;
        stats.candidates += buf.ends.len() as u64;
        for si in 0..buf.ends.len() {
            let to = match ids.get(buf.node(si)) {
                Some(&id) => {
                    stats.dedup_hits += 1;
                    id
                }
                None => {
                    if arena.len() >= opts.max_nodes {
                        truncated = true;
                        break 'search;
                    }
                    let id = arena.intern(buf.node(si));
                    ids.insert(buf.node(si).to_vec(), id);
                    record.node(id, from, buf.labels[si], &mut scratch);
                    if exp.accept(id, buf.node(si)) {
                        accepted = Some(id);
                    }
                    id
                }
            };
            record.edge(from, to, buf.labels[si], &mut scratch);
            if accepted.is_some() {
                break 'search;
            }
        }
    }
    stats.blocks = stats.expanded;
    stats.bytes_resident = arena.bytes_resident();
    Ok(BfsResult { nodes: arena, truncated, accepted, stats })
}

/// Loop condition of the sequential reference (`expanded < len`, no
/// acceptance yet).
#[cfg(test)]
fn expanded_lt(arena: &NodeArena, accepted: Option<u32>, expanded: u64) -> bool {
    (expanded as usize) < arena.len() && accepted.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(x: u64) -> [u16; 4] {
        [x as u16, (x >> 16) as u16, (x >> 32) as u16, (x >> 48) as u16]
    }

    fn dec(ws: &[u16]) -> u64 {
        (ws[0] as u64) | ((ws[1] as u64) << 16) | ((ws[2] as u64) << 32) | ((ws[3] as u64) << 48)
    }

    /// A synthetic graph over u64 node values: each node n < limit expands
    /// to a deterministic pseudo-random fan-out, exercising dedup heavily.
    struct Synthetic {
        limit: u64,
        fan: u64,
        accept_at: Option<u64>,
    }

    impl Expand for Synthetic {
        type Label = u64;
        type Scratch = ();
        fn expand(
            &self,
            _id: u32,
            node: &[u16],
            out: &mut Candidates<u64>,
            _scratch: &mut (),
        ) -> Result<bool, ExploreError> {
            let node = dec(node);
            for k in 0..self.fan {
                // A fixed mixing function: collides often, covers slowly.
                let succ =
                    (node.wrapping_mul(6364136223846793005).wrapping_add(k * 1442695040888963407)
                        >> 33)
                        % self.limit;
                out.push(&enc(succ), k);
            }
            Ok(false)
        }
        fn accept(&self, _id: u32, node: &[u16]) -> bool {
            Some(dec(node)) == self.accept_at
        }
    }

    fn opts(threads: usize) -> BfsOptions {
        BfsOptions { threads, max_nodes: usize::MAX, progress_label: "test.frontier" }
    }

    /// What a search hands its [`Record`]: each node's edges, and each
    /// non-root node's first-discovery link.
    #[derive(Debug, Default, PartialEq)]
    struct Recorded {
        edges: Vec<Vec<(u32, u64)>>,
        links: Vec<(u32, u64)>,
    }

    impl<S> Record<u64, S> for Recorded {
        fn node(&mut self, id: u32, parent: u32, label: u64, _scratch: &mut S) {
            assert_eq!(id as usize, self.links.len() + 1, "nodes arrive in id order");
            self.links.push((parent, label));
        }

        fn edge(&mut self, from: u32, to: u32, label: u64, _scratch: &mut S) {
            let from = from as usize;
            assert!(from + 1 >= self.edges.len(), "edges arrive grouped by source");
            if self.edges.len() <= from {
                self.edges.resize_with(from + 1, Vec::new);
            }
            self.edges[from].push((to, label));
        }
    }

    impl Recorded {
        /// The label path root → `id`, from the first-discovery links.
        fn path_to(&self, mut id: u32) -> Vec<u64> {
            let mut labels = Vec::new();
            while id != 0 {
                let (parent, label) = self.links[id as usize - 1];
                labels.push(label);
                id = parent;
            }
            labels.reverse();
            labels
        }
    }

    /// A search with no record.
    impl<L, S> Record<L, S> for () {}

    fn parallel<E: Expand<Label = u64>>(g: &E, o: &BfsOptions) -> (BfsResult, Recorded) {
        let mut rec = Recorded::default();
        (bfs(g, &enc(0), "synthetic", o, &mut rec).unwrap(), rec)
    }

    fn reference<E: Expand<Label = u64>>(g: &E, o: &BfsOptions) -> (BfsResult, Recorded) {
        let mut rec = Recorded::default();
        (bfs_reference(g, &enc(0), "synthetic", o, &mut rec).unwrap(), rec)
    }

    fn assert_identical(a: &(BfsResult, Recorded), b: &(BfsResult, Recorded)) {
        assert_eq!(a.0.nodes, b.0.nodes);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.truncated, b.0.truncated);
        assert_eq!(a.0.accepted, b.0.accepted);
    }

    #[test]
    fn parallel_matches_reference_at_every_thread_count() {
        let g = Synthetic { limit: 5_000, fan: 7, accept_at: None };
        let reference = reference(&g, &opts(1));
        assert!(reference.0.nodes.len() > 1_000);
        for threads in [1, 2, 3, 8] {
            let par = parallel(&g, &opts(threads));
            assert_identical(&par, &reference);
            assert_eq!(par.0.stats.threads, threads);
            assert_eq!(par.0.stats.dedup_hits, reference.0.stats.dedup_hits);
            assert_eq!(par.0.stats.candidates, reference.0.stats.candidates);
        }
    }

    #[test]
    fn truncation_point_is_thread_invariant() {
        let g = Synthetic { limit: 50_000, fan: 9, accept_at: None };
        let mut o = opts(1);
        o.max_nodes = 1234;
        let reference = reference(&g, &o);
        assert!(reference.0.truncated);
        assert_eq!(reference.0.nodes.len(), 1234);
        for threads in [1, 2, 3, 8] {
            let mut o = opts(threads);
            o.max_nodes = 1234;
            let par = parallel(&g, &o);
            assert_identical(&par, &reference);
            // Candidates past the cut are neither counted nor deduped.
            assert_eq!(par.0.stats.candidates, reference.0.stats.candidates, "@{threads}t");
            assert_eq!(par.0.stats.dedup_hits, reference.0.stats.dedup_hits, "@{threads}t");
        }
    }

    #[test]
    fn acceptance_is_thread_invariant() {
        let g = Synthetic { limit: 5_000, fan: 7, accept_at: Some(4_321) };
        let reference = reference(&g, &opts(1));
        for threads in [1, 2, 3, 8] {
            let par = parallel(&g, &opts(threads));
            assert_identical(&par, &reference);
        }
        if let Some(id) = reference.0.accepted {
            assert_eq!(dec(&reference.0.nodes.node_vec(id)), 4_321);
            // The parent chain replays to the accepted node.
            let path = reference.1.path_to(id);
            assert!(!path.is_empty());
        }
    }

    /// Worker scratches and candidate buffers live for the whole search:
    /// however many blocks it takes, a search builds at most one scratch
    /// and fills at most one candidate buffer per worker, and its result
    /// is the reference's.
    #[test]
    fn each_worker_builds_one_scratch_per_search() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        static BUFFERS: Mutex<Option<HashSet<usize>>> = Mutex::new(None);

        struct Counted;
        impl Default for Counted {
            fn default() -> Self {
                BUILT.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        struct Counting(Synthetic);
        impl Expand for Counting {
            type Label = u64;
            type Scratch = Counted;
            fn expand(
                &self,
                id: u32,
                node: &[u16],
                out: &mut Candidates<u64>,
                _scratch: &mut Counted,
            ) -> Result<bool, ExploreError> {
                let buffer = std::ptr::from_ref(out) as usize;
                BUFFERS.lock().unwrap().get_or_insert_with(HashSet::new).insert(buffer);
                self.0.expand(id, node, out, &mut ())
            }
        }

        let g = Counting(Synthetic { limit: 20_000, fan: 7, accept_at: None });
        let want = reference(&g.0, &opts(1));
        for threads in [1, 2, 3, 8] {
            BUILT.store(0, Ordering::Relaxed);
            *BUFFERS.lock().unwrap() = None;
            let r = parallel(&g, &opts(threads));
            let stats = r.0.stats;
            assert!(stats.blocks >= 3, "{stats:?}");
            assert!(r.0.nodes.len() > 2 * PARENTS_PER_WORKER * threads, "{stats:?}");
            assert_identical(&r, &want);
            let built = BUILT.load(Ordering::Relaxed);
            assert!((1..=threads).contains(&built), "{built} scratches @{threads}t");
            let buffers = BUFFERS.lock().unwrap().as_ref().map_or(0, HashSet::len);
            assert!((1..=threads).contains(&buffers), "{buffers} buffers @{threads}t");
        }
    }

    #[test]
    fn worker_panics_become_typed_errors() {
        struct Bomb;
        impl Expand for Bomb {
            type Label = ();
            type Scratch = ();
            fn expand(
                &self,
                _id: u32,
                node: &[u16],
                out: &mut Candidates<()>,
                _scratch: &mut (),
            ) -> Result<bool, ExploreError> {
                let node = dec(node);
                if node == 3 {
                    panic!("boom at {node}");
                }
                out.push(&enc(node + 1), ());
                Ok(false)
            }
        }
        let errs = [
            bfs(&Bomb, &enc(0), "BOMB × R1O", &opts(2), &mut ()).expect_err("must fail"),
            bfs_reference(&Bomb, &enc(0), "BOMB × R1O", &opts(2), &mut ()).expect_err("must fail"),
        ];
        for err in errs {
            assert_eq!(err.cell, "BOMB × R1O");
            assert!(err.to_string().contains("boom at 3"), "{err}");
        }
    }

    #[test]
    fn accept_on_root_short_circuits() {
        let g = Synthetic { limit: 10, fan: 2, accept_at: Some(0) };
        let r = bfs(&g, &enc(0), "synthetic", &opts(4), &mut ()).unwrap();
        assert_eq!(r.accepted, Some(0));
        assert_eq!(r.nodes.len(), 1);
        assert_eq!(r.stats.expanded, 0);
    }

    #[test]
    fn resolved_threads_prefers_explicit() {
        assert_eq!(resolved_threads(Some(3)), 3);
        assert!(resolved_threads(None) >= 1);
    }

    #[test]
    fn invalid_thread_env_values_are_hard_errors_naming_the_value() {
        // Parsed through the same function `resolved_threads` uses for the
        // env var, without mutating the process environment (other tests
        // resolve threads concurrently).
        assert_eq!(threads_from_env("4"), 4);
        assert_eq!(threads_from_env(" 2 "), 2);
        for bogus in ["", "zero", "1.5", "0", "-3"] {
            let err = catch_unwind(|| threads_from_env(bogus)).expect_err(bogus);
            let msg = panic_message(&*err);
            assert!(msg.contains(THREADS_ENV), "{msg}");
            assert!(msg.contains(&format!("{bogus:?}")), "{msg}");
        }
    }

    #[test]
    fn id_table_stays_exact_when_every_fingerprint_collides() {
        const FP: u64 = 0x5EED_0000_0000_0007;
        let mut arena = NodeArena::new();
        let mut table = IdTable::default();
        let initial_slots = table.slots.len();
        for x in 0..100 {
            assert_eq!(table.find(&arena, &enc(x), FP), None, "{x} before insertion");
            table.insert(FP, arena.intern(&enc(x)));
        }
        assert!(table.slots.len() >= 8 * initial_slots, "the table grew several times");
        for x in 0..100 {
            assert_eq!(table.find(&arena, &enc(x), FP), Some(x as u32), "{x}");
        }
        assert_eq!(table.find(&arena, &enc(100), FP), None);
    }

    #[test]
    fn hash_words_separates_length_and_content() {
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        assert_ne!(hash_words(&[0, 0]), hash_words(&[0, 0, 0]));
        assert_ne!(hash_words(&[1, 2, 3, 4, 5]), hash_words(&[1, 2, 3, 4, 6]));
        assert_ne!(hash_words(&[1, 2, 3, 4, 5]), hash_words(&[5, 2, 3, 4, 1]));
        assert_eq!(hash_words(&[7, 8, 9]), hash_words(&[7, 8, 9]));
    }
}
