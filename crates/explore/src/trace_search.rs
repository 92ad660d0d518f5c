//! Exhaustive search for an activation sequence of a model inducing a given
//! path-assignment trace (used to verify Examples A.3–A.5 mechanically).
//!
//! Runs on the parallel frontier engine ([`crate::frontier`]): search nodes
//! are `(packed state, matched-prefix-length)` pairs, so the closure is
//! deterministic at every thread count and a found witness is always the
//! breadth-first shortest one. Successors come from the explorer's packed
//! step kernel ([`crate::exec_packed`]) on the literal model: no queue
//! collapse, the configured channel cap.

use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_engine::index::ChannelIndex;
use routelab_engine::state::NetworkState;
use routelab_engine::trace::PathTrace;
use routelab_spp::SppInstance;

use crate::effects::{CanonicalStep, Spec};
use crate::error::ExploreError;
use crate::exec_packed::{Applied, ExecTables, PackedScratch};
use crate::frontier::{bfs, BfsOptions, Candidates, Expand, Record};
use crate::graph::{cell_of, ExploreConfig, StepCatalog};
use crate::pack::StateCodec;
use crate::reduce::ChannelMode;

/// Which Definition 3.2 relation the found sequence must induce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchGoal {
    /// The induced trace equals the target exactly.
    Exact,
    /// The induced trace is the target with entries repeated.
    Repetition,
    /// The target is a subsequence of the induced trace.
    Subsequence,
}

/// Search outcome.
#[derive(Debug, Clone)]
pub enum SearchResult {
    /// A witnessing activation sequence.
    Found(ActivationSeq),
    /// Exhaustively impossible within the configured channel cap.
    Impossible {
        /// Distinct (state, progress) pairs visited.
        visited: usize,
    },
    /// The search hit a budget before deciding.
    BoundExceeded {
        /// Distinct (state, progress) pairs visited.
        visited: usize,
    },
}

impl SearchResult {
    /// `true` for [`SearchResult::Found`].
    pub fn is_found(&self) -> bool {
        matches!(self, SearchResult::Found(_))
    }

    /// `true` for [`SearchResult::Impossible`].
    pub fn is_impossible(&self) -> bool {
        matches!(self, SearchResult::Impossible { .. })
    }
}

/// A search node is the packed network state followed by two trailer words
/// carrying the search's own position counter (how much of the target has
/// been matched) as a little-endian-split `u32`.
fn split_node(node: &[u16]) -> (&[u16], u32) {
    let (ws, tail) = node.split_at(node.len() - 2);
    (ws, u32::from(tail[0]) | (u32::from(tail[1]) << 16))
}

struct SearchExpand<'a> {
    spec: Spec<'a>,
    codec: &'a StateCodec,
    tables: ExecTables<'a>,
    /// Per target entry, the π of that entry as codec route ids — `None`
    /// when the entry mentions a route outside the instance's universe (no
    /// reachable state can ever match it).
    target_ids: &'a [Option<Vec<u16>>],
    goal: SearchGoal,
    last: u32,
    must_settle: bool,
    cfg: &'a ExploreConfig,
}

impl SearchExpand<'_> {
    fn matches_at(&self, t: u32, pi: &[u16]) -> bool {
        self.target_ids.get(t as usize).and_then(Option::as_deref) == Some(pi)
    }

    /// The matched-prefix length after a step into a state with
    /// assignment `pi`, or `None` when that step leaves the target.
    fn progress_after(&self, progress: u32, pi: &[u16]) -> Option<u32> {
        match self.goal {
            // Settling phase: the infinite tail of the base is constant,
            // so every extra entry must repeat it.
            SearchGoal::Exact if progress == self.last => {
                self.matches_at(self.last, pi).then_some(self.last)
            }
            SearchGoal::Exact => self.matches_at(progress + 1, pi).then_some(progress + 1),
            SearchGoal::Repetition if self.matches_at(progress + 1, pi) => Some(progress + 1),
            SearchGoal::Repetition => self.matches_at(progress, pi).then_some(progress),
            SearchGoal::Subsequence if self.matches_at(progress + 1, pi) => Some(progress + 1),
            SearchGoal::Subsequence => Some(progress),
        }
    }
}

/// Reusable per-worker expansion scratch, kept for a whole search.
#[derive(Default)]
struct SearchScratch {
    packed: PackedScratch,
    catalog: StepCatalog,
}

impl Expand for SearchExpand<'_> {
    /// A step id in the expanding worker's catalog.
    type Label = u32;
    type Scratch = SearchScratch;

    fn expand(
        &self,
        _id: u32,
        node: &[u16],
        out: &mut Candidates<u32>,
        scratch: &mut SearchScratch,
    ) -> Result<bool, ExploreError> {
        let (packed, progress) = split_node(node);
        let SearchScratch { packed: offsets, catalog } = scratch;
        let mut truncated =
            catalog.enumerate(&self.tables, self.spec, self.cfg.max_steps_per_state, packed);
        self.tables.prepare(packed, offsets);
        let cap = self.cfg.channel_cap;
        for &step in catalog.steps() {
            let mark = out.mark();
            let cs = &catalog.info(step).step;
            let applied = self.tables.apply(packed, offsets, cs, cap, out.words());
            if applied == Applied::Capped {
                truncated = true;
                out.cancel(mark);
                continue;
            }
            let pi = self.codec.pi_ids_words(out.since(mark));
            let Some(next) = self.progress_after(progress, pi) else {
                out.cancel(mark);
                continue;
            };
            out.words().extend_from_slice(&[(next & 0xFFFF) as u16, (next >> 16) as u16]);
            out.commit(mark, step);
        }
        Ok(truncated)
    }

    fn accept(&self, _id: u32, node: &[u16]) -> bool {
        let (packed, progress) = split_node(node);
        progress == self.last && (!self.must_settle || self.codec.is_quiescent_words(packed))
    }
}

/// The search's [`Record`]: every non-root node's first-discovery link
/// (parent id and step), by id − 1.
#[derive(Default)]
struct Links(Vec<(u32, CanonicalStep)>);

impl Record<u32, SearchScratch> for Links {
    fn node(&mut self, _id: u32, parent: u32, step: u32, scratch: &mut SearchScratch) {
        self.0.push((parent, scratch.catalog.info(step).step.clone()));
    }
}

impl Links {
    /// The steps from the root to node `id`.
    fn path_to(&self, mut id: u32) -> Vec<&CanonicalStep> {
        let mut steps = Vec::new();
        while id != 0 {
            let (parent, step) = &self.0[id as usize - 1];
            steps.push(step);
            id = *parent;
        }
        steps.reverse();
        steps
    }
}

/// Searches for an activation sequence of `model` whose trace realizes
/// `target` per `goal`. The search is exhaustive over canonical step
/// effects with memoization on (state, matched-prefix-length); when it
/// terminates without budget pressure, a negative answer is a proof (within
/// the channel cap).
///
/// For [`SearchGoal::Exact`] and [`SearchGoal::Repetition`], the target is
/// treated as a *converged* execution (as in Examples A.3–A.5): activation
/// sequences are infinite and fair, so after matching the last entry the
/// realization must be able to drain every outstanding message without ever
/// changing π — acceptance therefore requires reaching a quiescent state
/// whose assignment is the target's last entry. This is precisely the
/// argument of Example A.3: "the outstanding messages must be processed;
/// this causes π_s(10) = svbd". A subsequence realization constrains only a
/// finite prefix, so it accepts as soon as the whole target has appeared.
///
/// # Errors
///
/// Any [`ExploreError`] raised while packing states or expanding the
/// frontier (route-universe overflow, corrupt buffers, worker panics),
/// attributed to its cell.
pub fn search(
    inst: &SppInstance,
    model: CommModel,
    target: &PathTrace,
    goal: SearchGoal,
    cfg: &ExploreConfig,
) -> Result<SearchResult, ExploreError> {
    let index = ChannelIndex::new(inst.graph());
    let initial = NetworkState::initial(inst, &index);
    if target.is_empty() || target.get(0) != Some(&initial.assignment()) {
        return Ok(SearchResult::Impossible { visited: 0 });
    }
    let codec = StateCodec::new(inst, &index, cell_of(inst, Spec::Uniform(model)))?;
    let target_ids: Vec<Option<Vec<u16>>> = (0..target.len())
        .map(|t| {
            target.get(t).expect("t < target.len()").iter().map(|r| codec.route_id(r)).collect()
        })
        .collect();
    let exp = SearchExpand {
        spec: Spec::Uniform(model),
        codec: &codec,
        tables: ExecTables::new(&index, &codec, vec![ChannelMode::default(); index.len()]),
        target_ids: &target_ids,
        goal,
        last: (target.len() - 1) as u32,
        must_settle: matches!(goal, SearchGoal::Exact | SearchGoal::Repetition),
        cfg,
    };
    let opts = BfsOptions {
        threads: cfg.resolved_threads(),
        max_nodes: cfg.max_states,
        progress_label: "search.visited",
    };
    let mut root = Vec::new();
    codec.encode_into(&initial, &mut root)?;
    root.extend_from_slice(&[0, 0]); // progress trailer = 0
    let mut links = Links::default();
    let r = bfs(&exp, &root, codec.cell(), &opts, &mut links)?;
    if routelab_obs::enabled() {
        routelab_obs::gauge("search.visited", r.nodes.len() as u64);
    }
    Ok(match r.accepted {
        Some(id) => SearchResult::Found(
            links.path_to(id).into_iter().map(|cs| cs.to_activation(exp.spec, &index)).collect(),
        ),
        None if r.truncated => SearchResult::BoundExceeded { visited: r.nodes.len() },
        None => SearchResult::Impossible { visited: r.nodes.len() },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::validate::check_sequence;
    use routelab_engine::paper_runs;
    use routelab_engine::runner::Runner;
    use routelab_engine::trace::{is_repetition, is_subsequence};

    fn target_of(run: &paper_runs::PaperRun) -> PathTrace {
        Runner::trace_of(&run.instance, &run.seq)
    }

    fn cfg() -> ExploreConfig {
        ExploreConfig {
            channel_cap: 6,
            max_states: 2_000_000,
            max_steps_per_state: 50_000,
            ..ExploreConfig::default()
        }
    }

    /// The candidate equals the target followed by settle steps repeating
    /// the final assignment (the infinite tail of a converged execution).
    fn exact_then_settled(target: &PathTrace, cand: &PathTrace) -> bool {
        cand.len() >= target.len()
            && (0..target.len()).all(|t| cand.get(t) == target.get(t))
            && (target.len()..cand.len()).all(|t| cand.get(t) == target.last())
    }

    #[test]
    fn a3_trace_exactly_realizable_in_its_own_model() {
        let run = paper_runs::a3_reo();
        let target = target_of(&run);
        let res = search(&run.instance, "REO".parse().unwrap(), &target, SearchGoal::Exact, &cfg())
            .unwrap();
        let SearchResult::Found(seq) = res else { panic!("{res:?}") };
        let cand = Runner::trace_of(&run.instance, &seq);
        assert!(exact_then_settled(&target, &cand), "{}", cand.render(&run.instance));
        check_sequence("REO".parse().unwrap(), run.instance.graph(), &seq).unwrap();
    }

    #[test]
    fn proposition_3_10_a3_not_exact_in_r1o() {
        // Example A.3: the REO execution cannot be exactly realized in R1O.
        let run = paper_runs::a3_reo();
        let target = target_of(&run);
        let res = search(&run.instance, "R1O".parse().unwrap(), &target, SearchGoal::Exact, &cfg())
            .unwrap();
        assert!(res.is_impossible(), "{res:?}");
    }

    #[test]
    fn a3_is_subsequence_realizable_in_r1o() {
        let run = paper_runs::a3_reo();
        let target = target_of(&run);
        let res =
            search(&run.instance, "R1O".parse().unwrap(), &target, SearchGoal::Subsequence, &cfg())
                .unwrap();
        let SearchResult::Found(seq) = res else { panic!("{res:?}") };
        let cand = Runner::trace_of(&run.instance, &seq);
        assert!(is_subsequence(&target, &cand));
        check_sequence("R1O".parse().unwrap(), run.instance.graph(), &seq).unwrap();
    }

    #[test]
    fn proposition_3_11_a4_not_repetition_in_r1o() {
        // Example A.4: the REA execution cannot be realized with repetition
        // in R1O…
        let run = paper_runs::a4_rea();
        let target = target_of(&run);
        let res =
            search(&run.instance, "R1O".parse().unwrap(), &target, SearchGoal::Repetition, &cfg())
                .unwrap();
        assert!(res.is_impossible(), "{res:?}");
        // …but it is realizable as a subsequence (the paper's remark).
        let res =
            search(&run.instance, "R1O".parse().unwrap(), &target, SearchGoal::Subsequence, &cfg())
                .unwrap();
        let SearchResult::Found(seq) = res else { panic!("{res:?}") };
        let cand = Runner::trace_of(&run.instance, &seq);
        assert!(is_subsequence(&target, &cand));
    }

    #[test]
    fn proposition_3_12_a5_not_exact_in_r1s() {
        // Example A.5: the REA execution cannot be exactly realized in R1S.
        let run = paper_runs::a5_rea();
        let target = target_of(&run);
        let res = search(&run.instance, "R1S".parse().unwrap(), &target, SearchGoal::Exact, &cfg())
            .unwrap();
        assert!(res.is_impossible(), "{res:?}");
    }

    #[test]
    fn a5_exactly_realizable_in_queueing_model() {
        // RMS exactly realizes REA (Fig. 3), so the A.5 trace must be
        // exactly inducible in RMS.
        let run = paper_runs::a5_rea();
        let target = target_of(&run);
        let res = search(&run.instance, "RMS".parse().unwrap(), &target, SearchGoal::Exact, &cfg())
            .unwrap();
        let SearchResult::Found(seq) = res else { panic!("{res:?}") };
        let cand = Runner::trace_of(&run.instance, &seq);
        assert!(exact_then_settled(&target, &cand), "{}", cand.render(&run.instance));
        check_sequence("RMS".parse().unwrap(), run.instance.graph(), &seq).unwrap();
    }

    #[test]
    fn a4_repetition_realizable_in_r1s() {
        // R1S realizes REA with repetition (Fig. 3 row REA col R1S = 3).
        let run = paper_runs::a4_rea();
        let target = target_of(&run);
        let res =
            search(&run.instance, "R1S".parse().unwrap(), &target, SearchGoal::Repetition, &cfg())
                .unwrap();
        let SearchResult::Found(seq) = res else { panic!("{res:?}") };
        let cand = Runner::trace_of(&run.instance, &seq);
        assert!(is_repetition(&target, &cand));
    }

    #[test]
    fn mismatched_initial_assignment_is_impossible() {
        let run = paper_runs::a4_rea();
        let mut bogus = PathTrace::new();
        bogus.push(vec![routelab_spp::Route::empty(); run.instance.node_count()]);
        let res = search(&run.instance, "REA".parse().unwrap(), &bogus, SearchGoal::Exact, &cfg())
            .unwrap();
        assert!(res.is_impossible());
    }

    #[test]
    fn forever_initial_assignment_is_unfair_hence_impossible() {
        // A base trace that never leaves the initial assignment cannot be
        // realized by any *fair* execution: the destination must eventually
        // announce and its neighbors must adopt a route.
        let run = paper_runs::a4_rea();
        let target = {
            let mut t = PathTrace::new();
            let index = ChannelIndex::new(run.instance.graph());
            t.push(NetworkState::initial(&run.instance, &index).assignment());
            t
        };
        let res = search(&run.instance, "REA".parse().unwrap(), &target, SearchGoal::Exact, &cfg())
            .unwrap();
        assert!(res.is_impossible(), "{res:?}");
    }

    #[test]
    fn bound_exceeded_reported() {
        let run = paper_runs::a3_reo();
        let target = target_of(&run);
        let tight = ExploreConfig {
            channel_cap: 6,
            max_states: 3,
            max_steps_per_state: 50_000,
            ..ExploreConfig::default()
        };
        let res = search(&run.instance, "RMS".parse().unwrap(), &target, SearchGoal::Exact, &tight)
            .unwrap();
        assert!(matches!(res, SearchResult::BoundExceeded { .. }), "{res:?}");
    }

    #[test]
    fn search_is_thread_invariant() {
        // The same witness (not merely *a* witness) at every thread count.
        let run = paper_runs::a3_reo();
        let target = target_of(&run);
        let mut found = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = ExploreConfig { threads: Some(threads), ..cfg() };
            let res =
                search(&run.instance, "REO".parse().unwrap(), &target, SearchGoal::Exact, &cfg)
                    .unwrap();
            let SearchResult::Found(seq) = res else { panic!("{res:?}") };
            found.push(seq);
        }
        assert_eq!(found[0], found[1]);
        assert_eq!(found[0], found[2]);
    }
}
