//! Path-assignment traces and the realization relations of Definition 3.2.

use routelab_spp::{Route, SppInstance};

/// A sequence of global path assignments `π(0), π(1), …`, one per executed
/// step plus the initial assignment at index 0. Each assignment is indexed
/// by node id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathTrace {
    assignments: Vec<Vec<Route>>,
}

impl PathTrace {
    /// An empty trace.
    pub fn new() -> Self {
        PathTrace::default()
    }

    /// Appends an assignment.
    pub fn push(&mut self, pi: Vec<Route>) {
        self.assignments.push(pi);
    }

    /// Number of recorded assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The `t`-th assignment.
    pub fn get(&self, t: usize) -> Option<&Vec<Route>> {
        self.assignments.get(t)
    }

    /// The final assignment, if any.
    pub fn last(&self) -> Option<&Vec<Route>> {
        self.assignments.last()
    }

    /// Iterates over assignments in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Route>> {
        self.assignments.iter()
    }

    /// Collapses consecutive duplicate assignments (the "stutter-free"
    /// skeleton used when checking realization with repetition).
    pub fn dedup(&self) -> PathTrace {
        let mut out = PathTrace::new();
        for pi in &self.assignments {
            if out.last() != Some(pi) {
                out.push(pi.clone());
            }
        }
        out
    }

    /// Renders a trace with instance names, one line per step.
    pub fn render(&self, inst: &SppInstance) -> String {
        let mut out = String::new();
        for (t, pi) in self.assignments.iter().enumerate() {
            let cells: Vec<String> = pi.iter().map(|r| inst.fmt_route(r)).collect();
            out.push_str(&format!("t={t}: ({})\n", cells.join(", ")));
        }
        out
    }
}

impl FromIterator<Vec<Route>> for PathTrace {
    fn from_iter<I: IntoIterator<Item = Vec<Route>>>(iter: I) -> Self {
        PathTrace { assignments: iter.into_iter().collect() }
    }
}

/// The relation between a base trace and a candidate realization
/// (Definition 3.2), strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceRelation {
    /// No relation holds.
    None,
    /// The base is a subsequence of the candidate.
    Subsequence,
    /// The candidate is the base with assignments repeated.
    Repetition,
    /// The traces are identical.
    Exact,
}

/// The strongest relation of Definition 3.2 between a base sequence of rows
/// and a candidate, in time linear in their lengths. Rows are anything
/// comparable: route-valued assignments or interned route ids.
///
/// The candidate realizes the base with repetition exactly when it replaces
/// every row with one or more copies. Grouping both into maximal runs of
/// equal rows, that holds exactly when the runs carry the same rows in the
/// same order and every candidate run is at least as long as its base run.
pub fn relation<T: PartialEq>(base: &[T], candidate: &[T]) -> TraceRelation {
    if base == candidate {
        return TraceRelation::Exact;
    }
    let mut base_runs = base.chunk_by(PartialEq::eq);
    let mut cand_runs = candidate.chunk_by(PartialEq::eq);
    loop {
        match (base_runs.next(), cand_runs.next()) {
            (None, None) => return TraceRelation::Repetition,
            (Some(b), Some(c)) if b[0] == c[0] && c.len() >= b.len() => {}
            _ => break,
        }
    }
    let mut t = 0;
    for row in candidate {
        if t < base.len() && *row == base[t] {
            t += 1;
        }
    }
    if t == base.len() {
        TraceRelation::Subsequence
    } else {
        TraceRelation::None
    }
}

/// `π'` exactly realizes `π`: the sequences are identical.
pub fn is_exact(base: &PathTrace, candidate: &PathTrace) -> bool {
    strongest_relation(base, candidate) == TraceRelation::Exact
}

/// `π'` realizes `π` with repetition: `π'` is obtained from `π` by replacing
/// each assignment with one or more consecutive copies.
pub fn is_repetition(base: &PathTrace, candidate: &PathTrace) -> bool {
    strongest_relation(base, candidate) >= TraceRelation::Repetition
}

/// `π'` realizes `π` as a subsequence: `π` is a subsequence of `π'`.
pub fn is_subsequence(base: &PathTrace, candidate: &PathTrace) -> bool {
    strongest_relation(base, candidate) >= TraceRelation::Subsequence
}

/// The strongest relation of Definition 3.2 that holds between `base` and
/// `candidate` (see [`relation`]).
pub fn strongest_relation(base: &PathTrace, candidate: &PathTrace) -> TraceRelation {
    relation(&base.assignments, &candidate.assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::Path;

    fn pi(tag: u32) -> Vec<Route> {
        // Distinct single-node assignments keyed by tag.
        vec![Route::from(Path::from_ids([tag]).unwrap())]
    }

    fn trace(tags: &[u32]) -> PathTrace {
        tags.iter().map(|&t| pi(t)).collect()
    }

    #[test]
    fn exact_relation() {
        assert!(is_exact(&trace(&[1, 2, 3]), &trace(&[1, 2, 3])));
        assert!(!is_exact(&trace(&[1, 2]), &trace(&[1, 2, 3])));
    }

    #[test]
    fn repetition_relation() {
        let base = trace(&[1, 2, 3]);
        assert!(is_repetition(&base, &trace(&[1, 2, 3])));
        assert!(is_repetition(&base, &trace(&[1, 1, 2, 3, 3, 3])));
        // Missing an element of the base.
        assert!(!is_repetition(&base, &trace(&[1, 3])));
        // Extra foreign state.
        assert!(!is_repetition(&base, &trace(&[1, 2, 9, 3])));
        // Order matters.
        assert!(!is_repetition(&base, &trace(&[2, 1, 3])));
        // Truncated candidate.
        assert!(!is_repetition(&base, &trace(&[1, 2])));
        // Repetition must handle equal adjacent base entries.
        let stutter = trace(&[1, 1, 2]);
        assert!(is_repetition(&stutter, &trace(&[1, 1, 2])));
        assert!(is_repetition(&stutter, &trace(&[1, 1, 1, 2])));
    }

    #[test]
    fn subsequence_relation() {
        let base = trace(&[1, 3]);
        assert!(is_subsequence(&base, &trace(&[1, 2, 3])));
        assert!(is_subsequence(&base, &trace(&[1, 3])));
        assert!(!is_subsequence(&base, &trace(&[3, 1])));
        assert!(!is_subsequence(&base, &trace(&[1, 2])));
        assert!(is_subsequence(&trace(&[]), &trace(&[1])));
    }

    #[test]
    fn strongest_relation_ranks() {
        let base = trace(&[1, 2]);
        assert_eq!(strongest_relation(&base, &trace(&[1, 2])), TraceRelation::Exact);
        assert_eq!(strongest_relation(&base, &trace(&[1, 1, 2])), TraceRelation::Repetition);
        assert_eq!(strongest_relation(&base, &trace(&[1, 9, 2])), TraceRelation::Subsequence);
        assert_eq!(strongest_relation(&base, &trace(&[2, 1])), TraceRelation::None);
        assert!(TraceRelation::Exact > TraceRelation::Repetition);
        assert!(TraceRelation::Repetition > TraceRelation::Subsequence);
        assert!(TraceRelation::Subsequence > TraceRelation::None);
    }

    #[test]
    fn dedup_collapses_stutter() {
        let t = trace(&[1, 1, 2, 2, 2, 1]);
        assert_eq!(t.dedup(), trace(&[1, 2, 1]));
        assert!(PathTrace::new().dedup().is_empty());
    }

    #[test]
    fn accessors() {
        let t = trace(&[1, 2]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.get(1), Some(&pi(2)));
        assert_eq!(t.get(2), None);
        assert_eq!(t.last(), Some(&pi(2)));
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn render_includes_epsilon() {
        let inst = routelab_spp::gadgets::line2();
        let mut t = PathTrace::new();
        t.push(vec![Route::empty(), Route::empty()]);
        let s = t.render(&inst);
        assert!(s.contains('ε'), "{s}");
    }
}
