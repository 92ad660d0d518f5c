//! The reference decision of the Definition 3.2 relations that the linear
//! run-length kernel `routelab_engine::trace::relation` is checked against.

use routelab_engine::trace::TraceRelation;

/// The strongest relation between `base` and `candidate`: equality, then
/// repetition decided by a dynamic program over base blocks, then a greedy
/// subsequence scan.
pub fn relation_dp<T: PartialEq>(base: &[T], candidate: &[T]) -> TraceRelation {
    if base == candidate {
        TraceRelation::Exact
    } else if is_repetition_dp(base, candidate) {
        TraceRelation::Repetition
    } else if is_subsequence(base, candidate) {
        TraceRelation::Subsequence
    } else {
        TraceRelation::None
    }
}

/// `candidate` replaces each row of `base` with one or more consecutive
/// copies. The state is the set of base blocks the candidate prefix can end
/// inside: adjacent equal base rows make block boundaries ambiguous.
fn is_repetition_dp<T: PartialEq>(base: &[T], candidate: &[T]) -> bool {
    if base.is_empty() {
        return candidate.is_empty();
    }
    let n = base.len();
    let mut in_block = vec![false; n];
    let mut before_first = true;
    for row in candidate {
        let mut next = vec![false; n];
        let mut any = false;
        for t in 0..n {
            let can_continue = in_block[t];
            let can_start = if t == 0 { before_first } else { in_block[t - 1] };
            if (can_continue || can_start) && *row == base[t] {
                next[t] = true;
                any = true;
            }
        }
        before_first = false;
        in_block = next;
        if !any {
            return false;
        }
    }
    !before_first && in_block[n - 1]
}

/// `base` is a subsequence of `candidate`.
fn is_subsequence<T: PartialEq>(base: &[T], candidate: &[T]) -> bool {
    let mut t = 0;
    for row in candidate {
        if t < base.len() && *row == base[t] {
            t += 1;
        }
    }
    t == base.len()
}
