//! Theorem 3.5's `split` transform takes time linear in its input: it steps
//! its source simulator in place rather than copying it once per step.
//!
//! A copy of a simulator copies its route table and its state, so copies
//! per step make the allocation count grow faster than the prefix. A
//! counting global allocator counts only on a thread that has set its
//! thread-local flag, so other test threads do not count.

#[path = "../../engine/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use routelab_core::model::CommModel;
use routelab_core::MessagePolicy;
use routelab_realize::plan::fair_prefix;
use routelab_realize::transform::split_m_to_1;
use routelab_spp::gadgets;

#[test]
fn split_allocations_grow_linearly_with_the_prefix() {
    let inst = gadgets::fig6();
    let rma: CommModel = "RMA".parse().unwrap();
    let allocations = |steps| {
        let seq = fair_prefix(&inst, rma, steps);
        allocations_during(|| {
            split_m_to_1(&inst, &seq, MessagePolicy::All).unwrap();
        })
    };
    let t = 8 * inst.node_count();
    let (short, long) = (allocations(t), allocations(2 * t));
    assert!(10 * long <= 22 * short, "{short} allocations for {t} steps but {long} for {}", 2 * t);
}
