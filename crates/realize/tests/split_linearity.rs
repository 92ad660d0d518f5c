//! Theorem 3.5's `split` transform takes time linear in its input: it steps
//! its source simulator in place rather than copying it once per step. And
//! `verify_route` copies no sequence through identity (`embed`) stages, and
//! its simulators build no channel index of their own.
//!
//! A copy of a simulator copies its state, and a copy of a sequence copies
//! every step, so copies per step or per stage make the allocation count
//! grow with the prefix. A counting global allocator counts only on a
//! thread that has set its thread-local flag, so other test threads do not
//! count.

#[path = "../../engine/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use routelab_core::model::CommModel;
use routelab_core::MessagePolicy;
use routelab_engine::index::ChannelIndex;
use routelab_engine::runner::Runner;
use routelab_realize::plan::{fair_prefix, plan_route, verify_route, Route};
use routelab_realize::registry::Registry;
use routelab_realize::transform::{split_m_to_1, Tables};
use routelab_spp::{gadgets, RouteTable};

#[test]
fn split_allocations_grow_linearly_with_the_prefix() {
    let inst = gadgets::fig6();
    let tables = Tables::new(&inst);
    let rma: CommModel = "RMA".parse().unwrap();
    let allocations = |steps| {
        let seq = fair_prefix(&inst, rma, steps);
        allocations_during(|| {
            split_m_to_1(&tables, &seq, MessagePolicy::All).unwrap();
        })
    };
    let t = 8 * inst.node_count();
    let (short, long) = (allocations(t), allocations(2 * t));
    assert!(10 * long <= 22 * short, "{short} allocations for {t} steps but {long} for {}", 2 * t);
}

#[test]
fn verify_route_allocations_do_not_grow_with_embed_stages_or_the_prefix() {
    let inst = gadgets::fig6();
    let reg = Registry::global();
    let rea: CommModel = "REA".parse().unwrap();
    let embeds = plan_route(reg, rea, "UMS".parse().unwrap()).unwrap();
    assert_eq!(embeds.steps.len(), 4, "{embeds}");
    assert!(embeds.steps.iter().all(|s| s.name == "embed"), "{embeds}");
    let trivial = plan_route(reg, rea, rea).unwrap();
    let allocations = |route: &Route, steps| {
        let seq = fair_prefix(&inst, rea, steps);
        allocations_during(|| {
            assert!(verify_route(&inst, &seq, route).unwrap().holds());
        })
    };
    let t = 8 * inst.node_count();
    let (short, long) = (allocations(&embeds, t), allocations(&embeds, 2 * t));
    assert_eq!(short, long, "{short} allocations for {t} steps but {long} for {}", 2 * t);
    let base = allocations(&trivial, t);
    assert!(short <= base + 4, "{short} allocations through {embeds}, {base} for {trivial}");
}

#[test]
fn a_runner_from_tables_builds_no_channel_index() {
    // A runner over a borrowed route table alone builds its own channel
    // index; one from `Tables` borrows theirs, so it allocates exactly one
    // index build less.
    let inst = gadgets::fig6();
    let tables = Tables::new(&inst);
    let table = RouteTable::new(&inst);
    let lent = allocations_during(|| drop(tables.runner()));
    let own = allocations_during(|| drop(Runner::with_table(&inst, &table).tracing(false)));
    let index = allocations_during(|| drop(ChannelIndex::new(inst.graph())));
    assert!(index > 0);
    assert_eq!(lent + index, own, "{lent} allocations from Tables, {own} with its own index");
}
