//! The Monte-Carlo drive loop allocates nothing per step once warm.
//!
//! A counting global allocator counts only on a thread that has set its
//! thread-local flag, so other test threads do not count. `RandomFair`
//! drives BAD-GADGET, which has no stable assignment and so never
//! converges, through a warm-up that sizes every reused buffer. After it,
//! `drive` must make as many allocations in 1,000 further steps as in
//! 10,000, under each reliable model of the pinned Monte-Carlo grid.
//!
//! Unreliable models are left out on purpose: a drop set is a `BTreeSet`
//! inside core's `ChannelAction`, so every step that drops a message still
//! allocates one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use routelab_core::model::CommModel;
use routelab_engine::outcome::{drive, RunOutcome};
use routelab_engine::runner::Runner;
use routelab_engine::schedule::RandomFair;
use routelab_spp::{gadgets, RouteTable};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations on flagged threads and defers every call to
/// [`System`].
struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only `Cell`s in
// constant-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_random_fair_drive_allocates_nothing_per_step() {
    let inst = gadgets::bad_gadget();
    let table = RouteTable::new(&inst);
    for model in ["R1O", "REO", "RMS", "R1A", "RMA", "REA"] {
        let model: CommModel = model.parse().unwrap();
        let mut runner = Runner::with_table(&inst, &table).tracing(false);
        let mut sched = RandomFair::new(&inst, model, 42);
        let warm = drive(&mut runner, &mut sched, 5_000);
        assert_eq!(warm, RunOutcome::StepLimit { steps: 5_000 }, "{model}");
        let short = allocations_during(|| {
            drive(&mut runner, &mut sched, 1_000);
        });
        let long = allocations_during(|| {
            drive(&mut runner, &mut sched, 10_000);
        });
        assert_eq!(short, long, "{model}: allocations grow with the step count");
        assert_eq!(runner.stats().steps, 16_000, "{model}");
    }
}
