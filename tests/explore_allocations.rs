//! Allocation guard of the exhaustive explorer.
//!
//! Once its undo logs are warm, the explorer steps a configuration in
//! place, hashes it and undoes the step without allocating: each log keeps
//! its state slot and its delivery and send buffers from step to step. So
//! a whole verdict makes a few hundred allocations, for its hash sets, its
//! frames and its path, however many children it steps. A step that
//! allocated again would cost at least one allocation per child.
//!
//! The counting allocator counts only the allocations of the thread that
//! runs the exploration: its counter is thread-local, so the test
//! harness's other threads do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kset::core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset::core::task::distinct_proposals;
use kset::sim::explore::{explore, Branching, ExploreConfig};
use kset::sim::{CrashPlan, NoOracle, Simulation};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each `alloc`, `alloc_zeroed` and
/// `realloc` of the calling thread.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; it is not the one
    // under test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Agreement among the decided processes, checked without allocating
/// unless it fails.
fn at_most_one_decision(sim: &Simulation<TwoStage, NoOracle>) -> Result<(), String> {
    let mut decided = sim.decisions().iter().flatten();
    match decided.next() {
        Some(first) if decided.any(|v| v != first) => Err("two distinct decisions".into()),
        _ => Ok(()),
    }
}

#[test]
fn exploring_allocates_nothing_per_child() {
    // Two-stage, n = 3, L = 2, per-source delivery subsets: the pinned
    // verdict of `exhaustive_integration`, 13 800 children.
    let sim: Simulation<TwoStage, _> = Simulation::new(
        two_stage_inputs(2, &distinct_proposals(3)),
        CrashPlan::none(),
    );
    let config = ExploreConfig {
        max_depth: 64,
        max_states: 400_000,
        branching: Branching::PerSource,
    };
    let before = allocations();
    let report = explore(&sim, &config, at_most_one_decision);
    let made = allocations() - before;
    assert!(report.verified(), "{report:?}");
    assert_eq!((report.states_expanded, report.children), (2263, 13800));
    // A step that allocated its buffers or a copy of the process state
    // would make several allocations per child: over 50 000 here.
    assert!(
        made <= 300,
        "{made} allocations for {} children",
        report.children
    );
}
