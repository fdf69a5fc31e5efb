//! The zero-cost-when-disabled guarantee, pinned with a counting allocator:
//! a disabled [`Telemetry`] handle must perform **zero heap allocations** on
//! the hot recording path — counters, gauges, histograms, spans, labels.
//! (The engine threads a handle through every pipeline stage; this test is
//! what lets it do so unconditionally instead of branching at every call
//! site.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treelineage_telemetry::Telemetry;

/// A pass-through allocator that counts allocation calls per thread.
struct CountingAllocator;

thread_local! {
    // Per thread, so the test harness running the sibling test on another
    // thread cannot leak its allocations into this thread's count. `const`
    // initialisation and a `Drop`-free `Cell` keep the slot itself from
    // allocating (no lazy init, no destructor registration).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_handle_allocates_nothing() {
    let telemetry = Telemetry::disabled();
    // Warm up: the first thread-local / lazy-static touches of the process
    // are not what this test is about.
    drop(telemetry.span("warmup"));
    telemetry.counter_add("warmup", &[], 1);

    let before = allocations();
    for i in 0..10_000u64 {
        telemetry.counter_add("requests_total", &[("kind", "probability")], 1);
        telemetry.gauge_set("occupancy", &[], i as i64);
        telemetry.observe_ns("latency_ns", &[], i);
        let mut span = telemetry.span("stage");
        span.label("iteration", i);
        drop(span);
        drop(telemetry.clone());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated on the hot path"
    );
}

#[test]
fn enabled_handle_does_allocate() {
    // Sanity check that the counter actually observes telemetry work, so
    // the zero above is meaningful.
    let telemetry = Telemetry::enabled();
    let before = allocations();
    telemetry.counter_add("requests_total", &[("kind", "probability")], 1);
    drop(telemetry.span("stage"));
    assert!(allocations() > before, "counting allocator saw no activity");
}
