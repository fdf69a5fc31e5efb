//! A minimal scheduler over `std::thread` for static task sets.
//!
//! The engine's parallelism is embarrassingly data-parallel (disjoint
//! subtrees, disjoint gate ranges, independent requests): every fan-out is
//! a fixed set of tasks, known up front, whose costs vary wildly — a cut
//! subtree can be three nodes or a third of the tree. One shared cursor
//! balances that: each worker claims the next unclaimed task index until
//! the cursor runs past the end, so a worker stuck on a heavy task simply
//! claims fewer. No blocking is needed: the task set never grows, so a
//! worker that finds the cursor past the end is done. Each worker keeps
//! its own `(index, result)` pairs and hands them back when it joins; the
//! pool then puts them in task order. The calling thread is worker 0 — it
//! claims tasks instead of idling in the join — and workers are scoped
//! threads started per call, so a fan-out pays for a spawn only where
//! [`workers_for`] finds enough work to cover it.
//!
//! The no-external-deps rule rules out `rayon`/`crossbeam`; one atomic
//! cursor is entirely sufficient here because tasks are coarse (hundreds
//! of tree nodes or an entire request).
//!
//! ## Panic containment
//!
//! Task bodies run under [`std::panic::catch_unwind`], so a panic in task
//! `i` is captured as that task's result: [`run_tasks`] re-raises the
//! first captured payload on the caller thread (same observable behaviour
//! as sequential execution), and [`run_tasks_catching`] hands the panics
//! back as per-task `Err` values so a session can fail one request while
//! serving the rest. The session's own mutexes go through
//! [`lock_recovering`], so one bad request cannot poison them for the
//! other workers or the caller.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use treelineage_telemetry::Telemetry;

/// Locks a mutex, recovering the guard when a previous holder panicked.
///
/// All engine state guarded by mutexes (fragment slot ranges, session
/// caches) is kept consistent across unwinds — writers only replace whole
/// values, never leave partial updates — so the poison flag carries no
/// information here and propagating it would only turn one panic into an
/// opaque cascade of `PoisonError` panics.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a captured panic payload as text (the common `&str` / `String`
/// payloads are shown verbatim; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type TaskResult<T> = Result<T, Box<dyn Any + Send>>;

/// Runs `count` independent tasks on up to `threads` workers and returns
/// their results in task order. `job(i)` computes task `i`; tasks must not
/// depend on each other. The caller's thread is worker 0, so `w` workers
/// spawn `w - 1` scoped threads. With `threads <= 1` (or a single task)
/// everything runs inline on the caller's thread — the scheduler adds zero
/// overhead to the sequential path; [`workers_for`] sizes `threads` from a
/// work estimate, so small fan-outs take that path too.
///
/// If a task panics, the remaining tasks still run to completion and the
/// first panic (in task order) is re-raised on the caller's thread with its
/// original payload; no mutex poisoning escapes.
///
/// When `telemetry` is enabled, each worker records its executed-task
/// count (`pool_tasks_total`, labelled by worker index, the caller being
/// `"0"`, or `"inline"` when nothing is spawned) once, at worker exit — the
/// task loop itself touches only the cursor and the worker's own results,
/// so instrumentation never contends.
pub(crate) fn run_tasks<T, F>(threads: usize, count: usize, telemetry: &Telemetry, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(count);
    for result in run_tasks_impl(threads, count, telemetry, job) {
        match result {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Like [`run_tasks`], but panics become per-task `Err` values (rendered to
/// text) instead of unwinding the caller: the session layer maps these to
/// typed `EngineError::WorkerPanicked` results so one malformed request in a
/// batch cannot take down its neighbours or the session.
pub(crate) fn run_tasks_catching<T, F>(
    threads: usize,
    count: usize,
    telemetry: &Telemetry,
    job: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_tasks_impl(threads, count, telemetry, job)
        .into_iter()
        .map(|r| r.map_err(|payload| panic_message(payload.as_ref())))
        .collect()
}

/// How many workers a fan-out of `count` tasks gets when the tasks hold
/// `work` units in all (tree nodes, gates — whatever `work_per_worker` is
/// measured in): `min(threads, count, 1 + work / work_per_worker)`. Below
/// `work_per_worker` units this is one worker, so [`run_tasks`] runs the
/// same tasks in the same order on the caller's thread; each further
/// `work_per_worker` units buy one more spawned worker. A spawned worker
/// costs a thread start and join per call (the pool is per call: the
/// engine forbids `unsafe`, so no worker outlives a borrow of the tasks),
/// and the call sites size `work_per_worker` from that cost (DESIGN.md
/// §Concurrency).
pub(crate) fn workers_for(
    threads: usize,
    count: usize,
    work: usize,
    work_per_worker: usize,
) -> usize {
    threads.min(count).min(1 + work / work_per_worker)
}

fn run_tasks_impl<T, F>(
    threads: usize,
    count: usize,
    telemetry: &Telemetry,
    job: F,
) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let guarded = |i: usize| catch_unwind(AssertUnwindSafe(|| job(i)));
    let workers = threads.min(count);
    if workers <= 1 {
        let results: Vec<TaskResult<T>> = (0..count).map(guarded).collect();
        if telemetry.is_enabled() && count > 0 {
            telemetry.counter_add("pool_tasks_total", &[("worker", "inline")], count as u64);
        }
        return results;
    }
    // Worker `w` claims task indices from the one cursor until it runs
    // past `count`, and returns what it ran as `(index, result)` pairs.
    let cursor = AtomicUsize::new(0);
    let work = |w: usize| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            done.push((i, guarded(i)));
        }
        if telemetry.is_enabled() && !done.is_empty() {
            let worker = w.to_string();
            let labels = [("worker", worker.as_str())];
            telemetry.counter_add("pool_tasks_total", &labels, done.len() as u64);
        }
        done
    };
    // Capture the caller's span context at spawn time: spawned workers
    // install it as their ambient context, so any span a task opens
    // parents back to the span that started the fan-out instead of
    // starting an orphan trace. (Worker 0 needs nothing — it is the
    // caller, whose own span stack is already in place.)
    let span_context = telemetry.current_context();
    let mut results: Vec<(usize, TaskResult<T>)> = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers)
            .map(|w| {
                scope.spawn(move || {
                    let _context_guard = telemetry.install_context(span_context);
                    work(w)
                })
            })
            .collect();
        // The caller is worker 0: it claims tasks instead of idling until
        // the spawned workers join.
        let mut results = work(0);
        for handle in spawned {
            // Internal invariant: task panics are caught inside `work`, so
            // a worker thread itself does not unwind.
            results.extend(handle.join().expect("pool workers catch task panics"));
        }
        results
    });
    // The cursor handed out each index exactly once, so sorting by index
    // restores task order.
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_tasks(threads, 37, &Telemetry::disabled(), |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_tasks(4, 100, &Telemetry::disabled(), |i| {
            counters[i].fetch_add(1, Ordering::SeqCst)
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_task_costs_are_balanced() {
        // A few heavy tasks among many light ones: stealing must still
        // produce the right results (timing is not asserted — the point is
        // that the scheduler terminates and stays correct under imbalance).
        let out = run_tasks(4, 16, &Telemetry::disabled(), |i| {
            if i % 5 == 0 {
                (0..20_000u64).map(|x| x.wrapping_mul(i as u64 + 1)).sum()
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 16);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Every task sleeps a little, so no single thread drains all the
        // deques before the others start: the caller must run tasks of its
        // own, and at most `workers - 1` other threads may appear.
        let caller = std::thread::current().id();
        for threads in [2usize, 3, 8] {
            let ids = run_tasks(threads, 32, &Telemetry::disabled(), |_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            });
            assert!(ids.contains(&caller), "threads={threads}");
            let others: std::collections::HashSet<_> =
                ids.iter().filter(|&&id| id != caller).collect();
            assert!(others.len() < threads, "threads={threads}: {others:?}");
        }
    }

    #[test]
    fn workers_for_runs_small_fan_outs_inline() {
        assert_eq!(workers_for(8, 10, 0, 100), 1);
        assert_eq!(workers_for(8, 10, 99, 100), 1);
        assert_eq!(workers_for(8, 10, 100, 100), 2);
        assert_eq!(workers_for(8, 10, 10_000, 100), 8);
        assert_eq!(workers_for(8, 3, 10_000, 100), 3);
        assert_eq!(workers_for(2, 10, 10_000, 100), 2);
        assert_eq!(workers_for(1, 10, 10_000, 100), 1);
        // Inline: one worker records under the "inline" label.
        let telemetry = Telemetry::enabled();
        let out = run_tasks(workers_for(8, 4, 10, 100), 4, &telemetry, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3]);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("pool_tasks_total", &[("worker", "inline")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("pool_tasks_total"), 4);
    }

    #[test]
    fn zero_and_one_tasks() {
        assert!(run_tasks(4, 0, &Telemetry::disabled(), |i| i).is_empty());
        assert_eq!(run_tasks(4, 1, &Telemetry::disabled(), |i| i + 1), vec![1]);
    }

    #[test]
    fn panicking_task_does_not_poison_the_rest() {
        // One bad task out of 16: the others must all complete, the bad one
        // must come back as a typed error, and the original message must
        // survive — no secondary PoisonError panics anywhere.
        let out = run_tasks_catching(4, 16, &Telemetry::disabled(), |i| {
            if i == 5 {
                panic!("task {i} exploded");
            }
            i * 10
        });
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert_eq!(r.as_ref().unwrap_err(), "task 5 exploded");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn run_tasks_reraises_the_panic_once() {
        let caught = std::panic::catch_unwind(|| {
            run_tasks(4, 8, &Telemetry::disabled(), |i| {
                if i == 3 {
                    panic!("original payload");
                }
                i
            })
        });
        let payload = caught.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "original payload");
    }

    #[test]
    fn pool_stays_usable_after_a_panic() {
        // A panicking run followed by a clean run on the same thread: the
        // second run must behave normally (nothing static was poisoned).
        let _ = run_tasks_catching(4, 8, &Telemetry::disabled(), |i| {
            if i == 0 {
                panic!("boom")
            } else {
                i
            }
        });
        let out = run_tasks(4, 8, &Telemetry::disabled(), |i| i + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_counts_tasks_across_workers() {
        let telemetry = Telemetry::enabled();
        let out = run_tasks(4, 64, &telemetry, |i| {
            // Uneven costs so at least one steal is plausible; only the
            // task total is asserted (steals depend on timing).
            if i % 7 == 0 {
                (0..10_000u64).map(|x| x.wrapping_add(i as u64)).sum()
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 64);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_total("pool_tasks_total"), 64);
        // The inline path records under the "inline" worker label.
        let _ = run_tasks(1, 5, &telemetry, |i| i);
        assert_eq!(
            telemetry
                .snapshot()
                .counter("pool_tasks_total", &[("worker", "inline")]),
            Some(5)
        );
    }

    #[test]
    fn worker_spans_parent_to_the_spawning_context() {
        // The regression this pins: span parenting used to ride only a
        // thread-local stack, so spans opened by pool workers came out as
        // orphan roots. With context capture at spawn time they must all
        // parent to the span that was open at the `run_tasks` call.
        let telemetry = Telemetry::enabled();
        let root = telemetry.span("root");
        let root_ctx = root.context().unwrap();
        let out = run_tasks(8, 16, &telemetry, |i| {
            let mut span = telemetry.span("task");
            span.label("task", i);
            i
        });
        assert_eq!(out.len(), 16);
        drop(root);
        let events = telemetry.drain_events();
        let tasks: Vec<_> = events.iter().filter(|e| e.name == "task").collect();
        assert_eq!(tasks.len(), 16);
        for task in tasks {
            assert_eq!(
                task.parent,
                Some(root_ctx.span),
                "pool-worker span detached from the spawning request"
            );
            assert_eq!(task.trace, root_ctx.trace);
        }
    }

    #[test]
    fn lock_recovering_recovers_poisoned_mutexes() {
        let m = Mutex::new(41);
        // Poison it.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        *lock_recovering(&m) += 1;
        assert_eq!(*lock_recovering(&m), 42);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The merge of per-worker results at any thread and task count:
        /// each task's value (or panic message) lands at its own index,
        /// every task runs exactly once, and `pool_tasks_total` sums to
        /// the task count.
        #[test]
        fn the_cursor_returns_every_task_once_at_its_index(
            threads in 1usize..9,
            count in 0usize..65,
            panics in proptest::prelude::any::<u64>(),
        ) {
            let panicking = |i: usize| panics >> i & 1 == 1;
            let runs: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            let telemetry = Telemetry::enabled();
            let out = run_tasks_catching(threads, count, &telemetry, |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                if panicking(i) {
                    panic!("task {i} panicked");
                }
                i * 3
            });
            proptest::prop_assert_eq!(out.len(), count);
            for (i, result) in out.iter().enumerate() {
                if panicking(i) {
                    proptest::prop_assert_eq!(result, &Err(format!("task {i} panicked")));
                } else {
                    proptest::prop_assert_eq!(result, &Ok(i * 3));
                }
            }
            proptest::prop_assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            proptest::prop_assert_eq!(
                telemetry.snapshot().counter_total("pool_tasks_total"),
                count as u64
            );
        }
    }
}
