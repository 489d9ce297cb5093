//! Deterministic scoped thread pool for chunk-level parallelism.
//!
//! Chunks are independent frames by construction (`chunk::partition`
//! emits disjoint row bands), so encoding and decoding them is
//! embarrassingly parallel — the same frame-level parallelism real NVENC
//! silicon exploits (PAPER.md §4). The constraint is bit-exactness: the
//! distributed-training simulator re-encodes the same tensor on every
//! rank and the streams must match byte for byte, so parallel execution
//! must not be able to influence the output.
//!
//! This pool guarantees that with the **ordered-collection idiom**:
//!
//! 1. workers claim task indices from an atomic counter (load balancing
//!    is scheduling-dependent and that is fine);
//! 2. each worker keeps its results as `(index, value)` pairs private to
//!    the worker;
//! 3. after an **ordered join** of every worker, the results are placed
//!    into a pre-sized `Vec<Option<T>>` slot addressed by task index.
//!
//! The output vector is a pure function of `f` and `n_tasks`: thread
//! count, scheduling and work stealing can only change *when* `f(i)` runs,
//! never *where* its result lands. There is no cross-task reduction, so
//! no float-accumulation-order hazard either.
//!
//! The workspace `clippy.toml` bans threads, clocks, hashed collections,
//! locks and atomic loads everywhere else, so this module is the one
//! place that spawns workers or reads the machine's thread count: its two
//! sites carry `#[allow(clippy::disallowed_methods)]` with the reason. A
//! task cannot write to state it captures either: `F: Fn + Sync` makes
//! the compiler reject that.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::CodecError;

/// Upper bound on worker threads; guards against absurd configuration
/// values (`Llm265Config::threads` is user-controlled).
const MAX_THREADS: usize = 256;

/// Runs `f(0..n_tasks)` on `threads` workers and returns the results in
/// task-index order.
///
/// `threads == 0` resolves to the machine's available parallelism. The
/// output is bit-identical at every thread count, including 1: results
/// are joined in worker order and placed by task index, so scheduling
/// cannot reorder them.
///
/// # Errors
///
/// Returns [`CodecError::Internal`] if a worker panics. All workers are
/// joined before returning — a panicking task never leaves detached
/// threads running.
///
/// A task that writes to a captured variable does not compile, so no
/// result can depend on which worker ran first:
///
/// ```compile_fail,E0594
/// let mut total = 0usize;
/// let _ = llm265_core::pool::run_ordered(4, 2, |_i| {
///     total += 1;
/// });
/// ```
pub fn run_ordered<T, F>(n_tasks: usize, threads: usize, f: F) -> Result<Vec<T>, CodecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads, n_tasks);
    if threads <= 1 {
        // Inline path: identical order and arithmetic to the parallel
        // path's per-index calls, with zero spawn overhead.
        return Ok((0..n_tasks).map(f).collect());
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n_tasks);
    slots.resize_with(n_tasks, || None);

    #[allow(
        clippy::disallowed_methods,
        reason = "workers only claim task indices; results are joined in spawn order and placed by task index"
    )]
    let joined: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        // Ordered join: every handle is joined (a panic in one worker
        // must not leave another unjoined), in spawn order.
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });

    for worker in joined {
        // Preserve the panic payload: `panic!("…")` carries `&str` for
        // literal messages and `String` for formatted ones. Serving logs
        // need the message to tell an OOB index from an assert failure.
        let pairs = worker.map_err(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            CodecError::Internal(format!("codec worker thread panicked: {what}"))
        })?;
        for (i, v) in pairs {
            slots[i] = Some(v);
        }
    }
    let mut out = Vec::with_capacity(n_tasks);
    for slot in slots {
        // Every index in 0..n_tasks is claimed exactly once by the atomic
        // counter, so a hole is impossible unless the pool itself is buggy.
        out.push(slot.ok_or_else(|| CodecError::Internal("pool lost a task result".to_string()))?);
    }
    Ok(out)
}

/// Like [`run_ordered`] for fallible tasks: the first error in *task
/// order* (not completion order) is returned, keeping error selection
/// deterministic across thread counts.
///
/// # Errors
///
/// Returns the lowest-indexed task error, or [`CodecError::Internal`] if
/// a worker panics.
pub fn try_run_ordered<T, F>(n_tasks: usize, threads: usize, f: F) -> Result<Vec<T>, CodecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, CodecError> + Sync,
{
    let results = run_ordered(n_tasks, threads, f)?;
    results.into_iter().collect()
}

/// Resolves a requested thread count: `0` means the machine's available
/// parallelism, and the result is clamped to `[1, min(n_tasks, 256)]` —
/// more workers than tasks would only spawn idle threads.
pub fn effective_threads(requested: usize, n_tasks: usize) -> usize {
    #[allow(
        clippy::disallowed_methods,
        reason = "the thread count only sizes the worker set of the ordered-join pool above"
    )]
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    requested.clamp(1, MAX_THREADS.min(n_tasks.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_task_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out = run_ordered(100, threads, |i| i * i).expect("pool run");
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out = run_ordered(0, 4, |i| i).expect("pool run");
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run_ordered(57, 4, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        })
        .expect("pool run");
        assert_eq!(out.len(), 57);
        assert_eq!(count.into_inner(), 57);
    }

    #[test]
    fn worker_panic_surfaces_as_codec_error_and_joins_everyone() {
        // One task panics; the pool must join every worker (no hangs, no
        // detached threads) and surface a CodecError carrying the panic
        // payload instead of panicking. `panic!` with a format string
        // carries a `String` payload.
        let err = run_ordered(16, 4, |i| {
            if i == 7 {
                // lint:allow(panic): this test exists to exercise the
                // pool's panic containment.
                panic!("task {i} exploded");
            }
            i
        })
        .expect_err("panic must become an error");
        assert!(matches!(err, CodecError::Internal(_)), "{err:?}");
        assert!(
            err.to_string().contains("task 7 exploded"),
            "payload must survive the join: {err}"
        );
    }

    #[test]
    fn worker_panic_static_str_payload_survives() {
        // `panic!` with a literal message carries a `&'static str`
        // payload — the other downcast arm.
        let err = run_ordered(4, 2, |i| {
            if i == 2 {
                // lint:allow(panic): exercises the pool's panic
                // containment with a static payload.
                panic!("static payload");
            }
            i
        })
        .expect_err("panic must become an error");
        assert!(
            err.to_string().contains("static payload"),
            "payload must survive the join: {err}"
        );
    }

    #[test]
    fn try_run_reports_the_lowest_indexed_error() {
        for threads in [1, 4] {
            let err = try_run_ordered(32, threads, |i| {
                if i % 10 == 3 {
                    Err(CodecError::Corrupt(if i == 3 { "first" } else { "later" }))
                } else {
                    Ok(i)
                }
            })
            .expect_err("must fail");
            // Task order, not completion order: always index 3's error.
            assert!(matches!(err, CodecError::Corrupt("first")), "{err:?}");
        }
    }

    #[test]
    fn effective_threads_resolves_zero_and_clamps() {
        assert!(effective_threads(0, 8) >= 1);
        assert_eq!(effective_threads(5, 2), 2); // capped by task count
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(1_000_000, 1_000_000), MAX_THREADS);
        assert_eq!(effective_threads(4, 0), 1);
    }
}
