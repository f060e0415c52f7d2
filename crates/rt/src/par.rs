//! Scoped-thread data-parallel map with chunked work stealing.
//!
//! The engine is deliberately simple: `std::thread::scope` workers pull
//! fixed-size index blocks off an atomic counter, compute their results
//! into per-block vectors, and the blocks are reassembled in index order —
//! so the output is always identical to the serial map, and closures may
//! borrow from the caller's stack.
//!
//! Thread count resolution, in priority order:
//!
//! 1. the `PI_THREADS` environment variable (clamped to ≥ 1);
//! 2. [`std::thread::available_parallelism`];
//! 3. 1 (serial) if neither is available.
//!
//! Small inputs (or a thread count of 1) fall back to a plain serial loop
//! with no thread or synchronization overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Inputs shorter than this never spawn threads: the per-item work would
/// have to be enormous to amortize thread startup over so few items.
const SERIAL_CUTOFF: usize = 2;

/// Number of blocks each worker should see on average; > 1 so a slow
/// block (e.g. one hard Newton solve) does not stall the whole map.
const BLOCKS_PER_THREAD: usize = 4;

/// Resolves the worker-thread count: `PI_THREADS` override if set, else
/// the machine's available parallelism, else 1.
///
/// Reading the environment on every call is intentional — benches toggle
/// `PI_THREADS` between measurements within one process.
#[must_use]
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("PI_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
        let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        pi_obs::warn_once(
            "PI_THREADS",
            &format!(
                "PI_THREADS=`{v}` is not a thread count; using {fallback} (available parallelism)"
            ),
        );
        return fallback;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// The output is bit-identical to `(0..n).map(f).collect()` for any
/// thread count, including 1. Panics in `f` propagate to the caller.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Checked before `thread_count()`: resolving the count reads the
    // environment and may query the OS, which would dominate a batch of one.
    if n < SERIAL_CUTOFF {
        return (0..n).map(f).collect();
    }
    let threads = thread_count().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let block = n.div_ceil(threads * BLOCKS_PER_THREAD).max(1);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let obs = pi_obs::enabled();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One root span per worker thread, so `pi obs-report`
                // groups the pool under `[workers]`; the nested
                // `rt.queue_wait` spans cover the time each worker spends
                // blocked on the shared result lock — the pool's only
                // synchronization point — making backpressure from large
                // result blocks visible as queue-wait self-time.
                let _worker = obs.then(|| pi_obs::span("rt.worker"));
                loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + block).min(n);
                    let results: Vec<R> = (start..end).map(&f).collect();
                    let wait = obs.then(|| pi_obs::span("rt.queue_wait"));
                    done.lock()
                        .expect("worker poisoned the result lock")
                        .push((start, results));
                    drop(wait);
                }
            });
        }
    });
    let mut blocks = done.into_inner().expect("worker poisoned the result lock");
    blocks.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, mut b) in blocks {
        out.append(&mut b);
    }
    out
}

/// Maps `f` over a slice in parallel, returning results in input order.
///
/// See [`par_map_indexed`] for determinism and panic semantics.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Splits `0..n` into contiguous chunks sized for the current thread
/// count, for reductions that carry per-chunk scratch state (e.g. one
/// simulator workspace per chunk). Returns `(start, end)` pairs covering
/// `0..n` exactly, in order; empty iff `n == 0`.
#[must_use]
pub fn chunk_ranges(n: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let block = n.div_ceil(thread_count() * BLOCKS_PER_THREAD).max(1);
    (0..n)
        .step_by(block)
        .map(|start| (start, (start + block).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global `PI_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn env_guard() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let parallel = par_map(&items, |x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn indexed_order_is_preserved() {
        let out = par_map_indexed(517, |i| i as i64 - 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i64 - 3);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 9), vec![9]);
        let empty: [u8; 0] = [];
        assert_eq!(par_map(&empty, |x| *x), Vec::<u8>::new());
    }

    #[test]
    fn env_override_forces_thread_count() {
        let _guard = env_guard();
        std::env::set_var("PI_THREADS", "3");
        assert_eq!(thread_count(), 3);
        let with_3 = par_map_indexed(100, |i| i * 7);
        std::env::set_var("PI_THREADS", "1");
        let with_1 = par_map_indexed(100, |i| i * 7);
        std::env::remove_var("PI_THREADS");
        let with_default = par_map_indexed(100, |i| i * 7);
        assert_eq!(with_3, with_1);
        assert_eq!(with_1, with_default);
    }

    #[test]
    fn invalid_env_falls_back() {
        let _guard = env_guard();
        std::env::set_var("PI_THREADS", "zero");
        assert!(thread_count() >= 1);
        std::env::set_var("PI_THREADS", "0");
        assert_eq!(thread_count(), 1);
        std::env::remove_var("PI_THREADS");
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 64, 1001] {
            let ranges = chunk_ranges(n);
            let mut expect = 0;
            for (s, e) in ranges {
                assert_eq!(s, expect);
                assert!(e > s && e <= n);
                expect = e;
            }
            assert_eq!(expect, n);
        }
    }

    #[test]
    fn results_can_borrow_captured_state() {
        let base = [10u32, 20, 30];
        let out = par_map_indexed(3, |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _guard = env_guard();
        std::env::set_var("PI_THREADS", "2");
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(64, |i| {
                assert!(i != 40, "boom");
                i
            })
        });
        std::env::remove_var("PI_THREADS");
        drop(_guard);
        result.unwrap(); // re-raise the worker panic
    }
}
