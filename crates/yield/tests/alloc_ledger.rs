//! Allocation ledger for the estimator hot loops: every sampling
//! method, with and without the control variate.
//!
//! A counting global allocator tallies every heap allocation in the
//! process, on every thread. The estimator's buffers are per chunk and
//! per round, never per die, so running more dies of the same problem
//! must add (almost) no allocations: the marginal count per extra die
//! stays far below one. A per-die `vec!` anywhere in the loop pushes it
//! to one or more.
//!
//! This binary holds a single `#[test]`, so no other test allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pi_yield::{
    estimate_line_yield, DriveVariation, EstimatorConfig, LineProblem, Method, SpatialCorrelation,
    StageDelays,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a relaxed atomic increment with no other side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn sampling_estimates_allocate_per_chunk_not_per_die() {
    let stages = StageDelays::new(vec![28e-12; 10], vec![11e-12; 10]);
    let problem = LineProblem {
        deadline_s: stages.nominal_delay() * 1.06,
        stages,
        variation: DriveVariation {
            sigma_d2d: 0.08,
            sigma_wid: 0.05,
        },
        correlation: SpatialCorrelation::none(),
    };
    let sampling = Method::ALL.into_iter().filter(|&m| m != Method::Analytic);
    for method in sampling {
        for cv in [false, true] {
            let run = |max_evals: usize| {
                let cfg = EstimatorConfig::new(method)
                    .with_seed(5)
                    .with_control_variate(cv)
                    .with_target_half_width(0.0)
                    .with_max_evals(max_evals);
                let est = estimate_line_yield(&problem, &cfg);
                assert_eq!(est.evals, max_evals);
            };
            // Warm-up: the shared Sobol table and any lazily built state.
            run(1024);
            let small = allocs_during(|| run(1024));
            let large = allocs_during(|| run(8192));
            let per_die = large.saturating_sub(small) as f64 / (8192 - 1024) as f64;
            assert!(
                per_die < 0.05,
                "{method} cv={cv}: {small} allocations at 1024 dies, {large} at 8192: \
                 {per_die:.3} per extra die"
            );
        }
    }
}
