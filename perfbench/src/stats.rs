//! Summary statistics and the capacity search.
//!
//! Pure functions over samples and verdicts, so the reporting rules are
//! unit-tested without a server.

/// The tail-percentile cap: the benchmark reports p99 when the sample is
/// large enough, and a lower percentile otherwise.
pub const TAIL_Q: f64 = 0.99;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 0.99]`.
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(q·n)` (1-based), clamped into the slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile, capped at [`TAIL_Q`], that leaves at least
/// [`TAIL_BEYOND`] samples beyond it. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = ((TAIL_Q * n as f64).ceil() as usize).clamp(1, n - TAIL_BEYOND);
    Some(Tail {
        q: rank as f64 / n as f64,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Outcome of [`search_capacity`].
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// Highest offered rate that passed (0 when none did).
    pub rate: f64,
    /// Lowest offered rate that failed; within `1 + tol` of `rate`.
    pub top_failed: f64,
}

/// Finds the highest offered rate for which `probe` passes, to within a
/// relative `tol`. Doubles from `start` until a step fails (halving
/// instead when `start` fails), then bisects geometrically between the
/// best pass and the lowest failure. The step above the reported
/// capacity has always run and failed. `None` when no failure appears
/// within `max_steps` (the search never bracketed the knee) or no rate
/// down to `start / 1024` passes.
pub fn search_capacity(
    start: f64,
    tol: f64,
    max_steps: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> Option<Capacity> {
    let mut steps = 0usize;
    let mut run = |rate: f64| {
        steps += 1;
        (probe(rate), steps)
    };
    let (mut lo, mut hi);
    if run(start).0 {
        lo = start;
        hi = start * 2.0;
        loop {
            let (ok, n) = run(hi);
            if !ok {
                break;
            }
            lo = hi;
            hi *= 2.0;
            if n >= max_steps {
                return None;
            }
        }
    } else {
        hi = start;
        lo = start / 2.0;
        loop {
            let (ok, n) = run(lo);
            if ok {
                break;
            }
            hi = lo;
            lo /= 2.0;
            if lo < start / 1024.0 || n >= max_steps {
                return None;
            }
        }
    }
    while hi / lo > 1.0 + tol {
        let mid = (lo * hi).sqrt();
        let (ok, n) = run(mid);
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
        if n >= max_steps {
            break;
        }
    }
    Some(Capacity {
        rate: lo,
        top_failed: hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        // Larger samples keep p99 (with more than ten beyond).
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.99, 4950.0, 50));
    }

    #[test]
    fn tail_backs_off_below_p99_to_keep_ten_beyond() {
        let t = tail(&ramp(500)).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 490.0);
        assert!((t.q - 0.98).abs() < 1e-12);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!(tail(&ramp(10)).is_none(), "ten samples leave no tail");
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&ramp(100), 0.5), 50.0);
        assert_eq!(percentile(&ramp(100), 0.0), 1.0);
        assert_eq!(percentile(&ramp(100), 1.0), 100.0);
    }

    /// A server whose p99 grows as `base / (1 − rate/knee)` (an M/M/1
    /// style curve) meets a `slo` up to `knee · (1 − base/slo)`.
    fn synthetic(base: f64, knee: f64, slo: f64) -> impl Fn(f64) -> bool {
        move |rate| rate < knee && base / (1.0 - rate / knee) <= slo
    }

    #[test]
    fn capacity_search_brackets_the_knee_within_tolerance() {
        let (base, knee, slo) = (600.0, 23_000.0, 5_000.0);
        let truth = knee * (1.0 - base / slo);
        let probe = synthetic(base, knee, slo);
        let mut ran = Vec::new();
        let cap = search_capacity(1000.0, 0.05, 30, |rate| {
            ran.push((rate, probe(rate)));
            probe(rate)
        })
        .unwrap();
        assert!(cap.rate <= truth, "{} above the true capacity", cap.rate);
        assert!(cap.rate >= truth / 1.05, "{} not within 5%", cap.rate);
        assert!(cap.top_failed > truth && cap.top_failed <= cap.rate * 1.05);
        // The top step ran and failed; the reported capacity ran and passed.
        assert!(ran.contains(&(cap.top_failed, false)));
        assert!(ran.contains(&(cap.rate, true)));
        assert!(ran.len() <= 12, "{} steps", ran.len());
    }

    #[test]
    fn capacity_search_walks_down_when_the_start_fails() {
        let probe = synthetic(600.0, 700.0, 5_000.0);
        let truth = 700.0 * (1.0 - 600.0 / 5_000.0);
        let cap = search_capacity(1000.0, 0.05, 30, &probe).unwrap();
        assert!(cap.rate <= truth && cap.rate >= truth / 1.05);
        assert!(!probe(cap.top_failed));
    }

    #[test]
    fn capacity_search_reports_an_unbracketed_knee() {
        assert!(search_capacity(1000.0, 0.05, 6, |_| true).is_none());
        assert!(search_capacity(1000.0, 0.05, 30, |_| false).is_none());
    }
}
