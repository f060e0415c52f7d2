//! Minimal in-repo micro-benchmark harness.
//!
//! Replaces the external `criterion` dependency so `cargo bench` works
//! fully offline. The model is deliberately simple and robust:
//!
//! 1. **Calibration** — the closure is timed once; if a single call is
//!    faster than the per-trial floor, enough inner iterations are batched
//!    per trial to cross it, so `Instant` granularity never dominates.
//! 2. **Warmup** — a few untimed trials populate caches and branch
//!    predictors.
//! 3. **Measurement** — each trial records mean ns/iteration; the summary
//!    reports the **median** (robust to scheduler noise) and the **MAD**
//!    (median absolute deviation) as the spread estimate, plus min/max.
//!
//! Output is a plain-text table (via [`TextTable`](crate::TextTable)) and
//! one JSON object per measurement (JSON-lines), either appended to the
//! file named by `PI_BENCH_JSON` or printed after the table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pi_obs::json::{self, Json};

/// Summary statistics for one benchmarked closure.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name (used in both text and JSON output).
    pub name: String,
    /// Number of measured trials.
    pub trials: usize,
    /// Inner iterations batched per trial.
    pub iters: u64,
    /// Median of the per-trial mean ns/iteration.
    pub median_ns: f64,
    /// Median absolute deviation of the per-trial means, in ns.
    pub mad_ns: f64,
    /// Fastest trial, ns/iteration.
    pub min_ns: f64,
    /// Slowest trial, ns/iteration.
    pub max_ns: f64,
}

impl Measurement {
    /// One JSON object on a single line (JSON-lines record), times to
    /// 0.1 ns.
    #[must_use]
    pub fn json_line(&self) -> String {
        let ns = |v: f64| Json::from_f64((v * 10.0).round() / 10.0);
        json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("median_ns", ns(self.median_ns)),
            ("mad_ns", ns(self.mad_ns)),
            ("min_ns", ns(self.min_ns)),
            ("max_ns", ns(self.max_ns)),
            ("trials", Json::Int(self.trials as i128)),
            ("iters", Json::Int(self.iters.into())),
        ])
        .render()
    }
}

/// Micro-benchmark runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    /// Untimed warmup trials before measurement.
    pub warmup: usize,
    /// Measured trials.
    pub trials: usize,
    /// Per-trial duration floor; fast closures batch iterations to cross it.
    pub min_trial: Duration,
}

impl Default for Micro {
    fn default() -> Self {
        Micro {
            warmup: 3,
            trials: 15,
            min_trial: Duration::from_millis(5),
        }
    }
}

impl Micro {
    /// A cheaper configuration for benchmarks whose single call already
    /// takes a substantial fraction of a second (transient sign-off, full
    /// synthesis, calibration sweeps).
    #[must_use]
    pub fn slow() -> Self {
        Micro {
            warmup: 1,
            trials: 5,
            min_trial: Duration::from_millis(1),
        }
    }

    /// Runs `f` under this configuration and returns its summary.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Calibrate the batch size from one untimed-for-stats call.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed();
        let iters: u64 = if once >= self.min_trial {
            1
        } else {
            let ratio = self.min_trial.as_nanos() / once.as_nanos().max(1);
            u64::try_from(ratio.clamp(1, 1_000_000)).expect("clamped")
        };

        for _ in 0..self.warmup {
            trial(iters, &mut f);
        }
        let mut samples: Vec<f64> = (0..self.trials.max(1))
            .map(|_| trial(iters, &mut f))
            .collect();

        let med = median(&mut samples);
        let mut deviations: Vec<f64> = samples.iter().map(|&s| (s - med).abs()).collect();
        let mad = median(&mut deviations);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Measurement {
            name: name.to_owned(),
            trials: self.trials.max(1),
            iters,
            median_ns: med,
            mad_ns: mad,
            min_ns: min,
            max_ns: max,
        }
    }
}

/// Times one trial of `iters` calls; returns mean ns per call.
fn trial<R>(iters: u64, f: &mut impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    #[allow(clippy::cast_precision_loss)]
    let per_iter = t.elapsed().as_nanos() as f64 / iters as f64;
    per_iter
}

/// Median of a slice (sorts in place; mean of the middle pair when even).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample set");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Human-readable duration from nanoseconds.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// `v` rounded to `decimals` places as a JSON number: the value that
/// `format!("{v:.decimals$}")` prints, an integer token at 0 decimals.
/// A non-finite `v` (a ratio over a zero count) is `null`, because JSON
/// has no `NaN`.
#[must_use]
pub fn fixed(v: f64, decimals: usize) -> Json {
    if !v.is_finite() {
        return Json::Null;
    }
    let rounded: f64 = format!("{v:.decimals$}")
        .parse()
        .expect("a formatted finite f64 parses");
    if decimals == 0 {
        Json::from_f64(rounded)
    } else {
        Json::Num(rounded)
    }
}

/// An object rendered one member per line with a two-space indent, the
/// layout of the committed `BENCH_seed.json` that `scripts/verify.sh`
/// reads a key at a time.
#[must_use]
pub fn render_members(members: &[(&str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str("  ");
        json::write_string(&mut out, key);
        out.push_str(": ");
        value.write(&mut out);
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Prints the standard report for a bench binary: a titled text table,
/// then the JSON-lines records — appended to the file named by the
/// `PI_BENCH_JSON` environment variable when set, printed to stdout
/// otherwise.
pub fn emit(title: &str, measurements: &[Measurement]) {
    let mut table =
        crate::TextTable::new(vec!["bench", "median", "MAD", "min", "max", "trials×iters"]);
    for m in measurements {
        table.row(vec![
            m.name.clone(),
            fmt_ns(m.median_ns),
            fmt_ns(m.mad_ns),
            fmt_ns(m.min_ns),
            fmt_ns(m.max_ns),
            format!("{}×{}", m.trials, m.iters),
        ]);
    }
    println!("{title}");
    print!("{}", table.render());

    let lines: String = measurements.iter().map(|m| m.json_line() + "\n").collect();
    match std::env::var_os("PI_BENCH_JSON") {
        Some(path) => {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("PI_BENCH_JSON {}: {e}", path.to_string_lossy()));
            file.write_all(lines.as_bytes()).expect("write JSON lines");
        }
        None => print!("{lines}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert!((median(&mut [3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&mut [4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn run_reports_sane_statistics() {
        let micro = Micro {
            warmup: 1,
            trials: 5,
            min_trial: Duration::from_micros(200),
        };
        let m = micro.run("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(m.trials, 5);
        assert!(m.iters >= 1);
        assert!(m.median_ns > 0.0);
        assert!(m.mad_ns >= 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
    }

    #[test]
    fn json_line_is_wellformed() {
        let m = Measurement {
            name: "x".into(),
            trials: 3,
            iters: 10,
            median_ns: 1.5,
            mad_ns: 0.25,
            min_ns: 1.0,
            max_ns: 2.0,
        };
        let j = m.json_line();
        assert_eq!(
            j,
            "{\"name\":\"x\",\"median_ns\":1.5,\"mad_ns\":0.3,\"min_ns\":1,\"max_ns\":2,\
             \"trials\":3,\"iters\":10}"
        );
    }

    #[test]
    fn json_line_escapes_the_name() {
        let name = "odd \"name\" with \\ and\ttab";
        let m = Measurement {
            name: name.into(),
            trials: 1,
            iters: 1,
            median_ns: 1234.56,
            mad_ns: 0.0,
            min_ns: 1000.0,
            max_ns: 1500.0,
        };
        let v = json::parse(&m.json_line()).expect("valid JSON");
        assert_eq!(v.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(v.get("median_ns").and_then(Json::as_f64), Some(1234.6));
    }

    #[test]
    fn fixed_keeps_the_rounding_and_writes_null_for_non_finite() {
        assert_eq!(fixed(19_363_670.04, 1), Json::Num(19_363_670.0));
        assert_eq!(fixed(36.46, 1), Json::Num(36.5));
        assert_eq!(fixed(0.25, 4), Json::Num(0.25));
        assert_eq!(fixed(45_387.6, 0), Json::Int(45_388));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fixed(v, 2), Json::Null, "{v}");
        }
        let text = render_members(&[
            ("ns", fixed(19_363_670.04, 1)),
            ("ratio", fixed(f64::NAN, 2)),
            ("count", Json::Int(3)),
            ("case", Json::Str("5 mm \"line\"".into())),
        ]);
        assert_eq!(
            text,
            "{\n  \"ns\": 19363670.0,\n  \"ratio\": null,\n  \"count\": 3,\n  \
             \"case\": \"5 mm \\\"line\\\"\"\n}\n"
        );
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("ratio"), Some(&Json::Null));
        assert_eq!(v.get("ns").and_then(Json::as_f64), Some(19_363_670.0));
    }

    #[test]
    fn fmt_ns_picks_unit() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
