//! Time-windowed aggregation: rolling ring-of-buckets windows over counters,
//! gauges, and log-bucketed histograms, with rate and quantile readout.
//!
//! The cumulative aggregator in the crate root answers "what happened over
//! the whole run"; this module answers "what is happening *right now*". Every
//! key owns a ring of `SLOTS` (64) one-second buckets stamped with the epoch
//! second they cover; recording lands in the current second's bucket and a
//! readout over a window of `w` seconds folds the last `w` *complete*
//! seconds together. Because every fold is integer bucket-wise addition, a
//! windowed readout is a pure function of (recorded events, wall second) and
//! is bit-reproducible at any `PI_THREADS` — per-thread contributions merge
//! additively under one mutex, and merge order cannot change any count.
//!
//! Windowed recording is gated by its own activation flag, independent of
//! `PI_OBS`: a long-running service (pi-serve) calls [`activate`] once at
//! startup so `GET /metrics` has live data even when journaling is off,
//! while batch CLIs never activate it and pay one relaxed atomic load per
//! probe — the same ≤2 ns disabled-path budget as the cumulative probes.
//!
//! Latency quantiles need finer resolution than the 2x buckets of
//! [`crate::Hist`] (a 2x bucket quantized to its midpoint can be ~41% off),
//! so windowed histograms use [`FineHist`]: log-bucketed at `SUB` (16)
//! sub-buckets per octave (ratio `2^(1/16) ≈ 1.044`) with geometric
//! interpolation inside the bucket, bounding the worst-case quantile error
//! to under ~4.5% — tight enough that the verify.sh gate comparing the
//! served 60 s-window p99 against the client-side pi-load p99 holds at 15%
//! with room for real client/server measurement skew.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::lock;

/// Window horizons, seconds, offered by the readout API.
pub const WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Ring capacity in one-second slots. Must exceed the largest window in
/// [`WINDOWS_S`] by at least one slot (the current, still-open second).
const SLOTS: usize = 64;

/// Sub-buckets per power of two in [`FineHist`].
const SUB: i32 = 16;

/// Bucket index for zero/negative/non-finite values.
const UNDERFLOW: i32 = i32::MIN;

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Turns windowed recording on for the rest of the process (idempotent).
/// Long-running services call this once at startup.
pub fn activate() {
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Whether windowed recording is active. One relaxed atomic load.
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// FineHist: sub-binary log-bucketed histogram
// ---------------------------------------------------------------------------

/// A sparse log-bucketed histogram with `SUB` (16) sub-buckets per octave.
/// Finite positive `v` lands in bucket `floor(SUB * log2(v))`; zero,
/// negative, and non-finite values share one underflow bucket. Merging is
/// bucket-wise addition, so fold order never changes a count.
#[derive(Clone, Debug, Default)]
pub struct FineHist {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
}

fn fine_index(v: f64) -> i32 {
    if !v.is_finite() || v <= 0.0 {
        return UNDERFLOW;
    }
    let e = (f64::from(SUB) * v.log2()).floor();
    // Keep 2^(i/SUB) representable when materializing bounds.
    let cap = f64::from(SUB) * 1020.0;
    e.clamp(-cap, cap) as i32
}

fn fine_bounds(i: i32) -> (f64, f64) {
    if i == UNDERFLOW {
        return (0.0, 0.0);
    }
    let lo = (f64::from(i) / f64::from(SUB)).exp2();
    let hi = (f64::from(i + 1) / f64::from(SUB)).exp2();
    (lo, hi)
}

impl FineHist {
    /// Records one value.
    pub fn record(&mut self, v: f64) {
        *self.buckets.entry(fine_index(v)).or_insert(0) += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Adds all of `other`'s buckets into `self`.
    pub fn merge(&mut self, other: &FineHist) {
        for (i, c) in &other.buckets {
            *self.buckets.entry(*i).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite recorded values. Accumulated in arrival order, so —
    /// unlike the counts — the low bits can depend on event interleaving;
    /// treat it as observational (Prometheus `_sum`), not as a pinned result.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Occupied buckets as `(lo, hi, count)` in ascending value order; the
    /// underflow bucket reports `(0, 0, n)`.
    #[must_use]
    pub fn buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .map(|(i, c)| {
                let (lo, hi) = fine_bounds(*i);
                (lo, hi, *c)
            })
            .collect()
    }

    /// Approximate quantile with geometric interpolation inside the bucket
    /// containing the q-th value. Returns 0 for an empty histogram or when q
    /// lands in the underflow bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in &self.buckets {
            let before = seen;
            seen += c;
            if seen >= target {
                if *i == UNDERFLOW {
                    return 0.0;
                }
                let (lo, hi) = fine_bounds(*i);
                // Geometric interpolation: position of the target rank within
                // the bucket, applied on the log scale the buckets live on.
                let frac = (target - before) as f64 / *c as f64;
                return lo * (hi / lo).powf(frac.clamp(0.0, 1.0));
            }
        }
        0.0
    }
}

// ---------------------------------------------------------------------------
// Windowed store
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct CounterSlot {
    epoch_s: u64,
    value: u64,
}

struct CounterW {
    total: u64,
    slots: [CounterSlot; SLOTS],
}

impl Default for CounterW {
    fn default() -> Self {
        CounterW {
            total: 0,
            slots: [CounterSlot::default(); SLOTS],
        }
    }
}

#[derive(Clone, Copy, Default)]
struct GaugeSlot {
    epoch_s: u64,
    value: f64,
    set: bool,
}

struct GaugeW {
    current: f64,
    slots: [GaugeSlot; SLOTS],
}

impl Default for GaugeW {
    fn default() -> Self {
        GaugeW {
            current: 0.0,
            slots: [GaugeSlot::default(); SLOTS],
        }
    }
}

#[derive(Default)]
struct HistW {
    total: FineHist,
    slots: Vec<(u64, FineHist)>, // lazily grown to SLOTS entries
}

impl HistW {
    fn slot(&mut self, now_s: u64) -> &mut FineHist {
        if self.slots.is_empty() {
            self.slots = (0..SLOTS)
                .map(|_| (u64::MAX, FineHist::default()))
                .collect();
        }
        let idx = (now_s % SLOTS as u64) as usize;
        let (epoch, hist) = &mut self.slots[idx];
        if *epoch != now_s {
            *epoch = now_s;
            *hist = FineHist::default();
        }
        hist
    }

    // Lifetime totals are recorded alongside the slot on every event:
    // folding totals from slots at snapshot time would lose evicted slots.
    fn record_at(&mut self, value: f64, now_s: u64) {
        self.total.record(value);
        self.slot(now_s).record(value);
    }

    fn fold(&self, now_s: u64, window_s: u64) -> FineHist {
        let mut out = FineHist::default();
        let lo = now_s.saturating_sub(window_s);
        for (epoch, hist) in &self.slots {
            if *epoch >= lo && *epoch < now_s {
                out.merge(hist);
            }
        }
        out
    }
}

#[derive(Default)]
struct Store {
    counters: BTreeMap<&'static str, CounterW>,
    gauges: BTreeMap<&'static str, GaugeW>,
    hists: BTreeMap<&'static str, HistW>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn now_s() -> u64 {
    crate::now_ns() / 1_000_000_000
}

impl Store {
    fn counter_add_at(&mut self, name: &'static str, delta: u64, now_s: u64) {
        let c = self.counters.entry(name).or_default();
        c.total += delta;
        let slot = &mut c.slots[(now_s % SLOTS as u64) as usize];
        if slot.epoch_s != now_s {
            *slot = CounterSlot {
                epoch_s: now_s,
                value: 0,
            };
        }
        slot.value += delta;
    }

    fn gauge_set_at(&mut self, name: &'static str, value: f64, now_s: u64) {
        let g = self.gauges.entry(name).or_default();
        g.current = value;
        g.slots[(now_s % SLOTS as u64) as usize] = GaugeSlot {
            epoch_s: now_s,
            value,
            set: true,
        };
    }

    fn hist_record_at(&mut self, name: &'static str, value: f64, now_s: u64) {
        self.hists.entry(name).or_default().record_at(value, now_s);
    }

    fn window_count_at(&self, name: &str, window_s: u64, now_s: u64) -> u64 {
        let Some(c) = self.counters.get(name) else {
            return 0;
        };
        let lo = now_s.saturating_sub(window_s);
        c.slots
            .iter()
            .filter(|s| s.epoch_s >= lo && s.epoch_s < now_s)
            .map(|s| s.value)
            .sum()
    }
}

/// Adds `delta` to the named windowed counter. Inert unless [`active`].
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !active() || delta == 0 {
        return;
    }
    let t = now_s();
    lock(store()).counter_add_at(name, delta, t);
}

/// Sets the named windowed gauge (last write wins). Inert unless [`active`];
/// non-finite values are dropped.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !active() || !value.is_finite() {
        return;
    }
    let t = now_s();
    lock(store()).gauge_set_at(name, value, t);
}

/// Records `value` into the named windowed histogram. Inert unless
/// [`active`].
#[inline]
pub fn hist_record(name: &'static str, value: f64) {
    if !active() {
        return;
    }
    let t = now_s();
    lock(store()).hist_record_at(name, value, t);
}

/// Events per second for the named counter over the last `window_s` complete
/// seconds (clamped to [`WINDOWS_S`] bounds: 1..=60). Returns 0 for unknown
/// counters or before the first full second has elapsed.
#[must_use]
pub fn window_rate(name: &str, window_s: u64) -> f64 {
    let w = window_s.clamp(1, SLOTS as u64 - 1);
    window_count(name, w) as f64 / w as f64
}

/// Total count recorded for the named counter over the last `window_s`
/// complete seconds.
#[must_use]
pub fn window_count(name: &str, window_s: u64) -> u64 {
    let w = window_s.clamp(1, SLOTS as u64 - 1);
    let t = now_s();
    lock(store()).window_count_at(name, w, t)
}

/// Most recent value written to the named gauge within the last `window_s`
/// complete seconds (plus the current second), or `None` when the gauge has
/// not been set in that window — which distinguishes a live signal from a
/// stale `current` left over from an earlier burst.
#[must_use]
pub fn window_gauge(name: &str, window_s: u64) -> Option<f64> {
    let w = window_s.clamp(1, SLOTS as u64 - 1);
    let t = now_s();
    let guard = lock(store());
    let g = guard.gauges.get(name)?;
    let lo = t.saturating_sub(w);
    g.slots
        .iter()
        .filter(|s| s.set && s.epoch_s >= lo && s.epoch_s <= t)
        .max_by_key(|s| s.epoch_s)
        .map(|s| s.value)
}

/// Quantile of the named windowed histogram over the last `window_s`
/// complete seconds. Returns 0 when the window is empty.
#[must_use]
pub fn window_quantile(name: &str, window_s: u64, q: f64) -> f64 {
    let w = window_s.clamp(1, SLOTS as u64 - 1);
    let t = now_s();
    let guard = lock(store());
    guard
        .hists
        .get(name)
        .map_or(0.0, |h| h.fold(t, w).quantile(q))
}

/// A windowed counter in a [`WindowSnapshot`].
#[derive(Clone, Debug)]
pub struct CounterSnap {
    /// Probe name.
    pub name: &'static str,
    /// Lifetime total since activation.
    pub total: u64,
    /// Events/second over each window in [`WINDOWS_S`], same order.
    pub rates: [f64; WINDOWS_S.len()],
}

/// A windowed histogram in a [`WindowSnapshot`].
#[derive(Clone, Debug)]
pub struct HistSnap {
    /// Probe name.
    pub name: &'static str,
    /// Lifetime histogram since activation.
    pub total: FineHist,
    /// `(window_s, p50, p99)` for each window in [`WINDOWS_S`].
    pub quantiles: [(u64, f64, f64); WINDOWS_S.len()],
}

/// Point-in-time copy of the windowed store, for metric exposition.
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    /// Windowed counters, name-ordered.
    pub counters: Vec<CounterSnap>,
    /// Windowed gauges `(name, current)`, name-ordered.
    pub gauges: Vec<(&'static str, f64)>,
    /// Windowed histograms, name-ordered.
    pub hists: Vec<HistSnap>,
}

/// Captures the windowed store: lifetime totals plus per-window rates and
/// p50/p99 quantiles for every key.
#[must_use]
pub fn snapshot() -> WindowSnapshot {
    let t = now_s();
    let guard = lock(store());
    let counters = guard
        .counters
        .iter()
        .map(|(name, c)| {
            let mut rates = [0.0; WINDOWS_S.len()];
            for (i, w) in WINDOWS_S.iter().enumerate() {
                rates[i] = guard.window_count_at(name, *w, t) as f64 / *w as f64;
            }
            CounterSnap {
                name,
                total: c.total,
                rates,
            }
        })
        .collect();
    let gauges = guard
        .gauges
        .iter()
        .map(|(name, g)| (*name, g.current))
        .collect();
    let hists = guard
        .hists
        .iter()
        .map(|(name, h)| {
            let mut quantiles = [(0u64, 0.0, 0.0); WINDOWS_S.len()];
            for (i, w) in WINDOWS_S.iter().enumerate() {
                let folded = h.fold(t, *w);
                quantiles[i] = (*w, folded.quantile(0.50), folded.quantile(0.99));
            }
            HistSnap {
                name,
                total: h.total.clone(),
                quantiles,
            }
        })
        .collect();
    WindowSnapshot {
        counters,
        gauges,
        hists,
    }
}

/// Clears all windowed state (totals and rings). Activation is unaffected.
/// Intended for tests; [`crate::reinit_from_env`] calls this.
pub fn reset() {
    *lock(store()) = Store::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_hist_quantiles_tighten_resolution() {
        let mut h = FineHist::default();
        for _ in 0..1000 {
            h.record(1000.0);
        }
        // All mass at one point: interpolated quantile must land within one
        // sub-bucket ratio (2^(1/16) ≈ 1.044) of the true value.
        let p99 = h.quantile(0.99);
        assert!((p99 / 1000.0 - 1.0).abs() < 0.05, "p99 {p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn fine_hist_merge_and_buckets_are_additive() {
        let mut a = FineHist::default();
        let mut b = FineHist::default();
        a.record(2.0);
        b.record(2.0);
        b.record(-1.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let buckets = a.buckets();
        assert_eq!(buckets[0], (0.0, 0.0, 1)); // underflow
        assert_eq!(buckets[1].2, 2);
        assert!(buckets[1].0 <= 2.0 && 2.0 < buckets[1].1);
    }

    #[test]
    fn window_folds_only_complete_recent_seconds() {
        let mut s = Store::default();
        // Seconds 100..110: 10 events each; second 110 (current) ignored.
        for t in 100..=110 {
            s.counter_add_at("w.c", 10, t);
        }
        assert_eq!(s.window_count_at("w.c", 1, 110), 10); // second 109
        assert_eq!(s.window_count_at("w.c", 10, 110), 100); // 100..109
        assert_eq!(s.window_count_at("w.c", 60, 110), 100);
        // Old slots get reclaimed when the ring wraps.
        s.counter_add_at("w.c", 7, 100 + SLOTS as u64);
        assert_eq!(s.window_count_at("w.c", 1, 101 + SLOTS as u64), 7);
        assert_eq!(s.counters["w.c"].total, 117);
    }

    #[test]
    fn windowed_hist_quantile_tracks_recent_values() {
        let mut s = Store::default();
        for t in 200..260 {
            s.hists.entry("w.h").or_default().record_at(100.0, t);
        }
        for t in 260..266 {
            s.hists.entry("w.h").or_default().record_at(10_000.0, t);
        }
        let hw = &s.hists["w.h"];
        // 1 s window sees only the recent regime; 60 s window is mixed.
        let recent = hw.fold(266, 1).quantile(0.50);
        assert!((recent / 10_000.0 - 1.0).abs() < 0.10, "recent {recent}");
        let mixed = hw.fold(266, 60).quantile(0.50);
        assert!(mixed < 200.0, "mixed {mixed}");
        assert_eq!(hw.total.count(), 66);
    }

    #[test]
    fn inactive_probes_do_not_record() {
        // ACTIVE is process-global; this test only asserts the gate function
        // short-circuits when the flag is off at entry.
        if active() {
            return; // another test in the process activated windows
        }
        counter_add("w.inactive", 1);
        assert_eq!(
            lock(store()).counters.get("w.inactive").map(|c| c.total),
            None
        );
    }

    #[test]
    fn activation_enables_recording_and_reset_clears() {
        activate();
        counter_add("w.active", 2);
        hist_record("w.active_h", 3.5);
        gauge_set("w.active_g", 1.25);
        assert!(window_rate("w.active", 60) >= 0.0);
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "w.active" && c.total == 2));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| *n == "w.active_g" && *v == 1.25));
        assert_eq!(window_gauge("w.active_g", 60), Some(1.25));
        assert_eq!(window_gauge("w.never_set", 60), None);
        assert!(snap
            .hists
            .iter()
            .any(|h| h.name == "w.active_h" && h.total.count() == 1));
        reset();
        assert!(snapshot().counters.is_empty());
    }
}
