//! pi-obs: zero-dependency observability runtime for the predictive-interconnect
//! workspace.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled is free.** Every probe starts with one relaxed atomic load
//!    (`enabled()`); when `PI_OBS` is unset the probe returns before touching
//!    any other memory. Instrumented hot loops (Newton iterations, adaptive
//!    timesteps) must not slow down when nobody is watching.
//! 2. **Observation never perturbs results.** Probes only *read* the computed
//!    values; aggregation is additive (counters, histogram buckets) so the
//!    merge order of per-thread buffers cannot change what is reported, and
//!    nothing observed ever feeds back into the numerics. Runs are
//!    bit-identical with observability on or off, at any `PI_THREADS`.
//! 3. **No external dependencies.** Everything here — including the JSONL
//!    emitter, the workspace's one JSON codec ([`json`]), and the report
//!    renderer — is std-only.
//!
//! # Modes
//!
//! `PI_OBS` selects the mode at first probe (or via [`reinit_from_env`]):
//!
//! - unset / `off` / `0` — disabled (the default).
//! - `summary` — aggregate in memory; [`finish`] prints a summary table to
//!   stderr.
//! - `jsonl` or `jsonl:PATH` — stream spans and samples, and aggregate
//!   metrics, into a JSONL trace journal (default path `pi-obs.jsonl`).
//!   See [`journal`] for the schema and `pi obs-report` for the renderer.
//!
//! # Threading model
//!
//! Each thread owns a buffer of counters, histograms, span aggregates, and
//! pending journal lines. The buffer drains into a global accumulator when
//! the thread exits (worker threads in `pi_rt::par_map` scopes) or when the
//! owning code calls [`finish`] / [`snapshot`] (the main thread). Probes on
//! the hot path therefore touch only thread-local state; the single global
//! mutex is taken once per thread lifetime plus once per ~256 journal lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub mod hist;
pub mod journal;
pub mod json;
pub mod report;
pub mod window;

pub use hist::Hist;

/// JSONL schema version emitted in the `meta` record. Bump when the record
/// shapes in [`journal`] change incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

const MODE_UNINIT: u8 = 0xff;
const MODE_OFF: u8 = 0;
const MODE_SUMMARY: u8 = 1;
const MODE_JSONL: u8 = 2;

/// How many journal lines a thread buffers before pushing them to the sink.
const LINE_FLUSH: usize = 256;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Global accumulator and journal sink
// ---------------------------------------------------------------------------

/// Aggregated span statistics: invocation count, total (inclusive) time, and
/// self time (total minus time spent in child spans on the same thread).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Sum of inclusive durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self durations (inclusive minus direct children), nanoseconds.
    pub self_ns: u64,
}

#[derive(Default)]
struct Agg {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
    spans: BTreeMap<&'static str, SpanStat>,
    warns: Vec<(&'static str, String)>,
}

impl Agg {
    fn merge_from(&mut self, other: &mut LocalBuf) {
        for (k, v) in other.counters.drain() {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.hists.drain() {
            self.hists.entry(k).or_default().merge(&h);
        }
        for (k, s) in other.spans.drain() {
            let e = self.spans.entry(k).or_default();
            e.count += s.count;
            e.total_ns += s.total_ns;
            e.self_ns += s.self_ns;
        }
    }
}

fn global() -> &'static Mutex<Agg> {
    static GLOBAL: OnceLock<Mutex<Agg>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Agg::default()))
}

fn sink() -> &'static Mutex<Option<File>> {
    static SINK: OnceLock<Mutex<Option<File>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn write_lines(lines: &[String]) {
    let mut guard = lock(sink());
    if let Some(f) = guard.as_mut() {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        let _ = f.write_all(buf.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Per-thread buffer
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    child_ns: u64,
}

#[derive(Default)]
struct LocalBuf {
    counters: std::collections::HashMap<&'static str, u64>,
    hists: std::collections::HashMap<&'static str, Hist>,
    spans: std::collections::HashMap<&'static str, SpanStat>,
    lines: Vec<String>,
    stack: Vec<OpenSpan>,
    thread_id: u64,
}

struct LocalGuard(RefCell<LocalBuf>);

impl Drop for LocalGuard {
    fn drop(&mut self) {
        let buf = self.0.get_mut();
        if !buf.lines.is_empty() {
            write_lines(&buf.lines);
            buf.lines.clear();
        }
        lock(global()).merge_from(buf);
    }
}

thread_local! {
    static LOCAL: LocalGuard = LocalGuard(RefCell::new(LocalBuf {
        thread_id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed) + 1,
        ..LocalBuf::default()
    }));
}

/// Runs `f` with the thread-local buffer, or silently drops the event if the
/// buffer is gone (probe fired during thread teardown, after TLS destruction).
fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> Option<R> {
    LOCAL
        .try_with(|l| match l.0.try_borrow_mut() {
            Ok(mut b) => Some(f(&mut b)),
            Err(_) => None,
        })
        .ok()
        .flatten()
}

// ---------------------------------------------------------------------------
// Mode handling
// ---------------------------------------------------------------------------

/// Nanosecond offset (from the process epoch) at which the current
/// observation run started, so the `finish` record's `wall_ns` measures
/// the run itself even after a mid-process [`reinit_from_env`].
static RUN_START_NS: AtomicU64 = AtomicU64::new(0);

#[cold]
fn init_slow() -> u8 {
    let (mode, path) = match std::env::var("PI_OBS") {
        Err(_) => (MODE_OFF, None),
        Ok(v) => parse_mode(&v),
    };
    if mode == MODE_JSONL {
        let path = path.unwrap_or_else(|| "pi-obs.jsonl".to_string());
        match File::create(&path) {
            Ok(f) => {
                *lock(sink()) = Some(f);
            }
            Err(e) => {
                eprintln!("pi-obs: cannot create journal `{path}`: {e}; tracing disabled");
                MODE.store(MODE_OFF, Ordering::Relaxed);
                return MODE_OFF;
            }
        }
    }
    MODE.store(mode, Ordering::Relaxed);
    if mode == MODE_JSONL {
        write_lines(&[journal::meta_line(SCHEMA_VERSION, "jsonl")]);
    }
    // Stamped last, with this thread's buffer pre-warmed: journal-file
    // creation and TLS setup must not count against the run's wall clock,
    // or short runs fail the span-coverage check.
    with_local(|_| ());
    RUN_START_NS.store(now_ns(), Ordering::Relaxed);
    mode
}

/// Parses a `PI_OBS` value into (mode, journal path). Unknown values warn
/// once and disable tracing rather than guessing.
fn parse_mode(v: &str) -> (u8, Option<String>) {
    let t = v.trim();
    match t {
        "" | "off" | "0" => (MODE_OFF, None),
        "summary" => (MODE_SUMMARY, None),
        "jsonl" => (MODE_JSONL, None),
        _ => {
            if let Some(path) = t.strip_prefix("jsonl:") {
                (MODE_JSONL, Some(path.to_string()))
            } else {
                eprintln!(
                    "pi-obs: PI_OBS=`{v}` is not `off`, `summary`, or `jsonl[:path]`; \
                     observability stays disabled"
                );
                (MODE_OFF, None)
            }
        }
    }
}

#[inline]
fn mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_UNINIT {
        init_slow()
    } else {
        m
    }
}

/// Returns true when observability is active. One relaxed atomic load on the
/// fast path; probe macros/functions all start with this check.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    mode() != MODE_OFF
}

/// Re-reads `PI_OBS` and resets all aggregated state. Intended for benches
/// and tests that toggle the environment mid-process (the same convention
/// `PI_THREADS` follows). Any open spans on other threads are abandoned;
/// callers must not race this with live probes on worker threads.
pub fn reinit_from_env() {
    // Drain this thread's buffer so stale events don't leak into the new run.
    with_local(|b| {
        b.counters.clear();
        b.hists.clear();
        b.spans.clear();
        b.lines.clear();
        b.stack.clear();
    });
    *lock(global()) = Agg::default();
    *lock(sink()) = None;
    window::reset();
    MODE.store(MODE_UNINIT, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Adds `delta` to the named counter. Counter names are a stable interface;
/// the catalog lives in `docs/OBSERVABILITY.md`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `value` (last write wins). Non-finite values are
/// dropped. Gauges are rare, low-frequency signals (e.g. an effective sample
/// size per estimate) and go straight to the global accumulator.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    lock(global()).gauges.insert(name, value);
}

/// Records `value` into the named log-bucketed histogram.
#[inline]
pub fn hist_record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|b| b.hists.entry(name).or_default().record(value));
}

/// Records a trajectory sample `(x, y)` — e.g. (dies simulated, CI
/// half-width). In jsonl mode each sample is a journal line; in summary mode
/// only the last value survives, as a gauge. Non-finite values are dropped.
#[inline]
pub fn sample(name: &'static str, x: f64, y: f64) {
    let m = mode();
    if m == MODE_OFF || !x.is_finite() || !y.is_finite() {
        return;
    }
    if m == MODE_JSONL {
        push_line(journal::sample_line(name, x, y));
    } else {
        lock(global()).gauges.insert(name, y);
    }
}

fn push_line(line: String) {
    let flushed = with_local(|b| {
        b.lines.push(line);
        if b.lines.len() >= LINE_FLUSH {
            let drained: Vec<String> = b.lines.drain(..).collect();
            Some(drained)
        } else {
            None
        }
    });
    if let Some(Some(lines)) = flushed {
        write_lines(&lines);
    }
}

/// Emits a one-time warning keyed by `key`: always printed to stderr (even
/// with observability disabled — this is the anti-silent-fallback channel for
/// malformed environment variables), and recorded as a `warn` event when a
/// mode is active. Subsequent calls with the same key are ignored.
pub fn warn_once(key: &'static str, msg: &str) {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    if !lock(warned).insert(key) {
        return;
    }
    eprintln!("pi-obs: warning [{key}]: {msg}");
    let m = mode();
    if m == MODE_OFF {
        return;
    }
    if m == MODE_JSONL {
        push_line(journal::warn_line(key, msg));
    }
    lock(global()).warns.push((key, msg.to_string()));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for a hierarchical span. Created by [`span`]; records timing on
/// drop. Inert (id 0) when observability is disabled.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    t0: Option<Instant>,
}

/// Opens a span. Nesting is tracked per thread: a span opened while another
/// is live on the same thread becomes its child. Worker-thread spans with no
/// live parent are thread roots; `pi obs-report` groups them separately so
/// the main-thread wall-clock accounting stays honest.
#[inline]
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            t0: None,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = with_local(|b| {
        let parent = b.stack.last().map_or(0, |s| s.id);
        b.stack.push(OpenSpan { id, child_ns: 0 });
        parent
    })
    .unwrap_or(0);
    SpanGuard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        t0: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let dur_ns = self.t0.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        let jsonl = mode() == MODE_JSONL;
        let line = with_local(|b| {
            // Unwind to this span's frame; mismatches can only come from
            // probes racing a reinit_from_env, in which case we drop frames.
            let mut child_ns = 0;
            while let Some(top) = b.stack.pop() {
                if top.id == self.id {
                    child_ns = top.child_ns;
                    break;
                }
            }
            if let Some(parent) = b.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let stat = b.spans.entry(self.name).or_default();
            stat.count += 1;
            stat.total_ns += dur_ns;
            stat.self_ns += dur_ns.saturating_sub(child_ns.min(dur_ns));
            if jsonl {
                Some(journal::span_line(
                    self.id,
                    self.parent,
                    b.thread_id,
                    self.name,
                    self.start_ns,
                    dur_ns,
                ))
            } else {
                None
            }
        });
        if let Some(Some(line)) = line {
            push_line(line);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot / finish
// ---------------------------------------------------------------------------

/// A point-in-time copy of the aggregated metrics. Obtained via [`snapshot`];
/// used by benches to derive counter statistics in-process.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge name → last value.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histogram name → log-bucketed histogram.
    pub hists: BTreeMap<&'static str, Hist>,
    /// Span name → aggregated stats.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// One-time warnings recorded while a mode was active.
    pub warns: Vec<(&'static str, String)>,
}

impl Snapshot {
    /// Returns the named counter, or 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Flushes the calling thread's buffer and returns a copy of the global
/// aggregate. Worker threads spawned inside `pi_rt` scopes have already
/// flushed on exit, so after a parallel region this sees their events too.
#[must_use]
pub fn snapshot() -> Snapshot {
    with_local(|b| {
        if !b.lines.is_empty() {
            let drained: Vec<String> = b.lines.drain(..).collect();
            write_lines(&drained);
        }
        lock(global()).merge_from(b);
    });
    let g = lock(global());
    Snapshot {
        counters: g.counters.clone(),
        gauges: g.gauges.clone(),
        hists: g.hists.clone(),
        spans: g.spans.clone(),
        warns: g.warns.clone(),
    }
}

/// The counter totals buffered on the calling thread: what it recorded
/// since its buffer last merged into the global aggregate (at
/// [`snapshot`], [`finish`] or thread exit). Other threads cannot move
/// these, so a test can diff the counters of two code paths it runs back
/// to back while other tests probe concurrently.
#[must_use]
pub fn thread_counters() -> BTreeMap<&'static str, u64> {
    with_local(|b| b.counters.iter().map(|(&k, &v)| (k, v)).collect()).unwrap_or_default()
}

/// Finalizes the run: flushes the calling thread, then either prints the
/// summary table to stderr (`PI_OBS=summary`) or writes the aggregated
/// metric records plus a `finish` record and closes the journal
/// (`PI_OBS=jsonl`). Idempotent; a second call sees drained state.
pub fn finish() {
    let m = mode();
    if m == MODE_OFF {
        return;
    }
    let wall_ns = now_ns().saturating_sub(RUN_START_NS.load(Ordering::Relaxed));
    let thread_id = with_local(|b| b.thread_id).unwrap_or(0);
    let snap = snapshot();
    {
        let mut g = lock(global());
        *g = Agg::default();
    }
    match m {
        MODE_SUMMARY => {
            eprintln!("{}", render_summary(&snap));
        }
        MODE_JSONL => {
            let mut lines = Vec::new();
            for (name, v) in &snap.counters {
                lines.push(journal::counter_line(name, *v));
            }
            for (name, v) in &snap.gauges {
                lines.push(journal::gauge_line(name, *v));
            }
            for (name, h) in &snap.hists {
                for b in h.buckets() {
                    lines.push(journal::hist_bucket_line(name, b.lo, b.hi, b.count));
                }
            }
            for (key, msg) in &snap.warns {
                lines.push(journal::warn_line(key, msg));
            }
            lines.push(journal::finish_line(wall_ns, thread_id));
            write_lines(&lines);
            if let Some(mut f) = lock(sink()).take() {
                let _ = f.flush();
            }
            MODE.store(MODE_OFF, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// Renders the end-of-run summary table (the `PI_OBS=summary` output).
#[must_use]
pub fn render_summary(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("== pi-obs summary ==\n");
    if !snap.spans.is_empty() {
        let mut rows: Vec<_> = snap.spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        out.push_str("spans (sorted by self time):\n");
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "  {name:<32} count {:>8}  total {:>12}  self {:>12}",
                s.count,
                report::fmt_ns(s.total_ns),
                report::fmt_ns(s.self_ns)
            );
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<40} {v:>14}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<40} {v:>14.6}");
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "  {name:<32} n {:>8}  p50 {:>10.3}  p95 {:>10.3}  max< {:>10.3}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.max_bound()
            );
        }
    }
    for (key, msg) in &snap.warns {
        let _ = writeln!(out, "warning [{key}]: {msg}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mode state is process-global; serialize the tests that touch it.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        lock(L.get_or_init(|| Mutex::new(())))
    }

    struct ModeReset;
    impl Drop for ModeReset {
        fn drop(&mut self) {
            std::env::remove_var("PI_OBS");
            reinit_from_env();
        }
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _l = env_lock();
        std::env::remove_var("PI_OBS");
        reinit_from_env();
        let _r = ModeReset;
        counter_add("test.c", 3);
        hist_record("test.h", 1.5);
        gauge_set("test.g", 2.0);
        {
            let _s = span("test.span");
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn summary_mode_aggregates_counters_and_spans() {
        let _l = env_lock();
        std::env::set_var("PI_OBS", "summary");
        reinit_from_env();
        let _r = ModeReset;
        counter_add("test.c", 3);
        counter_add("test.c", 4);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.c"), 7);
        let outer = snap.spans["test.outer"];
        let inner = snap.spans["test.inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner span.
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
        let table = render_summary(&snap);
        assert!(table.contains("test.c"));
        assert!(table.contains("test.outer"));
    }

    #[test]
    fn worker_thread_buffers_merge_on_drop() {
        let _l = env_lock();
        std::env::set_var("PI_OBS", "summary");
        reinit_from_env();
        let _r = ModeReset;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter_add("test.worker", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(snapshot().counter("test.worker"), 400);
    }

    #[test]
    fn warn_once_deduplicates() {
        let _l = env_lock();
        std::env::set_var("PI_OBS", "summary");
        reinit_from_env();
        let _r = ModeReset;
        warn_once("test.warn.dedup", "first");
        warn_once("test.warn.dedup", "second");
        let snap = snapshot();
        let n = snap
            .warns
            .iter()
            .filter(|(k, _)| *k == "test.warn.dedup")
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn unknown_mode_disables() {
        let _l = env_lock();
        std::env::set_var("PI_OBS", "definitely-not-a-mode");
        reinit_from_env();
        let _r = ModeReset;
        assert!(!enabled());
    }

    #[test]
    fn jsonl_mode_writes_valid_journal() {
        let _l = env_lock();
        let path = std::env::temp_dir().join("pi_obs_unit_test.jsonl");
        std::env::set_var("PI_OBS", format!("jsonl:{}", path.display()));
        reinit_from_env();
        let _r = ModeReset;
        {
            let _root = span("test.root");
            counter_add("test.c", 5);
            hist_record("test.h", 0.25);
            sample("test.s", 1.0, 0.5);
            gauge_set("test.g", 9.0);
        }
        finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.lines().count() >= 6);
        for line in text.lines() {
            journal::check_line(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        }
        assert!(text.contains("\"type\":\"finish\""));
        assert!(text.contains("\"name\":\"test.root\""));
    }
}
