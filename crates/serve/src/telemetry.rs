//! Live-telemetry plumbing for the server: dual-recording probe helpers
//! (cumulative `pi-obs` aggregate + rolling windows), per-request ids and
//! phase accounting, the Prometheus `/metrics` renderer, and the optional
//! JSONL access log.
//!
//! ## Request-phase tracing
//!
//! Every request gets an id at parse time and is timed through five
//! phases, each recorded into a `serve.phase.*` histogram (cumulative and
//! windowed):
//!
//! ```text
//!  parse ──▶ queue ──▶ compute ──▶ render ──▶ flush
//!  (bytes     (submit    (batch      (ApiResponse  (ready slot →
//!   → route)   → drain)   start →     → wire        socket write
//!                          respond)    bytes)        buffer)
//! ```
//!
//! Immediate routes (`/healthz`, `/v1/stats`, `/metrics`, routing errors)
//! skip the queue/compute/render phases. The end-to-end `serve.request_us`
//! and per-endpoint `serve.endpoint.*_us` histograms are recorded at flush
//! time, when the response enters the socket write buffer.
//!
//! ## Access log
//!
//! `PI_SERVE_ACCESS_LOG=path` turns on one JSONL line per request. The
//! line is formatted *before* the sink lock is taken, and the sink mutex
//! guards only the log file — never any server state — so a slow log disk
//! can delay other log writers but cannot block the event loop behind a
//! lock it needs (the same dedicated-sink discipline as the char-journal
//! appends). The log rotates to `<path>.1` once it passes
//! [`ROTATE_BYTES`]; a failed rotation warns once and keeps appending.
//! Requests that take 100 ms or longer log the full phase breakdown.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::api::Endpoint;
use crate::batch::Batcher;
use crate::config::ServeConfig;
use crate::http::Request;
use crate::json::{self, Json};
use crate::server::{ServerStats, STATS_PATH};
use crate::store::plan_cache_hit_rate;

/// Access-log size cap before rotation to `<path>.1`.
const ROTATE_BYTES: u64 = 64 * 1024 * 1024;

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

/// Allocates the next request id (monotone per process, starting at 1).
pub(crate) fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1
}

/// Adds to a counter in both the cumulative aggregate and the windows.
#[inline]
pub(crate) fn counter(name: &'static str, delta: u64) {
    pi_obs::counter_add(name, delta);
    pi_obs::window::counter_add(name, delta);
}

/// Records into a histogram in both the cumulative aggregate and the
/// windows.
#[inline]
pub(crate) fn hist(name: &'static str, value: f64) {
    pi_obs::hist_record(name, value);
    pi_obs::window::hist_record(name, value);
}

/// Sets a gauge in both the cumulative aggregate and the windows.
#[inline]
pub(crate) fn gauge(name: &'static str, value: f64) {
    pi_obs::gauge_set(name, value);
    pi_obs::window::gauge_set(name, value);
}

/// Stable short label of a request path for the access log: an API
/// endpoint's label from the endpoint table, or the immediate route's.
pub(crate) fn endpoint_of(request: &Request) -> &'static str {
    match Endpoint::from_path(&request.path) {
        Some(endpoint) => endpoint.label(),
        None => match request.path.as_str() {
            "/healthz" => "healthz",
            STATS_PATH => "stats",
            "/metrics" => "metrics",
            _ => "other",
        },
    }
}

/// The end-to-end latency histogram for an endpoint label.
fn endpoint_hist(label: &str) -> &'static str {
    Endpoint::ALL
        .into_iter()
        .find(|e| e.label() == label)
        .map_or(Endpoint::OTHER_HIST, Endpoint::hist)
}

/// Everything known about one finished request at flush time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AccessEntry {
    pub(crate) id: u64,
    pub(crate) endpoint: &'static str,
    pub(crate) status: u16,
    pub(crate) total_us: f64,
    pub(crate) parse_us: f64,
    pub(crate) queue_us: f64,
    pub(crate) compute_us: f64,
    pub(crate) render_us: f64,
    pub(crate) flush_us: f64,
}

/// Requests taking at least this long end to end, in microseconds, log
/// their full phase breakdown.
const SLOW_US: f64 = 100_000.0;

/// Per-server telemetry state: the access log.
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    access: Option<AccessLog>,
}

impl Telemetry {
    pub(crate) fn from_config(config: &ServeConfig) -> Telemetry {
        Telemetry {
            access: config.access_log.as_ref().map(|p| AccessLog::open(p)),
        }
    }

    /// Records the flush-time metrics for one finished request and writes
    /// its access-log line (when logging is on).
    pub(crate) fn finish_request(&self, e: &AccessEntry) {
        hist("serve.phase.flush_us", e.flush_us);
        hist("serve.request_us", e.total_us);
        hist(endpoint_hist(e.endpoint), e.total_us);
        if let Some(log) = &self.access {
            log.write(e, e.total_us >= SLOW_US);
        }
    }
}

/// The structured JSONL access log behind its own sink lock.
#[derive(Debug)]
struct AccessLog {
    path: PathBuf,
    sink: Mutex<SinkState>,
}

#[derive(Debug)]
struct SinkState {
    file: Option<File>,
    written: u64,
}

fn open_append(path: &PathBuf) -> (Option<File>, u64) {
    match OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => {
            let written = f.metadata().map_or(0, |m| m.len());
            (Some(f), written)
        }
        Err(e) => {
            pi_obs::warn_once(
                "serve.access_log",
                &format!(
                    "cannot open access log `{}`: {e}; logging disabled",
                    path.display()
                ),
            );
            (None, 0)
        }
    }
}

impl AccessLog {
    fn open(path: &str) -> AccessLog {
        let path = PathBuf::from(path);
        let (file, written) = open_append(&path);
        AccessLog {
            path,
            sink: Mutex::new(SinkState { file, written }),
        }
    }

    /// Appends one line. The line is rendered before the sink lock is
    /// taken; the lock guards only the file handle and rotation state.
    fn write(&self, e: &AccessEntry, slow: bool) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        // Durations are logged to 0.1 µs.
        let us = |v: f64| Json::from_f64((v * 10.0).round() / 10.0);
        let mut fields = vec![
            ("ts_ms", Json::Int(ts_ms.try_into().unwrap_or(0))),
            ("id", Json::Int(e.id.into())),
            ("endpoint", Json::Str(e.endpoint.to_string())),
            ("status", Json::Int(e.status.into())),
            ("total_us", us(e.total_us)),
        ];
        if slow {
            fields.extend([
                ("slow", Json::Bool(true)),
                ("parse_us", us(e.parse_us)),
                ("queue_us", us(e.queue_us)),
                ("compute_us", us(e.compute_us)),
                ("render_us", us(e.render_us)),
                ("flush_us", us(e.flush_us)),
            ]);
        }
        let mut line = json::obj(fields).render();
        line.push('\n');

        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if sink.file.is_some() && sink.written + line.len() as u64 > ROTATE_BYTES {
            // Size-based rotation: close, rename to `.1`, reopen fresh. A
            // failed rename warns once and the log keeps appending in place
            // (bounded growth beats silently dropped lines).
            sink.file = None;
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            if let Err(e) = std::fs::rename(&self.path, &rotated) {
                pi_obs::warn_once(
                    "serve.access_log.rotate",
                    &format!("cannot rotate access log `{}`: {e}", self.path.display()),
                );
            }
            let (file, written) = open_append(&self.path);
            sink.file = file;
            sink.written = written;
        }
        if let Some(f) = sink.file.as_mut() {
            let _ = f.write_all(line.as_bytes());
            sink.written += line.len() as u64;
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Maps a probe name onto the Prometheus metric-name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots become underscores, anything else
/// out of range becomes an underscore too.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders the full `/metrics` page: windowed counters (lifetime `_total`
/// plus per-window `_rate` gauges), windowed gauges, windowed histograms
/// (cumulative `_bucket`/`_sum`/`_count` plus per-window `_p50`/`_p99`
/// gauges), and the queue/batch gauges derived from the live server state.
pub(crate) fn render_prometheus(stats: &ServerStats, queue: &Batcher) -> String {
    use std::fmt::Write as _;
    let snap = pi_obs::window::snapshot();
    let mut out = String::with_capacity(4096);

    for c in &snap.counters {
        let name = prom_name(c.name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {}", c.total);
        let _ = writeln!(out, "# TYPE {name}_rate gauge");
        for (w, rate) in pi_obs::window::WINDOWS_S.iter().zip(c.rates) {
            let _ = writeln!(out, "{name}_rate{{window=\"{w}s\"}} {rate}");
        }
    }
    for (name, value) in &snap.gauges {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for h in &snap.hists {
        let name = prom_name(h.name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for b in h.total.buckets() {
            cum += b.count;
            // The underflow bucket (hi == 0) has no meaningful `le`; its
            // counts still enter the running cumulative.
            if b.hi > 0.0 {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", b.hi);
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.total.count());
        let _ = writeln!(out, "{name}_sum {}", h.total.sum());
        let _ = writeln!(out, "{name}_count {}", h.total.count());
        for (q, col) in [("p50", 1usize), ("p99", 2)] {
            let _ = writeln!(out, "# TYPE {name}_{q} gauge");
            for (w, p50, p99) in &h.quantiles {
                let v = if col == 1 { *p50 } else { *p99 };
                let _ = writeln!(out, "{name}_{q}{{window=\"{w}s\"}} {v}");
            }
        }
    }

    // Live server state not carried by the windowed store.
    let direct_gauges: [(&str, f64); 6] = [
        ("serve_queue_depth", queue.len() as f64),
        (
            "serve_queue_depth_hwm_total",
            queue.queue_depth_hwm() as f64,
        ),
        ("serve_shed_threshold", queue.shed_threshold() as f64),
        ("serve_batch_mean", stats.batch_mean()),
        ("serve_size_batch_mean", stats.size_batch_mean()),
        ("serve_plan_cache_hit_rate", plan_cache_hit_rate()),
    ];
    for (name, value) in direct_gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_stay_in_charset() {
        assert_eq!(prom_name("serve.phase.parse_us"), "serve_phase_parse_us");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
        for name in ["serve.requests", "rt.queue_wait", "x", "_x"] {
            let p = prom_name(name);
            let mut chars = p.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn exposition_is_well_formed_under_traffic() {
        // Server tests in this process share the global window store, so
        // this test records under its own names and never resets.
        pi_obs::window::activate();
        counter("teltest.requests", 5);
        hist("teltest.lat_us", 12.5);
        hist("teltest.lat_us", 250.0);
        hist("teltest.lat_us", -1.0); // underflow bucket
        let stats = ServerStats::default();
        let queue = Batcher::new(8);
        let page = render_prometheus(&stats, &queue);

        let mut last_bucket: Option<(String, u64)> = None;
        let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for line in page.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            let bare = name_part.split('{').next().unwrap();
            let mut chars = bare.chars();
            let first = chars.next().unwrap();
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "{line}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{line}"
            );
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
            if let Some(base) = bare.strip_suffix("_bucket") {
                let cum: u64 = value.parse().unwrap();
                if let Some((prev_base, prev)) = &last_bucket {
                    if prev_base == base {
                        assert!(cum >= *prev, "buckets must be cumulative: {line}");
                    }
                }
                last_bucket = Some((base.to_string(), cum));
                if name_part.contains("le=\"+Inf\"") {
                    counts.insert(format!("{base}_inf"), cum);
                }
            }
            if let Some(base) = bare.strip_suffix("_count") {
                counts.insert(format!("{base}_count"), value.parse().unwrap());
            }
        }
        // `_count` must equal the `+Inf` bucket for every histogram.
        let inf = counts["teltest_lat_us_inf"];
        assert_eq!(inf, counts["teltest_lat_us_count"]);
        assert_eq!(inf, 3);
        assert!(page.contains("teltest_requests_total 5"));
        assert!(page.contains("teltest_requests_rate{window=\"60s\"}"));
        assert!(page.contains("teltest_lat_us_p99{window=\"60s\"}"));
        assert!(page.contains("serve_queue_depth 0"));
    }

    #[test]
    fn exposition_bucket_bounds_are_pinned() {
        // The `le` bounds `/metrics` exposes for this sample set, pinned:
        // a change here changes every scraper's labels.
        pi_obs::window::activate();
        for v in [
            12.5, 37.0, 88.0, 88.0, 150.0, 151.0, 420.0, 999.0, 1909.0, 2383.0, 0.0,
        ] {
            hist("teltest.pinned_us", v);
        }
        let page = render_prometheus(&ServerStats::default(), &Batcher::new(8));
        let buckets: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("teltest_pinned_us_bucket"))
            .collect();
        assert_eq!(
            buckets,
            [
                "{le=\"12.883922655594034\"} 2",
                "{le=\"38.05462768008707\"} 3",
                "{le=\"90.50966799187809\"} 5",
                "{le=\"152.2185107203483\"} 7",
                "{le=\"430.5389646099018\"} 8",
                "{le=\"1024\"} 9",
                "{le=\"1961.171518870679\"} 10",
                "{le=\"2435.4961715255727\"} 11",
                "{le=\"+Inf\"} 11",
            ]
        );
    }

    #[test]
    fn access_log_writes_rotates_and_marks_slow_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join("pi_serve_access_test.jsonl");
        let rotated = dir.join("pi_serve_access_test.jsonl.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);

        let log = AccessLog::open(path.to_str().unwrap());
        let entry = AccessEntry {
            id: 7,
            endpoint: "yield",
            status: 200,
            total_us: 1234.5,
            parse_us: 10.0,
            queue_us: 400.0,
            compute_us: 800.0,
            render_us: 4.0,
            flush_us: 20.5,
        };
        log.write(&entry, false);
        log.write(&entry, true);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = crate::json::parse(line).expect("valid JSON line");
            assert_eq!(v.get("id").and_then(crate::json::Json::as_u64), Some(7));
        }
        assert!(!lines[0].contains("\"slow\""));
        assert!(lines[1].contains("\"slow\":true"));
        assert_eq!(
            lines[1].split_once(",\"endpoint").map(|(_, rest)| rest),
            Some(
                "\":\"yield\",\"status\":200,\"total_us\":1234.5,\"slow\":true,\"parse_us\":10,\
                 \"queue_us\":400,\"compute_us\":800,\"render_us\":4,\"flush_us\":20.5}"
            )
        );

        // Force a rotation by pretending the cap is already reached.
        {
            let mut sink = log.sink.lock().unwrap();
            sink.written = ROTATE_BYTES;
        }
        log.write(&entry, false);
        assert!(rotated.exists(), "old log rotated to .1");
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fresh.lines().count(), 1, "new log starts over");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }
}
