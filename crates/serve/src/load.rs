//! The synthetic-traffic load generator behind `pi load` / `pi-load`.
//!
//! Open-loop pacing: a run of `qps × duration` requests is scheduled on a
//! fixed timetable (`start + i/qps`), striped across the client
//! connections by request index (`i mod conns`). Workers never slow the
//! timetable down — if the server falls behind, latency grows instead of
//! the offered load shrinking. Latency is timed from each request's
//! scheduled instant, not from when it was actually written, so a
//! stalled connection charges every request queued behind it (no
//! coordinated omission); that is what makes the reported p99 honest.
//! Each worker holds one persistent keep-alive connection, and
//! the connection count (`--conns`) is independent of the offered QPS, so
//! connection-handling cost can be measured separately from request cost.
//!
//! The report combines client-side measurements (achieved QPS,
//! p50/p99/p99.9/max latency over the status-200 responses, a
//! per-status-code latency split so fast 503 sheds cannot flatter the
//! success percentiles) with server-side counters
//! scraped from `GET /v1/stats` (mean batch size, mean coalesced sizing
//! batch, plan-cache hit rate) — the numbers the bench publishes as
//! `serve_qps`, `serve_p50_us`, `serve_p99_us`, `serve_batch_mean`,
//! `serve_qps_c64`, `serve_p99_us_c64` and `size_batch_mean`.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::http::{read_response, write_request, Response};
use crate::json::{obj, Json};
use crate::traffic::TrafficGen;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Offered load, requests per second (> 0).
    pub qps: f64,
    /// Concurrent client connections (≥ 1) when [`LoadConfig::conns`] is
    /// zero.
    pub concurrency: usize,
    /// Persistent-connection fan-out, independent of QPS; `0` falls back
    /// to [`LoadConfig::concurrency`].
    pub conns: usize,
    /// Run length, seconds (> 0).
    pub duration_s: f64,
    /// Percent of requests that are yield queries (0–100).
    pub yield_pct: u32,
    /// Percent of requests that are sizing queries (0–100, clamped so
    /// yield + size ≤ 100).
    pub size_pct: u32,
    /// Traffic seed — same seed, same request sequence.
    pub seed: u64,
    /// Technology node spelling for every request.
    pub tech: String,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7878".to_owned(),
            qps: 2000.0,
            concurrency: 4,
            conns: 0,
            duration_s: 3.0,
            yield_pct: 10,
            size_pct: 0,
            seed: 1,
            tech: "65nm".to_owned(),
        }
    }
}

/// Latency summary for one status code (`0` = transport failure; those
/// carry no latency sample, so their summary stays at zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusLatency {
    /// HTTP status code, or `0` for transport failures.
    pub status: u16,
    /// Latency samples behind the percentiles below.
    pub count: u64,
    /// Median latency for this status, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency for this status, microseconds.
    pub p99_us: f64,
}

/// What a load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Responses with status 200.
    pub ok: u64,
    /// Non-200 responses plus transport failures.
    pub errors: u64,
    /// Responses shed by admission control (status 503).
    pub shed: u64,
    /// Response count per status code, sorted by status; `0` stands for
    /// transport failures (no response at all).
    pub by_status: Vec<(u16, u64)>,
    /// Wall-clock of the run, seconds.
    pub elapsed_s: f64,
    /// Achieved throughput, requests per second.
    pub qps: f64,
    /// Median latency over status-200 responses, microseconds, timed
    /// from each request's scheduled send instant. Shed
    /// responses answer much faster than served ones, so percentiles
    /// are computed per status; see [`LoadReport::latency_by_status`]
    /// for the non-200 codes.
    pub p50_us: f64,
    /// 99th-percentile latency over status-200 responses, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile latency over status-200 responses,
    /// microseconds.
    pub p999_us: f64,
    /// Slowest status-200 response, microseconds.
    pub max_us: f64,
    /// Per-status latency split, sorted by status code.
    pub latency_by_status: Vec<StatusLatency>,
    /// Server-side mean batch size (0 when stats were unreachable).
    pub batch_mean: f64,
    /// Server-side mean coalesced sizing batch (0 when stats were
    /// unreachable or no size queries ran).
    pub size_batch_mean: f64,
    /// Server-side plan-cache hit rate (0 when stats were unreachable).
    pub cache_hit_rate: f64,
}

impl LoadReport {
    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let statuses = self
            .by_status
            .iter()
            .map(|&(status, n)| {
                if status == 0 {
                    format!("transport:{n}")
                } else {
                    format!("{status}:{n}")
                }
            })
            .collect::<Vec<_>>()
            .join("  ");
        // The non-200 split only earns a line when something non-200
        // actually carried a latency sample.
        let split = self
            .latency_by_status
            .iter()
            .filter(|s| s.status != 200 && s.count > 0)
            .map(|s| format!("{}: p50 {:.0}us p99 {:.0}us", s.status, s.p50_us, s.p99_us))
            .collect::<Vec<_>>()
            .join("  ");
        let split = if split.is_empty() {
            String::new()
        } else {
            format!("\nnon-200 latency  {split}")
        };
        format!(
            "sent {} ok {} errors {} shed {} in {:.2}s\n\
             status  {}\n\
             qps {:.0}  p50 {:.0}us  p99 {:.0}us  p99.9 {:.0}us  max {:.0}us{}\n\
             batch mean {:.2}  size batch mean {:.2}  plan-cache hit rate {:.1}%",
            self.sent,
            self.ok,
            self.errors,
            self.shed,
            self.elapsed_s,
            statuses,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            split,
            self.batch_mean,
            self.size_batch_mean,
            self.cache_hit_rate * 100.0,
        )
    }

    /// Machine-readable summary.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let by_status = self
            .by_status
            .iter()
            .map(|&(status, n)| (status.to_string(), Json::Int(i128::from(n))))
            .collect::<Vec<_>>();
        let latency_by_status = self
            .latency_by_status
            .iter()
            .map(|s| {
                (
                    s.status.to_string(),
                    obj(vec![
                        ("count", Json::Int(i128::from(s.count))),
                        ("p50_us", Json::Num(s.p50_us)),
                        ("p99_us", Json::Num(s.p99_us)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        obj(vec![
            ("sent", Json::Int(i128::from(self.sent))),
            ("ok", Json::Int(i128::from(self.ok))),
            ("errors", Json::Int(i128::from(self.errors))),
            ("shed", Json::Int(i128::from(self.shed))),
            ("by_status", Json::Obj(by_status)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("qps", Json::Num(self.qps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("p999_us", Json::Num(self.p999_us)),
            ("max_us", Json::Num(self.max_us)),
            ("latency_by_status", Json::Obj(latency_by_status)),
            ("batch_mean", Json::Num(self.batch_mean)),
            ("size_batch_mean", Json::Num(self.size_batch_mean)),
            ("cache_hit_rate", Json::Num(self.cache_hit_rate)),
        ])
    }
}

/// One persistent keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with a 30 s read timeout.
    ///
    /// # Errors
    ///
    /// Connection failures, as text.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            addr: addr.to_owned(),
            stream,
            reader,
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Transport or parse failures, as text. The connection should be
    /// re-established (see [`Client::reconnect`]) after an error.
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        write_request(&mut self.stream, method, path, body).map_err(|e| e.to_string())?;
        match read_response(&mut self.reader) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err("server closed the connection".to_owned()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Replaces the underlying connection.
    ///
    /// # Errors
    ///
    /// Connection failures, as text.
    pub fn reconnect(&mut self) -> Result<(), String> {
        *self = Client::connect(&self.addr)?;
        Ok(())
    }
}

/// Scrapes `(batch_mean, size_batch_mean, cache_hit_rate)` from the
/// server's stats endpoint; zeros when unreachable.
fn scrape_stats(addr: &str) -> (f64, f64, f64) {
    let scraped = Client::connect(addr)
        .and_then(|mut c| c.roundtrip("GET", "/v1/stats", b""))
        .and_then(|resp| {
            let text = resp.body_str()?.to_owned();
            crate::json::parse(&text).map_err(|e| e.to_string())
        });
    match scraped {
        Ok(v) => (
            v.get("batch_mean").and_then(Json::as_f64).unwrap_or(0.0),
            v.get("size_batch_mean")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            v.get("plan_cache_hit_rate")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        ),
        Err(_) => (0.0, 0.0, 0.0),
    }
}

/// Sorted-latency percentile (nearest rank), microseconds.
fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Runs the load and reports.
///
/// # Errors
///
/// Configuration problems and total connection failure, as text.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    if !(config.qps.is_finite() && config.qps > 0.0) {
        return Err(format!("qps must be positive, got {}", config.qps));
    }
    if !(config.duration_s.is_finite() && config.duration_s > 0.0) {
        return Err(format!(
            "duration must be positive, got {}",
            config.duration_s
        ));
    }
    let conns = if config.conns == 0 {
        config.concurrency.max(1)
    } else {
        config.conns
    };
    let total = (config.qps * config.duration_s).round() as u64;
    if total == 0 {
        return Err("qps × duration rounds to zero requests".to_owned());
    }
    let gen = TrafficGen::with_mix(config.seed, &config.tech, config.yield_pct, config.size_pct);

    // Fail fast (and warm the listener path) before spawning workers.
    Client::connect(&config.addr)?
        .roundtrip("GET", "/healthz", b"")
        .map_err(|e| format!("health check failed: {e}"))?;

    struct WorkerResult {
        ok: u64,
        errors: u64,
        by_status: HashMap<u16, u64>,
        // `(status, latency_us)` per answered request; transport
        // failures carry no latency sample.
        latencies_us: Vec<(u16, f64)>,
    }

    let start = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(conns);
        for w in 0..conns {
            let gen = &gen;
            let addr = config.addr.as_str();
            let qps = config.qps;
            handles.push(scope.spawn(move || {
                let mut out = WorkerResult {
                    ok: 0,
                    errors: 0,
                    by_status: HashMap::new(),
                    latencies_us: Vec::new(),
                };
                let Ok(mut client) = Client::connect(addr) else {
                    let missed = (w as u64..total).step_by(conns).count() as u64;
                    out.errors = missed;
                    *out.by_status.entry(0).or_default() += missed;
                    return out;
                };
                let mut i = w as u64;
                while i < total {
                    let due = start + Duration::from_secs_f64(i as f64 / qps);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let request = gen.request(i);
                    let body = request.to_json().render();
                    match client.roundtrip("POST", request.path(), body.as_bytes()) {
                        Ok(resp) => {
                            let latency = Instant::now().saturating_duration_since(due);
                            out.latencies_us
                                .push((resp.status, latency.as_secs_f64() * 1e6));
                            *out.by_status.entry(resp.status).or_default() += 1;
                            if resp.status == 200 {
                                out.ok += 1;
                            } else {
                                out.errors += 1;
                            }
                            if !resp.keep_alive && client.reconnect().is_err() {
                                let missed =
                                    ((i + conns as u64)..total).step_by(conns).count() as u64;
                                out.errors += missed;
                                *out.by_status.entry(0).or_default() += missed;
                                break;
                            }
                        }
                        Err(_) => {
                            out.errors += 1;
                            *out.by_status.entry(0).or_default() += 1;
                            if client.reconnect().is_err() {
                                let missed =
                                    ((i + conns as u64)..total).step_by(conns).count() as u64;
                                out.errors += missed;
                                *out.by_status.entry(0).or_default() += missed;
                                break;
                            }
                        }
                    }
                    i += conns as u64;
                }
                out
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut lat_by_status: HashMap<u16, Vec<f64>> = HashMap::new();
    for r in &results {
        for &(status, lat) in &r.latencies_us {
            lat_by_status.entry(status).or_default().push(lat);
        }
    }
    for lat in lat_by_status.values_mut() {
        lat.sort_by(f64::total_cmp);
    }
    let ok_lat: &[f64] = lat_by_status.get(&200).map_or(&[], Vec::as_slice);
    let ok: u64 = results.iter().map(|r| r.ok).sum();
    let errors: u64 = results.iter().map(|r| r.errors).sum();
    let mut by_status: HashMap<u16, u64> = HashMap::new();
    for r in &results {
        for (&status, &n) in &r.by_status {
            *by_status.entry(status).or_default() += n;
        }
    }
    let shed = by_status.get(&503).copied().unwrap_or(0);
    let mut by_status: Vec<(u16, u64)> = by_status.into_iter().collect();
    by_status.sort_unstable();
    let mut latency_by_status: Vec<StatusLatency> = lat_by_status
        .iter()
        .map(|(&status, lat)| StatusLatency {
            status,
            count: lat.len() as u64,
            p50_us: percentile(lat, 0.50),
            p99_us: percentile(lat, 0.99),
        })
        .collect();
    latency_by_status.sort_unstable_by_key(|s| s.status);
    let (batch_mean, size_batch_mean, cache_hit_rate) = scrape_stats(&config.addr);

    Ok(LoadReport {
        sent: total,
        ok,
        errors,
        shed,
        by_status,
        elapsed_s,
        qps: ok as f64 / elapsed_s.max(1e-9),
        p50_us: percentile(ok_lat, 0.50),
        p99_us: percentile(ok_lat, 0.99),
        p999_us: percentile(ok_lat, 0.999),
        max_us: ok_lat.last().copied().unwrap_or(0.0),
        latency_by_status,
        batch_mean,
        size_batch_mean,
        cache_hit_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::server::Server;

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&lat, 0.50), 51.0);
        assert_eq!(percentile(&lat, 0.99), 99.0);
        assert_eq!(percentile(&lat, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let lat: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&lat, 0.999), 999.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = LoadReport {
            sent: 100,
            ok: 97,
            errors: 3,
            shed: 2,
            by_status: vec![(0, 1), (200, 97), (503, 2)],
            elapsed_s: 2.0,
            qps: 48.5,
            p50_us: 120.0,
            p99_us: 900.0,
            p999_us: 1800.0,
            max_us: 2100.0,
            latency_by_status: vec![
                StatusLatency {
                    status: 200,
                    count: 97,
                    p50_us: 120.0,
                    p99_us: 900.0,
                },
                StatusLatency {
                    status: 503,
                    count: 2,
                    p50_us: 40.0,
                    p99_us: 80.0,
                },
            ],
            batch_mean: 3.5,
            size_batch_mean: 2.25,
            cache_hit_rate: 0.93,
        };
        let text = report.render();
        assert!(text.contains("sent 100 ok 97 errors 3 shed 2"));
        assert!(text.contains("transport:1  200:97  503:2"));
        assert!(text.contains("p99.9 1800us  max 2100us"));
        assert!(text.contains("non-200 latency  503: p50 40us p99 80us"));
        assert!(text.contains("size batch mean 2.25"));
        assert!(text.contains("93.0%"));
        let v = report.to_json();
        assert_eq!(v.get("ok").and_then(Json::as_u64), Some(97));
        assert_eq!(v.get("shed").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("p999_us").and_then(Json::as_f64), Some(1800.0));
        assert_eq!(v.get("max_us").and_then(Json::as_f64), Some(2100.0));
        assert_eq!(v.get("batch_mean").and_then(Json::as_f64), Some(3.5));
        assert_eq!(v.get("size_batch_mean").and_then(Json::as_f64), Some(2.25));
        let statuses = v.get("by_status").expect("breakdown present");
        assert_eq!(statuses.get("503").and_then(Json::as_u64), Some(2));
        let split = v.get("latency_by_status").expect("latency split present");
        let shed_split = split.get("503").expect("503 latency summary");
        assert_eq!(shed_split.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(shed_split.get("p99_us").and_then(Json::as_f64), Some(80.0));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = LoadConfig {
            qps: 0.0,
            ..LoadConfig::default()
        };
        assert!(run_load(&bad).is_err());
        let bad = LoadConfig {
            duration_s: -1.0,
            ..LoadConfig::default()
        };
        assert!(run_load(&bad).is_err());
        let unreachable = LoadConfig {
            addr: "127.0.0.1:1".to_owned(),
            qps: 10.0,
            duration_s: 0.1,
            ..LoadConfig::default()
        };
        assert!(run_load(&unreachable).is_err(), "no server → error, fast");
    }

    #[test]
    fn short_burst_against_an_in_process_server_is_clean() {
        let mut server = Server::start(&ServeConfig {
            port: 0,
            queue_depth: 256,
            ..ServeConfig::default()
        })
        .expect("bind");
        let config = LoadConfig {
            addr: server.addr().to_string(),
            qps: 400.0,
            concurrency: 2,
            duration_s: 0.5,
            yield_pct: 5,
            seed: 42,
            tech: "65nm".to_owned(),
            ..LoadConfig::default()
        };
        let report = run_load(&config).expect("load run");
        assert_eq!(report.sent, 200);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.ok, report.sent);
        assert_eq!(report.by_status, vec![(200, 200)]);
        assert!(report.p50_us > 0.0);
        assert!(report.p99_us >= report.p50_us);
        assert!(report.p999_us >= report.p99_us);
        assert!(report.max_us >= report.p999_us);
        assert_eq!(report.latency_by_status.len(), 1, "all 200s");
        assert_eq!(report.latency_by_status[0].status, 200);
        assert_eq!(report.latency_by_status[0].count, 200);
        assert!(report.cache_hit_rate > 0.5, "127 lengths repeat quickly");
        server.shutdown();
    }

    /// A stub HTTP server on an ephemeral port that answers every request
    /// with an empty JSON 200, except that it holds the first POST for
    /// `stall` first. It serves `conns` connections, then its thread
    /// ends.
    fn stalling_server(stall: Duration, conns: usize) -> (String, std::thread::JoinHandle<()>) {
        use crate::http::{read_request, write_response};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut stalled = false;
            for stream in listener.incoming().take(conns) {
                let mut stream = stream.expect("accept");
                let _ = stream.set_nodelay(true);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                while let Ok(Some(req)) = read_request(&mut reader) {
                    if req.method == "POST" && !stalled {
                        stalled = true;
                        std::thread::sleep(stall);
                    }
                    if write_response(&mut stream, 200, "application/json", b"{}", true).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_is_timed_from_the_schedule_not_the_send() {
        // 50 requests due every 5 ms on one connection; the server holds
        // the first for 250 ms, so request i cannot be answered before
        // 250 ms after the start, and its latency from its due instant
        // (5·i ms) is at least 250 − 5·i ms. Timed from the actual send,
        // the 49 queued requests would look instant.
        let stall = Duration::from_millis(250);
        // Health check, the one worker, the stats scrape.
        let (addr, server) = stalling_server(stall, 3);
        let config = LoadConfig {
            addr,
            qps: 200.0,
            conns: 1,
            duration_s: 0.25,
            ..LoadConfig::default()
        };
        let report = run_load(&config).expect("load run");
        server.join().expect("stub server");
        assert_eq!(report.sent, 50);
        assert_eq!(report.ok, 50, "{report:?}");
        assert!(report.max_us >= 250_000.0, "{report:?}");
        // Nearest-rank p50 is the 26th-smallest latency; only requests
        // 25..49 have lower bounds under 130 ms.
        assert!(report.p50_us >= 125_000.0, "{report:?}");
    }

    #[test]
    fn connection_fanout_is_independent_of_qps() {
        // 16 persistent connections at a modest QPS: every connection
        // carries some of the striped load and all answers come back.
        let mut server = Server::start(&ServeConfig {
            port: 0,
            queue_depth: 256,
            ..ServeConfig::default()
        })
        .expect("bind");
        let config = LoadConfig {
            addr: server.addr().to_string(),
            qps: 320.0,
            conns: 16,
            duration_s: 0.5,
            yield_pct: 0,
            size_pct: 5,
            seed: 7,
            tech: "65nm".to_owned(),
            ..LoadConfig::default()
        };
        let report = run_load(&config).expect("load run");
        assert_eq!(report.sent, 160);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.by_status, vec![(200, 160)]);
        assert!(
            report.size_batch_mean >= 1.0,
            "size queries ran and were swept: {report:?}"
        );
        server.shutdown();
    }
}
