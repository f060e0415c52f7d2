//! The serving loop: [`Server`] binds the listener and starts the one
//! `pi-serve-io` thread that owns every connection and executes every
//! batch; `route` dispatches each parsed request.
//!
//! ```text
//!  main thread ── Server::start / shutdown / stats
//!  pi-serve-io ── poll(2) over {listener, conns}
//!     │  accept → non-blocking socket, per-connection buffers
//!     │  parse HTTP → route → Batcher::submit_with ──▶ bounded queue
//!     └─ loop top: take_batch → execute_batch → answers flush in order
//! ```
//!
//! Shutdown is cooperative: a flag checked by the loop at least every
//! 50 ms (its poll timeout), the queue is closed so pending jobs are
//! answered `503`, in-flight responses flush, and `shutdown()` joins the
//! thread — nothing is detached or killed. The event loop is Unix-only:
//! elsewhere [`Server::start`] fails with
//! [`std::io::ErrorKind::Unsupported`].

use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::api::{ApiRequest, ApiResponse, Endpoint};
use crate::batch::Batcher;
use crate::config::ServeConfig;
use crate::http::{write_head, Request};
use crate::json::{obj, Json};
use crate::store::{plan_cache_counts, plan_cache_hit_rate};

/// Path of the [`ServerStats`] page.
pub(crate) const STATS_PATH: &str = "/v1/stats";

/// Monotonic serving counters, exposed at `GET /v1/stats`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Jobs that went through batches (Σ batch sizes).
    pub batched_jobs: AtomicU64,
    /// Coalesced sizing sweeps executed (one per `(node, corner)` group
    /// per batch that carried size jobs).
    pub size_sweeps: AtomicU64,
    /// Size jobs that went through coalesced sweeps.
    pub size_jobs: AtomicU64,
    /// `accept(2)` failures (other than would-block) on the listener.
    pub accept_failures: AtomicU64,
}

impl ServerStats {
    /// Mean batch size so far (`0` before the first batch).
    #[must_use]
    pub fn batch_mean(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.batched_jobs.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }

    /// Mean size jobs per coalesced sizing sweep (`0` before the first).
    #[must_use]
    pub fn size_batch_mean(&self) -> f64 {
        let sweeps = self.size_sweeps.load(Ordering::Relaxed);
        if sweeps == 0 {
            0.0
        } else {
            self.size_jobs.load(Ordering::Relaxed) as f64 / sweeps as f64
        }
    }

    fn to_json(&self, queue: &Batcher) -> Json {
        let (hits, misses) = plan_cache_counts();
        obj(vec![
            (
                "requests",
                Json::Int(i128::from(self.requests.load(Ordering::Relaxed))),
            ),
            (
                "batches",
                Json::Int(i128::from(self.batches.load(Ordering::Relaxed))),
            ),
            (
                "batched_jobs",
                Json::Int(i128::from(self.batched_jobs.load(Ordering::Relaxed))),
            ),
            ("batch_mean", Json::Num(self.batch_mean())),
            (
                "size_sweeps",
                Json::Int(i128::from(self.size_sweeps.load(Ordering::Relaxed))),
            ),
            (
                "size_jobs",
                Json::Int(i128::from(self.size_jobs.load(Ordering::Relaxed))),
            ),
            ("size_batch_mean", Json::Num(self.size_batch_mean())),
            ("shed", Json::Int(i128::from(queue.shed_count()))),
            ("queue_depth", Json::Int(i128::from(queue.len() as u64))),
            (
                "queue_depth_hwm",
                Json::Int(i128::from(queue.queue_depth_hwm())),
            ),
            (
                "shed_threshold",
                Json::Int(i128::from(queue.shed_threshold() as u64)),
            ),
            (
                "accept_failures",
                Json::Int(i128::from(self.accept_failures.load(Ordering::Relaxed))),
            ),
            ("plan_cache_hits", Json::Int(i128::from(hits))),
            ("plan_cache_misses", Json::Int(i128::from(misses))),
            ("plan_cache_hit_rate", Json::Num(plan_cache_hit_rate())),
        ])
    }
}

/// One response, rendered: what the event loop writes to the wire.
#[derive(Debug)]
pub(crate) struct Rendered {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// Whether the *request* asked to keep the connection open; the
    /// writer still ANDs this with the shutdown flag.
    pub(crate) keep_alive: bool,
    pub(crate) retry_after: Option<u64>,
    pub(crate) content_type: &'static str,
    /// Answers a `HEAD`: the status and headers (with the body's length)
    /// go out, the body does not.
    pub(crate) head: bool,
}

impl Rendered {
    pub(crate) fn of(resp: &ApiResponse, keep_alive: bool) -> Rendered {
        Rendered {
            status: resp.status(),
            body: resp.to_json().render(),
            keep_alive,
            retry_after: resp.retry_after(),
            content_type: "application/json",
            head: false,
        }
    }

    /// Serializes the HTTP response: the full response, or only its
    /// status and headers when it answers a `HEAD`.
    pub(crate) fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let extra: Vec<(&str, String)> = self
            .retry_after
            .map(|s| ("Retry-After", s.to_string()))
            .into_iter()
            .collect();
        write_head(
            w,
            self.status,
            self.content_type,
            self.body.len(),
            keep_alive,
            &extra,
        )?;
        if !self.head {
            w.write_all(self.body.as_bytes())?;
        }
        w.flush()
    }
}

/// What routing decided about one parsed request.
pub(crate) enum RouteOutcome {
    /// Answer now (health/stats/admin endpoints and all routing errors).
    Immediate(Rendered),
    /// A valid API request: queue it for the next batch.
    Api(ApiRequest),
}

/// Routes one parsed request. A `HEAD` routes as the `GET` of its path
/// and is answered with that response's status and headers only.
pub(crate) fn route(
    request: &Request,
    shutdown: &AtomicBool,
    queue: &Batcher,
    stats: &ServerStats,
) -> RouteOutcome {
    let answer =
        |resp: ApiResponse| RouteOutcome::Immediate(Rendered::of(&resp, request.keep_alive));
    let page = |status: u16, body: String, keep_alive: bool| {
        RouteOutcome::Immediate(Rendered {
            status,
            body,
            keep_alive,
            retry_after: None,
            content_type: "application/json",
            head: false,
        })
    };
    let head = request.method == "HEAD";
    let method = if head { "GET" } else { request.method.as_str() };
    let mut outcome = match (method, request.path.as_str()) {
        ("GET", "/healthz") => page(
            200,
            obj(vec![("ok", Json::Bool(true))]).render(),
            request.keep_alive,
        ),
        ("GET", STATS_PATH) => page(200, stats.to_json(queue).render(), request.keep_alive),
        ("GET", "/metrics") => RouteOutcome::Immediate(Rendered {
            status: 200,
            body: crate::telemetry::render_prometheus(stats, queue),
            keep_alive: request.keep_alive,
            retry_after: None,
            content_type: "text/plain; version=0.0.4",
            head: false,
        }),
        ("POST", "/admin/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            queue.close();
            page(200, obj(vec![("ok", Json::Bool(true))]).render(), false)
        }
        ("POST", path) => match ApiRequest::from_path_body(path, &body_text(request)) {
            Err(None) => answer(ApiResponse::error(
                404,
                format!("no such endpoint `{path}`"),
            )),
            Err(Some(msg)) => answer(ApiResponse::error(400, msg)),
            Ok(api) => RouteOutcome::Api(api),
        },
        ("GET", path) if Endpoint::from_path(path).is_some() => {
            answer(ApiResponse::error(405, format!("`{path}` requires POST")))
        }
        (_, path) => answer(ApiResponse::error(
            404,
            format!("no such endpoint `{path}`"),
        )),
    };
    if let RouteOutcome::Immediate(rendered) = &mut outcome {
        rendered.head = head;
    }
    outcome
}

/// A running serve instance. Dropping it shuts the server down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Batcher>,
    stats: Arc<ServerStats>,
    io: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:{config.port}` (port 0 picks an ephemeral port —
    /// read it back from [`Server::addr`]) and starts the serving thread.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures;
    /// [`std::io::ErrorKind::Unsupported`] off Unix.
    #[cfg(unix)]
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // A long-running service keeps rolling windows so `GET /metrics`
        // has live rates and quantiles even when journaling is off.
        pi_obs::window::activate();
        let tel = crate::telemetry::Telemetry::from_config(config);
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Batcher::with_admission(config.queue_depth);
        let stats = Arc::new(ServerStats::default());
        let io = crate::io_loop::spawn(
            listener,
            Arc::clone(&shutdown),
            Arc::clone(&queue),
            Arc::clone(&stats),
            tel,
        )?;
        Ok(Server {
            addr,
            shutdown,
            queue,
            stats,
            io: Some(io),
        })
    }

    /// The poll(2) event loop is Unix-only, so there is nothing to start.
    ///
    /// # Errors
    ///
    /// Always [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn start(_config: &ServeConfig) -> std::io::Result<Server> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "pi serve's poll(2) event loop is Unix-only",
        ))
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The request queue (shed counts, high-water mark).
    #[must_use]
    pub fn queue(&self) -> &Batcher {
        &self.queue
    }

    /// Whether a shutdown has been requested (via [`Server::shutdown`],
    /// drop, or `POST /admin/shutdown`).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes the queue, and joins the serving thread,
    /// which notices the flag within its 50 ms poll timeout. Safe to call
    /// more than once.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn body_text(request: &Request) -> String {
    String::from_utf8_lossy(&request.body).into_owned()
}

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT/SIGTERM arrived since [`install_shutdown_signals`].
#[must_use]
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGINT/SIGTERM handlers that set a flag polled via
/// [`signalled`] — the `pi serve` foreground loop uses this for a clean
/// ctrl-c / `kill` shutdown. No-op off Unix.
pub fn install_shutdown_signals() {
    #[cfg(unix)]
    {
        // std links libc on every Unix target, so the C `signal` entry
        // point is available without any crate dependency. The handler
        // only stores to an atomic — async-signal-safe by construction.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::EvalResponse;
    use crate::http::{read_response, write_request};
    use crate::json::parse;
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn test_server() -> Server {
        let config = ServeConfig {
            port: 0,
            queue_depth: 64,
            ..ServeConfig::default()
        };
        Server::start(&config).expect("bind on an ephemeral port")
    }

    fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn battery(server: &mut Server) {
        let (mut stream, mut reader) = connect(server);

        write_request(&mut stream, "GET", "/healthz", b"").unwrap();
        let resp = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
        assert!(resp.keep_alive);

        write_request(&mut stream, "POST", "/v1/nope", b"{}").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 404);

        write_request(&mut stream, "GET", "/v1/eval", b"").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 405);

        write_request(&mut stream, "POST", "/v1/eval", b"not json").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 400);

        write_request(&mut stream, "GET", "/v1/stats", b"").unwrap();
        let stats = read_response(&mut reader).unwrap().unwrap();
        let v = parse(stats.body_str().unwrap()).unwrap();
        assert!(v.get("requests").and_then(Json::as_u64).unwrap() >= 4);
        assert_eq!(v.get("shed").and_then(Json::as_u64), Some(0));
        assert!(v.get("size_batch_mean").and_then(Json::as_f64).is_some());
        assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(
            v.get("shed_threshold").and_then(Json::as_u64),
            Some(48),
            "75% of the 64-deep test queue"
        );

        write_request(&mut stream, "GET", "/metrics", b"").unwrap();
        let metrics = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(metrics.status, 200);
        let text = metrics.body_str().unwrap().to_owned();
        assert!(text.contains("serve_requests_total"), "{text}");
        assert!(text.contains("serve_requests_rate{window=\"60s\"}"));
        assert!(text.contains("serve_phase_parse_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("serve_queue_depth 0"));
        assert!(text.contains("serve_shed_threshold 48"));

        server.shutdown();
    }

    #[test]
    fn healthz_stats_and_errors_over_a_real_socket() {
        battery(&mut test_server());
    }

    #[test]
    fn pipelined_api_requests_are_batched_and_all_answered() {
        let mut server = test_server();
        let (mut stream, mut reader) = connect(&server);

        // Fire several requests before reading any response — they land in
        // the same window and come back in order on the same connection.
        let body = br#"{"tech":"65nm","length_mm":5.0}"#;
        for _ in 0..4 {
            write_request(&mut stream, "POST", "/v1/eval", body).unwrap();
        }
        let mut delays = Vec::new();
        for _ in 0..4 {
            let resp = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(resp.status, 200, "{:?}", resp.body_str());
            let v = parse(resp.body_str().unwrap()).unwrap();
            let eval = EvalResponse::from_json(&v).unwrap();
            assert!(eval.delay_ps > 0.0);
            delays.push(eval.delay_ps.to_bits());
        }
        assert!(
            delays.windows(2).all(|w| w[0] == w[1]),
            "identical queries → identical answers"
        );
        assert!(server.stats().requests.load(Ordering::Relaxed) >= 4);
        server.shutdown();
        assert!(server.stats().batches.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn deep_pipeline_without_reading_hits_backpressure_then_drains() {
        // 600 pipelined cheap requests, written in one burst before the
        // client reads anything, push the connection past the event
        // loop's pending-slot cap. The loop must pause parsing rather
        // than buffer unboundedly, then resume from the already-buffered
        // bytes (no further POLLIN announces them) once flushes drain
        // the backlog — every request still gets its response, in order.
        const BURST: usize = 600;
        let mut server = test_server();
        let (mut stream, mut reader) = connect(&server);

        let mut burst = Vec::new();
        for _ in 0..BURST {
            write_request(&mut burst, "GET", "/healthz", b"").unwrap();
        }
        stream.write_all(&burst).unwrap();

        for i in 0..BURST {
            let resp = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(resp.status, 200, "response {i} of {BURST}");
            assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
        }
        assert!(server.stats().requests.load(Ordering::Relaxed) >= BURST as u64);
        server.shutdown();
    }

    #[test]
    fn pipelined_head_requests_get_headers_and_no_body() {
        // A client that reads only the headers of a HEAD answer must find
        // the next response right after them: two pipelined HEADs on one
        // keep-alive socket come back as two bare header blocks, the
        // GET route's status and body length included, and nothing else.
        let mut server = test_server();
        let (mut stream, _) = connect(&server);
        stream
            .write_all(
                b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
                  HEAD /v1/eval HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.ends_with("\r\n\r\n"), "a body followed: {text:?}");
        let heads: Vec<&str> = text.split_terminator("\r\n\r\n").collect();
        assert_eq!(heads.len(), 2, "{text:?}");
        assert!(heads[0].starts_with("HTTP/1.1 200 "), "{text:?}");
        let ok_len = format!("content-length: {}", "{\"ok\":true}".len());
        assert!(heads[0].contains(&ok_len), "{text:?}");
        assert!(heads[0].contains("connection: keep-alive"), "{text:?}");
        assert!(heads[1].starts_with("HTTP/1.1 405 "), "{text:?}");
        assert!(heads[1].contains("connection: close"), "{text:?}");
        for head in &heads {
            assert!(head.lines().skip(1).all(|l| l.contains(": ")), "{text:?}");
        }
        server.shutdown();
    }

    #[test]
    fn admin_shutdown_stops_the_server() {
        let mut server = test_server();
        let (mut stream, mut reader) = connect(&server);
        write_request(&mut stream, "POST", "/admin/shutdown", b"{}").unwrap();
        let resp = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert!(!resp.keep_alive, "shutdown closes the connection");
        assert!(server.shutdown_requested());
        server.shutdown(); // joins cleanly
    }

    #[test]
    fn shutdown_with_an_idle_keep_alive_connection_returns_promptly() {
        let mut server = test_server();
        let (mut stream, mut reader) = connect(&server);
        write_request(&mut stream, "GET", "/healthz", b"").unwrap();
        let resp = read_response(&mut reader).unwrap().unwrap();
        assert!(resp.keep_alive, "the connection stays open, idle");
        let t0 = Instant::now();
        server.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }

    #[test]
    fn a_panicking_batch_answers_500_and_the_loop_keeps_serving() {
        let mut server = test_server();
        let eval = || {
            crate::api::ApiRequest::Eval(crate::api::EvalRequest {
                tech: "65nm".to_owned(),
                length_mm: 5.0,
                count: None,
                wn_um: None,
                corner: None,
            })
        };
        // Hold the serving thread inside a first batch, so the two jobs
        // queued meanwhile are guaranteed to share the next one.
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        server
            .queue()
            .submit_with(
                eval(),
                0,
                Box::new(move |_, _| {
                    let _ = entered_tx.send(());
                    let _ = released.recv();
                }),
            )
            .expect("queued");
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the first batch runs");
        server
            .queue()
            .submit_with(
                eval(),
                0,
                Box::new(|_, _| panic!("an injected failure mid-batch")),
            )
            .expect("queued");
        let unanswered = server.queue().submit(eval()).expect("queued");
        release.send(()).unwrap();

        let (resp, _) = unanswered
            .recv_timeout(Duration::from_secs(30))
            .expect("answered, not dropped");
        assert_eq!(resp.status(), 500, "{resp:?}");

        // The loop survived: a request over the wire still gets its 200,
        // and the panic is counted.
        let (mut stream, mut reader) = connect(&server);
        let body = br#"{"tech":"65nm","length_mm":5.0}"#;
        write_request(&mut stream, "POST", "/v1/eval", body).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 200);
        write_request(&mut stream, "GET", "/metrics", b"").unwrap();
        let metrics = read_response(&mut reader).unwrap().unwrap();
        let text = metrics.body_str().unwrap().to_owned();
        let panics = text
            .lines()
            .find_map(|l| l.strip_prefix("serve_compute_panic_total "))
            .and_then(|v| v.parse::<f64>().ok());
        assert!(panics >= Some(1.0), "{text}");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_is_clean() {
        let mut server = test_server();
        server.shutdown();
        server.shutdown();
        drop(server); // Drop after explicit shutdown must not hang.
    }
}
