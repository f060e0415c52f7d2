//! The serving loop: connection handling (poll event loop or
//! thread-per-connection), and the single batcher thread that drains the
//! queue.
//!
//! Default topology (`PI_SERVE_IO=poll`):
//!
//! ```text
//!  pi-serve-io thread ── poll(2) over {waker pipe, listener, conns}
//!     │  accept → non-blocking socket, per-connection buffers
//!     │  parse HTTP → route → Batcher::submit_with ──▶ bounded queue
//!     │  completions re-enter via the self-pipe waker, flush in order
//!  pi-serve-batch thread ◀── take_batch() drains the queue when free
//!     └─ execute_batch: coalesced sweeps, answers every responder
//! ```
//!
//! The pinned reference mode (`PI_SERVE_IO=threads`) keeps the original
//! shape — an accept thread spawning one handler thread per connection,
//! each blocking on an mpsc channel for its answers. Both modes route and
//! render identically, so their wire bytes are bit-identical (determinism
//! suite, section 11).
//!
//! Shutdown is cooperative: a flag checked by every loop, the queue is
//! closed so pending jobs are answered `503` and the batcher drains out,
//! the event loop gets a waker poke, and `shutdown()` joins everything —
//! no thread is detached or killed.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{ApiRequest, ApiResponse};
use crate::batch::{execute_batch, Batcher, PhaseTiming};
use crate::config::{IoMode, ServeConfig};
use crate::http::{read_request, write_response_with, Request};
use crate::json::{obj, Json};
use crate::store::{plan_cache_counts, plan_cache_hit_rate, NodeStore};
use crate::telemetry::{AccessEntry, Telemetry};

/// How often blocked loops wake to check the shutdown flag.
const POLL: Duration = Duration::from_micros(500);

/// How long a handler waits for request bytes before re-checking shutdown.
const READ_POLL: Duration = Duration::from_millis(50);

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

/// One response, rendered: what both connection modes write to the wire.
#[derive(Debug)]
pub(crate) struct Rendered {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// Whether the *request* asked to keep the connection open; the
    /// writer still ANDs this with the shutdown flag.
    pub(crate) keep_alive: bool,
    pub(crate) retry_after: Option<u64>,
    pub(crate) content_type: &'static str,
}

impl Rendered {
    pub(crate) fn of(resp: &ApiResponse, keep_alive: bool) -> Rendered {
        Rendered {
            status: resp.status(),
            body: resp.to_json().render(),
            keep_alive,
            retry_after: resp.retry_after(),
            content_type: "application/json",
        }
    }

    /// Serializes the full HTTP response (identically in both modes).
    pub(crate) fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let extra: Vec<(&str, String)> = self
            .retry_after
            .map(|s| ("Retry-After", s.to_string()))
            .into_iter()
            .collect();
        write_response_with(
            w,
            self.status,
            self.content_type,
            self.body.as_bytes(),
            keep_alive,
            &extra,
        )
    }
}

/// What routing decided about one parsed request.
pub(crate) enum RouteOutcome {
    /// Answer now (health/stats/admin endpoints and all routing errors).
    Immediate(Rendered),
    /// A valid API request: submit it to the batcher.
    Api(ApiRequest),
}

/// Routes one parsed request. Both connection modes share this, so any
/// endpoint behaves identically under `poll` and `threads`.
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
        })
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => page(
            200,
            obj(vec![("ok", Json::Bool(true))]).render(),
            request.keep_alive,
        ),
        ("GET", "/v1/stats") => page(200, stats.to_json(queue).render(), request.keep_alive),
        ("GET", "/metrics") => RouteOutcome::Immediate(Rendered {
            status: 200,
            body: crate::telemetry::render_prometheus(stats, queue),
            keep_alive: request.keep_alive,
            retry_after: None,
            content_type: "text/plain; version=0.0.4",
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
        ("GET" | "HEAD", path @ ("/v1/eval" | "/v1/yield" | "/v1/size" | "/v1/net-yield")) => {
            answer(ApiResponse::error(405, format!("`{path}` requires POST")))
        }
        (_, path) => answer(ApiResponse::error(
            404,
            format!("no such endpoint `{path}`"),
        )),
    }
}

/// A running serve instance. Dropping it shuts the server down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    io: IoMode,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Batcher>,
    stats: Arc<ServerStats>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    #[cfg(unix)]
    waker: Option<Arc<crate::io_loop::Waker>>,
}

/// The connection-handling mode actually available on this platform.
fn effective_io(requested: IoMode) -> IoMode {
    #[cfg(unix)]
    {
        requested
    }
    #[cfg(not(unix))]
    {
        if requested == IoMode::Poll {
            pi_obs::warn_once(
                "serve.io",
                "the poll event loop is Unix-only; using thread-per-connection",
            );
        }
        IoMode::Threads
    }
}

impl Server {
    /// Binds `127.0.0.1:{config.port}` (port 0 picks an ephemeral port —
    /// read it back from [`Server::addr`]) and starts the I/O and batcher
    /// threads per `config.io`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // A long-running service keeps rolling windows so `GET /metrics`
        // has live rates and quantiles even when journaling is off.
        pi_obs::window::activate();
        let tel = Arc::new(Telemetry::from_config(config));
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Batcher::with_admission(
            config.queue_depth,
            config.shed_threshold(),
            config.retry_after_s,
        );
        let stats = Arc::new(ServerStats::default());

        let batcher = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("pi-serve-batch".to_owned())
                .spawn(move || {
                    let store = NodeStore::global();
                    // Greedy adaptive batching: whatever queued while the
                    // previous batch executed is the next batch.
                    while let Some(jobs) = queue.take_batch(Duration::ZERO) {
                        stats.batches.fetch_add(1, Ordering::Relaxed);
                        stats
                            .batched_jobs
                            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                        execute_batch(store, jobs, &stats);
                    }
                })?
        };

        let io = effective_io(config.io);
        #[cfg(unix)]
        let mut waker = None;
        let accept = match io {
            #[cfg(unix)]
            IoMode::Poll => {
                let handle = crate::io_loop::spawn(
                    listener,
                    Arc::clone(&shutdown),
                    Arc::clone(&queue),
                    Arc::clone(&stats),
                    Arc::clone(&tel),
                )?;
                waker = Some(handle.waker);
                handle.thread
            }
            #[cfg(not(unix))]
            IoMode::Poll => unreachable!("effective_io never picks Poll off Unix"),
            IoMode::Threads => spawn_thread_accept(
                listener,
                Arc::clone(&shutdown),
                Arc::clone(&queue),
                Arc::clone(&stats),
                Arc::clone(&tel),
            )?,
        };

        Ok(Server {
            addr,
            io,
            shutdown,
            queue,
            stats,
            accept: Some(accept),
            batcher: Some(batcher),
            #[cfg(unix)]
            waker,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The connection-handling mode actually running.
    #[must_use]
    pub fn io_mode(&self) -> IoMode {
        self.io
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

    /// Stops accepting, closes the queue, and joins every thread. Safe to
    /// call more than once.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        #[cfg(unix)]
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The `PI_SERVE_IO=threads` reference mode: an accept loop spawning one
/// handler thread per connection.
fn spawn_thread_accept(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Batcher>,
    stats: Arc<ServerStats>,
    tel: Arc<Telemetry>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("pi-serve-accept".to_owned())
        .spawn(move || {
            let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        crate::telemetry::counter("serve.connections", 1);
                        let shutdown = Arc::clone(&shutdown);
                        let queue = Arc::clone(&queue);
                        let stats = Arc::clone(&stats);
                        let tel = Arc::clone(&tel);
                        let handle = std::thread::Builder::new()
                            .name("pi-serve-conn".to_owned())
                            .spawn(move || {
                                handle_connection(stream, &shutdown, &queue, &stats, &tel);
                            });
                        match handle {
                            Ok(h) => handlers.lock().expect("handler list").push(h),
                            Err(e) => {
                                pi_obs::warn_once(
                                    "serve.spawn",
                                    &format!("could not spawn a handler thread: {e}"),
                                );
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(_) => {
                        pi_obs::counter_add("serve.accept_fail", 1);
                        stats.accept_failures.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(POLL);
                    }
                }
                // Reap finished handlers so a long-lived server does not
                // accumulate dead join handles.
                let mut list = handlers.lock().expect("handler list");
                let mut live = Vec::with_capacity(list.len());
                for h in list.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                *list = live;
            }
            for h in handlers.into_inner().expect("handler list").drain(..) {
                let _ = h.join();
            }
        })
}

/// One connection: requests are read back-to-back (keep-alive and
/// pipelining are honored) until the peer hangs up, a parse error forces
/// a close, or the server shuts down.
fn handle_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    queue: &Batcher,
    stats: &ServerStats,
    tel: &Telemetry,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        // Between requests, wait for bytes without holding `read_request`
        // across a timeout (a timeout mid-parse would drop the bytes read
        // so far). Pipelined bytes already buffered skip the wait.
        if reader.buffer().is_empty() {
            let mut peek = [0u8; 1];
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match reader.get_ref().peek(&mut peek) {
                    Ok(0) => return, // peer closed
                    Ok(_) => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => return,
                }
            }
        }

        let t_start = Instant::now();
        let request = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let rendered =
                        Rendered::of(&ApiResponse::error(status, format!("{e:?}")), false);
                    let _ = rendered.write_to(&mut writer, false);
                }
                return;
            }
        };
        let parse_us = t_start.elapsed().as_secs_f64() * 1e6;
        crate::telemetry::hist("serve.phase.parse_us", parse_us);
        let id = crate::telemetry::next_request_id();
        let endpoint = crate::telemetry::endpoint_of(&request);

        let _span = pi_obs::span("serve.request");
        crate::telemetry::counter("serve.requests", 1);
        stats.requests.fetch_add(1, Ordering::Relaxed);

        let (rendered, timing, render_us) = respond(&request, shutdown, queue, stats, id);
        let keep = rendered.keep_alive && !shutdown.load(Ordering::SeqCst);
        let t_ready = Instant::now();
        let write_ok = rendered.write_to(&mut writer, keep).is_ok();
        tel.finish_request(&AccessEntry {
            id,
            endpoint,
            status: rendered.status,
            total_us: t_start.elapsed().as_secs_f64() * 1e6,
            parse_us,
            queue_us: timing.queue_us,
            compute_us: timing.compute_us,
            render_us,
            flush_us: t_ready.elapsed().as_secs_f64() * 1e6,
        });
        if !write_ok || !keep {
            return;
        }
    }
}

/// Thread-mode answer for one request: route, submit, block on the
/// response channel. Returns the rendered response, the batcher-side
/// [`PhaseTiming`], and the render-phase duration in microseconds.
fn respond(
    request: &Request,
    shutdown: &AtomicBool,
    queue: &Batcher,
    stats: &ServerStats,
    id: u64,
) -> (Rendered, PhaseTiming, f64) {
    let immediate = |rendered| (rendered, PhaseTiming::default(), 0.0);
    match route(request, shutdown, queue, stats) {
        RouteOutcome::Immediate(rendered) => immediate(rendered),
        RouteOutcome::Api(api) => {
            let (tx, rx) = mpsc::channel();
            let submitted = queue.submit_with(
                api,
                id,
                Box::new(move |resp, timing| {
                    let _ = tx.send((resp, timing));
                }),
            );
            if let Err(resp) = submitted {
                return immediate(Rendered::of(&resp, request.keep_alive));
            }
            let received = {
                let _span = pi_obs::span("serve.queue_wait");
                rx.recv()
            };
            match received {
                Ok((resp, timing)) => {
                    let t_render = Instant::now();
                    let rendered = Rendered::of(&resp, request.keep_alive);
                    let render_us = t_render.elapsed().as_secs_f64() * 1e6;
                    crate::telemetry::hist("serve.phase.render_us", render_us);
                    (rendered, timing, render_us)
                }
                // The queue was torn down underneath us.
                Err(_) => immediate(Rendered::of(
                    &ApiResponse::error(503, "server is shutting down"),
                    request.keep_alive,
                )),
            }
        }
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

    fn start_with(io: IoMode) -> Server {
        let config = ServeConfig {
            port: 0,
            queue_depth: 64,
            io,
            ..ServeConfig::default()
        };
        Server::start(&config).expect("bind on an ephemeral port")
    }

    fn test_server() -> Server {
        start_with(IoMode::Poll)
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
    fn thread_mode_serves_the_same_battery() {
        battery(&mut start_with(IoMode::Threads));
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
    fn shutdown_is_idempotent_and_drop_is_clean() {
        let mut server = test_server();
        server.shutdown();
        server.shutdown();
        drop(server); // Drop after explicit shutdown must not hang.
    }
}
