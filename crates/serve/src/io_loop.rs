//! The serving thread: one `pi-serve-io` thread multiplexes every client
//! socket through `poll(2)` and executes the batches itself.
//!
//! ```text
//!  loop ┬─ take_batch → execute_batch → deliver answers, flush in order
//!       │     (repeated until a delivery leaves nothing queued)
//!       ├─ shutdown check
//!       └─ poll(2) over {listener, conns} → accept, read, parse → queue
//! ```
//!
//! Each iteration first executes everything parsed since the last batch,
//! *before* `poll` is built: a job left queued while the loop sleeps would
//! wait for the next socket event or for the poll timeout. Requests parsed
//! in one socket pass therefore form the next iteration's batch, and a
//! lone request runs as soon as it is parsed. Non-blocking sockets,
//! per-connection read/write buffers and parser state keep keep-alive
//! and pipelining: pipelined responses flush strictly in request order
//! even though immediate routes answer before batched ones. A peer that
//! pipelines requests without reading responses hits per-connection
//! backlog caps ([`WRITE_BACKLOG_CAP`], [`PENDING_CAP`]) that pause
//! reading until it drains.
//!
//! A panic while a batch executes is caught here: the batch's unanswered
//! jobs answer `500` as they are dropped (see [`crate::batch::Job`]), the
//! `serve.compute_panic` counter counts it, and the loop keeps serving.
//! Answers reach their connections over an mpsc channel, which also
//! carries the `503`s that [`Batcher::close`] gives queued jobs from
//! another thread. Shutdown needs no wake-up: the loop re-checks the flag
//! at least every [`POLL_TIMEOUT_MS`].
//!
//! The `poll` syscall is declared `extern "C"` against the libc `std`
//! already links — no new crates, matching the workspace's
//! zero-dependency rule. Everything else (sockets, accept) stays on
//! `std::net` in non-blocking mode.
//!
//! Observability: each wakeup that carries events runs under a
//! `serve.io_wakeup` span, the `serve.io_ready_events` histogram records
//! how many descriptors were ready per wakeup, and failed accepts count
//! into `serve.accept_fail`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::ApiResponse;
use crate::batch::{execute_batch, Batcher, PhaseTiming};
use crate::http::{read_request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use crate::server::{route, Rendered, RouteOutcome, ServerStats};
use crate::store::NodeStore;
use crate::telemetry::{AccessEntry, Telemetry};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "macos")]
type NfdsT = u32;
#[cfg(not(target_os = "macos"))]
type NfdsT = u64;

// std links libc on every Unix target, so this entry point is available
// without any crate dependency (same trick as the signal handler in
// `server`).
extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// Poll timeout: the loop re-checks the shutdown flag at least this often.
const POLL_TIMEOUT_MS: i32 = 50;

/// After shutdown, how long in-flight responses get to flush before the
/// loop exits regardless.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// A connection's buffered input may not exceed one maximal request plus
/// slack; beyond it the peer gets `413` and the connection closes.
const READ_CAP: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES + 1024;

/// Write-side backpressure: once a connection holds this many un-flushed
/// response bytes, the loop stops reading and parsing its input until the
/// peer drains some. Without this, a client pipelining cheap immediate
/// requests (`GET /healthz`) while never reading responses grows
/// `write_buf` without bound — the request queue caps API jobs but not
/// immediate responses.
const WRITE_BACKLOG_CAP: usize = 256 * 1024;

/// Companion cap on un-answered pipeline slots, bounding the per-request
/// bookkeeping the same way `WRITE_BACKLOG_CAP` bounds rendered bytes.
const PENDING_CAP: usize = 128;

/// One answered job on its way back to the loop.
struct Completion {
    token: usize,
    generation: u64,
    seq: u64,
    response: ApiResponse,
    timing: PhaseTiming,
}

/// One response slot in a connection's pipeline: filled out of order
/// (immediate routes at parse, API requests when their batch answers),
/// flushed strictly in `seq` order. Carries the request's phase trace: id
/// and parse time stamped at parse, batch timing copied from the
/// completion, render time stamped when the response body is
/// serialized, and `t_ready` marking the start of the flush phase.
struct Slot {
    seq: u64,
    keep_alive: bool,
    ready: Option<Rendered>,
    id: u64,
    endpoint: &'static str,
    t_parsed: Instant,
    parse_us: f64,
    timing: PhaseTiming,
    render_us: f64,
    t_ready: Option<Instant>,
}

/// Everything the parse/deliver/flush helpers share, bundled so the loop
/// threads one context instead of seven parameters.
struct Ctx<'a> {
    shutdown: &'a AtomicBool,
    queue: &'a Batcher,
    stats: &'a ServerStats,
    completion_tx: &'a mpsc::Sender<Completion>,
    tel: &'a Telemetry,
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Slot>,
    next_seq: u64,
    read_closed: bool,
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            read_closed: false,
            close_after_flush: false,
        }
    }

    /// Nothing left to write and nothing left to answer.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.write_pos == self.write_buf.len()
    }

    /// The peer is not consuming responses it already asked for: stop
    /// reading and parsing until flushes bring the backlog back under
    /// the caps.
    fn backpressured(&self) -> bool {
        self.write_buf.len() - self.write_pos > WRITE_BACKLOG_CAP
            || self.pending.len() > PENDING_CAP
    }
}

/// Spawns the `pi-serve-io` thread owning `listener`, every accepted
/// connection and the execution of every batch.
pub(crate) fn spawn(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Batcher>,
    stats: Arc<ServerStats>,
    tel: Telemetry,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("pi-serve-io".to_owned())
        .spawn(move || run(&listener, &shutdown, &queue, &stats, &tel))
}

fn run(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    queue: &Batcher,
    stats: &ServerStats,
    tel: &Telemetry,
) {
    let (completion_tx, completions) = mpsc::channel::<Completion>();
    let ctx = Ctx {
        shutdown,
        queue,
        stats,
        completion_tx: &completion_tx,
        tel,
    };
    // Token-indexed connection slab; generations guard against a token
    // being reused while an answer for its previous tenant is in flight.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut next_generation: u64 = 0;
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut targets: Vec<usize> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        run_batches(&completions, &mut conns, &ctx);

        let draining = shutdown.load(Ordering::SeqCst);
        if draining {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            let idle = conns.iter().flatten().all(Conn::drained);
            if idle || Instant::now() >= deadline {
                break;
            }
        }

        pollfds.clear();
        targets.clear();
        let listener_at = if draining {
            None
        } else {
            pollfds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            Some(0)
        };
        let fixed = pollfds.len();
        for (token, conn) in conns.iter().enumerate() {
            let Some(c) = conn else { continue };
            let mut events = 0i16;
            if !c.read_closed && c.read_buf.len() <= READ_CAP && !c.backpressured() {
                events |= POLLIN;
            }
            if c.write_pos < c.write_buf.len() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            targets.push(token);
        }

        let n = unsafe {
            poll(
                pollfds.as_mut_ptr(),
                pollfds.len() as NfdsT,
                POLL_TIMEOUT_MS,
            )
        };
        if n <= 0 {
            continue; // timeout or EINTR: back to the batch and shutdown checks
        }
        let _span = pi_obs::span("serve.io_wakeup");
        pi_obs::hist_record("serve.io_ready_events", f64::from(n));

        if let Some(at) = listener_at {
            if pollfds[at].revents != 0 {
                accept_ready(listener, &mut conns, &mut next_generation, stats);
            }
        }

        for (k, &token) in targets.iter().enumerate() {
            let revents = pollfds[fixed + k].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                read_socket(conn);
            }
            if service(conn, token, &ctx) {
                conns[token] = None;
            }
        }
    }
}

/// Executes everything queued, batch by batch, delivering each batch's
/// answers (and any given off-thread, such as close-time `503`s) before
/// taking the next: a delivery can re-run [`service`], which may parse
/// and queue more. Returns once a delivery leaves the queue empty.
fn run_batches(
    completions: &mpsc::Receiver<Completion>,
    conns: &mut [Option<Conn>],
    ctx: &Ctx<'_>,
) {
    loop {
        deliver_completions(completions, conns, ctx);
        let Some(jobs) = ctx.queue.take_batch(Duration::ZERO) else {
            return;
        };
        ctx.stats.batches.fetch_add(1, Ordering::Relaxed);
        ctx.stats
            .batched_jobs
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        // A panic drops the batch's unanswered jobs, which answer 500 on
        // their way out; the loop itself keeps serving.
        let batch = AssertUnwindSafe(|| execute_batch(NodeStore::global(), jobs, ctx.stats));
        if catch_unwind(batch).is_err() {
            crate::telemetry::counter("serve.compute_panic", 1);
        }
    }
}

/// Hands every queued answer to its connection and services the result.
fn deliver_completions(
    completions: &mpsc::Receiver<Completion>,
    conns: &mut [Option<Conn>],
    ctx: &Ctx<'_>,
) {
    for done in completions.try_iter() {
        let Some(conn) = conns.get_mut(done.token).and_then(Option::as_mut) else {
            continue;
        };
        if conn.generation != done.generation {
            continue; // the token was re-used; the old peer is gone
        }
        if let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == done.seq) {
            let t_render = Instant::now();
            slot.ready = Some(Rendered::of(&done.response, slot.keep_alive));
            slot.render_us = t_render.elapsed().as_secs_f64() * 1e6;
            crate::telemetry::hist("serve.phase.render_us", slot.render_us);
            slot.timing = done.timing;
            slot.t_ready = Some(Instant::now());
        }
        if service(conn, done.token, ctx) {
            conns[done.token] = None;
        }
    }
}

/// Alternates parsing and flushing until neither makes progress. The
/// re-parse after a flush matters under backpressure: input buffered
/// while the peer lagged gets no further `POLLIN` to announce it, so the
/// flush that clears the backlog must also resume consuming it. Returns
/// `true` when the connection is finished and should be dropped.
fn service(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) -> bool {
    loop {
        let before = (
            conn.read_buf.len(),
            conn.next_seq,
            conn.write_buf.len() - conn.write_pos,
            conn.pending.len(),
        );
        if !conn.close_after_flush && !conn.backpressured() && !conn.read_buf.is_empty() {
            parse_buffered(conn, token, ctx);
        }
        if flush(conn, ctx) {
            return true;
        }
        if conn.read_closed && conn.pending.is_empty() && conn.write_buf.is_empty() {
            return true;
        }
        let after = (
            conn.read_buf.len(),
            conn.next_seq,
            conn.write_buf.len() - conn.write_pos,
            conn.pending.len(),
        );
        if after == before {
            return false;
        }
    }
}

/// Accepts until the listener would block.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    next_generation: &mut u64,
    stats: &ServerStats,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                crate::telemetry::counter("serve.connections", 1);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = conns.iter().position(Option::is_none).unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                *next_generation += 1;
                conns[token] = Some(Conn::new(stream, *next_generation));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                pi_obs::counter_add("serve.accept_fail", 1);
                stats.accept_failures.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
}

/// Reads everything available on the socket into the connection buffer.
fn read_socket(conn: &mut Conn) {
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                if conn.read_buf.len() > READ_CAP {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
}

/// Parses and routes every complete request sitting in the buffer,
/// stopping early once the connection's response backlog hits the
/// backpressure caps.
fn parse_buffered(conn: &mut Conn, token: usize, ctx: &Ctx<'_>) {
    while !conn.read_buf.is_empty() && !conn.close_after_flush && !conn.backpressured() {
        // `&[u8]` is `BufRead`; on a slice, an `Io` parse error means
        // "incomplete, wait for more bytes", and the advance of the
        // slice head is exactly the bytes consumed.
        let t_parse = Instant::now();
        let mut slice: &[u8] = &conn.read_buf;
        match read_request(&mut slice) {
            Ok(Some(request)) => {
                let consumed = conn.read_buf.len() - slice.len();
                conn.read_buf.drain(..consumed);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let parse_us = t_parse.elapsed().as_secs_f64() * 1e6;
                crate::telemetry::hist("serve.phase.parse_us", parse_us);
                let id = crate::telemetry::next_request_id();
                let endpoint = crate::telemetry::endpoint_of(&request);
                crate::telemetry::counter("serve.requests", 1);
                ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
                let slot = |keep_alive, ready: Option<Rendered>| Slot {
                    seq,
                    keep_alive,
                    t_ready: ready.as_ref().map(|_| Instant::now()),
                    ready,
                    id,
                    endpoint,
                    t_parsed: t_parse,
                    parse_us,
                    timing: PhaseTiming::default(),
                    render_us: 0.0,
                };
                match route(&request, ctx.shutdown, ctx.queue, ctx.stats) {
                    RouteOutcome::Immediate(rendered) => {
                        let keep_alive = rendered.keep_alive;
                        conn.pending.push_back(slot(keep_alive, Some(rendered)));
                    }
                    RouteOutcome::Api(api) => {
                        conn.pending.push_back(slot(request.keep_alive, None));
                        let tx = ctx.completion_tx.clone();
                        let generation = conn.generation;
                        let submitted = ctx.queue.submit_with(
                            api,
                            id,
                            Box::new(move |response, timing| {
                                let _ = tx.send(Completion {
                                    token,
                                    generation,
                                    seq,
                                    response,
                                    timing,
                                });
                            }),
                        );
                        if let Err(response) = submitted {
                            let slot = conn.pending.back_mut().expect("slot just pushed");
                            slot.ready = Some(Rendered::of(&response, slot.keep_alive));
                            slot.t_ready = Some(Instant::now());
                        }
                    }
                }
            }
            Ok(None) => {
                conn.read_buf.clear();
                break;
            }
            Err(e) if e.status() == 0 => {
                // Incomplete request: wait for more bytes — unless the
                // buffer already exceeds any legal request.
                if conn.read_buf.len() > READ_CAP {
                    push_parse_error(conn, 413, "buffered request exceeds the size limits");
                }
                break;
            }
            Err(e) => {
                push_parse_error(conn, e.status(), &format!("{e:?}"));
                break;
            }
        }
    }
}

/// Answers a malformed/oversized request with an error body and a forced
/// close, then stops reading.
fn push_parse_error(conn: &mut Conn, status: u16, message: &str) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let rendered = Rendered::of(&ApiResponse::error(status, message), false);
    conn.pending.push_back(Slot {
        seq,
        keep_alive: false,
        ready: Some(rendered),
        id: crate::telemetry::next_request_id(),
        endpoint: "other",
        t_parsed: Instant::now(),
        parse_us: 0.0,
        timing: PhaseTiming::default(),
        render_us: 0.0,
        t_ready: Some(Instant::now()),
    });
    conn.read_closed = true;
}

/// Moves every leading ready slot into the write buffer, then writes as
/// much as the socket accepts. Returns `true` when the connection is
/// finished and should be dropped.
///
/// A request is *finished* for tracing purposes when its bytes enter the
/// write buffer — the flush phase ends here, not at the peer's ACK, so
/// `serve.request_us` measures server-side latency only.
fn flush(conn: &mut Conn, ctx: &Ctx<'_>) -> bool {
    while conn.pending.front().is_some_and(|s| s.ready.is_some()) {
        let slot = conn.pending.pop_front().expect("front checked");
        let rendered = slot.ready.expect("readiness checked");
        let keep = rendered.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
        let before = conn.write_buf.len();
        if rendered.write_to(&mut conn.write_buf, keep).is_err() {
            conn.write_buf.truncate(before);
            return true; // Vec writes are infallible; defensive only
        }
        ctx.tel.finish_request(&AccessEntry {
            id: slot.id,
            endpoint: slot.endpoint,
            status: rendered.status,
            total_us: slot.t_parsed.elapsed().as_secs_f64() * 1e6,
            parse_us: slot.parse_us,
            queue_us: slot.timing.queue_us,
            compute_us: slot.timing.compute_us,
            render_us: slot.render_us,
            flush_us: slot
                .t_ready
                .map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6),
        });
        if !keep {
            conn.close_after_flush = true;
            conn.read_closed = true;
            break;
        }
    }

    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return true,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.close_after_flush {
            return true;
        }
    }
    false
}
