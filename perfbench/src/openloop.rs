//! The benchmark's own open-loop load generator.
//!
//! One thread drives up to `conns` keep-alive connections with a single
//! `ppoll(2)` event loop. Every request carries a scheduled send time;
//! the loop writes it when due (pipelined behind whatever the connection
//! already has in flight), and its latency runs from the *scheduled*
//! time to the arrival of its response. A server stall therefore shows
//! in the latency of every request scheduled behind it, and the
//! generator's own lateness (scheduled → written) is reported apart so a
//! saturated generator cannot pass for a slow server.
//!
//! A connection holds at most `max_pending` unanswered requests; past the
//! server's own 128 per connection the surplus waits in the socket
//! buffers, so a short host stall delays requests instead of refusing
//! them. A request that finds
//! every connection full is not queued in the client: it is recorded as
//! refused ([`CLIENT_REFUSED`]) at its scheduled time, which keeps the
//! loop open and counts the refusal as a failure.
//!
//! Between sends the loop sleeps in `ppoll` until the next scheduled time
//! or a readable socket, with the thread's timer slack cut to 1 ns. It
//! never spins: on a host that caps the machine's CPU time, a spinning
//! client spends the server's budget and the host then stalls both.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Status recorded for a transport failure (connection error or EOF).
pub const TRANSPORT_FAILED: u16 = 0;
/// Status recorded when every connection already had `max_pending`
/// requests in flight at the scheduled time.
pub const CLIENT_REFUSED: u16 = 1;
/// Status recorded when no response arrived before the drain deadline.
pub const TIMED_OUT: u16 = 2;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Scheduled send time, nanoseconds after the run starts.
    pub due_ns: u64,
    /// The complete HTTP request bytes.
    pub bytes: Vec<u8>,
}

/// What happened to one shot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// HTTP status, or one of the client-side codes above.
    pub status: u16,
    /// Scheduled time → response received, microseconds (0 when none).
    pub latency_us: f64,
    /// Scheduled time → written (or refused), microseconds.
    pub late_us: f64,
    /// Response body, kept only for shots the caller asked for.
    pub body: Option<Vec<u8>>,
}

/// Generator settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Keep-alive connections.
    pub conns: usize,
    /// Unanswered requests allowed per connection.
    pub max_pending: usize,
    /// How long to wait for stragglers after the last scheduled send.
    pub drain: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            conns: 1,
            max_pending: 128,
            drain: Duration::from_secs(10),
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const PR_SET_TIMERSLACK: i32 = 29;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    pending: VecDeque<usize>,
    dead: bool,
}

/// One parsed response at the front of a read buffer: status, body
/// range, and bytes consumed. `None` until the whole response is in.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let body = head_end + 4..head_end + 4 + len;
    (buf.len() >= body.end).then(|| (status, body.clone(), body.end))
}

/// Drives `shots` against `addr` and returns one outcome per shot, in
/// shot order.
/// `keep_body(i)` selects the shots whose response bodies are kept.
///
/// # Errors
///
/// Connection set-up failures.
pub fn run(
    addr: SocketAddr,
    shots: &[Shot],
    config: &Config,
    keep_body: &dyn Fn(usize) -> bool,
) -> std::io::Result<Vec<Outcome>> {
    // Sleeps end within a microsecond of the deadline instead of the
    // default 50 µs timer slack.
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
    let mut conns = Vec::with_capacity(config.conns.max(1));
    for _ in 0..config.conns.max(1) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            rbuf: Vec::new(),
            pending: VecDeque::new(),
            dead: false,
        });
    }
    let mut outcomes = vec![Outcome::default(); shots.len()];
    let mut answered = 0usize;
    let mut next = 0usize;
    let last_due = shots.last().map_or(0, |s| s.due_ns);
    let drain_ns = last_due + config.drain.as_nanos() as u64;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pollfds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let start = Instant::now();
    let elapsed = |start: Instant| start.elapsed().as_nanos() as u64;

    while answered < shots.len() {
        let now = elapsed(start);
        // Send everything that is due, each on the least-loaded live
        // connection.
        while next < shots.len() && shots[next].due_ns <= now {
            let late_us = (now - shots[next].due_ns) as f64 / 1e3;
            outcomes[next].late_us = late_us;
            let target = conns
                .iter_mut()
                .filter(|c| !c.dead && c.pending.len() < config.max_pending)
                .min_by_key(|c| c.pending.len());
            match target {
                Some(c) => {
                    c.wbuf.extend_from_slice(&shots[next].bytes);
                    c.pending.push_back(next);
                }
                None => {
                    outcomes[next].status = CLIENT_REFUSED;
                    answered += 1;
                }
            }
            next += 1;
        }
        for c in conns.iter_mut().filter(|c| !c.dead) {
            while c.wpos < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.wpos..]) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => c.wpos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            if c.wpos == c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
            }
        }
        if answered == shots.len() {
            break;
        }
        let now = elapsed(start);
        if next == shots.len() && now >= drain_ns {
            for c in &mut conns {
                for i in c.pending.drain(..) {
                    outcomes[i].status = TIMED_OUT;
                }
            }
            break;
        }
        pollfds.clear();
        for c in &conns {
            let mut events = if c.dead { 0 } else { POLLIN };
            if !c.dead && c.wpos < c.wbuf.len() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd {
                fd: if c.dead { -1 } else { c.stream.as_raw_fd() },
                events,
                revents: 0,
            });
        }
        let wake = if next < shots.len() {
            shots[next].due_ns
        } else {
            drain_ns
        };
        let wait_ns = wake.saturating_sub(now).min(50_000_000);
        let timeout = Timespec {
            tv_sec: (wait_ns / 1_000_000_000) as i64,
            tv_nsec: (wait_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `pollfds` is a live, exclusively borrowed array of
        // `pollfds.len()` `struct pollfd`s, `timeout` outlives the call,
        // and a null signal mask leaves the mask unchanged.
        let ready = unsafe {
            ppoll(
                pollfds.as_mut_ptr(),
                pollfds.len() as std::ffi::c_ulong,
                &timeout,
                std::ptr::null(),
            )
        };
        if ready <= 0 {
            continue;
        }
        for (c, pfd) in conns.iter_mut().zip(&pollfds) {
            if c.dead || pfd.revents & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            let received = elapsed(start);
            let mut pos = 0;
            while let Some((status, body, used)) = parse_response(&c.rbuf[pos..]) {
                let Some(i) = c.pending.pop_front() else {
                    // A response nobody asked for: the stream is out of
                    // step, so nothing after it can be attributed.
                    c.dead = true;
                    break;
                };
                let o = &mut outcomes[i];
                o.status = status;
                o.latency_us = received.saturating_sub(shots[i].due_ns) as f64 / 1e3;
                if keep_body(i) {
                    o.body = Some(c.rbuf[pos + body.start..pos + body.end].to_vec());
                }
                answered += 1;
                pos += used;
            }
            c.rbuf.drain(..pos);
        }
        for c in conns.iter_mut().filter(|c| c.dead) {
            for i in c.pending.drain(..) {
                outcomes[i].status = TRANSPORT_FAILED;
                answered += 1;
            }
        }
    }
    Ok(outcomes)
}

/// Encodes one POST request.
#[must_use]
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A stub server on one connection that answers `200 {}` to every
    /// request, stalling `stall` before answering request `stall_at`.
    fn stub(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut seen = 0usize;
            while let Ok(Some(_req)) = pi_serve::http::read_request(&mut reader) {
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                seen += 1;
                pi_serve::http::write_response(&mut writer, 200, "application/json", b"{}", true)
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_server_stall_shows_in_the_latency_of_later_scheduled_requests() {
        let stall = Duration::from_millis(50);
        let (addr, server) = stub(5, stall);
        // One request every 5 ms for 200 ms; request 5 (due at 25 ms)
        // meets the stall, so every request due before ~75 ms waits.
        let shots: Vec<Shot> = (0..40)
            .map(|i| Shot {
                due_ns: i * 5_000_000,
                bytes: post("/v1/eval", "{}"),
            })
            .collect();
        let o = run(addr, &shots, &Config::default(), &|i| i == 0).unwrap();
        server.join().unwrap();
        assert!(o.iter().all(|x| x.status == 200), "{o:?}");
        assert_eq!(o[0].body.as_deref(), Some(&b"{}"[..]));
        assert!(o[1].body.is_none());
        assert!(
            o[5].latency_us >= 50_000.0,
            "stalled request: {}",
            o[5].latency_us
        );
        // Request 8 was due 15 ms after request 5: it carries the other
        // ~35 ms of the stall even though the server never stalled on it.
        assert!(o[8].latency_us >= 30_000.0, "{}", o[8].latency_us);
        assert!(o[8].latency_us <= o[5].latency_us);
        // Well after the stall drains, latency is back to normal.
        assert!(o[30].latency_us < 20_000.0, "{}", o[30].latency_us);
        // The generator itself kept its schedule through the stall.
        let late: Vec<f64> = o.iter().map(|x| x.late_us).collect();
        let late_max = late.iter().copied().fold(0.0, f64::max);
        assert!(late_max < 20_000.0, "generator fell behind: {late_max} µs");
    }

    #[test]
    fn full_connections_refuse_instead_of_queueing_in_the_client() {
        let (addr, server) = stub(0, Duration::from_millis(100));
        // Everything is due at once; two may be in flight.
        let shots: Vec<Shot> = (0..5)
            .map(|_| Shot {
                due_ns: 0,
                bytes: post("/v1/eval", "{}"),
            })
            .collect();
        let config = Config {
            conns: 1,
            max_pending: 2,
            drain: Duration::from_secs(5),
        };
        let outcomes = run(addr, &shots, &config, &|_| false).unwrap();
        server.join().unwrap();
        let statuses: Vec<u16> = outcomes.iter().map(|o| o.status).collect();
        assert_eq!(
            statuses,
            vec![200, 200, CLIENT_REFUSED, CLIENT_REFUSED, CLIENT_REFUSED]
        );
    }

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}HTTP/1.1";
        assert_eq!(parse_response(full), Some((200, 38..40, 40)));
        assert_eq!(parse_response(&full[..39]), None);
        assert_eq!(parse_response(b"HTTP/1.1 503 Service"), None);
    }
}
