//! The `pi serve` child process the serve workloads drive.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `getrusage(2)` targets.
const RUSAGE_SELF: i32 = 0;

/// `sysconf(3)` name of the clock-tick rate.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    /// `struct rusage` is two `timeval`s followed by fourteen longs.
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// User + system CPU seconds of this process so far, all threads.
#[must_use]
pub fn self_cpu_s() -> f64 {
    let mut usage = [0i64; 18];
    // SAFETY: the buffer is exactly `struct rusage` on 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 / 1e6
}

/// A running `pi serve --port 0`. Dropping it kills the process.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `pi serve` on an ephemeral port with every `PI_*` variable
    /// of this process removed (default batching, in-memory caches, no
    /// journal or access log) and waits for its listening line.
    ///
    /// # Errors
    ///
    /// Spawn failures and a child that exits before listening.
    pub fn spawn(pi: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(pi);
        cmd.args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PI_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pi.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("pi serve exited before listening".to_owned());
            }
            if let Some(rest) = line.strip_prefix("pi serve listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|e| format!("bad listening address `{addr}`: {e}"))?;
            }
        };
        Ok(Server {
            child: Some(child),
            stdout: Some(stdout),
            addr,
        })
    }

    /// User + system CPU seconds the server has used so far, all threads
    /// (from `/proc/<pid>/stat`, in clock ticks).
    ///
    /// # Errors
    ///
    /// An unreadable or malformed stat file.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesized command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed /proc/{pid}/stat"))
        };
        // SAFETY: sysconf has no preconditions.
        let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
        Ok((ticks(11)? + ticks(12)?) / hz)
    }

    /// One request on a fresh connection; returns the status and body.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures, as text.
    pub fn call(&self, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        pi_serve::http::write_request(&mut stream, method, path, body)
            .map_err(|e| e.to_string())?;
        let resp = pi_serve::http::read_response(&mut BufReader::new(stream))
            .map_err(|e| format!("{e:?}"))?
            .ok_or("connection closed before a response")?;
        Ok((resp.status, resp.body_str()?.to_owned()))
    }

    /// `GET path`, requiring a 200.
    ///
    /// # Errors
    ///
    /// Transport failures and non-200 answers.
    pub fn get(&self, path: &str) -> Result<String, String> {
        match self.call("GET", path, b"")? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("GET {path}: {status} {body}")),
        }
    }

    /// Asks the server to shut down and waits (up to 10 s) for the
    /// process to exit, killing it after that.
    pub fn shutdown(mut self) {
        let _ = self.call("POST", "/admin/shutdown", b"");
        self.reap(Duration::from_secs(10));
    }

    fn reap(&mut self, grace: Duration) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_end(&mut Vec::new());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}
