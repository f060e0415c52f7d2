//! Server configuration from `PI_SERVE_*` environment variables.
//!
//! | variable          | meaning                                | default |
//! |-------------------|----------------------------------------|---------|
//! | `PI_SERVE_PORT`   | TCP port to bind (`0` = ephemeral)     | 7878    |
//! | `PI_SERVE_QUEUE`  | bounded request-queue depth            | 1024    |
//! | `PI_SERVE_IO`     | connection handling: `poll` / `threads`| poll    |
//! | `PI_SERVE_SHED_PCT` | queue fill (percent of depth) above which expensive requests shed | 75 |
//! | `PI_SERVE_RETRY_AFTER_S` | `Retry-After` seconds on a shed/overload 503 | 1 |
//! | `PI_SERVE_ACCESS_LOG` | path of the JSONL access log (unset = off) | unset |
//! | `PI_SERVE_SLOW_US` | request duration, µs, beyond which the access log records the full phase breakdown | 100000 |
//!
//! Near-miss values follow the `PI_THREADS` / `PI_CHAR_CACHE` discipline
//! (see `pi_rt::thread_count` and `pi_core::char_cache`): a value that is
//! not a valid number falls back to the default **with a one-time warning
//! naming the value actually used**, instead of silently becoming the
//! default or crashing the server at startup. A parseable but out-of-range
//! value is clamped, again with a warning carrying the effective value.
//! The string-valued `PI_SERVE_IO` follows the same policy: an unknown
//! spelling warns once and uses the default `poll` mode.
//!
//! `PI_SERVE_BATCH_US`, the old fixed coalescing window, is retired:
//! batching is adaptive (the batcher dispatches whatever is queued the
//! moment it is free), so a set value is ignored with a one-time warning
//! saying so rather than silently.

/// How connections are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// One `poll(2)`-driven I/O thread owns every connection (the
    /// default): non-blocking sockets, per-connection buffers, keep-alive
    /// and pipelining preserved.
    #[default]
    Poll,
    /// One handler thread per connection — the pinned reference mode the
    /// event loop is checked against (`PI_SERVE_IO=threads`).
    Threads,
}

impl IoMode {
    /// Stable spelling (`poll` / `threads`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IoMode::Poll => "poll",
            IoMode::Threads => "threads",
        }
    }
}

/// Resolved server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Bounded queue depth; requests beyond it are answered `503`.
    pub queue_depth: usize,
    /// Connection-handling mode.
    pub io: IoMode,
    /// Queue fill percentage (of `queue_depth`) at which **expensive**
    /// requests (yield / size / net-yield) are shed with `503` +
    /// `Retry-After` while cheap evals still queue. `100` disables
    /// shedding (it coincides with the queue-full bound).
    pub shed_pct: u64,
    /// `Retry-After` value, seconds, attached to shed/overload responses.
    pub retry_after_s: u64,
    /// Path of the structured JSONL access log; `None` disables it.
    pub access_log: Option<String>,
    /// Requests taking at least this many microseconds end-to-end get
    /// their full per-phase breakdown in the access log.
    pub slow_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 7878,
            queue_depth: 1024,
            io: IoMode::Poll,
            shed_pct: 75,
            retry_after_s: 1,
            access_log: None,
            slow_us: 100_000,
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the environment, applying the
    /// near-miss fallback policy described in the module docs.
    #[must_use]
    pub fn from_env() -> Self {
        let default = ServeConfig::default();
        env_retired(
            "PI_SERVE_BATCH_US",
            "batching is adaptive, with no coalescing window",
        );
        ServeConfig {
            port: env_u64(
                "PI_SERVE_PORT",
                u64::from(default.port),
                0,
                u64::from(u16::MAX),
            ) as u16,
            queue_depth: env_u64("PI_SERVE_QUEUE", default.queue_depth as u64, 1, 1 << 20) as usize,
            io: env_io("PI_SERVE_IO", default.io),
            shed_pct: env_u64("PI_SERVE_SHED_PCT", default.shed_pct, 1, 100),
            retry_after_s: env_u64("PI_SERVE_RETRY_AFTER_S", default.retry_after_s, 1, 3600),
            access_log: env_path("PI_SERVE_ACCESS_LOG"),
            slow_us: env_u64("PI_SERVE_SLOW_US", default.slow_us, 1, 3_600_000_000),
        }
    }

    /// Queued-job count at which expensive requests start shedding.
    #[must_use]
    pub fn shed_threshold(&self) -> usize {
        ((self.queue_depth as u64 * self.shed_pct) / 100).max(1) as usize
    }
}

/// Parses one `PI_SERVE_*` integer. Unset → default; unparseable → default
/// with a warn-once; parseable but outside `[min, max]` → clamped with a
/// warn-once. Both warnings state the value actually used.
fn env_u64(name: &'static str, default: u64, min: u64, max: u64) -> u64 {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.trim().parse::<u64>() {
        Ok(n) if (min..=max).contains(&n) => n,
        Ok(n) => {
            let used = n.clamp(min, max);
            pi_obs::warn_once(
                name,
                &format!("{name}=`{raw}` is outside [{min}, {max}]; using {used}"),
            );
            used
        }
        Err(_) => {
            pi_obs::warn_once(
                name,
                &format!("{name}=`{raw}` is not a valid value; using the default {default}"),
            );
            default
        }
    }
}

/// Checks one retired `PI_SERVE_*` variable: set (to anything) → a
/// warn-once that it is ignored and why. Returns whether it was set.
fn env_retired(name: &'static str, why: &str) -> bool {
    let Ok(raw) = std::env::var(name) else {
        return false;
    };
    pi_obs::warn_once(
        name,
        &format!("{name}=`{raw}` is retired and ignored: {why}"),
    );
    true
}

/// Parses one `PI_SERVE_*` path. Unset → `None`; set but blank → `None`
/// with a warn-once (a blank path is a near-miss, not a request for a
/// file literally named "").
fn env_path(name: &'static str) -> Option<String> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        pi_obs::warn_once(name, &format!("{name} is set but blank; ignoring it"));
        return None;
    }
    Some(trimmed.to_owned())
}

/// Parses `PI_SERVE_IO`: `poll` / `threads` (trimmed, case-insensitive);
/// anything else warns once and uses the default mode.
fn env_io(name: &'static str, default: IoMode) -> IoMode {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "poll" => IoMode::Poll,
        "threads" => IoMode::Threads,
        _ => {
            pi_obs::warn_once(
                name,
                &format!(
                    "{name}=`{raw}` is not `poll` or `threads`; using the default `{}`",
                    default.name()
                ),
            );
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 8] = [
        "PI_SERVE_PORT",
        "PI_SERVE_BATCH_US",
        "PI_SERVE_QUEUE",
        "PI_SERVE_IO",
        "PI_SERVE_SHED_PCT",
        "PI_SERVE_RETRY_AFTER_S",
        "PI_SERVE_ACCESS_LOG",
        "PI_SERVE_SLOW_US",
    ];

    // Env-var mutation is process-global, so every case runs inside this
    // one test (cargo runs tests concurrently across a process's threads).
    #[test]
    fn env_parsing_defaults_near_misses_and_clamps() {
        let d = ServeConfig::default();

        // Unset → defaults.
        for k in KEYS {
            std::env::remove_var(k);
        }
        assert_eq!(ServeConfig::from_env(), d);
        assert!(!env_retired("PI_SERVE_BATCH_US", "retired"));

        // Valid values pass through.
        std::env::set_var("PI_SERVE_PORT", "0");
        std::env::set_var("PI_SERVE_BATCH_US", "250");
        std::env::set_var("PI_SERVE_QUEUE", "64");
        std::env::set_var("PI_SERVE_IO", "threads");
        std::env::set_var("PI_SERVE_SHED_PCT", "50");
        std::env::set_var("PI_SERVE_RETRY_AFTER_S", "5");
        std::env::set_var("PI_SERVE_ACCESS_LOG", " /tmp/pi-access.jsonl ");
        std::env::set_var("PI_SERVE_SLOW_US", "250000");
        let c = ServeConfig::from_env();
        assert_eq!((c.port, c.queue_depth), (0, 64));
        assert_eq!(c.io, IoMode::Threads);
        assert_eq!((c.shed_pct, c.retry_after_s), (50, 5));
        assert_eq!(c.shed_threshold(), 32, "50% of a 64-deep queue");
        assert_eq!(c.access_log.as_deref(), Some("/tmp/pi-access.jsonl"));
        assert_eq!(c.slow_us, 250_000);
        // The retired window knob is seen (and warned about) but changes
        // nothing: the config with it set equals the config without it.
        assert!(env_retired("PI_SERVE_BATCH_US", "retired"));
        std::env::remove_var("PI_SERVE_BATCH_US");
        assert_eq!(ServeConfig::from_env(), c);

        // Case-insensitive mode spellings pass through too.
        std::env::set_var("PI_SERVE_IO", " Poll ");
        assert_eq!(ServeConfig::from_env().io, IoMode::Poll);

        // Near-miss spellings fall back to the defaults (with a warning,
        // exercised once per key per process by warn_once).
        std::env::set_var("PI_SERVE_PORT", "auto");
        std::env::set_var("PI_SERVE_BATCH_US", "0.5ms");
        std::env::set_var("PI_SERVE_QUEUE", "-1");
        std::env::set_var("PI_SERVE_IO", "epoll");
        std::env::set_var("PI_SERVE_SHED_PCT", "most");
        std::env::set_var("PI_SERVE_RETRY_AFTER_S", "soon");
        std::env::set_var("PI_SERVE_ACCESS_LOG", "   ");
        std::env::set_var("PI_SERVE_SLOW_US", "fast");
        let c = ServeConfig::from_env();
        assert_eq!(c, d);
        assert!(env_retired("PI_SERVE_BATCH_US", "retired"));

        // Out-of-range values are clamped, not defaulted.
        std::env::set_var("PI_SERVE_PORT", "70000");
        std::env::set_var("PI_SERVE_BATCH_US", "9999999");
        std::env::set_var("PI_SERVE_QUEUE", "0");
        std::env::set_var("PI_SERVE_SHED_PCT", "200");
        std::env::set_var("PI_SERVE_RETRY_AFTER_S", "0");
        std::env::set_var("PI_SERVE_SLOW_US", "0");
        std::env::remove_var("PI_SERVE_ACCESS_LOG");
        let c = ServeConfig::from_env();
        assert_eq!(c.port, u16::MAX);
        assert_eq!(c.queue_depth, 1);
        assert_eq!(c.shed_pct, 100);
        assert_eq!(c.retry_after_s, 1);
        assert_eq!(c.slow_us, 1);
        assert_eq!(c.access_log, None);
        assert_eq!(c.shed_threshold(), 1, "threshold never reaches zero");
        // A retired knob is never clamped into a value: still ignored.
        assert!(env_retired("PI_SERVE_BATCH_US", "retired"));
        std::env::remove_var("PI_SERVE_BATCH_US");
        assert_eq!(ServeConfig::from_env(), c);

        for k in KEYS {
            std::env::remove_var(k);
        }
    }
}
