//! Server configuration from `PI_SERVE_*` environment variables.
//!
//! | variable          | meaning                                | default |
//! |-------------------|----------------------------------------|---------|
//! | `PI_SERVE_PORT`   | TCP port to bind (`0` = ephemeral)     | 7878    |
//! | `PI_SERVE_QUEUE`  | bounded request-queue depth            | 1024    |
//! | `PI_SERVE_ACCESS_LOG` | path of the JSONL access log (unset = off) | unset |
//!
//! The rest of admission control and the access log are constants:
//! expensive requests shed once 75 % of the queue is taken, a shed or
//! queue-full `503` asks the client to retry after 1 s, and a request that
//! takes 100 000 µs or longer logs its full phase breakdown.
//!
//! Near-miss values follow the `PI_THREADS` / `PI_CHAR_CACHE` discipline
//! (see `pi_rt::thread_count` and `pi_core::char_cache`): a value that is
//! not a valid number falls back to the default **with a one-time warning
//! naming the value actually used**, instead of silently becoming the
//! default or crashing the server at startup. A parseable but out-of-range
//! value is clamped, again with a warning carrying the effective value.
//!
//! Retired variables are ignored with a one-time warning saying so rather
//! than silently: `PI_SERVE_BATCH_US`, the old fixed coalescing window
//! (batching is adaptive: each batch is whatever was parsed since the last
//! one); `PI_SERVE_IO`, the old connection mode selector (the poll event
//! loop is the only mode); and `PI_SERVE_SHED_PCT`,
//! `PI_SERVE_RETRY_AFTER_S` and `PI_SERVE_SLOW_US`, which set the three
//! constants above.

/// Retired variables, each with why it is ignored.
const RETIRED: [(&str, &str); 5] = [
    ("PI_SERVE_BATCH_US", "batching is adaptive"),
    ("PI_SERVE_IO", "the poll loop is the only mode"),
    ("PI_SERVE_SHED_PCT", "expensive requests shed at 75% full"),
    ("PI_SERVE_RETRY_AFTER_S", "Retry-After is always 1 s"),
    ("PI_SERVE_SLOW_US", "the slow-request bound is 100 ms"),
];

/// Resolved server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Bounded queue depth; requests beyond it are answered `503`, and
    /// expensive requests shed once 75 % of it is taken.
    pub queue_depth: usize,
    /// Path of the structured JSONL access log; `None` disables it.
    pub access_log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 7878,
            queue_depth: 1024,
            access_log: None,
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the environment, applying the
    /// near-miss fallback policy described in the module docs.
    #[must_use]
    pub fn from_env() -> Self {
        let default = ServeConfig::default();
        for (name, why) in RETIRED {
            env_retired(name, why);
        }
        ServeConfig {
            port: env_u64(
                "PI_SERVE_PORT",
                u64::from(default.port),
                0,
                u64::from(u16::MAX),
            ) as u16,
            queue_depth: env_u64("PI_SERVE_QUEUE", default.queue_depth as u64, 1, 1 << 20) as usize,
            access_log: env_path("PI_SERVE_ACCESS_LOG"),
        }
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

    /// Whether every retired variable is seen as set (each call warns at
    /// most once per process).
    fn all_retired_set() -> bool {
        RETIRED.iter().all(|(name, why)| env_retired(name, why))
    }

    fn clear_retired() {
        for (name, _) in RETIRED {
            std::env::remove_var(name);
        }
    }

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
        assert!(RETIRED.iter().all(|(name, why)| !env_retired(name, why)));

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
        assert_eq!(c.access_log.as_deref(), Some("/tmp/pi-access.jsonl"));
        // The retired knobs are seen (and warned about) but change
        // nothing: the config with them set equals the config without
        // them.
        assert!(all_retired_set());
        clear_retired();
        assert_eq!(ServeConfig::from_env(), c);

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
        assert!(all_retired_set());

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
        assert_eq!(c.access_log, None);
        // A retired knob is never clamped into a value: still ignored.
        assert!(env_retired("PI_SERVE_SHED_PCT", "retired"));
        clear_retired();
        assert_eq!(ServeConfig::from_env(), c);

        for k in KEYS {
            std::env::remove_var(k);
        }
    }
}
