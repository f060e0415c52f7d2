//! Keyed characterization cache for repeater stage measurements.
//!
//! Characterization is the calibration hot path: every grid point is an
//! independent transient simulation, and the same `(technology, cell,
//! transition, size, slew, load)` tuples recur across `calibrate` runs,
//! the `table1` binary, corner sweeps and tests. This module memoizes the
//! measured `(delay, output slew)` pairs behind a process-global map (and
//! optionally a simple on-disk journal) so repeated runs skip the
//! simulator entirely.
//!
//! # Keying and invalidation
//!
//! A cache key is the pair of
//!
//! - a **technology fingerprint**: an FNV-1a hash over the full `Debug`
//!   rendering of the [`Technology`] (node, corner, every device and
//!   layout parameter) **plus** `pi_spice::ENGINE_VERSION` — so any change
//!   to device models, corners, or the numerical engine automatically
//!   invalidates old entries; and
//! - the **point identity**: repeater kind, output polarity, and the exact
//!   IEEE-754 bit patterns of the nMOS width, input slew and load.
//!
//! Using bit patterns (not rounded values) means a hit is only possible
//! for a bit-identical query, so cached results are indistinguishable from
//! recomputation and the calibration pipeline stays deterministic.
//!
//! # Configuration (`PI_CHAR_CACHE`)
//!
//! | value           | behaviour                                        |
//! |-----------------|--------------------------------------------------|
//! | unset, `on`, `1`| in-memory cache (default)                        |
//! | `off`, `0`      | cache bypassed entirely                          |
//! | anything else   | treated as a file path: loaded once at startup,  |
//! |                 | appended to on every store (write-through)       |

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use pi_spice::ENGINE_VERSION;
use pi_tech::units::{Cap, Length, Time};
use pi_tech::{RepeaterKind, Technology};

/// Cache key for one characterization measurement. See the module docs
/// for the keying discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CharKey {
    fingerprint: u64,
    kind: u8,
    rising: bool,
    wn_bits: u64,
    slew_bits: u64,
    load_bits: u64,
}

/// Aggregate hit/miss counters since process start (or the last
/// [`clear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Malformed journal records skipped at load time (e.g. a record
    /// truncated by a crash mid-append). Recovery is silent-but-counted:
    /// the remaining records still load.
    pub journal_recovered: u64,
}

/// Serialized appender for the on-disk journal. The file handle is opened
/// once and kept behind its own lock, separate from the cache-state lock:
/// concurrent in-process writers each append one complete line at a time
/// (never interleaving partial records), and map lookups never wait on
/// disk I/O. Compaction never goes through the sink — it is a single
/// atomic temp-write + rename at load time, before the sink's handle is
/// opened.
struct JournalSink {
    path: std::path::PathBuf,
    file: Mutex<Option<std::fs::File>>,
}

impl JournalSink {
    fn new(path: std::path::PathBuf) -> Self {
        JournalSink {
            path,
            file: Mutex::new(None),
        }
    }

    /// Appends one record line, opening the file lazily on first use. A
    /// failed write drops the handle so the next append retries the open
    /// (e.g. after the journal's directory reappears).
    fn append(&self, line: &str) {
        let mut file = lock(&self.file);
        if file.is_none() {
            *file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        if let Some(f) = file.as_mut() {
            if writeln!(f, "{line}").is_err() {
                *file = None;
            }
        }
    }
}

struct CacheState {
    map: HashMap<CharKey, (u64, u64)>,
    hits: u64,
    misses: u64,
    journal_recovered: u64,
    disk: Option<std::sync::Arc<JournalSink>>,
}

static CACHE: OnceLock<Mutex<CacheState>> = OnceLock::new();

/// How `PI_CHAR_CACHE` was classified.
enum CacheMode {
    Memory,
    Off,
    Journal(std::path::PathBuf),
}

/// Classifies a `PI_CHAR_CACHE` value. Canonical toggles are `on`/`1`/`""`
/// and `off`/`0`; near-miss spellings (`ON`, `true`, `no`, …) are treated
/// as the toggle they resemble **with a one-time warning**, instead of
/// being silently mistaken for a journal path. Everything else is a path.
fn cache_mode(v: &str) -> CacheMode {
    match v {
        "" | "on" | "1" => return CacheMode::Memory,
        "off" | "0" => return CacheMode::Off,
        _ => {}
    }
    match v.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "enable" | "enabled" => {
            pi_obs::warn_once(
                "PI_CHAR_CACHE",
                &format!(
                    "PI_CHAR_CACHE=`{v}` is not a canonical toggle; using `on` (in-memory cache)"
                ),
            );
            CacheMode::Memory
        }
        "off" | "false" | "no" | "disable" | "disabled" => {
            pi_obs::warn_once(
                "PI_CHAR_CACHE",
                &format!(
                    "PI_CHAR_CACHE=`{v}` is not a canonical toggle; using `off` (cache bypassed)"
                ),
            );
            CacheMode::Off
        }
        _ => CacheMode::Journal(std::path::PathBuf::from(v)),
    }
}

/// One parsed journal record: the cache key and the (delay, slew) bit words.
type JournalEntry = (CharKey, (u64, u64));

/// Maximum journal entries retained at load. A write-through journal grows
/// without bound across engine revisions and corner sweeps; past this cap
/// the *oldest* surviving entries are dropped (warn-once + counter), so a
/// long-lived journal file stays a cache and not a disk leak.
pub const MAX_JOURNAL_ENTRIES: usize = 65_536;

/// Compacts loaded journal entries and applies the entry cap. Three
/// reductions, in order:
///
/// 1. **Duplicate keys** — the last append wins (concurrent processes
///    write through independently, so repeats are normal).
/// 2. **Superseded fingerprints** — an entry whose point identity (kind,
///    polarity, width/slew/load bits) was later re-measured under a
///    *different* technology fingerprint is dead weight: the fingerprint
///    folds in every device parameter and the engine version, so a newer
///    measurement of the same point under a new fingerprint means the old
///    model revision no longer exists.
/// 3. **Entry cap** — keep only the newest `cap` entries in journal order.
///
/// Returns the surviving entries (journal order) plus the counts dropped
/// by compaction and by the cap.
fn compact_and_cap(entries: Vec<JournalEntry>, cap: usize) -> (Vec<JournalEntry>, usize, usize) {
    let point = |k: &CharKey| (k.kind, k.rising, k.wn_bits, k.slew_bits, k.load_bits);
    let mut last_fp: HashMap<(u8, bool, u64, u64, u64), u64> = HashMap::new();
    let mut last_idx: HashMap<CharKey, usize> = HashMap::new();
    for (i, (k, _)) in entries.iter().enumerate() {
        last_fp.insert(point(k), k.fingerprint);
        last_idx.insert(*k, i);
    }
    let n = entries.len();
    let mut kept: Vec<JournalEntry> = entries
        .into_iter()
        .enumerate()
        .filter(|(i, (k, _))| last_idx[k] == *i && last_fp[&point(k)] == k.fingerprint)
        .map(|(_, e)| e)
        .collect();
    let superseded = n - kept.len();
    let evicted = kept.len().saturating_sub(cap);
    kept.drain(..evicted);
    (kept, superseded, evicted)
}

/// Formats one journal record (the exact format [`parse_line`] accepts).
fn format_line(key: &CharKey, val: (u64, u64)) -> String {
    format!(
        "{:016x} {} {} {:016x} {:016x} {:016x} {:016x} {:016x}",
        key.fingerprint,
        key.kind,
        u8::from(key.rising),
        key.wn_bits,
        key.slew_bits,
        key.load_bits,
        val.0,
        val.1
    )
}

/// Parses journal text into entries, counting (and skipping) malformed
/// records. Factored out of [`state`] so truncation recovery is testable
/// without re-initializing the process-global cache.
fn load_journal(text: &str) -> (Vec<JournalEntry>, u64) {
    let mut entries = Vec::new();
    let mut recovered = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(e) => entries.push(e),
            None => recovered += 1,
        }
    }
    (entries, recovered)
}

/// Locks the cache state or the journal sink. A panic elsewhere while the
/// lock was held (poisoning it) leaves both usable: every state update is
/// a lookup, a counter bump or a single insert of a finished value, and a
/// line cut short in the journal is skipped (and counted) at the next
/// load. So the cache recovers the guard instead of cascading the panic
/// into every later caller — in `pi serve`, every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn state() -> &'static Mutex<CacheState> {
    CACHE.get_or_init(|| {
        let mut st = CacheState {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            journal_recovered: 0,
            disk: None,
        };
        if let Ok(v) = std::env::var("PI_CHAR_CACHE") {
            if let CacheMode::Journal(path) = cache_mode(&v) {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    let (entries, recovered) = load_journal(&text);
                    let (entries, superseded, evicted) =
                        compact_and_cap(entries, MAX_JOURNAL_ENTRIES);
                    pi_obs::counter_add("char_cache.journal_loaded", entries.len() as u64);
                    if superseded > 0 {
                        pi_obs::counter_add("char_cache.journal_compacted", superseded as u64);
                    }
                    if evicted > 0 {
                        pi_obs::counter_add("char_cache.journal_evicted", evicted as u64);
                        pi_obs::warn_once(
                            "char_cache.journal_evicted",
                            &format!(
                                "char cache journal `{}` exceeds the {MAX_JOURNAL_ENTRIES}-entry \
                                 cap; dropped the oldest {evicted} entr(y/ies)",
                                path.display()
                            ),
                        );
                    }
                    // Rewrite the file when compaction shrank it, so the
                    // journal does not grow without bound across runs.
                    // Atomic replace (temp + rename) — a crash mid-rewrite
                    // leaves either the old or the new journal, never a
                    // truncated one.
                    if superseded + evicted > 0 {
                        let tmp = path.with_extension("compact.tmp");
                        let body: String = entries
                            .iter()
                            .map(|(k, v)| format_line(k, *v) + "\n")
                            .collect();
                        if std::fs::write(&tmp, body).is_ok() {
                            let _ = std::fs::rename(&tmp, &path);
                        }
                    }
                    for (key, val) in entries {
                        st.map.insert(key, val);
                    }
                    if recovered > 0 {
                        st.journal_recovered = recovered;
                        pi_obs::counter_add("char_cache.journal_recovered", recovered);
                        pi_obs::warn_once(
                            "char_cache.journal_recovered",
                            &format!(
                                "char cache journal `{}`: skipped {recovered} malformed record(s); \
                                 the rest loaded normally",
                                path.display()
                            ),
                        );
                    }
                }
                st.disk = Some(std::sync::Arc::new(JournalSink::new(path)));
            }
        }
        Mutex::new(st)
    })
}

/// Parses one journal record: exactly 8 whitespace-separated fields —
/// fingerprint, kind (0/1), rising (0/1), then five 16-hex-digit words.
/// The fixed field widths reject records truncated mid-write, which would
/// otherwise still parse as (shorter) valid hex and poison the cache with
/// a wrong value.
fn parse_line(line: &str) -> Option<(CharKey, (u64, u64))> {
    let mut it = line.split_whitespace();
    let hex16 = |s: &str| {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    };
    let key = CharKey {
        fingerprint: hex16(it.next()?)?,
        kind: match it.next()? {
            "0" => 0,
            "1" => 1,
            _ => return None,
        },
        rising: match it.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        wn_bits: hex16(it.next()?)?,
        slew_bits: hex16(it.next()?)?,
        load_bits: hex16(it.next()?)?,
    };
    let val = (hex16(it.next()?)?, hex16(it.next()?)?);
    if it.next().is_some() {
        return None;
    }
    Some((key, val))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether caching is active for this lookup (checked per call, so the
/// bench harness can toggle `PI_CHAR_CACHE=off` mid-process).
#[must_use]
pub fn enabled() -> bool {
    match std::env::var("PI_CHAR_CACHE") {
        Err(_) => true,
        Ok(v) => !matches!(cache_mode(&v), CacheMode::Off),
    }
}

/// Fingerprint of a technology under the current simulation engine.
#[must_use]
pub fn fingerprint(tech: &Technology) -> u64 {
    let repr = format!("{tech:?}|engine{ENGINE_VERSION}");
    fnv1a(repr.as_bytes())
}

/// Builds the cache key for one characterization point. `fingerprint` is
/// [`fingerprint`]`(tech)` — hoisted out so grid sweeps hash the
/// technology once.
#[must_use]
pub fn key(
    fingerprint: u64,
    kind: RepeaterKind,
    rising: bool,
    wn: Length,
    slew: Time,
    load: Cap,
) -> CharKey {
    CharKey {
        fingerprint,
        kind: match kind {
            RepeaterKind::Inverter => 0,
            RepeaterKind::Buffer => 1,
        },
        rising,
        wn_bits: wn.si().to_bits(),
        slew_bits: slew.si().to_bits(),
        load_bits: load.si().to_bits(),
    }
}

/// Cached `(delay, output slew)` for `key`, if present (and the cache is
/// enabled).
#[must_use]
pub fn lookup(key: &CharKey) -> Option<(Time, Time)> {
    if !enabled() {
        return None;
    }
    let mut st = lock(state());
    if let Some(&(d, s)) = st.map.get(key) {
        st.hits += 1;
        pi_obs::counter_add("char_cache.hits", 1);
        Some((Time::s(f64::from_bits(d)), Time::s(f64::from_bits(s))))
    } else {
        st.misses += 1;
        pi_obs::counter_add("char_cache.misses", 1);
        None
    }
}

/// Batched [`lookup`]: answers every key under **one** state-lock
/// acquisition instead of one per point. Grid sweeps call this with the
/// whole flattened grid (a standard 5×5×5 grid is 125 points), so the
/// lock (and the per-call `PI_CHAR_CACHE` classification) is paid once
/// per sweep rather than once per cell. Hit/miss counters advance exactly
/// as the per-key calls would.
#[must_use]
pub fn lookup_many(keys: &[CharKey]) -> Vec<Option<(Time, Time)>> {
    if keys.is_empty() {
        return Vec::new();
    }
    if !enabled() {
        return vec![None; keys.len()];
    }
    let mut st = lock(state());
    let out: Vec<Option<(Time, Time)>> = keys
        .iter()
        .map(|key| {
            st.map
                .get(key)
                .map(|&(d, s)| (Time::s(f64::from_bits(d)), Time::s(f64::from_bits(s))))
        })
        .collect();
    let hits = out.iter().filter(|o| o.is_some()).count() as u64;
    let misses = keys.len() as u64 - hits;
    st.hits += hits;
    st.misses += misses;
    drop(st);
    if hits > 0 {
        pi_obs::counter_add("char_cache.hits", hits);
    }
    if misses > 0 {
        pi_obs::counter_add("char_cache.misses", misses);
    }
    out
}

/// Batched [`store`]: inserts every measured point under one state-lock
/// acquisition, then journals the newly inserted entries (write-through,
/// outside the state lock, one sink acquisition for the whole batch).
pub fn store_many(entries: &[(CharKey, Time, Time)]) {
    if entries.is_empty() || !enabled() {
        return;
    }
    let mut st = lock(state());
    let mut fresh: Vec<(CharKey, (u64, u64))> = Vec::new();
    for &(key, delay, output_slew) in entries {
        let val = (delay.si().to_bits(), output_slew.si().to_bits());
        if st.map.insert(key, val).is_none() {
            if st.map.len() == MAX_JOURNAL_ENTRIES + 1 {
                pi_obs::counter_add("char_cache.cap_exceeded", 1);
                pi_obs::warn_once(
                    "char_cache.cap_exceeded",
                    &format!(
                        "char cache grew past {MAX_JOURNAL_ENTRIES} entries; \
                         the journal will be compacted on next load"
                    ),
                );
            }
            fresh.push((key, val));
        }
    }
    let sink = st.disk.clone();
    drop(st);
    if let Some(sink) = sink {
        for (key, val) in &fresh {
            sink.append(&format_line(key, *val));
        }
    }
}

/// Inserts a measured `(delay, output slew)` pair. A no-op when the cache
/// is disabled; write-through to the journal file in path mode.
pub fn store(key: CharKey, delay: Time, output_slew: Time) {
    if !enabled() {
        return;
    }
    let val = (delay.si().to_bits(), output_slew.si().to_bits());
    let mut st = lock(state());
    if st.map.insert(key, val).is_none() {
        // Crossing the cap mid-run is surfaced (once) but nothing is
        // evicted live — lookups must stay deterministic within a run.
        // The next load's compaction pass trims the journal back down.
        if st.map.len() == MAX_JOURNAL_ENTRIES + 1 {
            pi_obs::counter_add("char_cache.cap_exceeded", 1);
            pi_obs::warn_once(
                "char_cache.cap_exceeded",
                &format!(
                    "char cache grew past {MAX_JOURNAL_ENTRIES} entries; \
                     the journal will be compacted on next load"
                ),
            );
        }
        let sink = st.disk.clone();
        // Write through outside the state lock: lookups on other threads
        // proceed while this thread waits its turn at the sink, and the
        // sink's own lock keeps concurrent appends whole-line atomic.
        drop(st);
        if let Some(sink) = sink {
            sink.append(&format_line(&key, val));
        }
    }
}

/// Current hit/miss/entry counters.
#[must_use]
pub fn stats() -> CacheStats {
    let st = lock(state());
    CacheStats {
        hits: st.hits,
        misses: st.misses,
        entries: st.map.len(),
        journal_recovered: st.journal_recovered,
    }
}

/// Drops every resident entry and zeroes the counters (used by the
/// determinism tests to force recomputation between runs). Does not
/// truncate a journal file.
pub fn clear() {
    let mut st = lock(state());
    st.map.clear();
    st.hits = 0;
    st.misses = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_tech::{TechNode, Technology};

    fn sample_key(fp: u64) -> CharKey {
        key(
            fp,
            RepeaterKind::Inverter,
            true,
            Length::um(4.0),
            Time::ps(60.0),
            Cap::ff(30.0),
        )
    }

    #[test]
    fn roundtrips_exact_bits() {
        let tech = Technology::new(TechNode::N65);
        let fp = fingerprint(&tech);
        let k = sample_key(fp);
        clear();
        assert!(lookup(&k).is_none());
        let d = Time::ps(12.345_678_901_234);
        let s = Time::ps(45.678_901_234_567);
        store(k, d, s);
        let (d2, s2) = lookup(&k).expect("stored entry");
        assert_eq!(d.si().to_bits(), d2.si().to_bits());
        assert_eq!(s.si().to_bits(), s2.si().to_bits());
        let st = stats();
        assert!(st.entries >= 1);
        assert!(st.hits >= 1 && st.misses >= 1);
    }

    #[test]
    fn poisoned_cache_locks_are_recovered_not_cascaded() {
        let path = std::env::temp_dir().join(format!(
            "pi_char_cache_poison_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sink = JournalSink::new(path.clone());
        std::thread::scope(|s| {
            let panicked = [
                s.spawn(|| {
                    let _guard = state().lock().expect("first lock");
                    panic!("a panic while holding the char-cache lock");
                }),
                s.spawn(|| {
                    let _guard = sink.file.lock().expect("first lock");
                    panic!("a panic while holding the journal-sink lock");
                }),
            ];
            for handle in panicked {
                assert!(handle.join().is_err());
            }
        });
        assert!(state().is_poisoned());
        assert!(sink.file.is_poisoned());

        // Every entry point that takes the state lock carries on. Other
        // tests may `clear()` the shared map at any time, so only the
        // absence of a panic is asserted for it.
        let k = sample_key(0x5157);
        let _ = lookup(&k);
        store(k, Time::ps(1.0), Time::ps(2.0));
        let _ = lookup_many(&[k]);
        store_many(&[(k, Time::ps(1.0), Time::ps(2.0))]);
        let _ = stats();
        clear();
        // The sink still appends whole lines.
        sink.append("after the panic");
        let text = std::fs::read_to_string(&path).expect("journal written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, "after the panic\n");
    }

    #[test]
    fn batched_lookup_and_store_match_the_per_key_calls() {
        clear();
        let keys: Vec<CharKey> = (0..8)
            .map(|i| {
                key(
                    0x7777,
                    RepeaterKind::Inverter,
                    true,
                    Length::um(1.0 + f64::from(i)),
                    Time::ps(60.0),
                    Cap::ff(30.0),
                )
            })
            .collect();
        assert!(lookup_many(&keys).iter().all(Option::is_none));
        // Store the even-indexed half in one batch...
        let entries: Vec<(CharKey, Time, Time)> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, k)| (*k, Time::ps(1.0 + i as f64), Time::ps(2.0 + i as f64)))
            .collect();
        store_many(&entries);
        // ...and read everything back in one batch: hits where stored,
        // misses elsewhere, bit-exact values, same as per-key lookup.
        let got = lookup_many(&keys);
        for (i, (k, o)) in keys.iter().zip(&got).enumerate() {
            assert_eq!(o.is_some(), i % 2 == 0, "slot {i}");
            assert_eq!(
                lookup(k).map(|(d, s)| (d.si().to_bits(), s.si().to_bits())),
                o.map(|(d, s)| (d.si().to_bits(), s.si().to_bits()))
            );
            if let Some((d, _)) = o {
                assert_eq!(d.si().to_bits(), Time::ps(1.0 + i as f64).si().to_bits());
            }
        }
        assert!(lookup_many(&[]).is_empty());
    }

    #[test]
    fn fingerprint_separates_technologies_and_engines() {
        let a = fingerprint(&Technology::new(TechNode::N65));
        let b = fingerprint(&Technology::new(TechNode::N90));
        assert_ne!(a, b);
        let c = fingerprint(&Technology::with_corner(
            TechNode::N65,
            pi_tech::Corner::SlowSlow,
        ));
        assert_ne!(a, c);
        assert_ne!(sample_key(a), sample_key(b));
    }

    #[test]
    fn journal_line_roundtrip() {
        let k = sample_key(0xdead_beef);
        let line = format!(
            "{:016x} {} {} {:016x} {:016x} {:016x} {:016x} {:016x}",
            k.fingerprint,
            k.kind,
            u8::from(k.rising),
            k.wn_bits,
            k.slew_bits,
            k.load_bits,
            1.25f64.to_bits(),
            2.5f64.to_bits()
        );
        let (k2, (d, s)) = parse_line(&line).expect("parse");
        assert_eq!(k, k2);
        assert_eq!(f64::from_bits(d), 1.25);
        assert_eq!(f64::from_bits(s), 2.5);
    }

    fn journal_line(k: &CharKey, d: f64, s: f64) -> String {
        format_line(k, (d.to_bits(), s.to_bits()))
    }

    #[test]
    fn truncated_trailing_record_is_skipped_and_counted() {
        let good_a = journal_line(&sample_key(0x1111), 1.25, 2.5);
        let good_b = journal_line(&sample_key(0x2222), 3.5, 4.5);
        // Crash mid-append: the last record loses most of its final field.
        // The surviving prefix is still valid hex, so a width-agnostic
        // parser would load a corrupt value instead of rejecting it.
        let truncated = &good_b[..good_b.len() - 12];
        assert!(
            parse_line(truncated).is_none(),
            "truncated record must not parse"
        );
        let text = format!("{good_a}\n{truncated}\n");
        let (entries, recovered) = load_journal(&text);
        assert_eq!(entries.len(), 1, "intact record still loads");
        assert_eq!(recovered, 1, "truncated record is counted");
        assert_eq!(entries[0].0, sample_key(0x1111));
        assert_eq!(f64::from_bits(entries[0].1 .0), 1.25);
    }

    #[test]
    fn strict_parser_rejects_malformed_records() {
        let good = journal_line(&sample_key(0x3333), 1.0, 2.0);
        assert!(parse_line(&good).is_some());
        // Extra field appended.
        assert!(parse_line(&format!("{good} deadbeef")).is_none());
        // Non-toggle kind / rising fields.
        assert!(parse_line(&good.replacen(" 0 1 ", " 2 1 ", 1)).is_none());
        // A short (but valid) hex word — e.g. a truncated fingerprint.
        assert!(parse_line(&good[4..]).is_none());
        // Blank lines are not errors.
        let (entries, recovered) = load_journal(&format!("\n{good}\n\n"));
        assert_eq!((entries.len(), recovered), (1, 0));
    }

    #[test]
    fn compaction_drops_duplicates_and_superseded_fingerprints() {
        let old_fp = 0xaaaa;
        let new_fp = 0xbbbb;
        let shared = |fp| sample_key(fp); // same point identity under both
        let only_old = |fp: u64| {
            key(
                fp,
                RepeaterKind::Buffer,
                false,
                Length::um(8.0),
                Time::ps(80.0),
                Cap::ff(50.0),
            )
        };
        let entries = vec![
            (shared(old_fp), (1, 1)),   // superseded: re-measured under new_fp
            (only_old(old_fp), (2, 2)), // survives: never re-measured
            (shared(new_fp), (3, 3)),   // duplicate, first write
            (shared(new_fp), (4, 4)),   // last write wins
        ];
        let (kept, superseded, evicted) = compact_and_cap(entries, 100);
        assert_eq!(superseded, 2, "old-fingerprint + duplicate dropped");
        assert_eq!(evicted, 0);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0], (only_old(old_fp), (2, 2)));
        assert_eq!(kept[1], (shared(new_fp), (4, 4)), "last duplicate wins");
        // The compacted set round-trips through the journal format.
        let text: String = kept
            .iter()
            .map(|(k, v)| format_line(k, *v) + "\n")
            .collect();
        let (reloaded, recovered) = load_journal(&text);
        assert_eq!((reloaded, recovered), (kept, 0));
    }

    #[test]
    fn entry_cap_evicts_the_oldest_entries() {
        let entries: Vec<JournalEntry> = (0..10)
            .map(|i| {
                let k = key(
                    0x1234,
                    RepeaterKind::Inverter,
                    true,
                    Length::um(1.0 + i as f64),
                    Time::ps(60.0),
                    Cap::ff(30.0),
                );
                (k, (i, i))
            })
            .collect();
        let (kept, superseded, evicted) = compact_and_cap(entries.clone(), 4);
        assert_eq!((superseded, evicted), (0, 6));
        assert_eq!(kept, entries[6..].to_vec(), "newest entries survive");
        // A cap larger than the set is a no-op.
        let (kept, _, evicted) = compact_and_cap(entries.clone(), 100);
        assert_eq!((kept.len(), evicted), (10, 0));
    }

    #[test]
    fn concurrent_appends_from_8_threads_replay_cleanly() {
        let path = std::env::temp_dir().join(format!(
            "pi_char_cache_hammer_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let sink = std::sync::Arc::new(JournalSink::new(path.clone()));

        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sink = std::sync::Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Distinct keys per (thread, iteration): width bits
                        // carry the identity so replayed entries are
                        // attributable.
                        let k = key(
                            0x9999,
                            RepeaterKind::Inverter,
                            true,
                            Length::um(1.0 + (t * PER_THREAD + i) as f64),
                            Time::ps(60.0),
                            Cap::ff(30.0),
                        );
                        sink.append(&format_line(&k, (t, i)));
                    }
                });
            }
        });

        // Replay: every record intact (no interleaved partial lines), none
        // recovered, each (thread, iteration) pair present exactly once.
        let text = std::fs::read_to_string(&path).expect("journal written");
        let (entries, recovered) = load_journal(&text);
        assert_eq!(recovered, 0, "no torn records under concurrent appends");
        assert_eq!(entries.len(), (THREADS * PER_THREAD) as usize);
        let mut seen = std::collections::HashSet::new();
        for (_, (t, i)) in &entries {
            assert!(*t < THREADS && *i < PER_THREAD);
            assert!(seen.insert((*t, *i)), "duplicate record for ({t}, {i})");
        }
        // And compaction of the replay is a no-op (all keys distinct).
        let (kept, superseded, evicted) = compact_and_cap(entries, MAX_JOURNAL_ENTRIES);
        assert_eq!((kept.len(), superseded, evicted), (1600, 0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn near_miss_toggles_classify_as_toggles_not_paths() {
        assert!(matches!(cache_mode("on"), CacheMode::Memory));
        assert!(matches!(cache_mode("ON"), CacheMode::Memory));
        assert!(matches!(cache_mode("true"), CacheMode::Memory));
        assert!(matches!(cache_mode("off"), CacheMode::Off));
        assert!(matches!(cache_mode("False"), CacheMode::Off));
        assert!(matches!(cache_mode("no"), CacheMode::Off));
        assert!(matches!(
            cache_mode("/tmp/char.journal"),
            CacheMode::Journal(_)
        ));
    }
}
