//! JSONL trace journal: record emitters and the schema checker behind
//! `pi obs-report --check` and the verify.sh gate.
//!
//! Every journal line is one flat JSON object — string and number values
//! only, no nesting — so any external JSON tool can read it. Strings are
//! written, and lines parsed, by the workspace codec ([`crate::json`]).
//! The record types (schema version 1):
//!
//! | `type`        | fields |
//! |---------------|--------|
//! | `meta`        | `schema` (num), `mode` (str) |
//! | `span`        | `id`, `parent`, `thread`, `start_ns`, `dur_ns` (nums), `name` (str) |
//! | `sample`      | `name` (str), `x`, `y` (nums) |
//! | `counter`     | `name` (str), `value` (num) |
//! | `gauge`       | `name` (str), `value` (num) |
//! | `hist_bucket` | `name` (str), `lo`, `hi`, `count` (nums) |
//! | `warn`        | `name`, `msg` (strs) |
//! | `finish`      | `wall_ns`, `thread` (nums) |
//!
//! `span`/`sample`/`warn` lines stream in event order; `counter`, `gauge`,
//! `hist_bucket`, and `finish` are aggregates written once by
//! [`crate::finish`]. `parent == 0` marks a root span; `thread` numbers are
//! assigned in first-probe order, and the `finish` record carries the
//! finishing (main) thread's id so report tooling can separate main-thread
//! roots from worker-thread roots.

use crate::json::{self, Json};

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_string(&mut out, s);
    out
}

/// Formats an f64 as a JSON number. Uses scientific notation for very long
/// plain expansions (e.g. 2^-40 bucket bounds); non-finite values, which the
/// probes already filter, degrade to 0.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let plain = format!("{v}");
    if plain.len() <= 24 {
        plain
    } else {
        format!("{v:e}")
    }
}

pub(crate) fn meta_line(schema: u64, mode: &str) -> String {
    format!(
        "{{\"type\":\"meta\",\"schema\":{schema},\"mode\":{}}}",
        quoted(mode)
    )
}

pub(crate) fn span_line(
    id: u64,
    parent: u64,
    thread: u64,
    name: &str,
    start_ns: u64,
    dur_ns: u64,
) -> String {
    format!(
        "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\
         \"name\":{},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}}}",
        quoted(name)
    )
}

pub(crate) fn sample_line(name: &str, x: f64, y: f64) -> String {
    format!(
        "{{\"type\":\"sample\",\"name\":{},\"x\":{},\"y\":{}}}",
        quoted(name),
        num(x),
        num(y)
    )
}

pub(crate) fn counter_line(name: &str, value: u64) -> String {
    format!(
        "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
        quoted(name)
    )
}

pub(crate) fn gauge_line(name: &str, value: f64) -> String {
    format!(
        "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
        quoted(name),
        num(value)
    )
}

pub(crate) fn hist_bucket_line(name: &str, lo: f64, hi: f64, count: u64) -> String {
    format!(
        "{{\"type\":\"hist_bucket\",\"name\":{},\"lo\":{},\"hi\":{},\"count\":{count}}}",
        quoted(name),
        num(lo),
        num(hi)
    )
}

pub(crate) fn warn_line(name: &str, msg: &str) -> String {
    format!(
        "{{\"type\":\"warn\",\"name\":{},\"msg\":{}}}",
        quoted(name),
        quoted(msg)
    )
}

pub(crate) fn finish_line(wall_ns: u64, thread: u64) -> String {
    format!("{{\"type\":\"finish\",\"wall_ns\":{wall_ns},\"thread\":{thread}}}")
}

// ---------------------------------------------------------------------------
// Schema checking
// ---------------------------------------------------------------------------

fn need_num(rec: &Json, key: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing/non-numeric field `{key}`"))
}

fn need_str<'a>(rec: &'a Json, key: &str) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing/non-string field `{key}`"))
}

fn need_uint(rec: &Json, key: &str) -> Result<u64, String> {
    let v = need_num(rec, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "field `{key}` must be a non-negative integer, got {v}"
        ));
    }
    Ok(v as u64)
}

/// Validates one journal line against the schema and returns the parsed
/// record: a flat JSON object whose values are strings or numbers. The
/// record `type` drives which fields are required; unknown types are
/// errors (the schema version in the `meta` line is the upgrade path).
///
/// # Errors
///
/// Returns a message naming the parse error, the nested or non-scalar
/// field, or the schema violation.
pub fn check_line(line: &str) -> Result<Json, String> {
    let rec = json::parse(line)?;
    let Json::Obj(fields) = &rec else {
        return Err("journal line is not a JSON object".to_string());
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| !matches!(v, Json::Str(_) | Json::Int(_) | Json::Num(_)))
    {
        return Err(format!("unsupported value for key `{key}`"));
    }
    let ty = need_str(&rec, "type")?.to_string();
    match ty.as_str() {
        "meta" => {
            let schema = need_uint(&rec, "schema")?;
            if schema != crate::SCHEMA_VERSION {
                return Err(format!(
                    "schema version {schema} unsupported (expected {})",
                    crate::SCHEMA_VERSION
                ));
            }
            need_str(&rec, "mode")?;
        }
        "span" => {
            let id = need_uint(&rec, "id")?;
            if id == 0 {
                return Err("span id must be positive".to_string());
            }
            need_uint(&rec, "parent")?;
            need_uint(&rec, "thread")?;
            need_str(&rec, "name")?;
            need_uint(&rec, "start_ns")?;
            need_uint(&rec, "dur_ns")?;
        }
        "sample" => {
            need_str(&rec, "name")?;
            need_num(&rec, "x")?;
            need_num(&rec, "y")?;
        }
        "counter" => {
            need_str(&rec, "name")?;
            need_uint(&rec, "value")?;
        }
        "gauge" => {
            need_str(&rec, "name")?;
            need_num(&rec, "value")?;
        }
        "hist_bucket" => {
            need_str(&rec, "name")?;
            let lo = need_num(&rec, "lo")?;
            let hi = need_num(&rec, "hi")?;
            if lo > hi {
                return Err(format!("hist_bucket has lo {lo} > hi {hi}"));
            }
            need_uint(&rec, "count")?;
        }
        "warn" => {
            need_str(&rec, "name")?;
            need_str(&rec, "msg")?;
        }
        "finish" => {
            need_uint(&rec, "wall_ns")?;
            need_uint(&rec, "thread")?;
        }
        other => return Err(format!("unknown record type `{other}`")),
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitters_roundtrip_through_parser() {
        let lines = [
            meta_line(crate::SCHEMA_VERSION, "jsonl"),
            span_line(3, 1, 2, "spice.transient", 12345, 6789),
            sample_line("yield.ci_half_width", 1024.0, 0.0123),
            counter_line("spice.newton_iters", 42),
            gauge_line("yield.is_ess", 812.5),
            hist_bucket_line("spice.lte_shrink", 0.25, 0.5, 7),
            warn_line("PI_THREADS", "weird \"value\"\nnewline"),
            finish_line(987654321, 1),
        ];
        for line in &lines {
            check_line(line).unwrap_or_else(|e| panic!("emitted line failed check: {e}\n{line}"));
        }
        let rec = check_line(&lines[1]).unwrap();
        assert_eq!(
            rec.get("name").and_then(Json::as_str),
            Some("spice.transient")
        );
        assert_eq!(rec.get("dur_ns").and_then(Json::as_f64), Some(6789.0));
        let warn = check_line(&lines[6]).unwrap();
        assert_eq!(
            warn.get("msg").and_then(Json::as_str),
            Some("weird \"value\"\nnewline")
        );
    }

    #[test]
    fn tiny_bucket_bounds_stay_parseable() {
        let line = hist_bucket_line("h", 2f64.powi(-40), 2f64.powi(-39), 1);
        let rec = check_line(&line).unwrap();
        assert_eq!(rec.get("lo").and_then(Json::as_f64), Some(2f64.powi(-40)));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"span\"}",                       // missing fields
            "{\"type\":\"mystery\",\"name\":\"x\"}",     // unknown type
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":-1}", // negative count
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":1.5}", // fractional count
            "{\"type\":\"span\",\"id\":0,\"parent\":0,\"thread\":1,\"name\":\"x\",\"start_ns\":0,\"dur_ns\":0}",
            "{\"type\":\"finish\",\"wall_ns\":1,\"thread\":1} trailing",
            "{\"a\":{\"nested\":1}}",
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":true}",
        ] {
            assert!(check_line(bad).is_err(), "accepted bad line: {bad}");
        }
    }
}
