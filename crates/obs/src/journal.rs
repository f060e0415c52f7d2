//! JSONL trace journal: the one definition of its records ([`Record`]),
//! their writer, and the schema checker behind `pi obs-report --check`
//! and the verify.sh gate.
//!
//! Every journal line is one flat JSON object — string and number values
//! only, no nesting — so any external JSON tool can read it. Lines are
//! written, and parsed, by the workspace codec ([`crate::json`]). The
//! record types (schema version 1), with keys in the order written:
//!
//! | `type`        | fields |
//! |---------------|--------|
//! | `meta`        | `schema` (num), `mode` (str) |
//! | `span`        | `id`, `parent`, `thread` (nums), `name` (str), `start_ns`, `dur_ns` (nums) |
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

use std::borrow::Cow;

use crate::json::{self, Json};

/// A value a record field can hold: how it is written and read back.
trait Field: Sized {
    /// What a parse error says the field should have been.
    const WHAT: &'static str;
    fn put(&self, out: &mut String);
    fn read(v: &Json) -> Option<Self>;
}

impl Field for u64 {
    const WHAT: &'static str = "a non-negative integer";
    fn put(&self, out: &mut String) {
        Json::Int(i128::from(*self)).write(out);
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for f64 {
    const WHAT: &'static str = "a number";
    /// Non-finite values, which the probes already drop, degrade to 0.
    fn put(&self, out: &mut String) {
        Json::from_f64(if self.is_finite() { *self } else { 0.0 }).write(out);
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for Cow<'_, str> {
    const WHAT: &'static str = "a string";
    fn put(&self, out: &mut String) {
        json::write_string(out, self);
    }
    fn read(v: &Json) -> Option<Self> {
        v.as_str().map(|s| Cow::Owned(s.to_owned()))
    }
}

fn put<T: Field>(out: &mut String, key: &str, v: &T) {
    out.push(',');
    json::write_string(out, key);
    out.push(':');
    v.put(out);
}

fn get<T: Field>(rec: &Json, key: &str) -> Result<T, String> {
    rec.get(key)
        .and_then(T::read)
        .ok_or_else(|| format!("field `{key}` is missing or not {}", T::WHAT))
}

/// Defines [`Record`], its writer and its reader from one table of
/// `Variant = "type" { field: kind, ... }` rows, so the three cannot
/// drift apart. A `str` field is a `Cow<'a, str>`.
macro_rules! records {
    ($($variant:ident = $tag:literal { $($field:ident: $kind:ident),* })*) => {
        /// One journal line; the fields are the schema table's (module
        /// docs). Strings borrow when a probe writes a record and are
        /// owned when [`Record::parse`] reads one.
        #[allow(missing_docs)]
        #[derive(Clone, Debug, PartialEq)]
        pub enum Record<'a> {
            $($variant { $($field: records!(@ty $kind)),* },)*
        }

        impl Record<'_> {
            /// Appends the record to `out` as one JSON object, keys in
            /// schema order, without a newline. Writes straight into
            /// `out` (no JSON tree is built), so spans can be journaled
            /// on the hot path.
            pub fn write(&self, out: &mut String) {
                match self {
                    $(Record::$variant { $($field),* } => {
                        out.push_str(concat!("{\"type\":\"", $tag, "\""));
                        $(put(out, stringify!($field), $field);)*
                    })*
                }
                out.push('}');
            }

            /// The fields of a `type` tag's record, read from `rec`.
            fn read(tag: &str, rec: &Json) -> Result<Record<'static>, String> {
                match tag {
                    $($tag => Ok(Record::$variant { $($field: get(rec, stringify!($field))?),* }),)*
                    other => Err(format!("unknown record type `{other}`")),
                }
            }
        }
    };
    (@ty str) => { Cow<'a, str> };
    (@ty $kind:ident) => { $kind };
}

records! {
    Meta = "meta" { schema: u64, mode: str }
    Span = "span" { id: u64, parent: u64, thread: u64, name: str, start_ns: u64, dur_ns: u64 }
    Sample = "sample" { name: str, x: f64, y: f64 }
    Counter = "counter" { name: str, value: u64 }
    Gauge = "gauge" { name: str, value: f64 }
    HistBucket = "hist_bucket" { name: str, lo: f64, hi: f64, count: u64 }
    Warn = "warn" { name: str, msg: str }
    Finish = "finish" { wall_ns: u64, thread: u64 }
}

impl Record<'_> {
    /// Validates one journal line against the schema and returns the typed
    /// record. The line must be a flat JSON object whose values are strings
    /// or numbers; its `type` decides the required fields, and unknown
    /// types are errors (the schema version in the `meta` line is the
    /// upgrade path). Extra fields are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the parse error, the nested or non-scalar
    /// field, or the schema violation.
    pub fn parse(line: &str) -> Result<Record<'static>, String> {
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
        let tag: Cow<str> = get(&rec, "type")?;
        match Record::read(&tag, &rec)? {
            Record::Meta { schema, .. } if schema != crate::SCHEMA_VERSION => Err(format!(
                "schema version {schema} unsupported (expected {})",
                crate::SCHEMA_VERSION
            )),
            Record::Span { id: 0, .. } => Err("span id must be positive".to_string()),
            Record::HistBucket { lo, hi, .. } if lo > hi => {
                Err(format!("hist_bucket has lo {lo} > hi {hi}"))
            }
            record => Ok(record),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(rec: &Record) -> String {
        let mut out = String::new();
        rec.write(&mut out);
        out
    }

    #[test]
    fn every_record_round_trips_through_parse() {
        let name = |s: &'static str| Cow::Borrowed(s);
        let records = [
            Record::Meta {
                schema: crate::SCHEMA_VERSION,
                mode: name("jsonl"),
            },
            Record::Span {
                id: 3,
                parent: 1,
                thread: 2,
                name: name("spice.transient"),
                start_ns: u64::MAX - 1,
                dur_ns: 6789,
            },
            Record::Sample {
                name: name("yield.ci_half_width"),
                x: 1024.0,
                y: 0.0123,
            },
            Record::Counter {
                name: name("spice.newton_iters"),
                value: 42,
            },
            Record::Gauge {
                name: name("yield.is_ess"),
                value: 812.5,
            },
            Record::HistBucket {
                name: name("spice.lte_shrink"),
                lo: 2f64.powi(-40),
                hi: (-639.0f64 / 16.0).exp2(),
                count: 7,
            },
            Record::Warn {
                name: name("PI_THREADS"),
                msg: name("weird \"value\"\nnewline \\ and \u{1}"),
            },
            Record::Finish {
                wall_ns: 987_654_321,
                thread: 1,
            },
        ];
        for rec in &records {
            let text = line(rec);
            let back = Record::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(&back, rec, "{text}");
        }
        // Keys keep the schema table's order.
        assert_eq!(
            line(&records[1]),
            "{\"type\":\"span\",\"id\":3,\"parent\":1,\"thread\":2,\"name\":\"spice.transient\",\
             \"start_ns\":18446744073709551614,\"dur_ns\":6789}"
        );
    }

    #[test]
    fn non_finite_numbers_are_written_as_zero() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = line(&Record::Gauge {
                name: Cow::Borrowed("g"),
                value: v,
            });
            assert_eq!(
                Record::parse(&text),
                Ok(Record::Gauge {
                    name: Cow::Borrowed("g"),
                    value: 0.0
                })
            );
        }
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
            "{\"type\":\"meta\",\"schema\":2,\"mode\":\"jsonl\"}", // future schema
            "{\"type\":\"hist_bucket\",\"name\":\"h\",\"lo\":2,\"hi\":1,\"count\":1}",
        ] {
            assert!(Record::parse(bad).is_err(), "accepted bad line: {bad}");
        }
    }
}
