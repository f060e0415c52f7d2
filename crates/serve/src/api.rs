//! Typed request/response bodies of the serve protocol, and the table of
//! its endpoints.
//!
//! Every type converts to and from the [`Json`] value tree; the encode →
//! decode round trip is **bit-exact** for every field (u64 seeds included —
//! see the integer/float split in [`crate::json`]), which is what lets the
//! determinism suite compare a served yield estimate against an in-process
//! one without any tolerance.
//!
//! Each wire type is declared once, as a field table in `wire_types!`:
//! the struct, its `to_json` and its `from_json` all come from that one
//! list, so keys go on the wire in declaration order and a new field is
//! one line. How a field of each Rust type is spelled, and whether it may
//! be absent, is stated once, on the private `Field` trait. Each endpoint
//! is one row of the `endpoints!` table: its path, label, latency
//! histogram and shed class ([`Endpoint`]), and its request and response
//! types, which tag the [`ApiRequest`] and [`ApiResponse`] variants.
//!
//! Technology nodes, estimator methods and NoC designs travel as their
//! stable string spellings (`"65nm"`, `"sobol-scrambled"`, `"dvopd"`);
//! they are validated when the request is *executed*, not when it is
//! parsed, so a request body survives the round trip verbatim even if its
//! content is semantically wrong (the execution layer then answers 400).

use crate::json::{parse, Json};

/// How one field type travels on the wire, and whether it may be absent:
///
/// - `String`, `f64` and `u64` are **required**. They are always written,
///   as a string, a float token and an integer token, and a field that is
///   absent, `null` or of another type fails with ``missing or
///   non-{string|numeric|integer} field `k` ``.
/// - `bool` is always written, and reads `false` when absent or `null`; any
///   other value fails with ``non-boolean field `k` ``.
/// - `Option<T>` is omitted when `None`, and reads `None` when absent or
///   `null`; a value that is not a `T` fails with ``non-… field `k` ``.
trait Field: Sized {
    /// The type's name in a decode error (`non-{KIND} field`).
    const KIND: &'static str;

    /// The JSON token of a value.
    fn to_wire(&self) -> Json;

    /// The value a JSON token holds, if it is of this type.
    fn of_wire(v: &Json) -> Option<Self>;

    /// Appends this value as the member `key` (required: always).
    fn put(&self, key: &str, members: &mut Vec<(String, Json)>) {
        members.push((key.to_owned(), self.to_wire()));
    }

    /// Reads the member `key` (required: present and of this type).
    fn read(v: &Json, key: &str) -> Result<Self, String> {
        v.get(key)
            .and_then(Self::of_wire)
            .ok_or_else(|| format!("missing or non-{} field `{key}`", Self::KIND))
    }
}

impl Field for String {
    const KIND: &'static str = "string";
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
    fn of_wire(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl Field for f64 {
    const KIND: &'static str = "numeric";
    fn to_wire(&self) -> Json {
        Json::Num(*self)
    }
    fn of_wire(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for u64 {
    const KIND: &'static str = "integer";
    fn to_wire(&self) -> Json {
        Json::Int(i128::from(*self))
    }
    fn of_wire(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for bool {
    const KIND: &'static str = "boolean";
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn of_wire(v: &Json) -> Option<Self> {
        v.as_bool()
    }
    fn read(v: &Json, key: &str) -> Result<Self, String> {
        Option::read(v, key).map(Option::unwrap_or_default)
    }
}

impl<T: Field> Field for Option<T> {
    const KIND: &'static str = T::KIND;
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    fn of_wire(v: &Json) -> Option<Self> {
        T::of_wire(v).map(Some)
    }
    fn put(&self, key: &str, members: &mut Vec<(String, Json)>) {
        if let Some(x) = self {
            x.put(key, members);
        }
    }
    fn read(v: &Json, key: &str) -> Result<Self, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => T::of_wire(x)
                .map(Some)
                .ok_or_else(|| format!("non-{} field `{key}`", T::KIND)),
        }
    }
}

/// Declares wire types, each from one field table: the struct with its
/// docs, plus a `to_json` and a `from_json` that walk the fields in
/// declaration order through [`Field`].
macro_rules! wire_types {
    ($(
        $(#[$doc:meta])*
        pub struct $name:ident {
            $($(#[$field_doc:meta])* pub $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Encodes to the wire JSON value.
            #[must_use]
            pub fn to_json(&self) -> Json {
                let mut members = Vec::with_capacity([$(stringify!($field)),*].len());
                $(self.$field.put(stringify!($field), &mut members);)*
                Json::Obj(members)
            }

            /// Decodes from the wire JSON value.
            ///
            /// # Errors
            ///
            /// Names the first missing or mistyped field.
            pub fn from_json(v: &Json) -> Result<Self, String> {
                Ok($name {
                    $($field: Field::read(v, stringify!($field))?,)*
                })
            }
        }
    )*};
}

wire_types! {
    /// `POST /v1/eval` — nominal timing of one buffered line. When `count` /
    /// `wn_um` are omitted the server uses its cached delay-optimal plan for
    /// the length (the same plan `pi yield` derives).
    pub struct EvalRequest {
        /// Technology node spelling (`"65nm"`, `"n45"`, `"90"`, …).
        pub tech: String,
        /// Line length, millimeters.
        pub length_mm: f64,
        /// Repeater count override.
        pub count: Option<u64>,
        /// Repeater nMOS width override, micrometers.
        pub wn_um: Option<f64>,
        /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
        pub corner: Option<String>,
    }

    /// Response to [`EvalRequest`].
    pub struct EvalResponse {
        /// Line delay, picoseconds.
        pub delay_ps: f64,
        /// Output slew, picoseconds.
        pub slew_ps: f64,
        /// Repeater count of the evaluated plan.
        pub count: u64,
        /// Repeater nMOS width of the evaluated plan, micrometers.
        pub wn_um: f64,
    }

    /// `POST /v1/yield` — timing yield of a line against a deadline, through a
    /// configurable estimator. Field semantics match the `pi yield` CLI.
    pub struct YieldRequest {
        /// Technology node spelling.
        pub tech: String,
        /// Line length, millimeters.
        pub length_mm: f64,
        /// Timing deadline, picoseconds.
        pub deadline_ps: f64,
        /// Estimator name (`"naive"`, `"sobol-scrambled"`, …).
        pub estimator: String,
        /// Base RNG seed (full u64 range survives the JSON round trip).
        pub seed: u64,
        /// Confidence-interval half-width target, percent yield.
        pub ci_pct: f64,
        /// Opt into the analytic control variate.
        pub cv: bool,
        /// Regional within-die correlation coefficient.
        pub rho: Option<f64>,
        /// Number of equal correlation regions along the line (with `rho`).
        pub regions: Option<u64>,
        /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
        pub corner: Option<String>,
    }

    /// Response to [`YieldRequest`].
    pub struct YieldResponse {
        /// Estimated timing yield in `[0, 1]`.
        pub yield_fraction: f64,
        /// CI half-width at 95 %.
        pub half_width: f64,
        /// Line evaluations consumed.
        pub evals: u64,
        /// Estimator that produced the answer (after any fallback).
        pub method: String,
        /// Surrogate disagreement rate (0 when no surrogate ran).
        pub surrogate_disagreement: f64,
    }

    /// `POST /v1/size` — yield-driven sizing: smallest plan on the greedy
    /// upsizing ladder whose yield at the deadline clears `target_yield`.
    pub struct SizeRequest {
        /// Technology node spelling.
        pub tech: String,
        /// Line length, millimeters.
        pub length_mm: f64,
        /// Timing deadline, picoseconds.
        pub deadline_ps: f64,
        /// Yield target in `(0, 1]`.
        pub target_yield: f64,
        /// Estimator name.
        pub estimator: String,
        /// Base RNG seed.
        pub seed: u64,
        /// CI half-width target, percent yield.
        pub ci_pct: f64,
        /// Use the GP joint-sizing engine (posynomial propose, estimator
        /// verify, ladder fallback) instead of the greedy ladder alone.
        pub gp: bool,
        /// Process-corner spelling (`"tt"`, `"ss"`, `"ff"`; omitted = typical).
        pub corner: Option<String>,
    }

    /// Response to [`SizeRequest`].
    pub struct SizeResponse {
        /// Selected repeater count.
        pub count: u64,
        /// Selected repeater width, micrometers.
        pub wn_um: f64,
        /// Point-estimate yield of the selected plan.
        pub achieved_yield: f64,
        /// Upsizing steps taken from the starting plan.
        pub steps: u64,
    }

    /// `POST /v1/net-yield` — whole-network parametric yield of a synthesized
    /// NoC testcase at a clock.
    pub struct NetYieldRequest {
        /// Built-in testcase name (`"dvopd"` or `"vproc"`).
        pub design: String,
        /// Technology node spelling.
        pub tech: String,
        /// Clock frequency, gigahertz.
        pub clock_ghz: f64,
        /// Estimator name.
        pub estimator: String,
        /// Base RNG seed.
        pub seed: u64,
        /// CI half-width target, percent yield.
        pub ci_pct: f64,
    }

    /// Response to [`NetYieldRequest`].
    pub struct NetYieldResponse {
        /// Whole-network yield in `[0, 1]`.
        pub yield_fraction: f64,
        /// CI half-width at 95 %.
        pub half_width: f64,
        /// Problem evaluations consumed.
        pub evals: u64,
        /// Channel count of the synthesized network.
        pub channels: u64,
        /// Index of the yield-limiting channel.
        pub limiting_channel: u64,
        /// Marginal yield of that channel.
        pub limiting_yield: f64,
    }
}

/// Declares the endpoint table, one row per endpoint: [`Endpoint`] with
/// each endpoint's path, label, latency histogram and shed class, and
/// [`ApiRequest`] and [`ApiResponse`] with one variant per endpoint.
macro_rules! endpoints {
    ($(
        $(#[$doc:meta])*
        $variant:ident($request:ident -> $response:ident) =
            $path:literal, $label:literal, $hist:literal, sheddable: $shed:literal;
    )*) => {
        /// The `/v1` API endpoints: the one table of each endpoint's path,
        /// its short label (access log, `pi obs-top`), its end-to-end
        /// latency histogram, and whether admission control may shed it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Endpoint {
            $($(#[$doc])* $variant,)*
        }

        impl Endpoint {
            /// Every endpoint, in table order.
            pub const ALL: [Endpoint; [$($path),*].len()] = [$(Endpoint::$variant),*];

            /// Latency histogram of the requests no endpoint answers:
            /// health, stats, metrics and routing errors.
            pub const OTHER_HIST: &'static str = "serve.endpoint.other_us";

            /// The endpoint at `path`, if any.
            #[must_use]
            pub fn from_path(path: &str) -> Option<Endpoint> {
                Endpoint::ALL.into_iter().find(|e| e.path() == path)
            }

            /// The path requests are posted to.
            #[must_use]
            pub const fn path(self) -> &'static str {
                match self { $(Endpoint::$variant => $path,)* }
            }

            /// Stable short label.
            #[must_use]
            pub const fn label(self) -> &'static str {
                match self { $(Endpoint::$variant => $label,)* }
            }

            /// Name of the end-to-end latency histogram, in microseconds.
            #[must_use]
            pub const fn hist(self) -> &'static str {
                match self { $(Endpoint::$variant => $hist,)* }
            }

            /// Whether the endpoint is expensive enough (an estimator run
            /// or a sizing search) to shed once the queue passes the shed
            /// threshold.
            #[must_use]
            pub const fn sheddable(self) -> bool {
                match self { $(Endpoint::$variant => $shed,)* }
            }
        }

        /// One request of the serve protocol, tagged by endpoint.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ApiRequest {
            $(#[doc = concat!("`POST ", $path, "`.")] $variant($request),)*
        }

        impl ApiRequest {
            /// The endpoint this request is posted to.
            #[must_use]
            pub fn endpoint(&self) -> Endpoint {
                match self { $(ApiRequest::$variant(_) => Endpoint::$variant,)* }
            }

            /// Encodes the request body.
            #[must_use]
            pub fn to_json(&self) -> Json {
                match self { $(ApiRequest::$variant(r) => r.to_json(),)* }
            }

            /// The endpoint path this request is posted to.
            #[must_use]
            pub fn path(&self) -> &'static str {
                self.endpoint().path()
            }

            /// Decodes a request from its endpoint path and raw body text.
            ///
            /// # Errors
            ///
            /// `Err(None)` for an unknown path (→ 404); `Err(Some(msg))`
            /// for a body that does not parse or type-check (→ 400).
            pub fn from_path_body(path: &str, body: &str) -> Result<Self, Option<String>> {
                let endpoint = Endpoint::from_path(path).ok_or(None)?;
                let v = parse(body).map_err(|e| Some(format!("bad JSON body: {e}")))?;
                match endpoint {
                    $(Endpoint::$variant => $request::from_json(&v).map(ApiRequest::$variant),)*
                }
                .map_err(Some)
            }
        }

        /// One response of the serve protocol.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ApiResponse {
            $(#[doc = concat!("Answer to a `POST ", $path, "` request.")] $variant($response),)*
            /// Request-level failure, carried with the HTTP status to answer.
            Error {
                /// HTTP status code (4xx/5xx).
                status: u16,
                /// Human-readable cause.
                message: String,
                /// `Retry-After` header value, seconds (shed/overload 503s only).
                retry_after: Option<u64>,
            },
        }

        impl ApiResponse {
            /// Encodes the response body. An error is `{"error", "status"}`,
            /// plus `retry_after_s` on a shed.
            #[must_use]
            pub fn to_json(&self) -> Json {
                match self {
                    $(ApiResponse::$variant(r) => r.to_json(),)*
                    ApiResponse::Error { status, message, retry_after } => {
                        let mut members = Vec::with_capacity(3);
                        message.put("error", &mut members);
                        u64::from(*status).put("status", &mut members);
                        retry_after.put("retry_after_s", &mut members);
                        Json::Obj(members)
                    }
                }
            }
        }
    };
}

endpoints! {
    /// `POST /v1/eval`: a closed-form model eval.
    Eval(EvalRequest -> EvalResponse) =
        "/v1/eval", "eval", "serve.endpoint.eval_us", sheddable: false;
    /// `POST /v1/yield`: an estimator run.
    Yield(YieldRequest -> YieldResponse) =
        "/v1/yield", "yield", "serve.endpoint.yield_us", sheddable: true;
    /// `POST /v1/size`: a sizing search.
    Size(SizeRequest -> SizeResponse) =
        "/v1/size", "size", "serve.endpoint.size_us", sheddable: true;
    /// `POST /v1/net-yield`: a whole-network estimator run.
    NetYield(NetYieldRequest -> NetYieldResponse) =
        "/v1/net-yield", "net_yield", "serve.endpoint.net_yield_us", sheddable: true;
}

impl ApiResponse {
    /// HTTP status of this response.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ApiResponse::Error { status, .. } => *status,
            _ => 200,
        }
    }

    /// Shorthand for a request-level failure.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        ApiResponse::Error {
            status,
            message: message.into(),
            retry_after: None,
        }
    }

    /// Shorthand for an overload shed: `503` carrying a `Retry-After`.
    #[must_use]
    pub fn overloaded(message: impl Into<String>, retry_after_s: u64) -> Self {
        ApiResponse::Error {
            status: 503,
            message: message.into(),
            retry_after: Some(retry_after_s),
        }
    }

    /// `Retry-After` seconds to attach to the HTTP response, if any.
    #[must_use]
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ApiResponse::Error { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_rt::Rng;

    fn arb_f64(rng: &mut Rng) -> f64 {
        // Realistic magnitudes plus awkward exact values.
        match rng.below(4) {
            0 => rng.random_range(0.0..1.0),
            1 => rng.random_range(1.0..1e4),
            2 => (rng.below(1000) as f64) / 8.0, // exact dyadic
            _ => f64::from_bits(0x3ff0_0000_0000_0000 | rng.next_u64() >> 12),
        }
    }

    fn arb_corner(rng: &mut Rng) -> Option<String> {
        (rng.below(2) == 0).then(|| ["tt", "ss", "ff", "typical"][rng.below(4)].to_owned())
    }

    fn arb_request(rng: &mut Rng) -> ApiRequest {
        let tech = ["65nm", "n45", "90", "130nm"][rng.below(4)].to_owned();
        let est = ["naive", "sobol-scrambled", "importance", "analytic"][rng.below(4)].to_owned();
        match rng.below(4) {
            0 => ApiRequest::Eval(EvalRequest {
                tech,
                length_mm: arb_f64(rng),
                count: (rng.below(2) == 0).then(|| rng.next_u64() % 64),
                wn_um: (rng.below(2) == 0).then(|| arb_f64(rng)),
                corner: arb_corner(rng),
            }),
            1 => ApiRequest::Yield(YieldRequest {
                tech,
                length_mm: arb_f64(rng),
                deadline_ps: arb_f64(rng),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
                cv: rng.below(2) == 0,
                rho: (rng.below(2) == 0).then(|| rng.random_unit()),
                regions: (rng.below(2) == 0).then(|| 1 + rng.next_u64() % 16),
                corner: arb_corner(rng),
            }),
            2 => ApiRequest::Size(SizeRequest {
                tech,
                length_mm: arb_f64(rng),
                deadline_ps: arb_f64(rng),
                target_yield: rng.random_unit(),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
                gp: rng.below(2) == 0,
                corner: arb_corner(rng),
            }),
            _ => ApiRequest::NetYield(NetYieldRequest {
                design: ["dvopd", "vproc"][rng.below(2)].to_owned(),
                tech,
                clock_ghz: arb_f64(rng),
                estimator: est,
                seed: rng.next_u64(),
                ci_pct: arb_f64(rng),
            }),
        }
    }

    fn arb_response(rng: &mut Rng) -> ApiResponse {
        match rng.below(4) {
            0 => ApiResponse::Eval(EvalResponse {
                delay_ps: arb_f64(rng),
                slew_ps: arb_f64(rng),
                count: rng.next_u64() % 64,
                wn_um: arb_f64(rng),
            }),
            1 => ApiResponse::Yield(YieldResponse {
                yield_fraction: rng.random_unit(),
                half_width: arb_f64(rng),
                evals: rng.next_u64() % (1 << 24),
                method: "sobol-scrambled".to_owned(),
                surrogate_disagreement: rng.random_unit(),
            }),
            2 => ApiResponse::Size(SizeResponse {
                count: rng.next_u64() % 64,
                wn_um: arb_f64(rng),
                achieved_yield: rng.random_unit(),
                steps: rng.next_u64() % 32,
            }),
            _ => ApiResponse::NetYield(NetYieldResponse {
                yield_fraction: rng.random_unit(),
                half_width: arb_f64(rng),
                evals: rng.next_u64() % (1 << 24),
                channels: 1 + rng.next_u64() % 128,
                limiting_channel: rng.next_u64() % 128,
                limiting_yield: rng.random_unit(),
            }),
        }
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..500 {
            let req = arb_request(&mut rng);
            let text = req.to_json().render();
            let back = ApiRequest::from_path_body(req.path(), &text).expect("round trip parses");
            assert_eq!(back, req, "{text}");
            // PartialEq on f64 treats -0.0 == 0.0; re-render to pin bits.
            assert_eq!(back.to_json().render(), text);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..500 {
            let resp = arb_response(&mut rng);
            let text = resp.to_json().render();
            let v = parse(&text).unwrap();
            let back = match &resp {
                ApiResponse::Eval(_) => ApiResponse::Eval(EvalResponse::from_json(&v).unwrap()),
                ApiResponse::Yield(_) => ApiResponse::Yield(YieldResponse::from_json(&v).unwrap()),
                ApiResponse::Size(_) => ApiResponse::Size(SizeResponse::from_json(&v).unwrap()),
                ApiResponse::NetYield(_) => {
                    ApiResponse::NetYield(NetYieldResponse::from_json(&v).unwrap())
                }
                ApiResponse::Error { .. } => unreachable!(),
            };
            assert_eq!(back, resp, "{text}");
            assert_eq!(back.to_json().render(), text);
        }
    }

    #[test]
    fn full_seed_range_survives_the_wire() {
        let req = YieldRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            deadline_ps: 600.0,
            estimator: "naive".to_owned(),
            seed: u64::MAX - 3,
            ci_pct: 0.5,
            cv: false,
            rho: None,
            regions: None,
            corner: None,
        };
        let v = parse(&req.to_json().render()).unwrap();
        assert_eq!(YieldRequest::from_json(&v).unwrap().seed, u64::MAX - 3);
    }

    #[test]
    fn overload_errors_carry_retry_after() {
        let shed = ApiResponse::overloaded("queue under pressure", 2);
        assert_eq!(shed.status(), 503);
        assert_eq!(shed.retry_after(), Some(2));
        let text = shed.to_json().render();
        assert!(text.contains("\"retry_after_s\":2"), "{text}");
        // Plain errors stay bare: no header, no body field.
        let plain = ApiResponse::error(400, "bad");
        assert_eq!(plain.retry_after(), None);
        assert!(!plain.to_json().render().contains("retry_after_s"));
    }

    #[test]
    fn missing_fields_name_the_field() {
        let err = YieldRequest::from_json(&parse(r#"{"tech":"65nm"}"#).unwrap()).unwrap_err();
        assert!(err.contains("length_mm"), "{err}");
        let err = ApiRequest::from_path_body("/v1/eval", "not json").unwrap_err();
        assert!(err.unwrap().contains("bad JSON body"));
        assert!(ApiRequest::from_path_body("/v1/nope", "{}")
            .unwrap_err()
            .is_none());
    }
}
