//! Golden wire bytes of the serve protocol.
//!
//! The round-trip tests in `api.rs` and the determinism suite compare the
//! codec only against itself, so a reordered key, a renamed field, a
//! changed number spelling or a reworded decode error would pass them.
//! This file pins the exact rendered body of every request and response
//! type, and the exact text of every kind of decode error, as literals.

use pi_serve::api::{
    ApiRequest, ApiResponse, EvalRequest, EvalResponse, NetYieldRequest, NetYieldResponse,
    SizeRequest, SizeResponse, YieldRequest, YieldResponse,
};
use pi_serve::json::parse;

fn body(request: &ApiRequest) -> String {
    request.to_json().render()
}

fn response(response: &ApiResponse) -> String {
    response.to_json().render()
}

/// Renders `request`, checks the bytes, and checks that decoding them from
/// the request's own path gives the request back.
fn pin_request(request: ApiRequest, path: &str, golden: &str) {
    assert_eq!(request.path(), path);
    assert_eq!(body(&request), golden);
    let back = ApiRequest::from_path_body(path, golden).expect("golden body decodes");
    assert_eq!(back, request);
    assert_eq!(body(&back), golden);
}

#[test]
fn fully_populated_requests_render_exactly() {
    pin_request(
        ApiRequest::Eval(EvalRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            count: Some(12),
            wn_um: Some(0.3),
            corner: Some("ss".to_owned()),
        }),
        "/v1/eval",
        r#"{"tech":"65nm","length_mm":5.0,"count":12,"wn_um":0.3,"corner":"ss"}"#,
    );
    pin_request(
        ApiRequest::Yield(YieldRequest {
            tech: "45nm".to_owned(),
            length_mm: 8.25,
            deadline_ps: 600.0,
            estimator: "sobol-scrambled".to_owned(),
            seed: u64::MAX,
            ci_pct: 0.5,
            cv: true,
            rho: Some(0.75),
            regions: Some(4),
            corner: Some("ff".to_owned()),
        }),
        "/v1/yield",
        r#"{"tech":"45nm","length_mm":8.25,"deadline_ps":600.0,"estimator":"sobol-scrambled","seed":18446744073709551615,"ci_pct":0.5,"cv":true,"rho":0.75,"regions":4,"corner":"ff"}"#,
    );
    pin_request(
        ApiRequest::Size(SizeRequest {
            tech: "90nm".to_owned(),
            length_mm: 6.0,
            deadline_ps: 712.5,
            target_yield: 0.99,
            estimator: "importance".to_owned(),
            seed: 7,
            ci_pct: 1e-9,
            gp: true,
            corner: Some("tt".to_owned()),
        }),
        "/v1/size",
        r#"{"tech":"90nm","length_mm":6.0,"deadline_ps":712.5,"target_yield":0.99,"estimator":"importance","seed":7,"ci_pct":0.000000001,"gp":true,"corner":"tt"}"#,
    );
    pin_request(
        ApiRequest::NetYield(NetYieldRequest {
            design: "dvopd".to_owned(),
            tech: "65nm".to_owned(),
            clock_ghz: 2.25,
            estimator: "naive".to_owned(),
            seed: 11,
            ci_pct: 0.25,
        }),
        "/v1/net-yield",
        r#"{"design":"dvopd","tech":"65nm","clock_ghz":2.25,"estimator":"naive","seed":11,"ci_pct":0.25}"#,
    );
}

#[test]
fn minimal_requests_omit_absent_optionals_and_write_false_flags() {
    pin_request(
        ApiRequest::Eval(EvalRequest {
            tech: "65nm".to_owned(),
            length_mm: 1.5,
            count: None,
            wn_um: None,
            corner: None,
        }),
        "/v1/eval",
        r#"{"tech":"65nm","length_mm":1.5}"#,
    );
    pin_request(
        ApiRequest::Yield(YieldRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            deadline_ps: 560.0,
            estimator: "naive".to_owned(),
            seed: 0,
            ci_pct: 2.0,
            cv: false,
            rho: None,
            regions: None,
            corner: None,
        }),
        "/v1/yield",
        r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","seed":0,"ci_pct":2.0,"cv":false}"#,
    );
    pin_request(
        ApiRequest::Size(SizeRequest {
            tech: "65nm".to_owned(),
            length_mm: 5.0,
            deadline_ps: 700.0,
            target_yield: 0.95,
            estimator: "naive".to_owned(),
            seed: 3,
            ci_pct: 1.0,
            gp: false,
            corner: None,
        }),
        "/v1/size",
        r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":700.0,"target_yield":0.95,"estimator":"naive","seed":3,"ci_pct":1.0,"gp":false}"#,
    );
}

#[test]
fn absent_and_null_optionals_decode_alike() {
    // A request may omit a flag or an optional, or send it as `null`.
    let sparse = ApiRequest::from_path_body(
        "/v1/yield",
        r#"{"tech":"65nm","length_mm":5,"deadline_ps":560,"estimator":"naive","seed":0,"ci_pct":2}"#,
    )
    .unwrap();
    let nulls = ApiRequest::from_path_body(
        "/v1/yield",
        r#"{"tech":"65nm","length_mm":5,"deadline_ps":560,"estimator":"naive","seed":0,"ci_pct":2,"cv":null,"rho":null,"regions":null,"corner":null}"#,
    )
    .unwrap();
    assert_eq!(sparse, nulls);
    // Integer tokens in float fields decode to the same value, and the
    // body re-renders with float spellings.
    assert_eq!(
        body(&sparse),
        r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","seed":0,"ci_pct":2.0,"cv":false}"#
    );
}

#[test]
fn responses_render_exactly() {
    let eval = EvalResponse {
        delay_ps: 512.125,
        slew_ps: 40.0,
        count: 9,
        wn_um: 12.5,
    };
    let text = r#"{"delay_ps":512.125,"slew_ps":40.0,"count":9,"wn_um":12.5}"#;
    assert_eq!(response(&ApiResponse::Eval(eval.clone())), text);
    assert_eq!(
        EvalResponse::from_json(&parse(text).unwrap()).unwrap(),
        eval
    );

    let yld = YieldResponse {
        yield_fraction: 0.9875,
        half_width: 1.25e-7,
        evals: 4096,
        method: "sobol-scrambled".to_owned(),
        surrogate_disagreement: 0.0,
    };
    let text = r#"{"yield_fraction":0.9875,"half_width":0.000000125,"evals":4096,"method":"sobol-scrambled","surrogate_disagreement":0.0}"#;
    assert_eq!(response(&ApiResponse::Yield(yld.clone())), text);
    assert_eq!(
        YieldResponse::from_json(&parse(text).unwrap()).unwrap(),
        yld
    );

    let size = SizeResponse {
        count: 14,
        wn_um: 600.0,
        achieved_yield: 1.0,
        steps: 0,
    };
    let text = r#"{"count":14,"wn_um":600.0,"achieved_yield":1.0,"steps":0}"#;
    assert_eq!(response(&ApiResponse::Size(size.clone())), text);
    assert_eq!(
        SizeResponse::from_json(&parse(text).unwrap()).unwrap(),
        size
    );

    let net = NetYieldResponse {
        yield_fraction: 0.5,
        half_width: 0.0125,
        evals: 18_446_744_073_709_551_615,
        channels: 31,
        limiting_channel: 17,
        limiting_yield: 0.96875,
    };
    let text = r#"{"yield_fraction":0.5,"half_width":0.0125,"evals":18446744073709551615,"channels":31,"limiting_channel":17,"limiting_yield":0.96875}"#;
    assert_eq!(response(&ApiResponse::NetYield(net.clone())), text);
    assert_eq!(
        NetYieldResponse::from_json(&parse(text).unwrap()).unwrap(),
        net
    );
}

#[test]
fn errors_render_exactly() {
    let plain = ApiResponse::error(400, "bad \"length\"\n");
    assert_eq!(
        response(&plain),
        r#"{"error":"bad \"length\"\n","status":400}"#
    );
    assert_eq!((plain.status(), plain.retry_after()), (400, None));
    let shed = ApiResponse::overloaded("overloaded", 1);
    assert_eq!(
        response(&shed),
        r#"{"error":"overloaded","status":503,"retry_after_s":1}"#
    );
    assert_eq!((shed.status(), shed.retry_after()), (503, Some(1)));
}

fn request_error(path: &str, body: &str) -> String {
    ApiRequest::from_path_body(path, body)
        .expect_err("rejected")
        .expect("a 400, not a 404")
}

#[test]
fn decode_errors_name_the_field_exactly() {
    const EVAL: &str = "/v1/eval";
    const YIELD: &str = "/v1/yield";
    const SIZE: &str = "/v1/size";
    let yield_body = |extra: &str| {
        format!(
            r#"{{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","seed":1,"ci_pct":1.0{extra}}}"#
        )
    };
    let cases: [(&str, String, &str); 14] = [
        // Missing required fields, one per kind; the first in field order
        // is named.
        (EVAL, r#"{"length_mm":5.0}"#.to_owned(), "missing or non-string field `tech`"),
        (EVAL, r#"{"tech":"65nm"}"#.to_owned(), "missing or non-numeric field `length_mm`"),
        (
            YIELD,
            r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","ci_pct":1.0}"#
                .to_owned(),
            "missing or non-integer field `seed`",
        ),
        // Mistyped required fields, one per kind.
        (EVAL, r#"{"tech":65,"length_mm":5.0}"#.to_owned(), "missing or non-string field `tech`"),
        (
            EVAL,
            r#"{"tech":"65nm","length_mm":"5mm"}"#.to_owned(),
            "missing or non-numeric field `length_mm`",
        ),
        (
            YIELD,
            r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","seed":-1,"ci_pct":1.0}"#
                .to_owned(),
            "missing or non-integer field `seed`",
        ),
        (
            YIELD,
            r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":560.0,"estimator":"naive","seed":1.5,"ci_pct":1.0}"#
                .to_owned(),
            "missing or non-integer field `seed`",
        ),
        // A required field sent as null counts as missing.
        (
            EVAL,
            r#"{"tech":null,"length_mm":5.0}"#.to_owned(),
            "missing or non-string field `tech`",
        ),
        // Mistyped optional fields, one per kind, and a mistyped flag.
        (YIELD, yield_body(r#","rho":"high""#), "non-numeric field `rho`"),
        (YIELD, yield_body(r#","regions":2.5"#), "non-integer field `regions`"),
        (YIELD, yield_body(r#","corner":3"#), "non-string field `corner`"),
        (YIELD, yield_body(r#","cv":"yes""#), "non-boolean field `cv`"),
        (
            SIZE,
            r#"{"tech":"65nm","length_mm":5.0,"deadline_ps":700.0,"target_yield":0.9,"estimator":"naive","seed":1,"ci_pct":1.0,"gp":1}"#
                .to_owned(),
            "non-boolean field `gp`",
        ),
        (EVAL, r#"{"tech":"65nm","length_mm":5.0,"count":-2}"#.to_owned(), "non-integer field `count`"),
    ];
    for (path, body, want) in &cases {
        assert_eq!(&request_error(path, body), want, "{path} {body}");
    }

    // Response decoders use the same rules.
    let err = SizeResponse::from_json(&parse(r#"{"count":1,"wn_um":2.0}"#).unwrap()).unwrap_err();
    assert_eq!(err, "missing or non-numeric field `achieved_yield`");
    let err = YieldResponse::from_json(
        &parse(r#"{"yield_fraction":1.0,"half_width":0.0,"evals":1,"method":7}"#).unwrap(),
    )
    .unwrap_err();
    assert_eq!(err, "missing or non-string field `method`");

    // Routing and body-syntax errors around the field rules.
    assert_eq!(
        request_error(EVAL, "not json"),
        "bad JSON body: bad literal at byte 0"
    );
    assert_eq!(ApiRequest::from_path_body("/v1/stats", "{}"), Err(None));
    assert_eq!(ApiRequest::from_path_body("/v1/nope", "{}"), Err(None));
}
