#!/usr/bin/env sh
# Tier-1 verification: everything must pass offline, from a cold checkout,
# with no network access — the workspace has zero external dependencies.
#
# Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --workspace --release --offline

echo "== tests (offline) =="
cargo test -q --workspace --offline

echo "== perf smoke =="
# Build every bench binary, run the repo baseline once, and make sure the
# regenerated BENCH_seed.json carries the expected keys with finite
# values. Catches bench-harness bitrot and a solve stack that silently
# fell back to the slow path (the sign-off speedup keys disappear or go
# non-numeric only when the fast engine is broken).
cargo build -p pi-bench --benches --release --offline
cargo bench -q -p pi-bench --bench baseline --offline
json_value() {
    awk -v pat="\"$1\":" 'index($0, pat) { sub(/^.*: /, ""); sub(/,$/, ""); print; exit }' BENCH_seed.json
}
require_finite() {
    val=$(json_value "$1")
    if [ -z "$val" ]; then
        echo "perf smoke: missing key $1 in BENCH_seed.json"
        exit 1
    fi
    if ! printf '%s' "$val" | grep -Eq '^-?[0-9]+(\.[0-9]+)?$'; then
        echo "perf smoke: key $1 is not a finite number: $val"
        exit 1
    fi
}
require_present() {
    if [ -z "$(json_value "$1")" ]; then
        echo "perf smoke: missing key $1 in BENCH_seed.json"
        exit 1
    fi
}
for key in host_cores calibration_threads calibration_serial_ns \
    calibration_cached_ns model_eval_ns golden_signoff_ns \
    signoff_sparse_ns signoff_dense_ns signoff_speedup \
    signoff_over_model_ratio yield_evals_reduction \
    yield_tail_evals_reduction yield_tail_surrogate_evals \
    yield_tail_surrogate_reduction yield_cv_variance_ratio \
    yield_corr_evals \
    yield_corr_overestimate_pct normal_cdf_ns probe_overhead_ns \
    newton_iters_per_solve step_reject_rate char_cache_hit_rate \
    serve_p50_us serve_p99_us serve_qps serve_batch_mean \
    serve_qps_c64 serve_p99_us_c64 size_batch_mean \
    gp_size_ns gp_vs_ladder_delay_ratio gp_fallback_rate gp_iterations_mean; do
    require_finite "$key"
done
# Legitimately "null" on an effectively-serial host, but must be present.
require_present calibration_parallel_ns
require_present calibration_speedup
# The disabled-path probe is one relaxed atomic load; if it costs more
# than this, instrumentation has leaked onto the fast path.
probe_ns=$(json_value probe_overhead_ns)
if ! awk -v p="$probe_ns" 'BEGIN { exit !(p <= 2.0) }'; then
    echo "perf smoke: probe_overhead_ns $probe_ns exceeds the 2.0 ns disabled-path bound"
    exit 1
fi
# The analytic yield closures evaluate one normal CDF per channel per
# quadrature node. Its erfc is a table lookup plus a fixed Taylor step
# (25-40 ns); a return to the iterative continued fraction reads ~170 ns.
cdf_ns=$(json_value normal_cdf_ns)
if ! awk -v c="$cdf_ns" 'BEGIN { exit !(c <= 80.0) }'; then
    echo "perf smoke: normal_cdf_ns $cdf_ns exceeds the 80 ns fixed-cost bound"
    exit 1
fi
# Surrogate-guided tail estimation must beat naive MC by two orders of
# magnitude on the committed tail case, and the control variate must
# never widen the interval at equal cost.
sur_reduction=$(json_value yield_tail_surrogate_reduction)
if ! awk -v r="$sur_reduction" 'BEGIN { exit !(r >= 100.0) }'; then
    echo "perf smoke: yield_tail_surrogate_reduction $sur_reduction below the 100x bound"
    exit 1
fi
cv_ratio=$(json_value yield_cv_variance_ratio)
if ! awk -v r="$cv_ratio" 'BEGIN { exit !(r >= 1.0) }'; then
    echo "perf smoke: yield_cv_variance_ratio $cv_ratio below 1.0 (CV made things worse)"
    exit 1
fi
# The serving path must sustain four-digit QPS on the committed mixed
# traffic (the bench asserts zero errors before writing the keys), in
# the default event-loop mode, and hold it at a 64-connection fan-out.
serve_qps=$(json_value serve_qps)
if ! awk -v q="$serve_qps" 'BEGIN { exit !(q >= 1000.0) }'; then
    echo "perf smoke: serve_qps $serve_qps below the 1000 QPS bound"
    exit 1
fi
serve_qps_c64=$(json_value serve_qps_c64)
if ! awk -v q="$serve_qps_c64" 'BEGIN { exit !(q >= 1000.0) }'; then
    echo "perf smoke: serve_qps_c64 $serve_qps_c64 below the 1000 QPS bound"
    exit 1
fi
# GP sizing: the bench itself asserts every GP answer's CI lower bound
# clears the 0.9 target (the keys only exist if certification held); the
# committed ratio proves GP never ships a slower plan than the ladder,
# and the sweep must have exercised the ladder fallback at least once.
gp_ratio=$(json_value gp_vs_ladder_delay_ratio)
if ! awk -v r="$gp_ratio" 'BEGIN { exit !(r <= 1.0) }'; then
    echo "perf smoke: gp_vs_ladder_delay_ratio $gp_ratio exceeds 1.0 (GP shipped a slower plan)"
    exit 1
fi
gp_fallback=$(json_value gp_fallback_rate)
if ! awk -v f="$gp_fallback" 'BEGIN { exit !(f > 0.0 && f < 1.0) }'; then
    echo "perf smoke: gp_fallback_rate $gp_fallback outside (0, 1) — fallback path not exercised, or GP never verified"
    exit 1
fi
# The barrier kernel ends a centering step once its Armijo margin drops
# below f64 resolution; a regression to running every step into the
# iteration cap shows up as ~100 mean Newton steps. A count, not a time,
# so host noise cannot flake it.
gp_iters=$(json_value gp_iterations_mean)
if ! awk -v n="$gp_iters" 'BEGIN { exit !(n <= 64.0) }'; then
    echo "perf smoke: gp_iterations_mean $gp_iters exceeds 64 Newton steps per GP solve"
    exit 1
fi
# Coalesced sizing: the overload burst must actually batch ladders behind
# the in-flight batch (batching is adaptive, with no window to lean on).
size_batch_mean=$(json_value size_batch_mean)
if ! awk -v m="$size_batch_mean" 'BEGIN { exit !(m > 1.5) }'; then
    echo "perf smoke: size_batch_mean $size_batch_mean does not clear the 1.5 coalescing bound"
    exit 1
fi
echo "perf smoke: OK (signoff_speedup $(json_value signoff_speedup)x, probe ${probe_ns} ns, surrogate tail ${sur_reduction}x, serve ${serve_qps} qps)"

echo "== observability smoke =="
# Trace a small sign-off plus a yield estimate end to end, then make the
# `obs-report --check` validator prove every journal line matches the
# documented schema and the span tree accounts for the wall clock.
obs_journal=target/verify-obs.jsonl
rm -f "$obs_journal"
PI_OBS="jsonl:$obs_journal" target/release/pi report --tech 65nm \
    --length 4mm --clock 2GHz --full >/dev/null
target/release/pi obs-report "$obs_journal" --check
rm -f "$obs_journal"
PI_OBS="jsonl:$obs_journal" target/release/pi yield --tech 65nm \
    --length 8mm --deadline 600ps --estimator sobol-scrambled >/dev/null
target/release/pi obs-report "$obs_journal" --check
# Spatially correlated yield path (regional WID model).
rm -f "$obs_journal"
PI_OBS="jsonl:$obs_journal" target/release/pi yield --tech 65nm \
    --length 8mm --deadline 600ps --rho 0.5 --regions 4 >/dev/null
target/release/pi obs-report "$obs_journal" --check
# Surrogate-guided importance sampling with the control variate: the
# journal must validate and carry the surrogate trust probes.
rm -f "$obs_journal"
PI_OBS="jsonl:$obs_journal" target/release/pi yield --tech 65nm \
    --length 8mm --deadline 600ps --estimator surrogate-is --cv >/dev/null
target/release/pi obs-report "$obs_journal" --check
if ! grep -q 'yield\.surrogate_disagreement' "$obs_journal"; then
    echo "observability smoke: surrogate journal lacks yield.surrogate_disagreement"
    exit 1
fi
# Yield-aware synthesis filter: the filtered DVOPD network must come out
# meeting the analytic target, with the filter counters in the journal.
rm -f "$obs_journal"
PI_OBS="jsonl:$obs_journal" target/release/pi noc --design dvopd --tech 65nm \
    --clock 2.25GHz --yield-target 0.9 --rho 0.5 >/dev/null
target/release/pi obs-report "$obs_journal" --check
# obs-report --diff: two journals of the same flow must diff cleanly
# (the deltas themselves are timing noise; the contract is that the
# differ parses both sides and renders).
obs_journal_b=target/verify-obs-b.jsonl
rm -f "$obs_journal_b"
PI_OBS="jsonl:$obs_journal_b" target/release/pi noc --design dvopd --tech 65nm \
    --clock 2.25GHz --yield-target 0.9 --rho 0.5 >/dev/null
target/release/pi obs-report --diff "$obs_journal" "$obs_journal_b" >/dev/null
rm -f "$obs_journal" "$obs_journal_b"
echo "observability smoke: OK"

echo "== serve smoke =="
# Start the batched service on an ephemeral port with a traced journal,
# replay a short synthetic burst through pi-load (every response must be
# 200 — pi-load exits nonzero otherwise), prove the journal validates
# with the obs checker, and shut down via SIGTERM — the clean-exit path
# must print the served-requests summary.
serve_journal=target/verify-serve.jsonl
serve_log=target/verify-serve.log
rm -f "$serve_journal" "$serve_log"
PI_OBS="jsonl:$serve_journal" target/release/pi serve --port 0 >"$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$serve_log" 2>/dev/null && break
    sleep 0.1
done
serve_addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$serve_log")
if [ -z "$serve_addr" ]; then
    echo "serve smoke: server did not come up"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
load_json=target/verify-load.json
metrics_post=target/verify-metrics-post.txt
metrics_live=target/verify-metrics-live.txt
rm -f "$load_json" "$metrics_post" "$metrics_live"
target/release/pi-load --addr "$serve_addr" --qps 1000 --duration 2 \
    --concurrency 4 --yield-pct 10 --seed 7 --json >"$load_json"
# Live telemetry, gate 1: right after the burst the 60 s window holds
# exactly that burst, so the served-side p99 from `GET /metrics` must
# agree with the client-side p99 pi-load just measured within 15%
# (histogram buckets are 16 per octave — ~4.4% worst-case quantization;
# the ~2000 samples keep the p99 order statistic itself stable).
target/release/pi obs-top "$serve_addr" --count 1 --raw >"$metrics_post"
p99_load=$(sed -n 's/.*"p99_us":\([0-9.eE+-]*\).*/\1/p' "$load_json")
p99_served=$(awk '$1 == "serve_request_us_p99{window=\"60s\"}" { print $2; exit }' "$metrics_post")
if [ -z "$p99_load" ] || [ -z "$p99_served" ]; then
    echo "serve smoke: missing p99 (client '$p99_load', served '$p99_served')"
    exit 1
fi
if ! awk -v a="$p99_served" -v b="$p99_load" \
    'BEGIN { d = a - b; if (d < 0) d = -d; exit !(b > 0 && d / b <= 0.15) }'; then
    echo "serve smoke: served 60s-window p99 ${p99_served}us disagrees with pi-load p99 ${p99_load}us by more than 15%"
    exit 1
fi
# Live telemetry, gate 2: batching is adaptive, so a job waits in the
# queue only behind an in-flight batch, never on a timer. The burst's
# median queue wait must stay under 250 µs — half the retired 500 µs
# coalescing window — so a fixed wait cannot come back unnoticed.
q50_served=$(awk '$1 == "serve_phase_queue_us_p50{window=\"60s\"}" { print $2; exit }' "$metrics_post")
if ! awk -v q="$q50_served" 'BEGIN { exit !(q != "" && q + 0 <= 250) }'; then
    echo "serve smoke: served 60s-window queue-wait p50 '${q50_served}'us exceeds the 250us bound (a batching wait is back)"
    exit 1
fi
# 64-connection fan-out against the same (event-loop) server: every
# response must still be 200 — connection count alone must never shed
# or fail requests — with some sizing traffic coalescing along the way.
# The burst runs in the background so `/metrics` can be scraped mid-load.
target/release/pi-load --addr "$serve_addr" --qps 800 --duration 2 \
    --conns 64 --yield-pct 5 --size-pct 5 --seed 11 &
load_pid=$!
sleep 1
target/release/pi obs-top "$serve_addr" --count 1 --raw >"$metrics_live"
wait "$load_pid"
# Live telemetry, gate 3: the mid-load exposition must be well-formed
# line by line — legal metric-name charset, numeric values, cumulative
# histogram buckets monotone, and `_count` equal to the +Inf bucket.
if ! awk '
    /^#/ { next }
    NF != 2 { print "serve smoke: malformed exposition line: " $0; bad = 1; next }
    {
        name = $1; sub(/\{.*/, "", name)
        if (name !~ /^[A-Za-z_:][A-Za-z0-9_:]*$/) {
            print "serve smoke: bad metric name: " $0; bad = 1
        }
        if ($2 !~ /^(NaN|[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$/) {
            print "serve smoke: bad sample value: " $0; bad = 1
        }
    }
    $1 ~ /_bucket\{le="/ {
        metric = $1; sub(/_bucket\{.*/, "", metric)
        if (metric != last_metric) { last_cum = -1; last_metric = metric }
        if ($2 + 0 < last_cum + 0) {
            print "serve smoke: non-monotone buckets: " $0; bad = 1
        }
        last_cum = $2
        if (index($1, "le=\"+Inf\"")) inf[metric] = $2
    }
    $1 ~ /_count$/ {
        metric = $1; sub(/_count$/, "", metric)
        count[metric] = $2
    }
    END {
        for (m in count) {
            if (!(m in inf)) {
                print "serve smoke: histogram " m " lacks a +Inf bucket"; bad = 1
            } else if (count[m] != inf[m]) {
                print "serve smoke: histogram " m ": _count " count[m] " != +Inf bucket " inf[m]; bad = 1
            }
        }
        exit bad
    }
' "$metrics_live"; then
    exit 1
fi
# Mid-load the 1 s request rate must be live (nonzero) and the per-phase
# histograms must be present.
rate_1s=$(awk '$1 == "serve_requests_rate{window=\"1s\"}" { print $2; exit }' "$metrics_live")
if ! awk -v r="$rate_1s" 'BEGIN { exit !(r + 0 > 0) }'; then
    echo "serve smoke: mid-load 1s request rate is not live: '$rate_1s'"
    exit 1
fi
for metric in serve_phase_parse_us_bucket serve_phase_queue_us_bucket \
    serve_phase_compute_us_bucket serve_request_us_p50 serve_endpoint_eval_us_p99; do
    if ! grep -q "^$metric" "$metrics_live"; then
        echo "serve smoke: exposition lacks $metric"
        exit 1
    fi
done
rm -f "$load_json" "$metrics_post" "$metrics_live"
kill -TERM "$serve_pid"
wait "$serve_pid"
if ! grep -q 'served .* requests in .* batches' "$serve_log"; then
    echo "serve smoke: SIGTERM did not produce a clean shutdown summary"
    cat "$serve_log"
    exit 1
fi
target/release/pi obs-report "$serve_journal" --check
if ! grep -q 'serve\.batch' "$serve_journal"; then
    echo "serve smoke: journal lacks serve.batch spans"
    exit 1
fi
rm -f "$serve_journal" "$serve_log"
echo "serve smoke: OK"

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (deny warnings) =="
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "== clippy not installed; skipping lint check =="
fi

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail the build, so a removed or renamed
# item cannot leave dangling references in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if cargo fmt --version >/dev/null 2>&1; then
    echo "== rustfmt =="
    cargo fmt --check
else
    echo "== rustfmt not installed; skipping format check =="
fi

echo "verify: OK"
