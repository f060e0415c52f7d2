#!/usr/bin/env bash
# Paired A/B runs of the benchmark: a git revision against this checkout.
#
#   scripts/ab.sh <rev> <workload> <pairs> [seconds]
#   scripts/ab.sh --self-test
#
# Builds <rev> in a git worktree under target/ab/<sha> (kept, so a second
# run reuses its build; `git worktree remove target/ab/<sha>` drops it)
# and this checkout in place, then runs `perfbench/run.sh --workload
# <workload> --seed <i> --seconds <seconds> --trace 0` of both for pair
# i = 1..<pairs>, alternating which side runs first (odd pairs: <rev>
# first). `seconds` defaults to 20.
#
# For every end-to-end metric it prints each side's median [q1, q3]
# (linear interpolation between order statistics), the pairs in which
# this checkout did better (per the metric's `better` in BENCHMARK.json;
# tied pairs are left out), and the exact two-sided sign-test p of that
# count. A metric whose two quartile ranges overlap is "unresolved".
# The raw per-run numbers go to target/ab/<workload>-<sha>.txt.
#
# --self-test checks the statistics on canned numbers and exits.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

# Reads `better <metric> lower|higher` and `run <pair> a|b <metric>
# <value>` lines; prints one summary line per metric (a = <rev>, b = this
# checkout), in first-seen order.
stats() {
    awk '
function sort(x, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = x[i]
        for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]
        x[j + 1] = t
    }
}
# The p-quantile of sorted x[1..n], interpolating between neighbours.
function quantile(x, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return x[n]
    return x[lo] + (h - lo) * (x[lo + 1] - x[lo])
}
# Exact two-sided sign-test p of w wins in n untied pairs.
function sign_p(w, n,    k, c, m, tail) {
    if (n == 0) return 1
    m = w < n - w ? w : n - w
    c = 1
    tail = 0
    for (k = 0; k <= m; k++) {
        tail += c
        c = c * (n - k) / (k + 1)
    }
    tail = 2 * tail / 2 ^ n
    return tail > 1 ? 1 : tail
}
$1 == "better" { better[$2] = $3; next }
$1 == "run" {
    m = $4
    if (!(m in seen)) { seen[m] = 1; order[++metrics] = m }
    val[m, $3, $2] = $5
    if ($2 > pairs[m]) pairs[m] = $2
}
END {
    printf "%-14s %-30s %-30s %-7s %-9s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "better", "sign p", "verdict"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        na = nb = wins = untied = 0
        for (p = 1; p <= pairs[m]; p++) {
            ka = ((m, "a", p) in val)
            kb = ((m, "b", p) in val)
            if (ka) a[++na] = val[m, "a", p]
            if (kb) b[++nb] = val[m, "b", p]
            if (!ka || !kb || val[m, "a", p] == val[m, "b", p]) continue
            untied++
            lower = val[m, "b", p] < val[m, "a", p]
            if (lower == (better[m] != "higher")) wins++
        }
        if (na == 0 || nb == 0) continue
        sort(a, na)
        sort(b, nb)
        a1 = quantile(a, na, 0.25); a2 = quantile(a, na, 0.5); a3 = quantile(a, na, 0.75)
        b1 = quantile(b, nb, 0.25); b2 = quantile(b, nb, 0.5); b3 = quantile(b, nb, 0.75)
        if (b3 < a1 || a3 < b1) {
            verdict = ((b2 < a2) == (better[m] != "higher")) ? "resolved: change better" : "resolved: change worse"
        } else {
            verdict = "unresolved"
        }
        printf "%-14s %-30s %-30s %-7s %-9.4g %s\n", m, sprintf("%.6g [%.6g, %.6g]", a2, a1, a3), sprintf("%.6g [%.6g, %.6g]", b2, b1, b3), wins "/" untied, sign_p(wins, untied), verdict
    }
}'
}

self_test() {
    local got want
    got="$(stats <<'EOF'
better cpu_us lower
better rate higher
run 1 a cpu_us 10
run 1 b cpu_us 9
run 2 a cpu_us 12
run 2 b cpu_us 10
run 3 a cpu_us 11
run 3 b cpu_us 11
run 4 a cpu_us 13
run 4 b cpu_us 12
run 5 a cpu_us 15
run 5 b cpu_us 8
run 1 a rate 1
run 1 b rate 7
run 2 a rate 2
run 2 b rate 8
run 3 a rate 3
run 3 b rate 9
run 4 a rate 4
run 4 b rate 10
run 5 a rate 5
run 5 b rate 11
run 6 a rate 6
run 6 b rate 12
run 7 a rate 3.5
run 7 b rate 2
run 8 a rate 1
run 8 b rate 13
run 9 a rate 2
run 9 b rate 14
run 10 a rate 3
run 10 b rate 15
EOF
)"
    want="$(cat <<'EOF'
metric         base median [q1, q3]           change median [q1, q3]         better  sign p    verdict
cpu_us         12 [11, 13]                    10 [9, 11]                     4/4     0.125     unresolved
rate           3 [2, 3.875]                   10.5 [8.25, 12.75]             9/10    0.02148   resolved: change better
EOF
)"
    if [[ "$got" != "$want" ]]; then
        diff <(echo "$want") <(echo "$got") >&2 || true
        echo "ab.sh self-test: FAILED" >&2
        exit 1
    fi
    # 10 of 10 pairs: p = 2/1024; 0 of 0: nothing to test, p = 1.
    got="$(printf 'run %d a x %d\nrun %d b x %d\n' 1 5 1 1 2 5 2 1 3 5 3 1 4 5 4 1 5 5 5 1 \
        6 5 6 1 7 5 7 1 8 5 8 1 9 5 9 1 10 5 10 1 | stats | awk 'NR == 2 { print $8, $9 }')"
    [[ "$got" == "10/10 0.001953" ]] || { echo "ab.sh self-test: 10/10 gave '$got'" >&2; exit 1; }
    got="$(printf 'run 1 a x 2\nrun 1 b x 2\n' | stats | awk 'NR == 2 { print $8, $9, $10 }')"
    [[ "$got" == "0/0 1 unresolved" ]] || { echo "ab.sh self-test: ties gave '$got'" >&2; exit 1; }
    echo "ab.sh self-test: ok"
}

# `<metric> <value>` per end-to-end metric of perfbench's final JSON
# line, then `failed <n>`, `attempted <n>` and, for a run whose answers
# failed their check, `incorrect 1`.
metrics_of() {
    awk '{
        s = $0
        while (match(s, /"[^"]+": \{"value": [-+0-9.eE]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            v = m; sub(/.*"value": /, "", v)
            print name, v
        }
        if (match($0, /"failed": [0-9]+/)) print "failed", substr($0, RSTART + 10, RLENGTH - 10)
        if (match($0, /"attempted": [0-9]+/)) print "attempted", substr($0, RSTART + 13, RLENGTH - 13)
        if ($0 ~ /"correct": false/) print "incorrect", 1
    }'
}

# `better <metric> lower|higher` for every metric BENCHMARK.json names.
directions() {
    awk '
        /"name":/ { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
        /"better":/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print "better", name, b }
    ' "$root/BENCHMARK.json"
}

if [[ "${1:-}" == "--self-test" ]]; then
    self_test
    exit 0
fi
if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh <rev> <workload> <pairs> [seconds] | --self-test" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seconds="${4:-20}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: <pairs> must be a positive integer" >&2; exit 2; }

sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
base="$root/target/ab/$sha"
if [[ ! -d "$base" ]]; then
    mkdir -p "$root/target/ab"
    git -C "$root" worktree add --detach "$base" "$sha" >&2
fi
raw="$root/target/ab/$workload-$sha.txt"
: >"$raw"

# One run of one side; each side builds into its own target directory.
run_side() {
    env -u CARGO_TARGET_DIR bash "$1/perfbench/run.sh" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace 0 2>>"$raw.log" | tail -n 1
}

echo "building $sha and this checkout" >&2
for side in "$base" "$root"; do
    env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path "$side/Cargo.toml" --bin pi >&2
    env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path "$side/perfbench/Cargo.toml" >&2
done

declare -A failed=([a]=0 [b]=0) attempted=([a]=0 [b]=0) incorrect=([a]=0 [b]=0)
for ((i = 1; i <= pairs; i++)); do
    order="a b"
    ((i % 2 == 0)) && order="b a"
    for s in $order; do
        dir="$base"
        [[ "$s" == b ]] && dir="$root"
        while read -r name value; do
            case "$name" in
                failed) failed[$s]=$((failed[$s] + value)) ;;
                attempted) attempted[$s]=$((attempted[$s] + value)) ;;
                incorrect) incorrect[$s]=$((incorrect[$s] + value)) ;;
                *) echo "run $i $s $name $value" >>"$raw" ;;
            esac
        done < <(run_side "$dir" "$i" | metrics_of)
    done
    echo "pair $i/$pairs done" >&2
done

echo "$workload: base $rev ($sha) vs this checkout, $pairs pairs of ${seconds} s"
{ directions; cat "$raw"; } | stats
echo "failed operations: base ${failed[a]} of ${attempted[a]}, change ${failed[b]} of ${attempted[b]}"
echo "runs failing their answer check: base ${incorrect[a]}, change ${incorrect[b]}"
echo "raw runs: $raw"
