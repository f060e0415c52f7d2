//! Renders a JSONL trace journal as a self-time-sorted span tree plus metric
//! tables (`pi obs-report`), and implements the strict `--check` mode used by
//! `scripts/verify.sh`: every line must validate against the schema and the
//! main-thread root spans must account for the recorded wall clock to within
//! a configurable tolerance.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::journal;
use crate::json::Json;

/// Relative tolerance for the wall-clock accounting check: the summed
/// duration of main-thread root spans must be within this fraction of the
/// `finish` record's `wall_ns`.
pub const WALL_CLOCK_TOLERANCE: f64 = 0.05;

/// Absolute slack for the wall-clock accounting check. Every run pays a
/// small fixed cost outside any span (TLS setup, journal-line formatting,
/// process teardown) that does not scale with run length; without this
/// floor, sub-millisecond runs would fail the ±5 % relative bound on
/// overhead that is irrelevant at profiling scale.
pub const WALL_CLOCK_SLACK_NS: u64 = 100_000;

#[derive(Clone, Debug)]
struct SpanRec {
    id: u64,
    parent: u64,
    thread: u64,
    name: String,
    dur_ns: u64,
}

#[derive(Default)]
struct Journal {
    spans: Vec<SpanRec>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hist_buckets: Vec<(String, f64, f64, u64)>,
    samples: HashMap<String, Vec<(f64, f64)>>,
    sample_order: Vec<String>,
    warns: Vec<(String, String)>,
    finish: Option<(u64, u64)>, // (wall_ns, thread)
}

fn get_u64(rec: &Json, key: &str) -> u64 {
    get_f64(rec, key) as u64
}

fn get_f64(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn get_str(rec: &Json, key: &str) -> String {
    rec.get(key)
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut j = Journal::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = journal::check_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match get_str(&rec, "type").as_str() {
            "span" => j.spans.push(SpanRec {
                id: get_u64(&rec, "id"),
                parent: get_u64(&rec, "parent"),
                thread: get_u64(&rec, "thread"),
                name: get_str(&rec, "name"),
                dur_ns: get_u64(&rec, "dur_ns"),
            }),
            "counter" => j
                .counters
                .push((get_str(&rec, "name"), get_u64(&rec, "value"))),
            "gauge" => j
                .gauges
                .push((get_str(&rec, "name"), get_f64(&rec, "value"))),
            "hist_bucket" => j.hist_buckets.push((
                get_str(&rec, "name"),
                get_f64(&rec, "lo"),
                get_f64(&rec, "hi"),
                get_u64(&rec, "count"),
            )),
            "sample" => {
                let name = get_str(&rec, "name");
                if !j.samples.contains_key(&name) {
                    j.sample_order.push(name.clone());
                }
                j.samples
                    .entry(name)
                    .or_default()
                    .push((get_f64(&rec, "x"), get_f64(&rec, "y")));
            }
            "warn" => j.warns.push((get_str(&rec, "name"), get_str(&rec, "msg"))),
            "finish" => j.finish = Some((get_u64(&rec, "wall_ns"), get_u64(&rec, "thread"))),
            _ => {} // meta
        }
    }
    Ok(j)
}

/// Formats nanoseconds with an adaptive unit, e.g. `1.234ms`.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

// ---------------------------------------------------------------------------
// Span tree aggregation
// ---------------------------------------------------------------------------

struct TreeNode {
    name: String,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    children: Vec<TreeNode>,
}

/// Groups the given span ids by name, recursing into their children, so
/// repeated call sites collapse into one row per (path, name).
fn group_spans(
    ids: &[u64],
    by_id: &HashMap<u64, &SpanRec>,
    children: &HashMap<u64, Vec<u64>>,
    child_sum: &HashMap<u64, u64>,
) -> Vec<TreeNode> {
    let mut by_name: Vec<(String, Vec<u64>)> = Vec::new();
    for &id in ids {
        let name = &by_id[&id].name;
        match by_name.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(id),
            None => by_name.push((name.clone(), vec![id])),
        }
    }
    let mut nodes: Vec<TreeNode> = by_name
        .into_iter()
        .map(|(name, ids)| {
            let mut count = 0;
            let mut total_ns = 0u64;
            let mut self_ns = 0u64;
            let mut child_ids: Vec<u64> = Vec::new();
            for id in &ids {
                let s = by_id[id];
                count += 1;
                total_ns += s.dur_ns;
                let c = child_sum.get(id).copied().unwrap_or(0);
                self_ns += s.dur_ns.saturating_sub(c);
                if let Some(cs) = children.get(id) {
                    child_ids.extend_from_slice(cs);
                }
            }
            TreeNode {
                name,
                count,
                total_ns,
                self_ns,
                children: group_spans(&child_ids, by_id, children, child_sum),
            }
        })
        .collect();
    nodes.sort_by_key(|n| std::cmp::Reverse(n.self_ns));
    nodes
}

fn render_tree(out: &mut String, nodes: &[TreeNode], depth: usize) {
    for n in nodes {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", n.name);
        let _ = writeln!(
            out,
            "  {label:<44} {:>8} {:>12} {:>12}",
            n.count,
            fmt_ns(n.total_ns),
            fmt_ns(n.self_ns)
        );
        render_tree(out, &n.children, depth + 1);
    }
}

/// Per-journal analysis shared by [`render`] and [`check`].
struct Analysis {
    main_roots: Vec<u64>,
    worker_roots: Vec<u64>,
    root_total_ns: u64,
    wall_ns: Option<u64>,
}

fn analyze(j: &Journal) -> Analysis {
    let finish_thread = j.finish.map(|(_, t)| t);
    let mut main_roots = Vec::new();
    let mut worker_roots = Vec::new();
    for s in &j.spans {
        if s.parent == 0 {
            // With no finish record, treat the first span's thread as main.
            let main_thread =
                finish_thread.unwrap_or_else(|| j.spans.first().map_or(0, |f| f.thread));
            if s.thread == main_thread {
                main_roots.push(s.id);
            } else {
                worker_roots.push(s.id);
            }
        }
    }
    let by_id: HashMap<u64, &SpanRec> = j.spans.iter().map(|s| (s.id, s)).collect();
    let root_total_ns = main_roots.iter().map(|id| by_id[id].dur_ns).sum();
    Analysis {
        main_roots,
        worker_roots,
        root_total_ns,
        wall_ns: j.finish.map(|(w, _)| w),
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Renders a journal as a human-readable report: span tree (main-thread
/// roots first, worker-thread roots under `[workers]`), then counter, gauge,
/// histogram, sample, and warning tables.
pub fn render(text: &str) -> Result<String, String> {
    let j = parse_journal(text)?;
    let a = analyze(&j);
    let by_id: HashMap<u64, &SpanRec> = j.spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in &j.spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(s.id);
            *child_sum.entry(s.parent).or_insert(0) += s.dur_ns;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== pi-obs report ==");
    if !j.spans.is_empty() {
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>12} {:>12}",
            "span", "count", "total", "self"
        );
        render_tree(
            &mut out,
            &group_spans(&a.main_roots, &by_id, &children, &child_sum),
            0,
        );
        if !a.worker_roots.is_empty() {
            let worker_total: u64 = a.worker_roots.iter().map(|id| by_id[id].dur_ns).sum();
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>12} {:>12}",
                "[workers]",
                a.worker_roots.len(),
                fmt_ns(worker_total),
                ""
            );
            render_tree(
                &mut out,
                &group_spans(&a.worker_roots, &by_id, &children, &child_sum),
                1,
            );
        }
        if let Some(wall) = a.wall_ns {
            let cover = if wall > 0 {
                100.0 * a.root_total_ns as f64 / wall as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  wall clock {}; main-thread roots cover {:.1}%",
                fmt_ns(wall),
                cover
            );
        }
    }
    if !j.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &j.counters {
            let _ = writeln!(out, "  {name:<44} {v:>14}");
        }
    }
    if !j.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &j.gauges {
            let _ = writeln!(out, "  {name:<44} {v:>14.6}");
        }
    }
    if !j.hist_buckets.is_empty() {
        let _ = writeln!(out, "histograms:");
        let mut last = "";
        for (name, lo, hi, count) in &j.hist_buckets {
            if name != last {
                let group: Vec<(f64, f64, u64)> = j
                    .hist_buckets
                    .iter()
                    .filter(|(n, _, _, _)| n == name)
                    .map(|(_, lo, hi, c)| (*lo, *hi, *c))
                    .collect();
                let n: u64 = group.iter().map(|b| b.2).sum();
                let _ = writeln!(
                    out,
                    "  {name}:  n {n}  p50 ~{:.3}  p99 ~{:.3}",
                    bucket_quantile(&group, 0.50),
                    bucket_quantile(&group, 0.99)
                );
                last = name;
            }
            let _ = writeln!(out, "    [{lo:>12.6}, {hi:>12.6})  {count:>10}");
        }
    }
    if !j.samples.is_empty() {
        let _ = writeln!(out, "samples:");
        for name in &j.sample_order {
            let pts = &j.samples[name];
            let first = pts.first().copied().unwrap_or((0.0, 0.0));
            let last = pts.last().copied().unwrap_or((0.0, 0.0));
            let _ = writeln!(
                out,
                "  {name:<36} n {:>6}  first ({:.4}, {:.6})  last ({:.4}, {:.6})",
                pts.len(),
                first.0,
                first.1,
                last.0,
                last.1
            );
        }
    }
    if !j.warns.is_empty() {
        let _ = writeln!(out, "warnings:");
        for (name, msg) in &j.warns {
            let _ = writeln!(out, "  [{name}] {msg}");
        }
    }
    Ok(out)
}

/// Approximate quantile over journaled `(lo, hi, count)` buckets (ascending
/// value order, as the journal emits them): geometric midpoint of the bucket
/// containing the q-th value, 0 for the underflow bucket or empty input.
fn bucket_quantile(buckets: &[(f64, f64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.2).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (lo, hi, c) in buckets {
        seen += c;
        if seen >= target {
            if *hi <= 0.0 {
                return 0.0;
            }
            return (lo * hi).sqrt();
        }
    }
    0.0
}

/// Strict validation: every line checks against the schema, a `finish`
/// record must be present, and the main-thread root spans (if any) must
/// account for wall clock to within [`WALL_CLOCK_TOLERANCE`].
pub fn check(text: &str) -> Result<(), String> {
    let j = parse_journal(text)?;
    let (wall_ns, _) = j
        .finish
        .ok_or_else(|| "journal has no finish record".to_string())?;
    let a = analyze(&j);
    if !a.main_roots.is_empty() && wall_ns > 0 {
        let cover = a.root_total_ns as f64 / wall_ns as f64;
        let gap_ns = wall_ns.abs_diff(a.root_total_ns);
        if (cover - 1.0).abs() > WALL_CLOCK_TOLERANCE && gap_ns > WALL_CLOCK_SLACK_NS {
            return Err(format!(
                "main-thread root spans cover {:.1}% of wall clock ({} of {}); \
                 outside ±{:.0}% tolerance (and {} absolute slack)",
                cover * 100.0,
                fmt_ns(a.root_total_ns),
                fmt_ns(wall_ns),
                WALL_CLOCK_TOLERANCE * 100.0,
                fmt_ns(WALL_CLOCK_SLACK_NS)
            ));
        }
    }
    Ok(())
}

/// Per-span-name flat rows: `(name, call count, self-time ns)`.
type FlatSpans = Vec<(String, u64, u64)>;

/// Per-name flat aggregation used by [`diff`]: self-time (duration minus
/// direct children) and call count per span name, plus summed counters.
fn flat_profile(j: &Journal) -> (FlatSpans, Vec<(String, u64)>) {
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    let ids: HashMap<u64, ()> = j.spans.iter().map(|s| (s.id, ())).collect();
    for s in &j.spans {
        if s.parent != 0 && ids.contains_key(&s.parent) {
            *child_sum.entry(s.parent).or_insert(0) += s.dur_ns;
        }
    }
    let mut spans: Vec<(String, u64, u64)> = Vec::new();
    for s in &j.spans {
        let self_ns = s
            .dur_ns
            .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
        match spans.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += self_ns;
            }
            None => spans.push((s.name.clone(), 1, self_ns)),
        }
    }
    let mut counters: Vec<(String, u64)> = Vec::new();
    for (name, v) in &j.counters {
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += v,
            None => counters.push((name.clone(), *v)),
        }
    }
    (spans, counters)
}

/// Formats a signed nanosecond delta with an adaptive unit, e.g. `-1.2ms`.
fn fmt_ns_delta(delta: i128) -> String {
    let sign = if delta < 0 { "-" } else { "+" };
    format!("{sign}{}", fmt_ns(delta.unsigned_abs() as u64))
}

/// Diffs two journals (`pi obs-report --diff <a> <b>`): per-span-name
/// self-time deltas and counter deltas, largest absolute change first.
/// Names present in only one journal show with a 0 on the other side, so
/// spans or counters that appear/disappear between runs stand out.
pub fn diff(a: &str, b: &str) -> Result<String, String> {
    let (spans_a, counters_a) = flat_profile(&parse_journal(a).map_err(|e| format!("a: {e}"))?);
    let (spans_b, counters_b) = flat_profile(&parse_journal(b).map_err(|e| format!("b: {e}"))?);

    let mut out = String::new();
    let _ = writeln!(out, "== pi-obs diff (a -> b) ==");

    let mut names: Vec<&str> = spans_a.iter().map(|(n, _, _)| n.as_str()).collect();
    for (n, _, _) in &spans_b {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    let lookup = |spans: &[(String, u64, u64)], name: &str| {
        spans
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0), |&(_, c, t)| (c, t))
    };
    let mut rows: Vec<(String, u64, u64, u64, u64, i128)> = names
        .iter()
        .map(|name| {
            let (ca, ta) = lookup(&spans_a, name);
            let (cb, tb) = lookup(&spans_b, name);
            ((*name).to_string(), ca, ta, cb, tb, tb as i128 - ta as i128)
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.5.abs()));
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "  {:<40} {:>14} {:>14} {:>12} {:>12}",
            "span (self)", "count a->b", "", "a", "b"
        );
        for (name, ca, ta, cb, tb, delta) in &rows {
            let _ = writeln!(
                out,
                "  {name:<40} {:>14} {:>14} {:>12} {:>12}",
                format!("{ca} -> {cb}"),
                fmt_ns_delta(*delta),
                fmt_ns(*ta),
                fmt_ns(*tb)
            );
        }
    }

    let mut cnames: Vec<&str> = counters_a.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &counters_b {
        if !cnames.contains(&n.as_str()) {
            cnames.push(n);
        }
    }
    let clookup = |counters: &[(String, u64)], name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let mut crows: Vec<(String, u64, u64)> = cnames
        .iter()
        .map(|name| {
            (
                (*name).to_string(),
                clookup(&counters_a, name),
                clookup(&counters_b, name),
            )
        })
        .collect();
    crows.sort_by_key(|&(_, va, vb)| std::cmp::Reverse((vb as i128 - va as i128).abs()));
    if !crows.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, va, vb) in &crows {
            let _ = writeln!(
                out,
                "  {name:<40} {:>+14} {:>12} {:>12}",
                *vb as i128 - *va as i128,
                va,
                vb
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_journal() -> String {
        [
            r#"{"type":"meta","schema":1,"mode":"jsonl"}"#,
            r#"{"type":"span","id":2,"parent":1,"thread":1,"name":"spice.transient","start_ns":100,"dur_ns":600}"#,
            r#"{"type":"span","id":3,"parent":1,"thread":1,"name":"spice.transient","start_ns":800,"dur_ns":200}"#,
            r#"{"type":"span","id":4,"parent":0,"thread":2,"name":"core.char_point","start_ns":50,"dur_ns":400}"#,
            r#"{"type":"span","id":1,"parent":0,"thread":1,"name":"pi.report","start_ns":0,"dur_ns":1000}"#,
            r#"{"type":"sample","name":"yield.ci_half_width","x":256,"y":0.04}"#,
            r#"{"type":"sample","name":"yield.ci_half_width","x":1024,"y":0.01}"#,
            r#"{"type":"counter","name":"spice.newton_iters","value":37}"#,
            r#"{"type":"gauge","name":"yield.is_ess","value":811.25}"#,
            r#"{"type":"hist_bucket","name":"spice.lte_shrink","lo":0.25,"hi":0.5,"count":3}"#,
            r#"{"type":"warn","name":"PI_THREADS","msg":"bad value"}"#,
            r#"{"type":"finish","wall_ns":1020,"thread":1}"#,
        ]
        .join("\n")
    }

    #[test]
    fn render_produces_tree_and_tables() {
        let out = render(&synthetic_journal()).unwrap();
        assert!(out.contains("pi.report"), "{out}");
        assert!(out.contains("spice.transient"));
        assert!(out.contains("[workers]"));
        assert!(out.contains("core.char_point"));
        assert!(out.contains("spice.newton_iters"));
        assert!(out.contains("yield.is_ess"));
        assert!(out.contains("spice.lte_shrink"));
        assert!(out.contains("yield.ci_half_width"));
        assert!(out.contains("[PI_THREADS] bad value"));
        // Root covers 1000/1020 = 98.0% of wall; the worker span is excluded.
        assert!(out.contains("98.0%"), "{out}");
    }

    #[test]
    fn check_passes_within_tolerance() {
        check(&synthetic_journal()).unwrap();
    }

    #[test]
    fn check_fails_when_roots_missing_wall() {
        // Millisecond-scale so the gap exceeds both the relative tolerance
        // and the absolute slack floor.
        let bad = [
            r#"{"type":"meta","schema":1,"mode":"jsonl"}"#,
            r#"{"type":"span","id":1,"parent":0,"thread":1,"name":"pi.report","start_ns":0,"dur_ns":500000000}"#,
            r#"{"type":"finish","wall_ns":1020000000,"thread":1}"#,
        ]
        .join("\n");
        let err = check(&bad).unwrap_err();
        assert!(err.contains("wall clock"), "{err}");
    }

    #[test]
    fn check_allows_small_absolute_gap_on_short_runs() {
        // 85% relative coverage, but the gap is 15 µs of fixed overhead —
        // inside the absolute slack, so a short run must not fail.
        let short = [
            r#"{"type":"meta","schema":1,"mode":"jsonl"}"#,
            r#"{"type":"span","id":1,"parent":0,"thread":1,"name":"pi.delay","start_ns":0,"dur_ns":85000}"#,
            r#"{"type":"finish","wall_ns":100000,"thread":1}"#,
        ]
        .join("\n");
        check(&short).unwrap();
    }

    #[test]
    fn check_requires_finish() {
        let no_finish: String = synthetic_journal()
            .lines()
            .filter(|l| !l.contains("finish"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(check(&no_finish).is_err());
    }

    #[test]
    fn check_rejects_malformed_line() {
        let bad = format!("{}\nnot json\n", synthetic_journal());
        assert!(check(&bad).is_err());
    }

    #[test]
    fn diff_reports_span_and_counter_deltas() {
        let before = [
            r#"{"type":"meta","schema":1,"mode":"jsonl"}"#,
            r#"{"type":"span","id":1,"parent":0,"thread":1,"name":"pi.yield","start_ns":0,"dur_ns":1000}"#,
            r#"{"type":"span","id":2,"parent":1,"thread":1,"name":"spice.transient","start_ns":100,"dur_ns":600}"#,
            r#"{"type":"counter","name":"yield.stop_target","value":1}"#,
            r#"{"type":"finish","wall_ns":1020,"thread":1}"#,
        ]
        .join("\n");
        let after = [
            r#"{"type":"meta","schema":1,"mode":"jsonl"}"#,
            r#"{"type":"span","id":1,"parent":0,"thread":1,"name":"pi.yield","start_ns":0,"dur_ns":700}"#,
            r#"{"type":"span","id":2,"parent":1,"thread":1,"name":"spice.transient","start_ns":100,"dur_ns":200}"#,
            r#"{"type":"counter","name":"yield.stop_target","value":3}"#,
            r#"{"type":"counter","name":"yield.surrogate_fallback","value":1}"#,
            r#"{"type":"finish","wall_ns":720,"thread":1}"#,
        ]
        .join("\n");
        let out = diff(&before, &after).unwrap();
        // pi.yield self-time: (1000-600) -> (700-200) = +100ns.
        assert!(out.contains("pi.yield"), "{out}");
        assert!(out.contains("+100ns"), "{out}");
        // spice.transient self-time: 600 -> 200 = -400ns.
        assert!(out.contains("-400ns"), "{out}");
        // Counter delta +2; the counter only in `after` shows its delta too.
        assert!(out.contains("yield.stop_target"), "{out}");
        assert!(out.contains("+2"), "{out}");
        assert!(out.contains("yield.surrogate_fallback"), "{out}");
    }

    #[test]
    fn diff_rejects_a_malformed_side() {
        let good = synthetic_journal();
        let err = diff(&good, "not json").unwrap_err();
        assert!(err.starts_with("b:"), "{err}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(12_345), "12.345us");
        assert_eq!(fmt_ns(12_345_678), "12.346ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.500s");
    }
}
