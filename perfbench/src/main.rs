//! `perfbench` — the benchmark of record.
//!
//! ```text
//! perfbench --workload serve_mixed|serve_sizing|noc_yield_flow
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the timed run: end-to-end metrics with no tracing.
//! `--trace 1` is the traced run: per-layer metrics, spans, tracing
//! overhead and the cost ladder. Either way the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`; a
//! failed correctness check exits non-zero with no metrics.
//!
//! The served workloads start `pi serve` from the path in `PERFBENCH_PI`
//! (default `$CARGO_TARGET_DIR/release/pi`). See `README.md` beside this
//! crate for the workloads, metrics and how to run them.

mod child;
mod layers;
mod noc_wl;
mod openloop;
mod serve_wl;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use layers::Metrics;
use serve_wl::{ServeWorkload, SERVE_MIXED, SERVE_SIZING};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "serve_mixed" | "serve_sizing" | "noc_yield_flow"
    ) {
        return Err(format!(
            "unknown workload `{workload}` (serve_mixed, serve_sizing, noc_yield_flow)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn pi_binary() -> PathBuf {
    std::env::var_os("PERFBENCH_PI").map_or_else(
        || {
            std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("target"), PathBuf::from)
                .join("release")
                .join("pi")
        },
        PathBuf::from,
    )
}

/// The final result line.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The gated end-to-end metrics of a timed run. `p99_us`,
/// `capacity_qps` and `fail_frac` are printed above the result line but
/// not gated (see `README.md`).
fn end_to_end(setup_s: f64, p50_us: f64, cpu_us: f64, power_uw: f64) -> Metrics {
    Metrics::from([
        ("setup_s", (setup_s, "s")),
        ("p50_us", (p50_us, "us")),
        ("cpu_us", (cpu_us, "us")),
        ("plan_power_uw", (power_uw, "uW")),
    ])
}

/// Prints the failures and the no-metrics result; the caller exits 1.
fn fail_checks(errors: &[String], attempted: usize, failed: usize) -> ExitCode {
    eprintln!("correctness check failed ({} problems):", errors.len());
    for e in errors.iter().take(20) {
        eprintln!("  {e}");
    }
    println!("{}", result_line(false, attempted, failed, &Metrics::new()));
    ExitCode::from(1)
}

fn timed_serve(args: &Args, wl: &ServeWorkload) -> Result<ExitCode, String> {
    let t = serve_wl::timed(&pi_binary(), wl, args.seed, args.seconds)?;
    let n = &t.nominal;
    if !t.check.errors.is_empty() {
        return Ok(fail_checks(&t.check.errors, n.attempted, n.failed));
    }
    let tail = n.tail.ok_or("too few successes for a tail percentile")?;
    println!(
        "workload {}  seed {}  open loop, Poisson arrivals, {} connections, 1 generator thread",
        wl.name,
        args.seed,
        serve_wl::conns()
    );
    println!(
        "  setup_s       {:>12.4} s     median of {} set-ups (spawn → warm-up done): {:?}",
        stats::median(&t.setups),
        t.setups.len(),
        t.setups
    );
    println!(
        "  p50_us        {:>12.1} us    median of {} slices' medians at {} qps nominal ({} successes; pooled median {:.1})",
        t.p50_us(),
        t.slices.len(),
        wl.nominal_qps,
        tail.n,
        n.p50_us
    );
    println!(
        "  p99_us        {:>12.1} us    p{:.2} of {} successes, {} beyond",
        tail.value,
        tail.q * 100.0,
        tail.n,
        tail.beyond
    );
    println!(
        "  cpu_us        {:>12.2} us    server CPU time per nominal request, median of {} slices",
        t.cpu_us(),
        t.slices.len()
    );
    for (k, s) in t.slices.iter().enumerate() {
        println!(
            "    slice {k}: {} requests, p50 {:.1} us, cpu {:.2} us/request",
            s.requests.len(),
            s.p50_us(),
            s.cpu_us()
        );
    }
    match &t.capacity {
        Ok(c) => println!(
            "  capacity_qps  {:>12.1} 1/s   SLO p99 ≤ {} us, fail ≤ 1%, no backlog; top step {:.0} qps failed{}",
            c.qps,
            wl.slo_us,
            c.top.rate,
            if c.server_bound(wl) {
                ""
            } else {
                " (generator late there: capacity unresolved)"
            }
        ),
        Err(e) => println!("  capacity_qps  unresolved: {e}"),
    }
    println!(
        "  fail_frac     {:>12.6} ratio {} of {} nominal requests failed",
        n.fail_frac(),
        n.failed,
        n.attempted
    );
    println!(
        "  plan_power_uw {:>12.4} uW    mean per-bit power of {} replayed plans",
        t.check.power_uw, t.check.plans
    );
    println!(
        "  gen.late_p99_us {:.1} us at nominal (bound {:.0} us at the top capacity step)",
        n.late_p99_us,
        wl.late_bound_us()
    );
    println!(
        "  check: {} served answers byte-identical to the in-process replay, {} size plans re-verified",
        t.check.compared, t.check.reverified
    );
    println!(
        "  capacity steps:   rate    ok  tries   tail_all_us   fail_frac  backlog  late_p99_us"
    );
    for s in t.capacity.iter().flat_map(|c| &c.steps) {
        println!(
            "    {:>14.1} {:>5} {:>6} {:>13.1} {:>11.4} {:>8} {:>12.1}",
            s.rate,
            s.ok,
            s.attempts,
            s.latency.tail_all.map_or(f64::NAN, |x| x.value),
            s.latency.fail_frac(),
            s.latency.backlog,
            s.latency.late_p99_us
        );
    }
    let m = end_to_end(
        stats::median(&t.setups),
        t.p50_us(),
        t.cpu_us(),
        t.check.power_uw,
    );
    println!("{}", result_line(true, n.attempted, n.failed, &m));
    Ok(ExitCode::SUCCESS)
}

fn timed_noc(args: &Args) -> Result<ExitCode, String> {
    let t = noc_wl::timed(args.seed, args.seconds)?;
    let jobs = t.results.len();
    if !t.errors.is_empty() {
        return Ok(fail_checks(&t.errors, jobs, t.errors.len()));
    }
    let walls: Vec<f64> = t.results.iter().map(|(_, r)| r.wall_s * 1e6).collect();
    let tail = stats::tail(&stats::sorted(&walls)).ok_or("too few jobs for a tail percentile")?;
    let p50 = stats::median(&walls);
    let bit_power = t.results.iter().map(|(_, r)| r.bit_power_uw).sum::<f64>() / jobs as f64;
    println!(
        "workload noc_yield_flow  seed {}  closed loop, one caller, {} rounds of {} jobs",
        args.seed,
        jobs / noc_wl::JOBS.len(),
        noc_wl::JOBS.len()
    );
    println!(
        "  setup_s       {:>12.6} s     median of {} set-ups (models, specs, routers)",
        stats::median(&t.setups),
        t.setups.len()
    );
    println!(
        "  p50_us        {:>12.1} us    median job wall time (job_s {:.4} s), {} jobs",
        p50,
        p50 / 1e6,
        jobs
    );
    println!(
        "  p99_us        {:>12.1} us    p{:.2} of {} jobs, {} beyond",
        tail.value,
        tail.q * 100.0,
        tail.n,
        tail.beyond
    );
    let cpu: Vec<f64> = t.results.iter().map(|(_, r)| r.cpu_s * 1e6).collect();
    println!(
        "  cpu_us        {:>12.1} us    median CPU time of a job, all threads",
        stats::median(&cpu)
    );
    println!(
        "  capacity_qps  {:>12.4} 1/s   jobs per second, one caller",
        jobs as f64 / t.wall_s
    );
    println!(
        "  fail_frac     {:>12.6} ratio 0 of {jobs} jobs failed",
        0.0
    );
    println!(
        "  plan_power_uw {:>12.4} uW    mean per-bit power of the filtered networks' link plans",
        bit_power
    );
    for (k, job) in noc_wl::JOBS.iter().enumerate() {
        let mine: Vec<&noc_wl::JobResult> = t
            .results
            .iter()
            .filter(|(j, _)| *j == k)
            .map(|(_, r)| r)
            .collect();
        let r = mine[0];
        let wall: Vec<f64> = mine.iter().map(|r| r.wall_s).collect();
        println!(
            "  job {:<18} job_s {:.4}  channels {:>3}  yield {:.5} ± {:.5} ({} evals)  noc_power_mw {:.3}",
            job.label(),
            stats::median(&wall),
            r.channels,
            r.yield_fraction,
            r.half_width,
            r.evals,
            r.power_mw
        );
    }
    println!("  check: every network's yield lower bound meets its target");
    let m = end_to_end(
        stats::median(&t.setups),
        p50,
        stats::median(&cpu),
        bit_power,
    );
    println!("{}", result_line(true, jobs, 0, &m));
    Ok(ExitCode::SUCCESS)
}

fn traced(args: &Args) -> Result<ExitCode, String> {
    let t = layers::run(&pi_binary(), &args.workload, args.seed, args.seconds)?;
    println!(
        "traced run: workload {}  seed {}  {} spans written to {}",
        args.workload,
        args.seed,
        t.span_count,
        t.spans_path.display()
    );
    println!("  spans by name:                          count      total_ms       self_ms");
    for (name, st) in &t.by_name {
        println!(
            "    {name:<34} {:>9} {:>13.3} {:>13.3}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }
    println!("  per-layer metrics:");
    for (name, (value, unit)) in &t.metrics {
        println!("    {name:<36} {value:>14.4} {unit}");
    }
    let o = &t.overhead;
    println!(
        "  tracing overhead: {} traced {:.4} − untraced {:.4} = {:.4} {}",
        o.what,
        o.traced,
        o.untraced,
        o.traced - o.untraced,
        o.unit
    );
    println!("  cost ladder (measured vs composed; outside tolerance = finding):");
    for row in &t.ladder {
        println!(
            "    {:<56} measured {:>10.3} {:<2}  composed {:>10.3} {:<2} = {}  ratio {:.3} [{:.2}, {:.2}]{}",
            row.name,
            row.measured,
            row.unit,
            row.composed,
            row.unit,
            row.formula,
            row.ratio(),
            row.tolerance.0,
            row.tolerance.1,
            if row.finding() { "  FINDING" } else { "" }
        );
    }
    println!("{}", result_line(true, t.attempted, t.failed, &t.metrics));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "serve_mixed" => timed_serve(&args, &SERVE_MIXED),
            "serve_sizing" => timed_serve(&args, &SERVE_SIZING),
            _ => timed_noc(&args),
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
