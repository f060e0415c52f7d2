//! Repo-level performance baseline.
//!
//! Measures the numbers the performance work is judged by and writes
//! them to `BENCH_seed.json` at the workspace root (committed, so later
//! changes can be compared against the machine-annotated baseline):
//!
//! 1. **Table I calibration wall time** over the standard 5×5×5 grid —
//!    the hot path behind `gen_coefficients` and the `table1` binary.
//!    Measured three ways: *serial cold* (`PI_THREADS=1`, characterization
//!    cache off — the pure engine number), *parallel cold* (all host
//!    cores; skipped and reported as `null` when the run is effectively
//!    serial, i.e. one core or `PI_THREADS=1`), and *cached* (cache
//!    primed, every grid point replayed from the characterization cache).
//! 2. **Sign-off runtime** for a 5 mm buffered line, fast
//!    structure-exploiting engine vs the dense fixed-step reference
//!    (`signoff_sparse_ns` / `signoff_dense_ns` / `signoff_speedup`), and
//!    the sign-off vs proposed-model ratio — the Table II "RT" column.
//! 3. **Yield estimators**: line evaluations (and wall time) needed to
//!    reach a ±0.5 % @ 95 % yield confidence interval on the 5 mm / 65 nm
//!    line, naive Monte Carlo vs scrambled-Sobol QMC, plus the
//!    rare-failure tail case (deadline at ~1.25× nominal, ±0.05 % CI)
//!    where mean-shifted importance sampling takes over. The committed
//!    `yield_evals_reduction` field tracks the ≥5× samples-to-target-CI
//!    win of the `pi-yield` engine. `yield_tail_surrogate_*` repeat the
//!    tail case with the surrogate-guided estimator (fitted shift +
//!    analytic control variate), and `yield_cv_variance_ratio` is the
//!    equal-cost variance win of bolting the control variate onto naive
//!    MC. The `yield_corr_*` fields repeat the
//!    moderate-yield case with within-die normals mixed through 2 mm die
//!    regions at rho 0.8: `yield_corr_evals` is the scrambled-Sobol cost
//!    under correlation and `yield_corr_overestimate_pct` is how many
//!    percentage points the flat-independence model overestimates yield.
//!    `normal_cdf_ns` is the mean cost of one standard-normal CDF over a
//!    fixed sweep of x ∈ [−10, 40] (gated ≤ 80 ns: the tabulated `erfc`
//!    is fixed-cost at 25–40 ns, the iterative evaluation it replaced
//!    averaged ~170 ns over this sweep on the same host).
//!
//! 4. **GP sizing**: `gp_size_ns` times one certified GP sizing of the
//!    reference line (posynomial propose, scrambled-Sobol verify);
//!    `gp_vs_ladder_delay_ratio` is the worst GP/ladder nominal-delay
//!    ratio over a 3/5/8 mm sweep at 2 %-tight deadlines (gated ≤ 1.0 —
//!    the verified-GP engine never ships a slower plan than the ladder
//!    it falls back to); `gp_fallback_rate` is the traced fraction of
//!    that sweep plus one impossible deadline that routed through the
//!    ladder fallback; `gp_iterations_mean` is the mean Newton steps per
//!    barrier solve over that traced sweep (gated ≤ 64 — a deterministic
//!    count that catches a stalling barrier without timing noise).
//!
//! 5. **Observability**: `probe_overhead_ns` is the disabled-path cost of
//!    a single pi-obs probe (`PI_OBS` unset — what every untraced run
//!    pays), and the counter-derived workload statistics
//!    (`newton_iters_per_solve`, `step_reject_rate`,
//!    `char_cache_hit_rate`) come from one traced sign-off plus a
//!    clear/prime/replay characterization pair read through
//!    `pi_obs::snapshot()` — they describe solver behaviour, not timing.
//!
//! `calibration_threads` records the thread count the parallel
//! measurement actually used, so a `0.99×` "speedup" can never again be
//! mistaken for a parallelism regression on a single-core runner.

use pi_bench::micro::{emit, fmt_ns, Measurement, Micro};
use pi_core::calibrate::{characterize_grid, CalibrationGrid};
use pi_core::coefficients::builtin;
use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::repeater_model::Transition;
use pi_core::variation::{SizeQuery, VariationModel};
use pi_golden::signoff::{line_delay, line_delay_reference};
use pi_tech::units::Length;
use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method};

fn json_field(out: &mut String, key: &str, value: f64) {
    out.push_str(&format!("  \"{key}\": {value:.1},\n"));
}

/// Disabled-path cost of a single pi-obs probe: one relaxed atomic load
/// plus the early return. Measured with `PI_OBS` unset — the configuration
/// every production run pays — and reported as best-of-reps so scheduler
/// noise cannot inflate the committed bound.
fn probe_overhead_ns() -> f64 {
    std::env::remove_var("PI_OBS");
    pi_obs::reinit_from_env();
    assert!(
        !pi_obs::enabled(),
        "PI_OBS must be off for the overhead probe"
    );
    const N: u64 = 20_000_000;
    for _ in 0..1_000 {
        pi_obs::counter_add("bench.probe", std::hint::black_box(1));
    }
    (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..N {
                pi_obs::counter_add("bench.probe", std::hint::black_box(1));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Mean cost of one `normal_cdf` — the primitive every analytic yield
/// closure evaluates per channel per quadrature node — over a fixed
/// 4096-point sweep of x ∈ [−10, 40], which covers the power series, the
/// tabulated tail and the exact-zero region. Best of 15 repeats, after a
/// warm-up pass that seeds the table.
fn normal_cdf_ns() -> f64 {
    const POINTS: usize = 4096;
    let xs: Vec<f64> = (0..POINTS)
        .map(|i| -10.0 + 50.0 * i as f64 / (POINTS - 1) as f64)
        .collect();
    let sweep = || {
        let t = std::time::Instant::now();
        let mut acc = 0.0;
        for &x in &xs {
            acc += pi_rt::norm::normal_cdf(std::hint::black_box(x));
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64 / POINTS as f64
    };
    sweep();
    (0..15).map(|_| sweep()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Honor an outer PI_THREADS cap when deciding how parallel the
    // "parallel" measurement can actually be.
    let parallel_threads = std::env::var("PI_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(cores, |n| n.clamp(1, cores));
    let tech = Technology::new(TechNode::N65);
    let grid = CalibrationGrid::standard();

    let characterize = || {
        characterize_grid(&tech, RepeaterKind::Inverter, Transition::Fall, &grid)
            .expect("characterization grid")
    };

    // Cold engine numbers: the characterization cache would otherwise
    // replay every trial after the first and measure a HashMap, not the
    // solver.
    std::env::set_var("PI_CHAR_CACHE", "off");
    std::env::set_var("PI_THREADS", "1");
    let serial = Micro::slow().run("calibration_grid_serial", characterize);
    let parallel: Option<Measurement> = if parallel_threads > 1 {
        std::env::set_var("PI_THREADS", parallel_threads.to_string());
        Some(Micro::slow().run("calibration_grid_parallel", characterize))
    } else {
        None
    };
    std::env::remove_var("PI_THREADS");

    // Warm-cache number: prime once, then every grid point replays.
    std::env::set_var("PI_CHAR_CACHE", "on");
    pi_core::char_cache::clear();
    characterize();
    let cached = Micro::slow().run("calibration_grid_cached", characterize);
    std::env::remove_var("PI_CHAR_CACHE");
    let speedup = parallel.as_ref().map(|p| serial.median_ns / p.median_ns);

    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);
    let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
    let plan = BufferingPlan {
        kind: RepeaterKind::Inverter,
        count: 8,
        wn: Length::um(6.0),
        staggered: false,
    };
    let model = Micro::default().run("proposed_model_line_delay_5mm", || {
        evaluator.timing(&spec, &plan).delay
    });
    let golden = Micro::slow().run("golden_line_delay_5mm", || {
        line_delay(&tech, &spec, &plan).expect("sign-off").delay
    });
    let dense = Micro::slow().run("golden_line_delay_5mm_reference", || {
        line_delay_reference(&tech, &spec, &plan)
            .expect("sign-off")
            .delay
    });
    let ratio = golden.median_ns / model.median_ns;
    let signoff_speedup = dense.median_ns / golden.median_ns;

    // Yield-estimator group: evaluations to a fixed CI on the same 5 mm
    // line. Moderate-yield case (deadline 5% over nominal) for the QMC
    // win; rare-failure case (25% over nominal, ~0.1% fail) for the
    // importance-sampling win.
    let variation = VariationModel::nominal();
    let nominal = evaluator.timing(&spec, &plan).delay;
    let deadline = nominal * 1.05;
    let run_estimate = |method: Method, hw: f64, deadline| {
        evaluator.timing_yield_estimate(
            &spec,
            &plan,
            &variation,
            deadline,
            &EstimatorConfig::new(method).with_target_half_width(hw),
        )
    };
    let naive_est = run_estimate(Method::Naive, 5e-3, deadline);
    let rqmc_est = run_estimate(Method::SobolScrambled, 5e-3, deadline);
    let yield_reduction = naive_est.evals as f64 / rqmc_est.evals as f64;
    let yield_naive = Micro::default().run("yield_naive_to_ci_5mm", || {
        run_estimate(Method::Naive, 5e-3, deadline)
    });
    let yield_rqmc = Micro::default().run("yield_rqmc_to_ci_5mm", || {
        run_estimate(Method::SobolScrambled, 5e-3, deadline)
    });

    let tail_deadline = nominal * 1.25;
    let tail_naive = run_estimate(Method::Naive, 5e-4, tail_deadline);
    let tail_is = run_estimate(Method::ImportanceSampling, 5e-4, tail_deadline);
    let tail_reduction = tail_naive.evals as f64 / tail_is.evals as f64;

    // Surrogate-guided importance sampling on the same tail case: the
    // fitted shift plus the analytic control variate. The CV difference
    // statistic's variance scales with the surrogate disagreement rate
    // rather than the failure rate, so the adaptive run reaches the same
    // ±0.05 % target in far fewer dies than the hand-picked shift.
    let tail_sur = run_estimate(Method::SurrogateIs, 5e-4, tail_deadline);
    let sur_reduction = tail_naive.evals as f64 / tail_sur.evals as f64;

    // Control-variate win on a plain estimator at equal cost: naive MC
    // with and without the CV, both forced to exactly the same die
    // count; the committed ratio is the variance ratio (squared
    // half-width ratio) — how much harder plain MC has to work for the
    // same interval.
    let cv_evals = 4096usize;
    let cv_config = |cv: bool| {
        EstimatorConfig::new(Method::Naive)
            .with_target_half_width(0.0)
            .with_max_evals(cv_evals)
            .with_control_variate(cv)
    };
    let cv_plain =
        evaluator.timing_yield_estimate(&spec, &plan, &variation, deadline, &cv_config(false));
    let cv_on =
        evaluator.timing_yield_estimate(&spec, &plan, &variation, deadline, &cv_config(true));
    assert_eq!(cv_plain.evals, cv_on.evals, "equal-cost CV comparison");
    let cv_variance_ratio = (cv_plain.half_width / cv_on.half_width).powi(2);

    // Spatially correlated case: same line and deadline, WID normals
    // mixed through 2 mm die regions at rho 0.8. The flat-independence
    // estimate (rqmc_est above) overestimates yield — the gap, in
    // percentage points, is the cost of assuming independence.
    let correlated = VariationModel::nominal().with_regional(0.8, Length::mm(2.0));
    let corr_est = evaluator.timing_yield_estimate(
        &spec,
        &plan,
        &correlated,
        deadline,
        &EstimatorConfig::new(Method::SobolScrambled).with_target_half_width(5e-3),
    );
    let corr_overestimate_pct = (rqmc_est.yield_fraction - corr_est.yield_fraction) * 100.0;

    // Observability group. First the disabled-path probe cost (the number
    // every untraced run pays), then counter-derived workload statistics:
    // one traced sign-off plus a clear/prime/replay characterization pair,
    // read back through `pi_obs::snapshot()` rather than timed.
    // Serving path: an in-process `pi serve` (poll event loop, the
    // default) under the pi-load open-loop harness — wire lengths from
    // the Davis wiring distribution. Three runs: the 4-connection mixed
    // load behind the long-standing `serve_*` keys, a 64-connection run
    // at the same offered QPS (`serve_qps_c64` / `serve_p99_us_c64` —
    // the event loop must hold throughput when connections outnumber
    // worker threads 16:1), and an overload sizing burst whose
    // coalescing factor is committed as `size_batch_mean`. Client
    // and server share the host, so these numbers are a conservative
    // single-machine floor.
    use pi_serve::load::{run_load, LoadConfig};
    use pi_serve::{ServeConfig, Server};
    let serve_load = |serve: &ServeConfig, load: &LoadConfig| {
        let mut server = Server::start(serve).expect("bind ephemeral");
        let report = run_load(&LoadConfig {
            addr: server.addr().to_string(),
            ..load.clone()
        })
        .expect("serve load run");
        server.shutdown();
        assert_eq!(report.errors, 0, "serve bench must be error-free");
        report
    };
    let serve_report = serve_load(
        &ServeConfig {
            port: 0,
            ..ServeConfig::default()
        },
        &LoadConfig {
            qps: 2000.0,
            concurrency: 4,
            duration_s: 3.0,
            yield_pct: 10,
            seed: 1,
            tech: "65nm".to_owned(),
            ..LoadConfig::default()
        },
    );
    let serve_c64 = serve_load(
        &ServeConfig {
            port: 0,
            ..ServeConfig::default()
        },
        &LoadConfig {
            qps: 2000.0,
            conns: 64,
            duration_s: 3.0,
            yield_pct: 10,
            seed: 1,
            tech: "65nm".to_owned(),
            ..LoadConfig::default()
        },
    );
    // Sizing burst: 4000 pure /v1/size requests all due at once over 64
    // connections. Batching is adaptive (the batcher drains whatever is
    // queued the moment it is free), so ladders coalesce only behind an
    // in-flight batch. With every request already due, each connection
    // always has its next request queued or in flight, so the coalescing
    // factor is set by the connection count, not by how the offered rate
    // compares with this host's sizing capacity.
    let serve_sizes = serve_load(
        &ServeConfig {
            port: 0,
            ..ServeConfig::default()
        },
        &LoadConfig {
            qps: 1_000_000.0,
            conns: 64,
            duration_s: 0.004,
            yield_pct: 0,
            size_pct: 100,
            seed: 1,
            tech: "65nm".to_owned(),
            ..LoadConfig::default()
        },
    );

    // GP sizing group: the posynomial propose-then-verify engine against
    // the greedy ladder it replaces. Each sweep point starts from a
    // deliberately underpowered plan (1.5 repeaters/mm at 2.4 µm) with a
    // deadline 2% below that plan's nominal delay, so the sizer has real
    // upsizing work to do at every length. `gp_vs_ladder_delay_ratio` is
    // the *worst* GP/ladder nominal-delay ratio over the sweep —
    // committed and gated ≤ 1.0 in verify.sh, since the engine falls
    // back to the ladder rather than ever shipping a slower certified
    // plan — and every GP answer's CI lower bound is asserted against
    // the 0.9 target right here.
    let gp_config = EstimatorConfig::new(Method::SobolScrambled).with_seed(7);
    let gp_query = |mm: f64, tighten: f64| {
        let length = Length::mm(mm);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: (mm * 1.5).ceil() as usize,
            wn: Length::um(2.4),
            staggered: false,
        };
        SizeQuery {
            spec,
            plan: start,
            variation,
            deadline: evaluator.timing(&spec, &start).delay * tighten,
            target_yield: 0.9,
            config: gp_config,
        }
    };
    let mut gp_ratio: f64 = 0.0;
    for mm in [3.0, 5.0, 8.0] {
        let q = gp_query(mm, 0.98);
        let gp = evaluator.size_for_yield_gp_batch(&[q]).remove(0);
        let gp = gp.expect("GP sizing on the reference sweep");
        let ladder = evaluator.size_for_yield_batch(&[q]).remove(0);
        let ladder = ladder.expect("ladder sizing on the reference sweep");
        let est =
            evaluator.timing_yield_estimate(&q.spec, &gp.plan, &variation, q.deadline, &gp_config);
        assert!(
            est.yield_fraction - est.half_width >= 0.9,
            "GP plan at {mm} mm is not certified: CI lower bound {:.4} below target",
            est.yield_fraction - est.half_width
        );
        let ratio = evaluator.timing(&q.spec, &gp.plan).delay.si()
            / evaluator.timing(&q.spec, &ladder.plan).delay.si();
        gp_ratio = gp_ratio.max(ratio);
    }
    let gp_bench_query = gp_query(5.0, 0.98);
    let gp_bench = Micro::default().run("gp_size_5mm", || {
        evaluator
            .size_for_yield_gp_batch(&[gp_bench_query])
            .remove(0)
            .expect("GP sizing")
    });

    let probe_ns = probe_overhead_ns();
    let cdf_ns = normal_cdf_ns();
    std::env::set_var("PI_OBS", "summary");
    pi_obs::reinit_from_env();
    line_delay(&tech, &spec, &plan).expect("traced sign-off");
    std::env::set_var("PI_CHAR_CACHE", "on");
    pi_core::char_cache::clear();
    characterize();
    characterize();
    std::env::remove_var("PI_CHAR_CACHE");
    // GP fallback telemetry: replay the reference sweep under tracing,
    // plus one deliberately impossible deadline (0.4× nominal) that must
    // route through the ladder fallback, and read `gp.fallback` back.
    // The committed rate is the fraction of sweep sizings the
    // verified-GP path handed to the ladder — 0.25 when the three
    // feasible points all verify on a GP proposal.
    let gp_sweep = [(3.0, 0.98), (5.0, 0.98), (8.0, 0.98), (5.0, 0.4)];
    let _ = evaluator.size_for_yield_gp_batch(&gp_sweep.map(|(mm, tighten)| gp_query(mm, tighten)));
    let snap = pi_obs::snapshot();
    let newton_iters_per_solve = snap.counter("spice.newton_iters") as f64
        / snap.counter("spice.newton_solves").max(1) as f64;
    let steps_accepted = snap.counter("spice.steps_accepted") as f64;
    let steps_rejected = snap.counter("spice.steps_rejected") as f64;
    let step_reject_rate = steps_rejected / (steps_accepted + steps_rejected).max(1.0);
    let cache_hits = snap.counter("char_cache.hits") as f64;
    let cache_misses = snap.counter("char_cache.misses") as f64;
    let char_cache_hit_rate = cache_hits / (cache_hits + cache_misses).max(1.0);
    let gp_fallback_rate = snap.counter("gp.fallback") as f64 / gp_sweep.len() as f64;
    // Mean Newton steps per GP solve over the same sweep: a count, so
    // host noise cannot move it, and a stalling barrier shows up here.
    let gp_iterations = &snap.hists["gp.iterations"];
    let gp_iterations_mean = gp_iterations.sum() / gp_iterations.count() as f64;
    std::env::remove_var("PI_OBS");
    pi_obs::reinit_from_env();

    let mut measurements: Vec<Measurement> = vec![serial.clone(), cached.clone()];
    if let Some(p) = &parallel {
        measurements.push(p.clone());
    }
    measurements.extend([
        model.clone(),
        golden.clone(),
        dense.clone(),
        yield_naive.clone(),
        yield_rqmc.clone(),
        gp_bench.clone(),
    ]);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"calibration_threads\": {},\n",
        parallel.as_ref().map_or(1, |_| parallel_threads)
    ));
    json_field(&mut json, "calibration_serial_ns", serial.median_ns);
    json_field(&mut json, "calibration_cached_ns", cached.median_ns);
    match (&parallel, speedup) {
        (Some(p), Some(s)) => {
            json_field(&mut json, "calibration_parallel_ns", p.median_ns);
            json.push_str(&format!("  \"calibration_speedup\": {s:.2},\n"));
        }
        _ => {
            json.push_str("  \"calibration_parallel_ns\": null,\n");
            json.push_str("  \"calibration_speedup\": null,\n");
        }
    }
    json_field(&mut json, "model_eval_ns", model.median_ns);
    json_field(&mut json, "golden_signoff_ns", golden.median_ns);
    json_field(&mut json, "signoff_sparse_ns", golden.median_ns);
    json_field(&mut json, "signoff_dense_ns", dense.median_ns);
    json.push_str(&format!("  \"signoff_speedup\": {signoff_speedup:.2},\n"));
    json.push_str(&format!("  \"signoff_over_model_ratio\": {ratio:.0},\n"));
    json.push_str(&format!("  \"yield_naive_evals\": {},\n", naive_est.evals));
    json.push_str(&format!("  \"yield_rqmc_evals\": {},\n", rqmc_est.evals));
    json.push_str(&format!(
        "  \"yield_evals_reduction\": {yield_reduction:.1},\n"
    ));
    json_field(&mut json, "yield_naive_ns", yield_naive.median_ns);
    json_field(&mut json, "yield_rqmc_ns", yield_rqmc.median_ns);
    json.push_str(&format!(
        "  \"yield_tail_naive_evals\": {},\n",
        tail_naive.evals
    ));
    json.push_str(&format!("  \"yield_tail_is_evals\": {},\n", tail_is.evals));
    json.push_str(&format!(
        "  \"yield_tail_evals_reduction\": {tail_reduction:.1},\n"
    ));
    json.push_str(&format!(
        "  \"yield_tail_surrogate_evals\": {},\n",
        tail_sur.evals
    ));
    json.push_str(&format!(
        "  \"yield_tail_surrogate_reduction\": {sur_reduction:.1},\n"
    ));
    json.push_str(&format!(
        "  \"yield_cv_variance_ratio\": {cv_variance_ratio:.1},\n"
    ));
    json.push_str(&format!("  \"yield_corr_evals\": {},\n", corr_est.evals));
    json.push_str(&format!(
        "  \"yield_corr_overestimate_pct\": {corr_overestimate_pct:.2},\n"
    ));
    json_field(&mut json, "normal_cdf_ns", cdf_ns);
    json.push_str(&format!("  \"probe_overhead_ns\": {probe_ns:.3},\n"));
    json.push_str(&format!(
        "  \"newton_iters_per_solve\": {newton_iters_per_solve:.2},\n"
    ));
    json.push_str(&format!("  \"step_reject_rate\": {step_reject_rate:.4},\n"));
    json.push_str(&format!(
        "  \"char_cache_hit_rate\": {char_cache_hit_rate:.4},\n"
    ));
    json_field(&mut json, "serve_p50_us", serve_report.p50_us);
    json_field(&mut json, "serve_p99_us", serve_report.p99_us);
    json_field(&mut json, "serve_qps", serve_report.qps);
    json.push_str(&format!(
        "  \"serve_batch_mean\": {:.2},\n",
        serve_report.batch_mean
    ));
    json_field(&mut json, "serve_qps_c64", serve_c64.qps);
    json_field(&mut json, "serve_p99_us_c64", serve_c64.p99_us);
    json.push_str(&format!(
        "  \"size_batch_mean\": {:.2},\n",
        serve_sizes.size_batch_mean
    ));
    json_field(&mut json, "gp_size_ns", gp_bench.median_ns);
    json.push_str(&format!("  \"gp_vs_ladder_delay_ratio\": {gp_ratio:.4},\n"));
    json.push_str(&format!("  \"gp_fallback_rate\": {gp_fallback_rate:.4},\n"));
    json.push_str(&format!(
        "  \"gp_iterations_mean\": {gp_iterations_mean:.2},\n"
    ));
    json.push_str(
        "  \"yield_case\": \"5 mm line, deadline 1.05x nominal to +-0.5% @ 95%; tail 1.25x nominal to +-0.05%\",\n",
    );
    json.push_str("  \"grid\": \"standard 5x5x5, N65 inverter fall\",\n");
    json.push_str("  \"line\": \"5 mm SS, 8x 6um inverters, N65\"\n");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_seed.json");
    std::fs::write(path, &json).expect("write BENCH_seed.json");

    emit("repo baseline", &measurements);
    match speedup {
        Some(s) => println!(
            "\ncalibration speedup {s:.2}x on {parallel_threads} thread(s) ({cores} core(s))"
        ),
        None => println!(
            "\ncalibration effectively serial ({cores} core(s)); parallel speedup not measured"
        ),
    }
    println!(
        "sign-off: fast {} vs dense reference {} ({signoff_speedup:.2}x); \
         sign-off/model ratio {ratio:.0}x; cached calibration {}",
        fmt_ns(golden.median_ns),
        fmt_ns(dense.median_ns),
        fmt_ns(cached.median_ns)
    );
    println!(
        "yield to ±0.5%: naive {} evals vs scrambled Sobol {} ({yield_reduction:.1}x fewer); \
         tail ±0.05%: naive {} vs importance {} ({tail_reduction:.1}x)",
        naive_est.evals, rqmc_est.evals, tail_naive.evals, tail_is.evals
    );
    println!(
        "surrogate-guided tail: {} evals ({sur_reduction:.1}x fewer than naive, \
         disagreement {:.3}%); naive+CV at {} evals cuts variance {cv_variance_ratio:.1}x",
        tail_sur.evals,
        100.0 * tail_sur.surrogate_disagreement,
        cv_on.evals
    );
    println!(
        "correlated (rho 0.8, 2 mm regions): {} evals; independence overestimates \
         yield by {corr_overestimate_pct:.2} points; normal_cdf {cdf_ns:.1} ns/call",
        corr_est.evals
    );
    println!(
        "serve: {:.0} qps sustained (p50 {:.0} us, p99 {:.0} us, mean batch {:.2}, \
         plan-cache hit rate {:.1}%)",
        serve_report.qps,
        serve_report.p50_us,
        serve_report.p99_us,
        serve_report.batch_mean,
        100.0 * serve_report.cache_hit_rate
    );
    println!(
        "serve @64 conns: {:.0} qps (p99 {:.0} us); sizing burst coalesces {:.2} \
         ladders per sweep",
        serve_c64.qps, serve_c64.p99_us, serve_sizes.size_batch_mean
    );
    println!(
        "gp sizing: {} per certified 5 mm sizing; worst GP/ladder delay ratio \
         {gp_ratio:.4} over 3/5/8 mm; fallback rate {gp_fallback_rate:.2}; \
         {gp_iterations_mean:.1} Newton steps/solve",
        fmt_ns(gp_bench.median_ns)
    );
    println!(
        "obs: disabled probe {probe_ns:.3} ns; newton {newton_iters_per_solve:.2} iters/solve; \
         step rejects {:.2}%; char cache hit rate {:.1}%\nwrote {path}",
        100.0 * step_reject_rate,
        100.0 * char_cache_hit_rate
    );
}
