//! The traced run: per-layer costs measured from outside the program.
//!
//! Every call into a layer's public entry point is wrapped in a
//! benchmark-owned span (see [`crate::trace`]); the program's own
//! counters (`pi_obs`, `/metrics`, `/v1/stats`, the char cache) supply
//! the counts. A workload's stream is replayed in-process twice — once
//! untraced, once traced — and the difference is the tracing overhead.
//! Layers a workload does not exercise are measured on a small fixed
//! probe from the same seed, so every per-layer key is always present.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pi_core::calibrate::{characterize_grid, CalibrationGrid};
use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::variation::{SizeQuery, VariationModel, YieldQuery};
use pi_core::{calibrate, char_cache, Transition, YieldSizing};
use pi_serve::api::{ApiRequest, ApiResponse, EvalResponse, SizeResponse, YieldResponse};
use pi_serve::json::parse;
use pi_serve::store::NodeStore;
use pi_tech::units::{Length, Time};
use pi_tech::{Corner, DesignStyle, RepeaterKind, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method, YieldEstimate};

use crate::noc_wl::{self, Inputs, JOBS};
use crate::openloop;
use crate::serve_wl::{self, ServeWorkload, Stream, SERVE_MIXED, SERVE_SIZING};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Per-layer metrics: name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Size requests in the off-path sizing probe.
const SIZE_PROBE: u64 = 24;
/// Requests in the off-path serve probe (replay and live phase).
const SERVE_PROBE_S: f64 = 2.0;
/// Live nominal-rate stretch of a serve workload's traced run, as a share
/// of the run's seconds.
const LIVE_SHARE: f64 = 1.0 / 3.0;

/// One row of the cost ladder: a measured cost against the product of
/// the layer below it and a count.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// What is composed, e.g. `evals × per-eval → yield estimate`.
    pub name: &'static str,
    /// The composition, spelled out with its numbers.
    pub formula: String,
    /// Measured cost.
    pub measured: f64,
    /// Composed cost.
    pub composed: f64,
    /// Unit of both.
    pub unit: &'static str,
    /// Accepted range of measured / composed.
    pub tolerance: (f64, f64),
}

impl LadderRow {
    /// Measured over composed.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.measured / self.composed
    }

    /// Whether the ratio falls outside the tolerance (a finding).
    #[must_use]
    pub fn finding(&self) -> bool {
        let r = self.ratio();
        !(r >= self.tolerance.0 && r <= self.tolerance.1)
    }
}

/// Tracing overhead: the same replay with and without spans.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// What is compared (`p50_us` of a replayed request, or `job_s`).
    pub what: &'static str,
    /// Untraced value.
    pub untraced: f64,
    /// Traced value.
    pub traced: f64,
    /// Unit of both.
    pub unit: &'static str,
}

/// Everything a traced run reports.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// The cost ladder.
    pub ladder: Vec<LadderRow>,
    /// Tracing overhead.
    pub overhead: Overhead,
    /// Where the spans were written.
    pub spans_path: PathBuf,
    /// How many spans.
    pub span_count: usize,
    /// Span count, total and self time by span name.
    pub by_name: BTreeMap<&'static str, trace::NameStat>,
    /// Units of work replayed or run (requests + jobs).
    pub attempted: usize,
    /// Units that failed.
    pub failed: usize,
}

/// Median ns per call of `f`, over 15 trials of at least 2 ms each.
fn micro_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) {
            break;
        }
        iters *= 2;
    }
    let trials: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&trials)
}

/// Sets `PI_OBS` for this process and re-reads it (resets pi-obs state).
fn obs(on: bool) {
    if on {
        std::env::set_var("PI_OBS", "summary");
    } else {
        std::env::remove_var("PI_OBS");
    }
    pi_obs::reinit_from_env();
}

/// Micro timings that need no workload: the model-eval ladder rungs, the
/// disabled probe, the thread count. Runs with `PI_OBS` off.
fn micro(m: &mut Metrics) {
    obs(false);
    let tech = Technology::new(TechNode::N65);
    let models = pi_core::coefficients::builtin(TechNode::N65);
    let ev = LineEvaluator::new(&models, &tech);
    // The line `BENCH_seed.json`'s `model_eval_ns` was measured on.
    let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
    let plan = BufferingPlan {
        kind: RepeaterKind::Inverter,
        count: 8,
        wn: Length::um(6.0),
        staggered: false,
    };
    let timing = ev.timing(&spec, &plan);
    let stage = timing.stages[1];
    let model = models.repeater(plan.kind);
    let edge = model.edge(stage.transition);
    let load = pi_tech::units::Cap::ff(60.0);
    let stage_ns = micro_ns(|| {
        std::hint::black_box(edge.delay(
            std::hint::black_box(stage.input_slew),
            load,
            plan.wn,
            model.beta_ratio,
        ));
        std::hint::black_box(edge.output_slew(stage.input_slew, load, plan.wn, model.beta_ratio));
    });
    let timing_ns = micro_ns(|| {
        std::hint::black_box(ev.timing(std::hint::black_box(&spec), &plan));
    });
    let items: Vec<(LineSpec, BufferingPlan)> = (1..=64)
        .map(|k| {
            let l = Length::mm(k as f64 * 0.25);
            (
                LineSpec::global(l, DesignStyle::SingleSpacing),
                BufferingPlan {
                    count: 1 + k / 4,
                    ..plan
                },
            )
        })
        .collect();
    let batch_ns = micro_ns(|| {
        std::hint::black_box(ev.timing_batch(std::hint::black_box(&items)));
    }) / items.len() as f64;
    let problem = ev.line_problem(
        &spec,
        &plan,
        &VariationModel::nominal(),
        Time::ps(timing.delay.as_ps() * 1.05),
    );
    let z: Vec<f64> = (0..problem.dimension())
        .map(|i| 0.3 * (i as f64 - 4.0) / 4.0)
        .collect();
    let eval_ns = micro_ns(|| {
        std::hint::black_box(problem.delay_from_normals(std::hint::black_box(&z)));
    });
    let probe_ns = micro_ns(|| {
        for _ in 0..100 {
            pi_obs::counter_add("perfbench.probe", std::hint::black_box(1));
        }
    }) / 100.0;
    m.insert("core.stage_eval_ns", (stage_ns, "ns"));
    m.insert("core.timing_ns", (timing_ns, "ns"));
    m.insert("core.timing_batch_ns", (batch_ns, "ns"));
    m.insert("yield.ns_per_eval", (eval_ns, "ns"));
    m.insert("obs.probe_ns", (probe_ns, "ns"));
    m.insert("rt.threads", (pi_rt::thread_count() as f64, "count"));
}

fn config_of(name: &str, seed: u64, ci_pct: f64, cv: bool) -> EstimatorConfig {
    let method: Method = name.parse().expect("generated estimator names parse");
    EstimatorConfig::new(method)
        .with_seed(seed)
        .with_target_half_width(ci_pct / 100.0)
        .with_control_variate(cv)
}

fn estimate_span(method: Method) -> &'static str {
    match method {
        Method::Analytic => "yield.estimate.analytic",
        Method::SobolScrambled => "yield.estimate.sobol-scrambled",
        _ => "yield.estimate.other",
    }
}

/// What one replayed request did, for the counts and the ladder.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    /// Sizing engine, when a size request: `Some(true)` for GP.
    gp: Option<bool>,
    /// Evaluations and method of the request's estimate (a yield
    /// request's own, or a size answer's re-verification).
    evals: usize,
    method: Option<Method>,
    /// Ladder steps (`sizing.steps`) and GP verify probes spent.
    steps: u64,
    probes: u64,
    /// Whether a GP request fell back to the ladder.
    fallback: bool,
    /// Duration of the re-verifying estimate of a size answer, ns.
    verify_ns: f64,
    ok: bool,
}

/// Replays one request through the layers' public entry points, lowering
/// it the way the executor does; each call gets a span.
fn replay_one(
    store: &NodeStore,
    req: &ApiRequest,
    unit: u64,
    t: &mut Tracer,
) -> (ApiResponse, Option<(SizeQuery, YieldSizing)>) {
    let body = req.to_json().render();
    t.span("request", unit, |t| {
        let parsed = t
            .span("serve.parse", unit, |_| {
                ApiRequest::from_path_body(req.path(), &body)
            })
            .expect("generated requests parse");
        let (tech, corner, length_mm) =
            serve_wl::target(&parsed).expect("streams carry no net-yield requests");
        let ctx = t
            .span("store.context", unit, |_| store.context_for(tech, corner))
            .expect("generated corners resolve");
        let length = Length::mm(length_mm);
        let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
        let plan = t
            .span("store.plan_for", unit, |_| ctx.plan_for(length))
            .expect("grid lengths have plans");
        let ev = ctx.evaluator();
        let mut sized = None;
        let resp = match &parsed {
            ApiRequest::Eval(_) => {
                let timing = t.span("core.timing", unit, |_| ev.timing(&spec, &plan));
                ApiResponse::Eval(EvalResponse {
                    delay_ps: timing.delay.as_ps(),
                    slew_ps: timing.output_slew().as_ps(),
                    count: plan.count as u64,
                    wn_um: plan.wn.as_um(),
                })
            }
            ApiRequest::Yield(r) => {
                let mut variation = VariationModel::nominal();
                if let Some(rho) = r.rho {
                    variation =
                        variation.with_regional(rho, length / r.regions.unwrap_or(4) as f64);
                }
                let config = config_of(&r.estimator, r.seed, r.ci_pct, r.cv);
                let q = YieldQuery {
                    spec,
                    plan,
                    variation,
                    deadline: Time::ps(r.deadline_ps),
                    config,
                };
                let est: YieldEstimate = t.span(estimate_span(config.method), unit, |_| {
                    ev.timing_yield_estimate_batch(&[q]).remove(0)
                });
                ApiResponse::Yield(YieldResponse {
                    yield_fraction: est.yield_fraction,
                    half_width: est.half_width,
                    evals: est.evals as u64,
                    method: est.method.name().to_owned(),
                    surrogate_disagreement: est.surrogate_disagreement,
                })
            }
            ApiRequest::Size(r) => {
                let q = SizeQuery {
                    spec,
                    plan,
                    variation: VariationModel::nominal(),
                    deadline: Time::ps(r.deadline_ps),
                    target_yield: r.target_yield,
                    config: config_of(&r.estimator, r.seed, r.ci_pct, false),
                };
                let result = if r.gp {
                    t.span("core.gp", unit, |_| {
                        ev.size_for_yield_gp_batch(&[q]).remove(0)
                    })
                } else {
                    t.span("core.ladder", unit, |_| {
                        ev.size_for_yield_batch(&[q]).remove(0)
                    })
                };
                match result {
                    Some(s) => {
                        sized = Some((q, s.clone()));
                        ApiResponse::Size(SizeResponse {
                            count: s.plan.count as u64,
                            wn_um: s.plan.wn.as_um(),
                            achieved_yield: s.achieved_yield,
                            steps: s.steps as u64,
                        })
                    }
                    None => ApiResponse::error(400, "no plan reaches the target yield"),
                }
            }
            ApiRequest::NetYield(_) => unreachable!(),
        };
        t.span("serve.render", unit, |_| resp.to_json().render());
        (resp, sized)
    })
}

/// Replays `requests`; returns per-request records and wall times (ns).
fn replay_pass(store: &NodeStore, requests: &[ApiRequest], t: &mut Tracer) -> (Vec<Rec>, Vec<f64>) {
    let mut recs = Vec::with_capacity(requests.len());
    let mut walls = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let unit = i as u64;
        let before = counters();
        let t0 = Instant::now();
        let (resp, sized) = replay_one(store, req, unit, t);
        walls.push(t0.elapsed().as_nanos() as f64);
        let after = counters();
        let mut rec = Rec {
            ok: resp.status() == 200,
            steps: delta(&before, &after, "sizing.steps"),
            probes: delta(&before, &after, "gp.verify_probe"),
            fallback: delta(&before, &after, "gp.fallback") > 0,
            ..Rec::default()
        };
        if let (ApiRequest::Yield(_), ApiResponse::Yield(y)) = (req, &resp) {
            rec.evals = y.evals as usize;
            rec.method = y.method.parse().ok();
        }
        if let ApiRequest::Size(r) = req {
            rec.gp = Some(r.gp);
        }
        if let Some((q, s)) = sized {
            // Re-verify the answer: one estimate of the accepted plan, the
            // per-probe cost the sizing rows of the ladder compose with.
            let ctx = store
                .context_for(serve_wl::TECH, corner_of(req))
                .expect("context resolved during replay");
            let ev = ctx.evaluator();
            let t0 = Instant::now();
            let est = t.span(estimate_span(q.config.method), unit, |_| {
                ev.timing_yield_estimate(&q.spec, &s.plan, &q.variation, q.deadline, &q.config)
            });
            rec.verify_ns = t0.elapsed().as_nanos() as f64;
            rec.evals = est.evals;
            rec.method = Some(est.method);
        }
        recs.push(rec);
    }
    (recs, walls)
}

fn corner_of(req: &ApiRequest) -> Option<&str> {
    serve_wl::target(req).and_then(|(_, corner, _)| corner)
}

fn counters() -> BTreeMap<&'static str, u64> {
    if pi_obs::enabled() {
        pi_obs::snapshot().counters
    } else {
        BTreeMap::new()
    }
}

fn delta(a: &BTreeMap<&'static str, u64>, b: &BTreeMap<&'static str, u64>, name: &str) -> u64 {
    b.get(name).copied().unwrap_or(0) - a.get(name).copied().unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Live figures scraped around a nominal-rate stretch against a server.
#[derive(Debug, Default)]
struct Live {
    p50_us: f64,
    attempted: usize,
    failed: usize,
    batch_mean: f64,
}

/// Runs `seconds` of `wl`'s nominal traffic against a fresh server and
/// records the phase quantiles and batch counters of that stretch.
fn live(
    pi: &Path,
    wl: &ServeWorkload,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
) -> Result<Live, String> {
    let (server, _) = serve_wl::setup(pi, wl)?;
    let scrape = |server: &crate::child::Server| -> Result<(String, pi_serve::json::Json), String> {
        let metrics = server.get("/metrics")?;
        let stats = parse(&server.get("/v1/stats")?)?;
        Ok((metrics, stats))
    };
    let (m0, s0) = scrape(&server)?;
    let phase = Stream::new(*wl, seed).phase(0, wl.nominal_qps, seconds, 0);
    let config = openloop::Config {
        conns: serve_wl::conns(),
        max_pending: serve_wl::MAX_PENDING,
        drain: Duration::from_secs(30),
    };
    let outcomes = openloop::run(server.addr, &phase.shots, &config, &|_| false)
        .map_err(|e| format!("live phase: {e}"))?;
    let (m1, s1) = scrape(&server)?;
    server.shutdown();
    let lat = serve_wl::summarize(&outcomes, wl.slo_us);
    let stat = |s: &pi_serve::json::Json, k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let d = |k: &str| stat(&s1, k) - stat(&s0, k);
    let q = |series: &str, q: f64| serve_wl::phase_quantile(&m0, &m1, series, q);
    m.insert("serve.queue_us.p50", (q("serve_phase_queue_us", 0.5), "us"));
    m.insert(
        "serve.queue_us.p99",
        (q("serve_phase_queue_us", 0.99), "us"),
    );
    m.insert(
        "serve.compute_us.p50",
        (q("serve_phase_compute_us", 0.5), "us"),
    );
    m.insert(
        "serve.compute_us.p99",
        (q("serve_phase_compute_us", 0.99), "us"),
    );
    m.insert("serve.flush_us.p50", (q("serve_phase_flush_us", 0.5), "us"));
    m.insert(
        "serve.server_parse_us.p50",
        (q("serve_phase_parse_us", 0.5), "us"),
    );
    m.insert(
        "serve.server_render_us.p50",
        (q("serve_phase_render_us", 0.5), "us"),
    );
    let batch_mean = ratio(d("batched_jobs"), d("batches"));
    m.insert("serve.batch_mean", (batch_mean, "count"));
    m.insert(
        "serve.size_batch_mean",
        (ratio(d("size_jobs"), d("size_sweeps")), "count"),
    );
    m.insert("serve.shed", (d("shed"), "count"));
    m.insert("serve.queue_hwm", (stat(&s1, "queue_depth_hwm"), "count"));
    m.insert(
        "store.plan_hit_rate",
        (stat(&s1, "plan_cache_hit_rate"), "ratio"),
    );
    m.insert("serve.latency_p50_us", (lat.p50_us, "us"));
    m.insert(
        "serve.latency_p99_us",
        (lat.tail.map_or(f64::NAN, |t| t.value), "us"),
    );
    m.insert("gen.late_p99_us", (lat.late_p99_us, "us"));
    Ok(Live {
        p50_us: lat.p50_us,
        attempted: lat.attempted,
        failed: lat.failed,
        batch_mean,
    })
}

/// First touches on a fresh store: every context the requests name (the
/// warm-up cost, calibrations included) and every distinct plan.
fn cold_touches(store: &NodeStore, requests: &[ApiRequest], m: &mut Metrics) {
    let mut corners: Vec<Option<&str>> = requests.iter().map(corner_of).collect();
    corners.sort_unstable();
    corners.dedup();
    let t0 = Instant::now();
    let contexts: Vec<_> = corners
        .iter()
        .map(|c| {
            store
                .context_for(serve_wl::TECH, *c)
                .expect("corner resolves")
        })
        .collect();
    m.insert("store.warmup_s", (t0.elapsed().as_secs_f64(), "s"));
    let mut misses = Vec::new();
    for (corner, ctx) in corners.iter().zip(&contexts) {
        let mut lengths: Vec<u64> = requests
            .iter()
            .filter(|r| corner_of(r) == *corner)
            .filter_map(|r| serve_wl::target(r).map(|(_, _, mm)| mm.to_bits()))
            .collect();
        lengths.sort_unstable();
        lengths.dedup();
        for bits in lengths {
            let t0 = Instant::now();
            let _ = ctx.plan_for(Length::mm(f64::from_bits(bits)));
            misses.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    m.insert("store.plan_miss_us", (stats::median(&misses), "us"));
}

/// Calibration probe: one cold live calibration at the slow corner (char
/// cache cleared), the grid characterization behind it, and a second
/// calibration that hits the cache.
fn calibration_probe(m: &mut Metrics, t: &mut Tracer) {
    let tech = Technology::with_corner(TechNode::N65, Corner::SlowSlow);
    let grid = CalibrationGrid::standard();
    char_cache::clear();
    let c0 = counters();
    let t0 = Instant::now();
    t.span("core.calibrate", u64::MAX, |_| calibrate(&tech, &grid))
        .expect("calibration");
    let cold_s = t0.elapsed().as_secs_f64();
    let c1 = counters();
    t.span("core.calibrate", u64::MAX, |_| calibrate(&tech, &grid))
        .expect("calibration");
    let cache = char_cache::stats();
    char_cache::clear();
    let t0 = Instant::now();
    t.span("spice.characterize_grid", u64::MAX, |_| {
        characterize_grid(&tech, RepeaterKind::Inverter, Transition::Fall, &grid)
    })
    .expect("characterization");
    let grid_ms = t0.elapsed().as_secs_f64() * 1e3;
    let d = |k: &str| delta(&c0, &c1, k) as f64;
    m.insert("core.calibrate_s", (cold_s, "s"));
    m.insert(
        "core.char_cache_hit_rate",
        (
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
    );
    m.insert("spice.characterize_grid_ms", (grid_ms, "ms"));
    m.insert(
        "spice.transient_solves",
        (d("spice.transient_solves"), "count"),
    );
    m.insert(
        "spice.newton_iters_per_solve",
        (
            ratio(d("spice.newton_iters"), d("spice.newton_solves")),
            "count",
        ),
    );
    m.insert(
        "spice.step_reject_rate",
        (
            ratio(
                d("spice.steps_rejected"),
                d("spice.steps_accepted") + d("spice.steps_rejected"),
            ),
            "ratio",
        ),
    );
}

/// Runs NoC jobs traced, filling the `cosi.*` metrics.
fn noc_jobs(
    seed: u64,
    jobs: &[usize],
    m: &mut Metrics,
    t: &mut Tracer,
    unit_base: u64,
) -> Result<Vec<f64>, String> {
    let inputs = Inputs::build();
    let ev = inputs.evaluator();
    let model = noc_wl::link_model(&ev);
    let c0 = counters();
    let mut walls = Vec::new();
    let (mut synth_s, mut net_yield_s, mut evals) = (0.0, 0.0, 0usize);
    for (k, &j) in jobs.iter().enumerate() {
        let unit = unit_base + k as u64;
        let config = noc_wl::estimator(seed, unit);
        let r = noc_wl::run_job(&inputs, &ev, &model, &JOBS[j], &config, unit, t)?;
        if let Some(e) = noc_wl::check(&JOBS[j], &r) {
            return Err(e);
        }
        walls.push(r.wall_s);
        synth_s += r.synth_s;
        net_yield_s += r.net_yield_s;
        evals += r.evals;
    }
    let c1 = counters();
    let n = jobs.len() as f64;
    m.insert("cosi.synthesize_s", (synth_s / n, "s"));
    m.insert("cosi.net_yield_ms", (net_yield_s / n * 1e3, "ms"));
    m.insert("cosi.net_yield_evals", (evals as f64 / n, "count"));
    m.insert(
        "cosi.filter_passes",
        (
            delta(&c0, &c1, "cosi.yield_filter_rounds") as f64 / n,
            "count",
        ),
    );
    m.insert(
        "cosi.filter_resizes",
        (
            delta(&c0, &c1, "cosi.yield_filter_resize") as f64 / n,
            "count",
        ),
    );
    Ok(walls)
}

/// Per-layer sizing and estimator figures from a traced replay.
fn replay_metrics(recs: &[Rec], spans: &[Span], hists: (f64, f64), m: &mut Metrics) {
    let by = trace::by_name(spans);
    let mean_us = |name: &str| by.get(name).map_or(0.0, |s| s.mean_ns() / 1e3);
    m.insert("serve.parse_us", (mean_us("serve.parse"), "us"));
    m.insert("serve.render_us", (mean_us("serve.render"), "us"));
    m.insert("core.ladder_us", (mean_us("core.ladder"), "us"));
    m.insert("core.gp_us", (mean_us("core.gp"), "us"));
    m.insert(
        "yield.estimate_us.analytic",
        (mean_us("yield.estimate.analytic"), "us"),
    );
    m.insert(
        "yield.estimate_us.sobol-scrambled",
        (mean_us("yield.estimate.sobol-scrambled"), "us"),
    );
    let ladder: Vec<&Rec> = recs.iter().filter(|r| r.gp == Some(false)).collect();
    let gp: Vec<&Rec> = recs.iter().filter(|r| r.gp == Some(true)).collect();
    let steps: u64 = ladder.iter().map(|r| r.steps).sum();
    m.insert(
        "core.ladder_steps",
        (ratio(steps as f64, ladder.len() as f64), "count"),
    );
    let probes: u64 = gp.iter().map(|r| r.probes).sum();
    m.insert(
        "core.gp_verify_probes",
        (ratio(probes as f64, gp.len() as f64), "count"),
    );
    let fallbacks = gp.iter().filter(|r| r.fallback).count();
    m.insert(
        "core.gp_fallback_frac",
        (ratio(fallbacks as f64, gp.len() as f64), "ratio"),
    );
    m.insert("core.gp_iterations", (ratio(hists.0, hists.1), "count"));
    let sampled: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.method == Some(Method::SobolScrambled))
        .collect();
    let evals: usize = sampled.iter().map(|r| r.evals).sum();
    m.insert(
        "yield.evals_per_estimate",
        (ratio(evals as f64, sampled.len() as f64), "count"),
    );
}

/// The cost ladder from the measured layers.
fn ladder_rows(m: &Metrics, recs: &[Rec], spans: &[Span], live_p50_us: f64) -> Vec<LadderRow> {
    let v = |k: &str| m.get(k).map_or(f64::NAN, |x| x.0);
    let mut rows = Vec::new();
    let stages = 8.0;
    rows.push(LadderRow {
        name: "model eval × stages → line timing",
        formula: format!("{stages} × {:.1} ns", v("core.stage_eval_ns")),
        measured: v("core.timing_ns"),
        composed: stages * v("core.stage_eval_ns"),
        unit: "ns",
        tolerance: (0.67, 1.5),
    });
    let per_eval_ns = v("yield.ns_per_eval");
    let evals = v("yield.evals_per_estimate");
    rows.push(LadderRow {
        name: "evals × per-eval → yield estimate (sobol-scrambled)",
        formula: format!("{evals:.0} × {per_eval_ns:.1} ns"),
        measured: v("yield.estimate_us.sobol-scrambled"),
        composed: evals * per_eval_ns / 1e3,
        unit: "us",
        tolerance: (0.5, 2.0),
    });
    // Sizing: each answer's own probe count × its own re-verify estimate.
    let sizing_spans = |name: &str| trace::durations(spans, name).iter().sum::<f64>();
    for (gp, name, span) in [
        (false, "steps × estimate → ladder sizing", "core.ladder"),
        (true, "verify probes × estimate → GP sizing", "core.gp"),
    ] {
        let recs: Vec<&Rec> = recs.iter().filter(|r| r.gp == Some(gp)).collect();
        let probes: f64 = recs.iter().map(|r| (r.steps + r.probes) as f64).sum();
        let composed: f64 = recs
            .iter()
            .map(|r| (r.steps + r.probes) as f64 * r.verify_ns)
            .sum();
        let n = recs.len().max(1) as f64;
        rows.push(LadderRow {
            name,
            formula: format!(
                "{:.2} probes × {:.1} µs (mean of {} answers)",
                probes / n,
                ratio(composed, probes) / 1e3,
                recs.len()
            ),
            measured: sizing_spans(span) / n / 1e3,
            composed: composed / n / 1e3,
            unit: "us",
            tolerance: (0.67, 1.5),
        });
    }
    let phases = [
        "serve.server_parse_us.p50",
        "serve.queue_us.p50",
        "serve.compute_us.p50",
        "serve.server_render_us.p50",
        "serve.flush_us.p50",
    ];
    let composed: f64 = phases.iter().map(|k| v(k)).sum();
    rows.push(LadderRow {
        name: "parse + queue + compute + render + flush → served p50",
        formula: phases
            .iter()
            .map(|k| format!("{:.0}", v(k)))
            .collect::<Vec<_>>()
            .join(" + ")
            + " µs",
        measured: live_p50_us,
        composed,
        unit: "us",
        tolerance: (0.67, 1.5),
    });
    rows
}

/// Where a traced run writes its spans: under the build directory the
/// benchmark already owns.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    root.join("perfbench")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// The traced run of `workload`.
///
/// # Errors
///
/// Server, replay and job failures, as text.
pub fn run(pi: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut m = Metrics::new();
    micro(&mut m);
    let serve = match workload {
        "serve_mixed" => Some(SERVE_MIXED),
        "serve_sizing" => Some(SERVE_SIZING),
        _ => None,
    };
    // Live server figures: the workload's own nominal stretch, or a
    // serve_mixed probe for the offline workload.
    let (live_wl, live_s) = match serve {
        Some(wl) => (wl, seconds * LIVE_SHARE),
        None => (SERVE_MIXED, SERVE_PROBE_S),
    };
    let live = live(pi, &live_wl, seed, live_s, &mut m)?;

    // The replayed stream: the live stretch's requests, plus a sizing
    // probe when the workload has no sizing of its own.
    let mut requests = Stream::new(live_wl, seed)
        .phase(0, live_wl.nominal_qps, live_s, 0)
        .requests;
    if live_wl.size_pct == 0 {
        let probe = Stream::new(SERVE_SIZING, seed);
        requests.extend((0..SIZE_PROBE).map(|i| probe.request((1 << 40) + i)));
    }
    let store = NodeStore::default();
    cold_touches(&store, &requests, &mut m);

    let mut untraced = Tracer::new(false);
    let (_, walls) = replay_pass(&store, &requests, &mut untraced);
    obs(true);
    let mut tracer = Tracer::new(true);
    let h0 = gp_hist();
    let (recs, _) = replay_pass(&store, &requests, &mut tracer);
    let h1 = gp_hist();
    let replay_spans = tracer.spans().len();
    let traced_req: Vec<f64> = trace::durations(tracer.spans(), "request");
    let mut overhead = Overhead {
        what: "p50_us of a replayed request",
        untraced: stats::median(&walls) / 1e3,
        traced: stats::median(&traced_req) / 1e3,
        unit: "us",
    };
    replay_metrics(
        &recs,
        &tracer.spans()[..replay_spans],
        (h1.0 - h0.0, h1.1 - h0.1),
        &mut m,
    );
    let c0 = counters();
    let (_, batch_times) = serve_wl::replay(
        &store,
        &requests,
        live.batch_mean.round() as usize,
        &mut tracer,
    );
    let batch_us = batch_times.iter().sum::<f64>() / batch_times.len().max(1) as f64;
    let c1 = counters();
    m.insert("serve.execute_batch_us", (batch_us, "us"));
    let estimates = delta(&c0, &c1, "yield.estimates") as f64;
    m.insert(
        "yield.stop_budget_frac",
        (
            ratio(delta(&c0, &c1, "yield.stop_budget") as f64, estimates),
            "ratio",
        ),
    );
    calibration_probe(&mut m, &mut tracer);

    // NoC: the whole job list for the offline workload (one untraced
    // round for the overhead, one traced), one job as a probe otherwise.
    let mut attempted = requests.len() + live.attempted;
    let failed = recs.iter().filter(|r| !r.ok).count() + live.failed;
    if serve.is_some() {
        noc_jobs(seed, &[0], &mut m, &mut tracer, 1 << 50)?;
        attempted += 1;
    } else {
        // One untraced warm-up job, then the job list untraced and traced;
        // the overhead is the median per-job difference.
        let all: Vec<usize> = (0..JOBS.len()).collect();
        obs(false);
        let mut off = Tracer::new(false);
        let mut discard = Metrics::new();
        noc_jobs(seed, &[0], &mut discard, &mut off, 1 << 50)?;
        let plain = noc_jobs(seed, &all, &mut discard, &mut off, 1 << 50)?;
        obs(true);
        let traced = noc_jobs(seed, &all, &mut m, &mut tracer, 1 << 50)?;
        let diffs: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t - p).collect();
        let untraced = stats::median(&plain);
        overhead = Overhead {
            what: "job_s (median job of the list)",
            untraced,
            traced: untraced + stats::median(&diffs),
            unit: "s",
        };
        attempted += 1 + 2 * all.len();
    }
    let to_us = if overhead.unit == "s" { 1e6 } else { 1.0 };
    m.insert(
        "trace.overhead_us",
        ((overhead.traced - overhead.untraced) * to_us, "us"),
    );

    let ladder = ladder_rows(&m, &recs, &tracer.spans()[..replay_spans], live.p50_us);
    for (row, key) in ladder.iter().zip([
        "ladder.timing_ratio",
        "ladder.estimate_ratio",
        "ladder.ladder_ratio",
        "ladder.gp_ratio",
        "ladder.served_ratio",
    ]) {
        m.insert(key, (row.ratio(), "ratio"));
    }
    let path = spans_path(workload, seed);
    trace::write_jsonl(&path, tracer.spans()).map_err(|e| format!("writing spans: {e}"))?;
    obs(false);
    Ok(Traced {
        metrics: m,
        ladder,
        overhead,
        span_count: tracer.spans().len(),
        by_name: trace::by_name(tracer.spans()),
        spans_path: path,
        attempted,
        failed,
    })
}

/// `(sum, count)` of the `gp.iterations` histogram so far.
fn gp_hist() -> (f64, f64) {
    pi_obs::snapshot()
        .hists
        .get("gp.iterations")
        .map_or((0.0, 0.0), |h| (h.sum(), h.count() as f64))
}
