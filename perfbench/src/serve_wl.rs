//! The two served workloads: `serve_mixed` and `serve_sizing`.
//!
//! Both drive a `pi serve` child with the open-loop generator. Requests
//! come from `pi_serve::TrafficGen` (Davis wire lengths on the 127-pitch
//! grid) under the workload's seed; arrivals are Poisson. A timed run
//! measures set-up, latency at the nominal rate and capacity, then
//! replays the nominal phase in-process to check the served answers.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_core::variation::VariationModel;
use pi_rt::Rng;
use pi_serve::api::{ApiRequest, ApiResponse, EvalRequest, SizeResponse};
use pi_serve::json::parse;
use pi_serve::store::{NodeContext, NodeStore};
use pi_serve::{execute_batch, Batcher, ServerStats, TrafficGen};
use pi_tech::units::{Freq, Length, Time};
use pi_tech::DesignStyle;
use pi_yield::{EstimatorConfig, Method};

use crate::child::Server;
use crate::openloop::{self, Outcome, Shot};
use crate::stats::{self, Tail};
use crate::trace::Tracer;

/// Technology node of every served request.
pub const TECH: &str = "65nm";

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Nominal-rate slices per timed run, spread across the capacity search
/// so that one bad stretch of host time moves one slice, not the median.
pub const NOMINAL_SLICES: usize = 5;

/// Warm-up requests in flight at once.
const WARM_CHUNK: usize = 8;

/// Requests per in-process replay batch.
const REPLAY_BATCH: usize = 64;

/// Relative width the capacity search narrows the knee to.
pub const CAPACITY_TOL: f64 = 0.05;

/// Most steps one capacity search may run.
const CAPACITY_MAX_STEPS: usize = 14;

const ARRIVALS_SALT: u64 = 0x6172_7269_7661_6c73;
const CORNER_SALT: u64 = 0x636f_726e_6572_7321;

/// Activity factor and clock for the per-bit power of a plan (the
/// objective the store's plans are optimized for).
const POWER_ACTIVITY: f64 = 0.25;
const POWER_CLOCK_GHZ: f64 = 1.0;

/// One served workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Percent of `/v1/yield` requests.
    pub yield_pct: u32,
    /// Percent of `/v1/size` requests.
    pub size_pct: u32,
    /// Process corners requests are spread over.
    pub corners: &'static [&'static str],
    /// Offered rate for the latency figures, requests per second.
    pub nominal_qps: f64,
    /// Latency limit on the tail percentile, microseconds.
    pub slo_us: f64,
}

/// 90 % model evals and 10 % yield queries at the typical corner.
pub const SERVE_MIXED: ServeWorkload = ServeWorkload {
    name: "serve_mixed",
    yield_pct: 10,
    size_pct: 0,
    corners: &["tt"],
    nominal_qps: 1000.0,
    slo_us: 25_000.0,
};

/// 100 % sizing queries spread over three corners.
pub const SERVE_SIZING: ServeWorkload = ServeWorkload {
    name: "serve_sizing",
    yield_pct: 0,
    size_pct: 100,
    corners: &["tt", "ss", "ff"],
    nominal_qps: 250.0,
    slo_us: 100_000.0,
};

impl ServeWorkload {
    /// Generator lateness (p99) above which a failed capacity step is
    /// blamed on the generator rather than the server.
    #[must_use]
    pub fn late_bound_us(&self) -> f64 {
        self.slo_us / 4.0
    }
}

/// The seeded request stream of a workload.
#[derive(Debug, Clone)]
pub struct Stream {
    wl: ServeWorkload,
    seed: u64,
    gen: TrafficGen,
}

impl Stream {
    /// The stream of `wl` under `seed`.
    #[must_use]
    pub fn new(wl: ServeWorkload, seed: u64) -> Self {
        Stream {
            wl,
            seed,
            gen: TrafficGen::with_mix(seed, TECH, wl.yield_pct, wl.size_pct),
        }
    }

    /// Request `i`: `TrafficGen`'s request, placed at a corner drawn from
    /// the workload's corners when it has more than one.
    #[must_use]
    pub fn request(&self, i: u64) -> ApiRequest {
        let mut r = self.gen.request(i);
        if self.wl.corners.len() > 1 {
            let pick = Rng::stream(self.seed ^ CORNER_SALT, i).below(self.wl.corners.len());
            let corner = Some(self.wl.corners[pick].to_owned());
            match &mut r {
                ApiRequest::Eval(e) => e.corner = corner,
                ApiRequest::Yield(y) => y.corner = corner,
                ApiRequest::Size(s) => s.corner = corner,
                ApiRequest::NetYield(_) => {}
            }
        }
        r
    }

    /// Poisson arrivals at `rate` for `seconds`, drawing requests from
    /// index `first` on. `key` selects the arrival stream.
    #[must_use]
    pub fn phase(&self, first: u64, rate: f64, seconds: f64, key: u64) -> Phase {
        let mut rng = Rng::stream(self.seed ^ ARRIVALS_SALT, key);
        let mut t = 0.0f64;
        let mut requests = Vec::new();
        let mut shots = Vec::new();
        loop {
            t += -rng.random_unit_open().ln() / rate;
            if t >= seconds {
                break;
            }
            let req = self.request(first + requests.len() as u64);
            shots.push(Shot {
                due_ns: (t * 1e9) as u64,
                bytes: encode(&req),
            });
            requests.push(req);
        }
        Phase { requests, shots }
    }
}

/// A scheduled stretch of traffic.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The requests, in schedule order.
    pub requests: Vec<ApiRequest>,
    /// Their shots.
    pub shots: Vec<Shot>,
}

/// HTTP bytes of one API request.
#[must_use]
pub fn encode(req: &ApiRequest) -> Vec<u8> {
    openloop::post(req.path(), &req.to_json().render())
}

/// One eval per (corner, grid length) the workload can draw: touching
/// each fills the plan cache and calibrates non-typical corners.
#[must_use]
pub fn warmup_requests(wl: &ServeWorkload) -> Vec<ApiRequest> {
    let grid = pi_serve::traffic::wire_length_cdf().len();
    let mut out = Vec::new();
    for corner in wl.corners {
        for pitch in 1..=grid {
            out.push(ApiRequest::Eval(EvalRequest {
                tech: TECH.to_owned(),
                length_mm: pitch as f64 * pi_serve::traffic::PITCH_MM,
                count: None,
                wn_um: None,
                corner: (wl.corners.len() > 1).then(|| (*corner).to_owned()),
            }));
        }
    }
    out
}

/// Connections the generator opens: one per core.
#[must_use]
pub fn conns() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Unanswered requests the generator allows per connection.
pub const MAX_PENDING: usize = 1024;

fn gen_config(drain: Duration) -> openloop::Config {
    openloop::Config {
        conns: conns(),
        max_pending: MAX_PENDING,
        drain,
    }
}

/// Spawns a server and runs the warm-up pass; returns it with the set-up
/// time (spawn → last warm-up answer).
///
/// # Errors
///
/// Spawn failures and any warm-up request that is not answered 200.
pub fn setup(pi: &Path, wl: &ServeWorkload) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(pi)?;
    for chunk in warmup_requests(wl).chunks(WARM_CHUNK) {
        let shots: Vec<Shot> = chunk
            .iter()
            .map(|r| Shot {
                due_ns: 0,
                bytes: encode(r),
            })
            .collect();
        let outcomes = openloop::run(
            server.addr,
            &shots,
            &gen_config(Duration::from_secs(60)),
            &|_| true,
        )
        .map_err(|e| format!("warm-up: {e}"))?;
        for o in &outcomes {
            if o.status != 200 {
                return Err(format!(
                    "warm-up request failed with status {}: {}",
                    o.status,
                    String::from_utf8_lossy(o.body.as_deref().unwrap_or_default())
                ));
            }
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Latency summary of one open-loop stretch.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests not answered 200 (sheds, errors, refusals, timeouts).
    pub failed: usize,
    /// Median success latency, µs.
    pub p50_us: f64,
    /// Tail of success latency (see [`stats::tail`]).
    pub tail: Option<Tail>,
    /// Tail of all latencies with failures counted as infinitely late.
    pub tail_all: Option<Tail>,
    /// p99 of generator lateness, µs.
    pub late_p99_us: f64,
    /// Whether latency kept rising through the stretch (last third's
    /// median above the first third's by more than a quarter SLO).
    pub backlog: bool,
}

impl Latency {
    /// Failed share of attempts.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Summarizes the outcomes of one stretch against `slo_us`.
#[must_use]
pub fn summarize(outcomes: &[Outcome], slo_us: f64) -> Latency {
    let ok: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.status == 200)
        .map(|o| o.latency_us)
        .collect();
    let all: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.status == 200 {
                o.latency_us
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let third = (outcomes.len() / 3).max(1);
    let first = stats::median(&all[..third.min(all.len())]);
    let last = stats::median(&all[all.len().saturating_sub(third)..]);
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_us).collect();
    let sorted_ok = stats::sorted(&ok);
    Latency {
        attempted: outcomes.len(),
        failed: outcomes.len() - ok.len(),
        p50_us: stats::median(&ok),
        tail: stats::tail(&sorted_ok),
        tail_all: stats::tail(&stats::sorted(&all)),
        late_p99_us: stats::percentile(&stats::sorted(&late), 0.99),
        backlog: last > first + slo_us / 4.0,
    }
}

/// One step of the capacity search, as measured.
#[derive(Debug, Clone)]
pub struct CapacityStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Its latency summary (of the attempt that decided the verdict).
    pub latency: Latency,
    /// Whether it met the SLO.
    pub ok: bool,
    /// Attempts made: a failed step is offered once more before it counts.
    pub attempts: usize,
}

/// The capacity figure with the steps behind it.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Highest passing offered rate.
    pub qps: f64,
    /// The failing step just above it.
    pub top: CapacityStep,
    /// Every step, in order.
    pub steps: Vec<CapacityStep>,
}

impl CapacityResult {
    /// Whether the server, not the generator, failed the top step: the
    /// generator's lateness stayed within its bound there.
    #[must_use]
    pub fn server_bound(&self, wl: &ServeWorkload) -> bool {
        self.top.latency.late_p99_us <= wl.late_bound_us()
    }
}

/// Searches the highest offered rate meeting the workload's SLO with
/// `fail_frac` ≤ 1 % and no growing backlog; each step offers `step_s`
/// seconds of traffic. A host stall can fail a single step that the
/// server could carry, so a failed step is offered a second time and
/// fails only if both attempts fail.
///
/// # Errors
///
/// Generator failures and an unbracketed knee.
/// `between(k)` runs after the `k`-th step (the timed run places its
/// nominal-rate slices there).
pub fn capacity(
    server: &Server,
    stream: &Stream,
    wl: &ServeWorkload,
    step_s: f64,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<CapacityResult, String> {
    let mut measured: Vec<CapacityStep> = Vec::new();
    let mut error = None;
    let mut key = 0u64;
    let search = stats::search_capacity(wl.nominal_qps, CAPACITY_TOL, CAPACITY_MAX_STEPS, |rate| {
        let mut step = None;
        for attempt in 1..=2 {
            key += 1;
            let phase = stream.phase(key << 32, rate, step_s, key);
            let drain = Duration::from_secs_f64(2.0 + 4.0 * wl.slo_us / 1e6);
            let outcomes =
                match openloop::run(server.addr, &phase.shots, &gen_config(drain), &|_| false) {
                    Ok(o) => o,
                    Err(e) => {
                        error.get_or_insert(e.to_string());
                        return false;
                    }
                };
            let latency = summarize(&outcomes, wl.slo_us);
            let ok = latency.fail_frac() <= 0.01
                && latency.tail_all.is_some_and(|t| t.value <= wl.slo_us)
                && !latency.backlog;
            eprintln!(
                "capacity step {rate:.0} qps (attempt {attempt}): ok {ok}, p50 {:.0} µs, tail {:?}, fail {:.4}, backlog {}, late p99 {:.0} µs",
                latency.p50_us,
                latency.tail_all.map(|t| t.value),
                latency.fail_frac(),
                latency.backlog,
                latency.late_p99_us
            );
            // Let the server drain before the next offer.
            std::thread::sleep(Duration::from_millis(200));
            step = Some(CapacityStep {
                rate,
                latency,
                ok,
                attempts: attempt,
            });
            if ok {
                break;
            }
        }
        let step = step.expect("at least one attempt");
        let ok = step.ok;
        measured.push(step);
        if let Err(e) = between(measured.len() - 1) {
            error.get_or_insert(e);
        }
        ok
    });
    if let Some(e) = error {
        return Err(format!("capacity step: {e}"));
    }
    let search = search.ok_or("capacity search never bracketed the knee")?;
    let top = measured
        .iter()
        .find(|s| s.rate == search.top_failed)
        .cloned()
        .ok_or("capacity search lost its top step")?;
    Ok(CapacityResult {
        qps: search.rate,
        top,
        steps: measured,
    })
}

/// One nominal-rate slice of a timed run.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The requests, in schedule order.
    pub requests: Vec<ApiRequest>,
    /// What happened to each.
    pub outcomes: Vec<Outcome>,
    /// Server CPU seconds the slice cost.
    pub cpu_s: f64,
}

impl Slice {
    /// Median success latency of the slice, µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        let ok: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.status == 200)
            .map(|o| o.latency_us)
            .collect();
        stats::median(&ok)
    }

    /// Server CPU time per request of the slice, µs.
    #[must_use]
    pub fn cpu_us(&self) -> f64 {
        self.cpu_s * 1e6 / self.requests.len().max(1) as f64
    }
}

/// Everything a timed serve run measures.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// The nominal-rate slices.
    pub slices: Vec<Slice>,
    /// All nominal-rate outcomes pooled.
    pub nominal: Latency,
    /// The capacity search, or why it found no knee (not fatal: the
    /// capacity figure is reported, not gated).
    pub capacity: Result<CapacityResult, String>,
    /// The in-process check of the nominal answers.
    pub check: Check,
}

impl Timed {
    /// Median over slices of the slice's median latency, µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.slices.iter().map(Slice::p50_us).collect::<Vec<_>>())
    }

    /// Median over slices of server CPU time per request, µs.
    #[must_use]
    pub fn cpu_us(&self) -> f64 {
        stats::median(&self.slices.iter().map(Slice::cpu_us).collect::<Vec<_>>())
    }
}

/// Runs one timed serve workload for about `seconds` seconds of traffic:
/// a third at the nominal rate in [`NOMINAL_SLICES`] slices, the first
/// before the capacity search and the rest after its first steps, and the
/// search itself in steps of a twelfth.
///
/// # Errors
///
/// Set-up, generator and search failures, as text.
pub fn timed(pi: &Path, wl: &ServeWorkload, seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, t) = setup(pi, wl)?;
        setups.push(t);
        if rep + 1 < SETUP_REPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let stream = Stream::new(*wl, seed);
    let slice_s = seconds / 3.0 / NOMINAL_SLICES as f64;
    let mut slices: Vec<Slice> = Vec::new();
    let run_slice = |slices: &mut Vec<Slice>| -> Result<(), String> {
        let k = slices.len() as u64;
        let phase = stream.phase(k * 1_000_000, wl.nominal_qps, slice_s, (1 << 40) + k);
        let cpu0 = server.cpu_s()?;
        let outcomes = openloop::run(
            server.addr,
            &phase.shots,
            &gen_config(Duration::from_secs(30)),
            &|_| true,
        )
        .map_err(|e| format!("nominal slice: {e}"))?;
        let cpu_s = server.cpu_s()? - cpu0;
        slices.push(Slice {
            requests: phase.requests,
            outcomes,
            cpu_s,
        });
        Ok(())
    };
    run_slice(&mut slices)?;
    let capacity = {
        let mut between = |_: usize| {
            if slices.len() < NOMINAL_SLICES {
                run_slice(&mut slices)
            } else {
                Ok(())
            }
        };
        capacity(&server, &stream, wl, seconds / 12.0, &mut between)
    };
    while slices.len() < NOMINAL_SLICES {
        run_slice(&mut slices)?;
    }
    server.shutdown();
    let requests: Vec<ApiRequest> = slices.iter().flat_map(|s| s.requests.clone()).collect();
    let outcomes: Vec<Outcome> = slices.iter().flat_map(|s| s.outcomes.clone()).collect();
    let check = check(&requests, &outcomes);
    Ok(Timed {
        setups,
        nominal: summarize(&outcomes, wl.slo_us),
        slices,
        capacity,
        check,
    })
}

/// The in-process check of served answers.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Served 200 answers compared byte for byte with the replay.
    pub compared: usize,
    /// Size plans re-verified against their target.
    pub reverified: usize,
    /// Answers carrying a plan, for the power figure.
    pub plans: usize,
    /// Mean nominal power per bit of those plans, µW.
    pub power_uw: f64,
    /// Every mismatch or failed re-verification, described.
    pub errors: Vec<String>,
}

/// Replays `requests` in-process through `Batcher::take_batch` and
/// `execute_batch` (the server's own executor) in batches of `batch`,
/// each execution wrapped in a `serve.execute_batch` span. Returns the
/// answers in request order and the µs each batch's execution took.
pub fn replay(
    store: &NodeStore,
    requests: &[ApiRequest],
    batch: usize,
    tracer: &mut Tracer,
) -> (Vec<ApiResponse>, Vec<f64>) {
    let stats = ServerStats::default();
    let mut answers = Vec::with_capacity(requests.len());
    let mut times = Vec::new();
    for (k, chunk) in requests.chunks(batch.max(1)).enumerate() {
        let queue = Batcher::new(chunk.len());
        let receivers: Vec<_> = chunk
            .iter()
            .map(|r| queue.submit(r.clone()).expect("replay queue has room"))
            .collect();
        let jobs = queue.take_batch(Duration::ZERO).expect("queued jobs");
        let t0 = Instant::now();
        tracer.span("serve.execute_batch", k as u64, |_| {
            execute_batch(store, jobs, &stats);
        });
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        answers.extend(
            receivers
                .into_iter()
                .map(|rx| rx.recv().expect("every job is answered").0),
        );
    }
    (answers, times)
}

/// The technology, corner and line length a generated request names
/// (`None` for net-yield requests, which the streams never carry).
#[must_use]
pub fn target(req: &ApiRequest) -> Option<(&str, Option<&str>, f64)> {
    match req {
        ApiRequest::Eval(r) => Some((&r.tech, r.corner.as_deref(), r.length_mm)),
        ApiRequest::Yield(r) => Some((&r.tech, r.corner.as_deref(), r.length_mm)),
        ApiRequest::Size(r) => Some((&r.tech, r.corner.as_deref(), r.length_mm)),
        ApiRequest::NetYield(_) => None,
    }
}

/// The context, line and lowered plan a request's answer refers to.
fn line_of(
    store: &NodeStore,
    r: &ApiRequest,
) -> Option<(Arc<NodeContext>, LineSpec, BufferingPlan)> {
    let (tech, corner, length_mm) = target(r)?;
    let ctx = store.context_for(tech, corner).ok()?;
    let length = Length::mm(length_mm);
    let plan = ctx.plan_for(length)?;
    Some((
        ctx,
        LineSpec::global(length, DesignStyle::SingleSpacing),
        plan,
    ))
}

/// Nominal power per bit of `plan` on `spec`, µW.
#[must_use]
pub fn plan_power_uw(ev: &LineEvaluator<'_>, spec: &LineSpec, plan: &BufferingPlan) -> f64 {
    ev.power(spec, plan, POWER_ACTIVITY, Freq::ghz(POWER_CLOCK_GHZ))
        .total()
        .as_uw()
}

/// Checks served answers against the in-process replay: every 200 body
/// must be byte-identical to the replayed one, every size plan must
/// re-verify (estimator CI lower bound ≥ target), and the replayed
/// plans give the power figure.
#[must_use]
pub fn check(requests: &[ApiRequest], served: &[Outcome]) -> Check {
    let store = NodeStore::default();
    let (replayed, _) = replay(&store, requests, REPLAY_BATCH, &mut Tracer::new(false));
    let mut c = Check::default();
    let mut power = 0.0;
    for (i, ((req, resp), outcome)) in requests.iter().zip(&replayed).zip(served).enumerate() {
        let rendered = resp.to_json().render();
        if resp.status() != 200 {
            c.errors.push(format!(
                "request {i}: replay answered {}: {rendered}",
                resp.status()
            ));
            continue;
        }
        if outcome.status == 200 {
            c.compared += 1;
            if outcome.body.as_deref() != Some(rendered.as_bytes()) {
                c.errors.push(format!(
                    "request {i}: served {} but replay gives {rendered}",
                    String::from_utf8_lossy(outcome.body.as_deref().unwrap_or_default())
                ));
            }
        }
        let Some((ctx, spec, mut plan)) = line_of(&store, req) else {
            continue;
        };
        let ev = ctx.evaluator();
        let body = parse(&rendered).expect("rendered JSON parses");
        match (req, resp) {
            (ApiRequest::Eval(_), ApiResponse::Eval(e)) => {
                plan.count = e.count as usize;
                plan.wn = Length::um(e.wn_um);
            }
            (ApiRequest::Size(s), ApiResponse::Size(_)) => {
                let sized = SizeResponse::from_json(&body).expect("size answer decodes");
                plan.count = sized.count as usize;
                plan.wn = Length::um(sized.wn_um);
                let method: Method = s
                    .estimator
                    .parse()
                    .expect("generated estimator names parse");
                let config = EstimatorConfig::new(method)
                    .with_seed(s.seed)
                    .with_target_half_width(s.ci_pct / 100.0);
                let est = ev.timing_yield_estimate(
                    &spec,
                    &plan,
                    &VariationModel::nominal(),
                    Time::ps(s.deadline_ps),
                    &config,
                );
                c.reverified += 1;
                let lower = est.yield_fraction - est.half_width;
                if lower < s.target_yield {
                    c.errors.push(format!(
                        "request {i}: plan {}x{} µm re-verifies at lower bound {lower} < target {}",
                        sized.count, sized.wn_um, s.target_yield
                    ));
                }
            }
            _ => continue,
        }
        power += plan_power_uw(&ev, &spec, &plan);
        c.plans += 1;
    }
    c.power_uw = power / c.plans.max(1) as f64;
    c
}

/// Cumulative histogram buckets of one `/metrics` series, `(le, count)`.
fn buckets(metrics: &str, series: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{series}_bucket{{le=\"");
    metrics
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// Quantile `q` of the samples a histogram gained between two scrapes,
/// read as the upper bound of the bucket holding it (`NaN` if none).
/// Scrapes list occupied buckets only, so a bound missing from `before`
/// takes the cumulative count of the nearest bound below it.
#[must_use]
pub fn phase_quantile(before: &str, after: &str, series: &str, q: f64) -> f64 {
    let old = buckets(before, series);
    let cum_before = |le: f64| {
        old.iter()
            .take_while(|(b, _)| *b <= le)
            .last()
            .map_or(0.0, |(_, c)| *c)
    };
    let diff: Vec<(f64, f64)> = buckets(after, series)
        .into_iter()
        .map(|(le, c)| (le, c - cum_before(le)))
        .collect();
    let total = diff.last().map_or(0.0, |d| d.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    diff.iter()
        .find(|(_, c)| *c >= q * total)
        .map_or(f64::NAN, |(le, _)| *le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_spread_over_corners() {
        let a = Stream::new(SERVE_SIZING, 5);
        let b = Stream::new(SERVE_SIZING, 5);
        assert_eq!(a.request(17), b.request(17));
        let mut corners = std::collections::BTreeSet::new();
        for i in 0..60 {
            match a.request(i) {
                ApiRequest::Size(s) => {
                    corners.insert(s.corner.expect("sizing requests name a corner"));
                }
                other => panic!("expected a size request, got {other:?}"),
            }
        }
        assert_eq!(corners.len(), 3);
        let p = a.phase(0, 1000.0, 0.5, 0);
        assert!((350..650).contains(&p.shots.len()), "{}", p.shots.len());
        assert!(p.shots.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert_eq!(p.shots.len(), b.phase(0, 1000.0, 0.5, 0).shots.len());
    }

    #[test]
    fn phase_quantiles_come_from_the_scrape_difference() {
        // `before` has no 200 bucket yet: its cumulative count there is 5.
        let before = "x_bucket{le=\"100\"} 5\nx_bucket{le=\"+Inf\"} 5\n";
        let after = "x_bucket{le=\"100\"} 6\nx_bucket{le=\"200\"} 14\nx_bucket{le=\"+Inf\"} 15\n";
        assert_eq!(phase_quantile(before, after, "x", 0.5), 200.0);
        assert_eq!(phase_quantile(before, after, "x", 0.1), 100.0);
        assert_eq!(phase_quantile(before, after, "x", 1.0), f64::INFINITY);
        assert!(phase_quantile(after, after, "x", 0.5).is_nan());
    }
}
