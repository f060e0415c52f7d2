//! The estimation engine: adaptive, confidence-interval-driven yield
//! estimators over [`NetworkProblem`]s (a single line is the one-channel
//! special case).
//!
//! Every estimator follows the same deterministic skeleton: a batch
//! schedule fixed by the configuration alone (256 dies, then doubling),
//! each batch split into **fixed-size chunks** that are mapped in
//! parallel through `pi_rt::par_map` — or on the calling thread when the
//! batch is too small to repay the fan-out — and merged in chunk order.
//! Because the chunk boundaries never depend on the thread count and
//! every die draws from its own `Rng::stream(seed, index)` (or the Sobol
//! point at its index, stepped from the chunk start), the estimate —
//! including the early-stop decision — is bit-identical for any
//! `PI_THREADS` setting. After each batch the 95 % confidence interval
//! is recomputed and the loop stops as soon as its half-width reaches
//! the target.
//!
//! Confidence intervals:
//!
//! - **Naive MC / plain Sobol** — Wilson score interval on the binomial
//!   pass count (for the plain Sobol point set this is a *heuristic*:
//!   QMC points are not independent, and the true error is usually far
//!   smaller; the scrambled variant below gives the honest interval).
//! - **Scrambled Sobol** — `replicates` independent digital shifts of
//!   the same point set; the replicate means are i.i.d., so their sample
//!   standard error gives an honest CI that *shrinks like the QMC error*
//!   (≈ N⁻¹), not like N^(−1/2). This is where the samples-to-target-CI
//!   win over naive MC comes from.
//! - **Importance sampling** — CLT interval on the likelihood-ratio
//!   weighted failure indicator. The sampler shifts the Gaussian mean
//!   along the analytic closure's steepest-descent direction toward the
//!   limiting channel's failure boundary (the ISLE recipe), so failures
//!   are common under the shifted measure and the weighted variance
//!   collapses for high-yield (rare-failure) problems.

use pi_rt::norm::normal_inv_cdf;
use pi_rt::Rng;

use crate::analytic;
use crate::problem::{LineProblem, NetworkProblem};
use crate::sobol::Sobol;
use crate::surrogate::Surrogate;

/// Estimator selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Pseudo-random Monte Carlo with one RNG stream per die (the
    /// reference estimator; bit-compatible with the legacy loops).
    Naive,
    /// Plain Sobol quasi-Monte-Carlo (deterministic point set, Wilson CI
    /// as a conservative heuristic).
    Sobol,
    /// Digitally-shifted Sobol replicates with an honest replicate CI.
    SobolScrambled,
    /// Mean-shifted importance sampling with likelihood-ratio weights.
    ImportanceSampling,
    /// Surrogate-guided importance sampling: variance-optimal fitted
    /// shift (or a Gaussian mixture over competing failure modes), with
    /// the surrogate indicator as a built-in control variate and a
    /// disagreement-rate trust metric.
    SurrogateIs,
    /// Analytic Gaussian closure (no samples; CI reported as zero —
    /// the residual error is model error, not sampling noise).
    Analytic,
}

impl Method {
    /// Stable lowercase name (CLI/report vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::Naive => "naive",
            Method::Sobol => "sobol",
            Method::SobolScrambled => "sobol-scrambled",
            Method::ImportanceSampling => "importance",
            Method::SurrogateIs => "surrogate-is",
            Method::Analytic => "analytic",
        }
    }

    /// All methods, for sweeps and CLI help.
    pub const ALL: [Method; 6] = [
        Method::Naive,
        Method::Sobol,
        Method::SobolScrambled,
        Method::ImportanceSampling,
        Method::SurrogateIs,
        Method::Analytic,
    ];
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "mc" => Ok(Method::Naive),
            "sobol" | "qmc" => Ok(Method::Sobol),
            "sobol-scrambled" | "rqmc" | "scrambled" => Ok(Method::SobolScrambled),
            "importance" | "is" => Ok(Method::ImportanceSampling),
            "surrogate-is" | "surrogate" | "sis" => Ok(Method::SurrogateIs),
            "analytic" => Ok(Method::Analytic),
            other => Err(format!(
                "unknown estimator `{other}` (naive, sobol, sobol-scrambled, importance, \
                 surrogate-is, analytic)"
            )),
        }
    }
}

/// Estimator configuration. All fields are plain data; the defaults give
/// a ±0.5 % yield CI at 95 % confidence with a 2²⁰-die safety cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Which estimator to run.
    pub method: Method,
    /// Base seed; every die derives its own stream from it.
    pub seed: u64,
    /// Stop once the CI half-width is at or below this (yield fraction
    /// units). Zero disables early stopping: exactly `max_evals` dies run.
    pub target_half_width: f64,
    /// Hard cap on sampled dies.
    pub max_evals: usize,
    /// Two-sided confidence multiplier (1.96 ≈ 95 %).
    pub confidence_z: f64,
    /// Independent digital-shift replicates for [`Method::SobolScrambled`].
    pub replicates: usize,
    /// Evaluate the analytic surrogate alongside every sampled die and
    /// use it as a control variate (naive, Sobol, scrambled-Sobol and
    /// importance estimators). [`Method::SurrogateIs`] always does.
    pub control_variate: bool,
    /// Surrogate-vs-exact disagreement rate above which the surrogate
    /// is distrusted and the plain estimator's statistic is reported
    /// instead (the control variate stays unbiased regardless — this
    /// guards the *variance*, which degrades with disagreement).
    pub disagreement_threshold: f64,
}

impl EstimatorConfig {
    /// Defaults: seed 1, ±0.5 % @ 95 %, ≤ 2²⁰ dies, 8 RQMC replicates.
    #[must_use]
    pub fn new(method: Method) -> Self {
        EstimatorConfig {
            method,
            seed: 1,
            target_half_width: 5e-3,
            max_evals: 1 << 20,
            confidence_z: 1.959_963_984_540_054,
            replicates: 8,
            control_variate: false,
            disagreement_threshold: 0.25,
        }
    }

    /// Same configuration with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with a different CI half-width target.
    #[must_use]
    pub fn with_target_half_width(mut self, hw: f64) -> Self {
        self.target_half_width = hw;
        self
    }

    /// Same configuration with a different die cap.
    #[must_use]
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Same configuration with the surrogate control variate toggled.
    #[must_use]
    pub fn with_control_variate(mut self, on: bool) -> Self {
        self.control_variate = on;
        self
    }

    /// Same configuration with a different disagreement threshold.
    #[must_use]
    pub fn with_disagreement_threshold(mut self, threshold: f64) -> Self {
        self.disagreement_threshold = threshold;
        self
    }

    /// The cheap screening configuration paired with this one by the
    /// sizing loops: same knobs, method swapped to the surrogate
    /// importance sampler. `None` when screening does not apply — the
    /// caller has not opted into the control variate (opting in is what
    /// declares the analytic surrogate trustworthy), or the configured
    /// method *is* already the surrogate sampler.
    #[must_use]
    pub fn surrogate_screen(&self) -> Option<EstimatorConfig> {
        (self.control_variate && self.method != Method::SurrogateIs).then(|| {
            let mut cfg = *self;
            cfg.method = Method::SurrogateIs;
            cfg
        })
    }
}

/// An estimated yield with its uncertainty and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldEstimate {
    /// Estimated timing yield in `[0, 1]`.
    pub yield_fraction: f64,
    /// Confidence-interval half-width at the configured confidence.
    pub half_width: f64,
    /// Problem evaluations consumed (sampled dies; 0 for analytic).
    pub evals: usize,
    /// The estimator that produced this.
    pub method: Method,
    /// Fraction of sampled dies where the analytic surrogate and the
    /// exact evaluation disagreed on the pass verdict — the surrogate
    /// trust metric. Zero when no surrogate ran.
    pub surrogate_disagreement: f64,
}

/// A network estimate: the overall estimate plus per-channel yields.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkYieldEstimate {
    /// Whole-network estimate.
    pub overall: YieldEstimate,
    /// Per-channel marginal yields (same order as the problem channels).
    pub channel_yield: Vec<f64>,
}

/// Estimates the timing yield of a single line.
///
/// # Panics
///
/// Panics on a zero `max_evals` or a nonsensical configuration
/// (see [`estimate_network_yield`]).
#[must_use]
pub fn estimate_line_yield(problem: &LineProblem, config: &EstimatorConfig) -> YieldEstimate {
    estimate_network_yield(&problem.as_network(), config).overall
}

/// Estimates the timing yield of a multi-channel network.
///
/// # Panics
///
/// Panics if `max_evals` is zero or `replicates < 2` for the scrambled
/// Sobol method.
#[must_use]
pub fn estimate_network_yield(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
) -> NetworkYieldEstimate {
    assert!(config.max_evals > 0, "need a positive evaluation budget");
    let _obs_span = pi_obs::span("yield.estimate");
    let est = estimate_with(problem, config, INLINE_DIE_DIMS);
    if pi_obs::enabled() {
        pi_obs::counter_add("yield.estimates", 1);
        pi_obs::counter_add("yield.evals", est.overall.evals as u64);
    }
    est
}

/// [`estimate_network_yield`] with rounds of fewer than `inline_below`
/// die-dimensions mapped serially (see [`map_round`]).
fn estimate_with(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    inline_below: usize,
) -> NetworkYieldEstimate {
    match config.method {
        Method::Naive => run_counting(problem, config, None, inline_below),
        Method::Sobol => {
            let sobol = Sobol::new(problem.dimension());
            run_counting(problem, config, Some(&sobol), inline_below)
        }
        Method::SobolScrambled => run_scrambled(problem, config, inline_below),
        Method::ImportanceSampling => run_importance(problem, config, inline_below),
        Method::SurrogateIs => run_surrogate(problem, config, inline_below),
        Method::Analytic => {
            let (overall, channel_yield) = analytic::network_yield(problem);
            NetworkYieldEstimate {
                overall: YieldEstimate {
                    yield_fraction: overall,
                    half_width: 0.0,
                    evals: 0,
                    method: Method::Analytic,
                    surrogate_disagreement: 0.0,
                },
                channel_yield,
            }
        }
    }
}

/// First adaptive batch size (dies).
const FIRST_BATCH: usize = 256;
/// Largest adaptive batch size.
const MAX_BATCH: usize = 65_536;
/// Fixed parallel chunk size — *never* derived from the thread count, so
/// partial-tally merge order is identical for every `PI_THREADS`.
const CHUNK: usize = 1024;

/// Splits `[start, end)` into fixed-size chunks.
fn fixed_chunks(start: usize, end: usize) -> Vec<(usize, usize)> {
    (start..end)
        .step_by(CHUNK)
        .map(|s| (s, (s + CHUNK).min(end)))
        .collect()
}

/// Wilson score half-width for `passes` out of `n` Bernoulli trials.
fn wilson_half_width(passes: usize, n: usize, z: f64) -> f64 {
    let nf = n as f64;
    let p = passes as f64 / nf;
    let z2 = z * z;
    z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / (1.0 + z2 / nf)
}

/// Rounds whose dies × dimension fall below this run on the calling
/// thread: spawning the fan-out's scoped threads costs tens of
/// microseconds, more than a small round's work. The scrambled rounds of
/// a line estimate (≤ 64 points × 8 replicates × ~25 dimensions) sit
/// below it; those of a NoC estimate (≥ 32 × 8 × 127) sit above it.
const INLINE_DIE_DIMS: usize = 1 << 14;

/// Maps a round's work items in item order: serially when the round
/// spans fewer than `inline_below` die-dimensions, through
/// `pi_rt::par_map` otherwise. Each item's result depends on the item
/// alone and results merge in item order, so both paths give the same
/// bits.
fn map_round<T: Sync, R: Send>(
    items: &[T],
    die_dims: usize,
    inline_below: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if die_dims < inline_below {
        pi_obs::counter_add("yield.round_inline", 1);
        items.iter().map(f).collect()
    } else {
        pi_obs::counter_add("yield.round_fanout", 1);
        pi_rt::par_map(items, f)
    }
}

/// Tallies dies `start..end`: Sobol points through the inverse normal
/// CDF under per-dimension digital `shifts` (all zero for the plain
/// sequence) when `sobol` is given, else the legacy `Rng::stream(seed,
/// index)` draws. Every buffer — the Sobol digits, `z`, `pass`,
/// `sur_pass` — is allocated once per chunk, and Sobol points are
/// stepped in natural order from the chunk start.
fn count_chunk(
    problem: &NetworkProblem,
    seed: u64,
    sobol: Option<(&Sobol, &[u32])>,
    cv: Option<&CvContext>,
    (start, end): (usize, usize),
) -> CountTally {
    let channels = problem.channels.len();
    let mut part = CountTally::zero(channels);
    let mut pass = vec![false; channels];
    let mut sur_pass = vec![false; channels];
    let mut z = vec![0.0; problem.dimension()];
    let mut sobol = sobol.map(|(sobol, shifts)| (sobol.cursor(start as u64), shifts));
    for index in start..end {
        match &mut sobol {
            Some((cursor, shifts)) => {
                if index > start {
                    cursor.advance();
                }
                for (slot, u) in z.iter_mut().zip(cursor.coords(shifts)) {
                    *slot = normal_inv_cdf(u);
                }
            }
            None => {
                // Drawing the normals up front and replaying them through
                // the explicit path reproduces the streamed `sample_die`
                // exactly (pinned by the problem-layer tests).
                let mut rng = Rng::stream(seed, index as u64);
                for slot in &mut z {
                    *slot = rng.normal();
                }
            }
        }
        let exact = problem.die_from_normals(&z, &mut pass);
        part.dies += 1;
        part.pass_all += usize::from(exact);
        for (slot, &ok) in part.pass_channel.iter_mut().zip(&pass) {
            *slot += usize::from(ok);
        }
        if let Some(ctx) = cv {
            let sur = ctx.surrogate.die(&z, &mut sur_pass);
            part.sur_pass_all += usize::from(sur);
            part.disagree += usize::from(exact != sur);
        }
    }
    part
}

/// Integer pass tallies (exactly additive, so the merge order over chunks
/// cannot change the result).
struct CountTally {
    dies: usize,
    pass_all: usize,
    pass_channel: Vec<usize>,
    /// Surrogate all-pass count (control-variate runs only).
    sur_pass_all: usize,
    /// Dies where the surrogate and exact verdicts differed.
    disagree: usize,
}

impl CountTally {
    fn zero(channels: usize) -> Self {
        CountTally {
            dies: 0,
            pass_all: 0,
            pass_channel: vec![0; channels],
            sur_pass_all: 0,
            disagree: 0,
        }
    }

    fn merge(&mut self, other: &CountTally) {
        self.dies += other.dies;
        self.pass_all += other.pass_all;
        for (a, b) in self.pass_channel.iter_mut().zip(&other.pass_channel) {
            *a += b;
        }
        self.sur_pass_all += other.sur_pass_all;
        self.disagree += other.disagree;
    }
}

/// Fitted surrogate plus its exact expectation — everything a
/// control-variate run needs besides the per-die verdicts.
struct CvContext {
    surrogate: Surrogate,
    /// Exact `E[surrogate all-pass]` under the sampling measure.
    e_pass: f64,
}

impl CvContext {
    fn fit(problem: &NetworkProblem) -> Self {
        let surrogate = Surrogate::fit(problem);
        let e_pass = surrogate.expectation_all_pass();
        CvContext { surrogate, e_pass }
    }
}

/// Control-variate mean and CLT half-width from counting tallies:
/// the estimator is `mean(exact − surrogate) + E[surrogate]`, and the
/// per-die difference is ±1 exactly on disagreements, so the sample
/// variance comes straight from the disagreement count.
fn counting_cv_interval(tally: &CountTally, e_pass: f64, z: f64) -> (f64, f64) {
    let n = tally.dies as f64;
    let d_mean = (tally.pass_all as f64 - tally.sur_pass_all as f64) / n;
    let mean = (d_mean + e_pass).clamp(0.0, 1.0);
    if tally.dies < 2 {
        return (mean, f64::INFINITY);
    }
    if tally.disagree == 0 {
        // Zero observed disagreements carry no variance information;
        // rule of three on the disagreement rate (each |diff| ≤ 1).
        return (mean, 3.0 / n);
    }
    let var = ((tally.disagree as f64 - n * d_mean * d_mean) / (n - 1.0)).max(0.0);
    (mean, z * (var / n).sqrt())
}

/// Counting estimators (naive MC, plain Sobol when `sobol` is given):
/// adaptive batches with a Wilson interval on the pass fraction.
fn run_counting(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    sobol: Option<&Sobol>,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let channels = problem.channels.len();
    let dim = problem.dimension();
    let cv = config.control_variate.then(|| CvContext::fit(problem));
    let unshifted = sobol.map(|sobol| vec![0u32; sobol.dimension()]);
    let points = sobol.zip(unshifted.as_deref());
    let mut tally = CountTally::zero(channels);
    let mut batch = FIRST_BATCH;
    let mut hit_target = false;
    while tally.dies < config.max_evals {
        let take = batch.min(config.max_evals - tally.dies);
        let chunks = fixed_chunks(tally.dies, tally.dies + take);
        let partials = map_round(&chunks, take * dim, inline_below, |&chunk| {
            count_chunk(problem, config.seed, points, cv.as_ref(), chunk)
        });
        for part in &partials {
            tally.merge(part);
        }
        let hw = counting_half_width(&tally, cv.as_ref(), config);
        pi_obs::sample("yield.ci_half_width", tally.dies as f64, hw);
        if cv.is_some() {
            pi_obs::sample(
                "yield.surrogate_disagreement",
                tally.dies as f64,
                tally.disagree as f64 / tally.dies as f64,
            );
        }
        if config.target_half_width > 0.0 && hw <= config.target_half_width {
            hit_target = true;
            break;
        }
        batch = (batch * 2).min(MAX_BATCH);
    }
    pi_obs::counter_add(
        if hit_target {
            "yield.stop_target"
        } else {
            "yield.stop_budget"
        },
        1,
    );
    let n = tally.dies as f64;
    let method = if sobol.is_some() {
        Method::Sobol
    } else {
        Method::Naive
    };
    let dis_rate = match &cv {
        Some(_) => tally.disagree as f64 / n,
        None => 0.0,
    };
    let (yield_fraction, half_width) = match &cv {
        Some(ctx) if dis_rate <= config.disagreement_threshold => {
            counting_cv_interval(&tally, ctx.e_pass, config.confidence_z)
        }
        Some(_) => {
            // Surrogate distrusted: keep the plain statistic (the raw
            // counts were tallied all along, so this costs nothing).
            pi_obs::counter_add("yield.surrogate_fallback", 1);
            (
                tally.pass_all as f64 / n,
                wilson_half_width(tally.pass_all, tally.dies, config.confidence_z),
            )
        }
        None => (
            tally.pass_all as f64 / n,
            wilson_half_width(tally.pass_all, tally.dies, config.confidence_z),
        ),
    };
    NetworkYieldEstimate {
        overall: YieldEstimate {
            yield_fraction,
            half_width,
            evals: tally.dies,
            method,
            surrogate_disagreement: dis_rate,
        },
        channel_yield: tally.pass_channel.iter().map(|&p| p as f64 / n).collect(),
    }
}

/// The stopping half-width of a counting run: Wilson on the raw counts,
/// or the control-variate CLT width while the surrogate is trusted.
fn counting_half_width(
    tally: &CountTally,
    cv: Option<&CvContext>,
    config: &EstimatorConfig,
) -> f64 {
    match cv {
        Some(ctx)
            if (tally.disagree as f64 / tally.dies as f64) <= config.disagreement_threshold =>
        {
            counting_cv_interval(tally, ctx.e_pass, config.confidence_z).1
        }
        _ => wilson_half_width(tally.pass_all, tally.dies, config.confidence_z),
    }
}

/// First per-replicate point count of the scrambled-Sobol schedule.
const FIRST_REPLICATE_POINTS: usize = 32;
/// Replicate counts below this never early-stop (a handful of identical
/// replicates is not evidence of convergence).
const MIN_REPLICATE_POINTS: usize = 128;

/// Scrambled-Sobol estimator: `replicates` independent digital shifts,
/// CI from the replicate means. Point counts stay powers of two (Sobol
/// prefixes at powers of two are themselves digital nets).
fn run_scrambled(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let replicates = config.replicates;
    assert!(
        replicates >= 2,
        "scrambled Sobol needs at least 2 replicates"
    );
    let channels = problem.channels.len();
    let dim = problem.dimension();
    let cv = config.control_variate.then(|| CvContext::fit(problem));
    let sobol = Sobol::new(dim);
    let shifts: Vec<Vec<u32>> = (0..replicates)
        .map(|r| sobol.digital_shifts(config.seed, r as u64))
        .collect();

    let mut tallies: Vec<CountTally> = (0..replicates)
        .map(|_| CountTally::zero(channels))
        .collect();
    let mut points = 0usize;
    let mut next = FIRST_REPLICATE_POINTS;
    loop {
        let target = next.min(config.max_evals.div_ceil(replicates).max(1));
        if target <= points {
            pi_obs::counter_add("yield.stop_budget", 1);
            break;
        }
        // (replicate, chunk) work items, mapped in a fixed order.
        let mut items: Vec<(usize, (usize, usize))> = Vec::new();
        for r in 0..replicates {
            for chunk in fixed_chunks(points, target) {
                items.push((r, chunk));
            }
        }
        let die_dims = (target - points) * replicates * dim;
        let partials = map_round(&items, die_dims, inline_below, |&(r, chunk)| {
            count_chunk(
                problem,
                config.seed,
                Some((&sobol, &shifts[r])),
                cv.as_ref(),
                chunk,
            )
        });
        for (&(r, _), part) in items.iter().zip(&partials) {
            tallies[r].merge(part);
        }
        points = target;

        let (_, hw) = scrambled_interval(&tallies, cv.as_ref(), config);
        let total = points * replicates;
        pi_obs::sample("yield.ci_half_width", total as f64, hw);
        if cv.is_some() {
            let (dies, disagree) = tallies
                .iter()
                .fold((0, 0), |(d, x), t| (d + t.dies, x + t.disagree));
            pi_obs::sample(
                "yield.surrogate_disagreement",
                dies as f64,
                disagree as f64 / dies as f64,
            );
        }
        if config.target_half_width > 0.0
            && hw <= config.target_half_width
            && points >= MIN_REPLICATE_POINTS
        {
            pi_obs::counter_add("yield.stop_target", 1);
            break;
        }
        if total >= config.max_evals {
            pi_obs::counter_add("yield.stop_budget", 1);
            break;
        }
        next = points * 2;
    }

    let (mean, hw) = scrambled_interval(&tallies, cv.as_ref(), config);
    let total = points * replicates;
    let (dies, disagree) = tallies
        .iter()
        .fold((0, 0), |(d, x), t| (d + t.dies, x + t.disagree));
    let dis_rate = match &cv {
        Some(_) => disagree as f64 / dies as f64,
        None => 0.0,
    };
    if cv.is_some() && dis_rate > config.disagreement_threshold {
        pi_obs::counter_add("yield.surrogate_fallback", 1);
    }
    let mut channel_yield = vec![0.0; channels];
    for tally in &tallies {
        for (acc, &p) in channel_yield.iter_mut().zip(&tally.pass_channel) {
            *acc += p as f64 / tally.dies as f64;
        }
    }
    for y in &mut channel_yield {
        *y /= replicates as f64;
    }
    NetworkYieldEstimate {
        overall: YieldEstimate {
            yield_fraction: mean,
            half_width: hw,
            evals: total,
            method: Method::SobolScrambled,
            surrogate_disagreement: dis_rate,
        },
        channel_yield,
    }
}

/// Replicate mean and CI of a scrambled-Sobol run: over the per-replicate
/// pass fractions, or — with a trusted control variate — over the
/// per-replicate *difference* means plus the surrogate's exact
/// expectation (the replicate machinery is unchanged, it just averages a
/// far smaller quantity).
fn scrambled_interval(
    tallies: &[CountTally],
    cv: Option<&CvContext>,
    config: &EstimatorConfig,
) -> (f64, f64) {
    if let Some(ctx) = cv {
        let (dies, disagree) = tallies
            .iter()
            .fold((0, 0), |(d, x), t| (d + t.dies, x + t.disagree));
        if (disagree as f64 / dies as f64) <= config.disagreement_threshold {
            let (diff_mean, hw) = replicate_interval(tallies, config.confidence_z, |t| {
                (t.pass_all as f64 - t.sur_pass_all as f64) / t.dies as f64
            });
            return ((diff_mean + ctx.e_pass).clamp(0.0, 1.0), hw);
        }
    }
    replicate_interval(tallies, config.confidence_z, |t| {
        t.pass_all as f64 / t.dies as f64
    })
}

/// Mean and CI half-width over a per-replicate statistic.
fn replicate_interval(
    tallies: &[CountTally],
    z: f64,
    stat: impl Fn(&CountTally) -> f64,
) -> (f64, f64) {
    let r = tallies.len() as f64;
    let means: Vec<f64> = tallies.iter().map(stat).collect();
    let mean = means.iter().sum::<f64>() / r;
    let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (r - 1.0);
    (mean, z * (var / r).sqrt())
}

/// Weighted tallies for importance sampling. The merge order over chunks
/// is fixed (chunk index order), so the floating-point sums — and the
/// early-stop decisions derived from them — are thread-count invariant.
struct WeightTally {
    dies: usize,
    /// Σ w·fail and Σ (w·fail)² for the CLT interval.
    fail_w: f64,
    fail_w2: f64,
    /// Σ w·fail per channel.
    fail_channel_w: Vec<f64>,
    /// Control-variate difference sums: Σ w·(fail − fail_surrogate) and
    /// its square, plus the raw disagreement count and the *weighted*
    /// disagreement sum Σ w·1{disagree}. The weighted sum estimates the
    /// nominal-measure disagreement probability — the trust metric. (The
    /// raw count is biased under a shifted proposal, which concentrates
    /// samples exactly where surrogate and exact differ most.)
    diff_w: f64,
    diff_w2: f64,
    disagree: usize,
    dis_w: f64,
    /// Σw and Σw² over *all* dies, accumulated only while pi-obs is
    /// enabled, for the effective-sample-size diagnostic. Never feeds back
    /// into the estimate, so results stay bit-identical with tracing off.
    obs_w: f64,
    obs_w2: f64,
}

impl WeightTally {
    fn zero(channels: usize) -> Self {
        WeightTally {
            dies: 0,
            fail_w: 0.0,
            fail_w2: 0.0,
            fail_channel_w: vec![0.0; channels],
            diff_w: 0.0,
            diff_w2: 0.0,
            disagree: 0,
            dis_w: 0.0,
            obs_w: 0.0,
            obs_w2: 0.0,
        }
    }

    fn merge(&mut self, other: &WeightTally) {
        self.dies += other.dies;
        self.fail_w += other.fail_w;
        self.fail_w2 += other.fail_w2;
        for (a, b) in self.fail_channel_w.iter_mut().zip(&other.fail_channel_w) {
            *a += b;
        }
        self.diff_w += other.diff_w;
        self.diff_w2 += other.diff_w2;
        self.disagree += other.disagree;
        self.dis_w += other.dis_w;
        self.obs_w += other.obs_w;
        self.obs_w2 += other.obs_w2;
    }

    /// Accumulates the control-variate difference for one die.
    fn record_diff(&mut self, weight: f64, exact_ok: bool, sur_ok: bool) {
        if exact_ok == sur_ok {
            return;
        }
        self.disagree += 1;
        self.dis_w += weight;
        // Difference of *failure* indicators: exact fails, surrogate
        // passes → +w; exact passes, surrogate fails → −w.
        let d = if exact_ok { -weight } else { weight };
        self.diff_w += d;
        self.diff_w2 += d * d;
    }
}

/// Control-variate failure estimate and CLT half-width of a weighted
/// run: `mean(w·(fail − fail_sur)) + P_sur[fail]`. With zero observed
/// disagreements the rule-of-three interval is scaled by `weight_cap`,
/// the proposal's bound on the likelihood ratio near the surrogate
/// failure boundary (where any unseen disagreement would live).
fn cv_weighted_interval(
    tally: &WeightTally,
    p_sur_fail: f64,
    z: f64,
    weight_cap: f64,
) -> (f64, f64) {
    let n = tally.dies as f64;
    let d_mean = tally.diff_w / n;
    let p = (d_mean + p_sur_fail).clamp(0.0, 1.0);
    if tally.dies < 2 {
        return (p, f64::INFINITY);
    }
    if tally.disagree == 0 {
        return (p, 3.0 / n * weight_cap);
    }
    let var = ((tally.diff_w2 - n * d_mean * d_mean) / (n - 1.0)).max(0.0);
    (p, z * (var / n).sqrt())
}

/// Largest mean shift (in σ) the pilot may request.
const MAX_SHIFT_SIGMA: f64 = 6.0;

/// The importance-sampling mean shift: along the analytic sensitivity
/// direction of the *limiting* channel, far enough that the shifted mean
/// delay sits on the failure boundary.
fn importance_shift(problem: &NetworkProblem) -> Vec<f64> {
    let dim = problem.dimension();
    let mut shift = vec![0.0; dim];
    let variation = &problem.variation;
    let corr = &problem.correlation;
    let active = corr.is_active();
    // First stage coordinate in z: region factors (when active) come
    // between the D2D coordinate and the per-stage block.
    let stage_base = if active { 1 + corr.region_count() } else { 1 };

    // Find the limiting channel: smallest margin in closure σ units. The
    // closure is region-aware, so the sensitivity magnitude |s| already
    // includes the coherent same-region term when the correlation is on.
    let mut best: Option<(usize, f64, f64, f64)> = None; // (channel, margin, r_tot, |s|)
    let mut offset = 0usize;
    let mut best_offset = 0usize;
    for (c, stages) in problem.channels.iter().enumerate() {
        let closure = if active {
            analytic::correlated_channel_closure(stages, variation, corr, offset)
        } else {
            analytic::line_closure(stages, variation)
        };
        let r_tot: f64 = stages.repeater_s.iter().sum();
        let sens = closure.sigma_s; // |s| = √(σd²R² + σw²Σ·) by construction
        if sens > 0.0 {
            let margin = (problem.period_s - closure.mean_s) / sens;
            if best.is_none_or(|(_, m, _, _)| margin < m) {
                best = Some((c, margin, r_tot, sens));
                best_offset = offset;
            }
        }
        offset += stages.len();
    }
    let Some((c, margin, r_tot, sens)) = best else {
        return shift; // no variation at all — zero shift, plain MC
    };

    // Shift magnitude: put the shifted mean on the failure boundary,
    // clamped. With delay ≈ mean − s·z (delay *falls* with each z —
    // stronger drive), the boundary point closest to the origin is
    // z* = −margin · s/|s|: for a passing-typical line (margin > 0) the
    // shift is negative (weaker drive, toward failure).
    let t = margin.clamp(-MAX_SHIFT_SIGMA, MAX_SHIFT_SIGMA);
    let s0 = variation.sigma_d2d * r_tot;
    shift[0] = -t * s0 / sens;
    let stages = &problem.channels[c];
    if active {
        // Correlated sensitivities: s_region = σ_w·√ρ·R_{c,g} on the
        // limiting channel's region coordinates, s_stage = σ_w·√(1−ρ)·rⱼ
        // on its per-stage coordinates. |s| equals `sens` above.
        let (load_region, load_stage) = corr.loadings();
        let loadings = analytic::region_loadings(
            stages,
            &corr.stage_region[best_offset..best_offset + stages.len()],
        );
        for (region, r_cg) in loadings {
            shift[1 + region] = -t * variation.sigma_wid * load_region * r_cg / sens;
        }
        for (j, r) in stages.repeater_s.iter().enumerate() {
            shift[stage_base + best_offset + j] = -t * variation.sigma_wid * load_stage * r / sens;
        }
    } else {
        for (j, r) in stages.repeater_s.iter().enumerate() {
            shift[stage_base + best_offset + j] = -t * variation.sigma_wid * r / sens;
        }
    }
    shift
}

/// Minimum shifted dies before the importance sampler may early-stop:
/// with zero observed failures the CLT variance (and half-width) is zero,
/// which would otherwise end the run after the very first batch.
const MIN_IS_DIES: usize = 1024;

/// Importance-sampling estimator: adaptive batches of mean-shifted dies
/// with likelihood-ratio reweighting and a CLT interval.
fn run_importance(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let channels = problem.channels.len();
    let dim = problem.dimension();
    let shift = importance_shift(problem);
    let shift_sq: f64 = shift.iter().map(|m| m * m).sum();
    let cv = config.control_variate.then(|| CvContext::fit(problem));
    // The hand-picked shift puts the shifted mean *on* the boundary
    // (t = m before clamping), so the likelihood ratio on the failure
    // side is at most e^{t²/2 − t·m} ≤ e^{−t²/2}.
    let weight_cap = (-0.5 * shift_sq).exp().min(1.0);

    let mut tally = WeightTally::zero(channels);
    let mut batch = FIRST_BATCH;
    let mut hit_target = false;
    let obs = pi_obs::enabled();
    while tally.dies < config.max_evals {
        let take = batch.min(config.max_evals - tally.dies);
        let chunks = fixed_chunks(tally.dies, tally.dies + take);
        let partials = map_round(&chunks, take * dim, inline_below, |&(start, end)| {
            let mut part = WeightTally::zero(channels);
            let mut pass = vec![false; channels];
            let mut sur_pass = vec![false; channels];
            let mut z = vec![0.0; dim];
            for index in start..end {
                let mut rng = Rng::stream(config.seed, index as u64);
                let mut dot = 0.0;
                for (zk, &mk) in z.iter_mut().zip(&shift) {
                    *zk = mk + rng.normal();
                    dot += mk * *zk;
                }
                let weight = (-dot + 0.5 * shift_sq).exp();
                let all_ok = problem.die_from_normals(&z, &mut pass);
                part.dies += 1;
                if obs {
                    part.obs_w += weight;
                    part.obs_w2 += weight * weight;
                }
                if !all_ok {
                    part.fail_w += weight;
                    part.fail_w2 += weight * weight;
                }
                if let Some(ctx) = &cv {
                    let sur_ok = ctx.surrogate.die(&z, &mut sur_pass);
                    part.record_diff(weight, all_ok, sur_ok);
                }
                for (slot, &ok) in part.fail_channel_w.iter_mut().zip(&pass) {
                    if !ok {
                        *slot += weight;
                    }
                }
            }
            part
        });
        for part in &partials {
            tally.merge(part);
        }
        let (_, hw) = weighted_stats(&tally, cv.as_ref(), config, weight_cap);
        pi_obs::sample("yield.ci_half_width", tally.dies as f64, hw);
        if cv.is_some() {
            pi_obs::sample(
                "yield.surrogate_disagreement",
                tally.dies as f64,
                tally.dis_w / tally.dies as f64,
            );
        }
        let floor = if cv_trusted(&tally, cv.as_ref(), config) {
            FIRST_BATCH
        } else {
            MIN_IS_DIES
        };
        if config.target_half_width > 0.0
            && hw <= config.target_half_width
            && tally.dies >= floor.min(config.max_evals)
        {
            hit_target = true;
            break;
        }
        batch = (batch * 2).min(MAX_BATCH);
    }
    pi_obs::counter_add(
        if hit_target {
            "yield.stop_target"
        } else {
            "yield.stop_budget"
        },
        1,
    );
    if obs && tally.obs_w2 > 0.0 {
        // Kish effective sample size of the likelihood-ratio weights: how
        // many unweighted dies the weighted sample is "worth". A collapse
        // toward 1 flags weight degeneracy (shift pushed too far).
        pi_obs::gauge_set("yield.is_ess", tally.obs_w * tally.obs_w / tally.obs_w2);
    }

    let dis_rate = match &cv {
        Some(_) => tally.dis_w / tally.dies as f64,
        None => 0.0,
    };
    if cv.is_some() && !cv_trusted(&tally, cv.as_ref(), config) {
        pi_obs::counter_add("yield.surrogate_fallback", 1);
    }
    let (p_fail, hw) = weighted_stats(&tally, cv.as_ref(), config, weight_cap);
    let n = tally.dies as f64;
    NetworkYieldEstimate {
        overall: YieldEstimate {
            yield_fraction: (1.0 - p_fail).clamp(0.0, 1.0),
            half_width: hw,
            evals: tally.dies,
            method: Method::ImportanceSampling,
            surrogate_disagreement: dis_rate,
        },
        channel_yield: tally
            .fail_channel_w
            .iter()
            .map(|&f| (1.0 - f / n).clamp(0.0, 1.0))
            .collect(),
    }
}

/// Whether the control variate is active *and* the surrogate is still
/// within its disagreement budget.
fn cv_trusted(tally: &WeightTally, cv: Option<&CvContext>, config: &EstimatorConfig) -> bool {
    cv.is_some()
        && tally.dies > 0
        && (tally.dis_w / tally.dies as f64) <= config.disagreement_threshold
}

/// Failure estimate and half-width of a weighted run: the plain
/// likelihood-ratio statistic, or the control-variate one while the
/// surrogate is trusted.
fn weighted_stats(
    tally: &WeightTally,
    cv: Option<&CvContext>,
    config: &EstimatorConfig,
    weight_cap: f64,
) -> (f64, f64) {
    match cv {
        Some(ctx) if cv_trusted(tally, cv, config) => {
            cv_weighted_interval(tally, 1.0 - ctx.e_pass, config.confidence_z, weight_cap)
        }
        _ => weighted_interval(tally, config.confidence_z),
    }
}

/// Surrogate-guided importance sampling: the shift (or Gaussian-mixture
/// proposal) is fitted from the surrogate's closed-form variance proxy,
/// and the surrogate indicator rides along as a control variate, so the
/// sampled statistic is the *disagreement* between surrogate and exact
/// verdicts — typically orders of magnitude rarer than failures
/// themselves. When the disagreement rate exceeds the configured
/// threshold the surrogate is distrusted and the run degrades to the
/// plain importance-sampling statistic (reported as such in `method`).
fn run_surrogate(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let channels = problem.channels.len();
    let dim = problem.dimension();
    let surrogate = Surrogate::fit(problem);
    let proposal = surrogate.proposal();
    let e_pass = surrogate.expectation_all_pass();
    let weight_cap = proposal.boundary_weight_cap();
    let obs = pi_obs::enabled();
    if obs {
        pi_obs::gauge_set("yield.surrogate_shift", proposal.leading_magnitude());
        pi_obs::gauge_set("yield.surrogate_components", proposal.components() as f64);
    }

    let mut tally = WeightTally::zero(channels);
    let mut batch = FIRST_BATCH;
    let mut hit_target = false;
    while tally.dies < config.max_evals {
        let take = batch.min(config.max_evals - tally.dies);
        let chunks = fixed_chunks(tally.dies, tally.dies + take);
        let partials = map_round(&chunks, take * dim, inline_below, |&(start, end)| {
            let mut part = WeightTally::zero(channels);
            let mut pass = vec![false; channels];
            let mut sur_pass = vec![false; channels];
            let mut z = vec![0.0; dim];
            for index in start..end {
                let mut rng = Rng::stream(config.seed, index as u64);
                let weight = proposal.sample(&mut rng, &mut z);
                let all_ok = problem.die_from_normals(&z, &mut pass);
                let sur_ok = surrogate.die(&z, &mut sur_pass);
                part.dies += 1;
                if obs {
                    part.obs_w += weight;
                    part.obs_w2 += weight * weight;
                }
                if !all_ok {
                    part.fail_w += weight;
                    part.fail_w2 += weight * weight;
                }
                part.record_diff(weight, all_ok, sur_ok);
                for (slot, &ok) in part.fail_channel_w.iter_mut().zip(&pass) {
                    if !ok {
                        *slot += weight;
                    }
                }
            }
            part
        });
        for part in &partials {
            tally.merge(part);
        }
        let dis_rate = tally.dis_w / tally.dies as f64;
        let trusted = dis_rate <= config.disagreement_threshold;
        let (_, hw) = if trusted {
            cv_weighted_interval(&tally, 1.0 - e_pass, config.confidence_z, weight_cap)
        } else {
            weighted_interval(&tally, config.confidence_z)
        };
        pi_obs::sample("yield.ci_half_width", tally.dies as f64, hw);
        pi_obs::sample("yield.surrogate_disagreement", tally.dies as f64, dis_rate);
        // The control-variate interval is honest from the very first
        // batch (rule of three on the bounded disagreement terms), so a
        // trusted run may stop at FIRST_BATCH; a distrusted run needs
        // the plain importance sampler's floor.
        let floor = if trusted { FIRST_BATCH } else { MIN_IS_DIES };
        if config.target_half_width > 0.0
            && hw <= config.target_half_width
            && tally.dies >= floor.min(config.max_evals)
        {
            hit_target = true;
            break;
        }
        batch = (batch * 2).min(MAX_BATCH);
    }
    pi_obs::counter_add(
        if hit_target {
            "yield.stop_target"
        } else {
            "yield.stop_budget"
        },
        1,
    );
    if obs && tally.obs_w2 > 0.0 {
        pi_obs::gauge_set("yield.is_ess", tally.obs_w * tally.obs_w / tally.obs_w2);
    }

    let n = tally.dies as f64;
    let dis_rate = tally.dis_w / n;
    pi_obs::gauge_set("yield.surrogate_disagreement", dis_rate);
    let trusted = dis_rate <= config.disagreement_threshold;
    let (p_fail, hw, method) = if trusted {
        let (p, hw) = cv_weighted_interval(&tally, 1.0 - e_pass, config.confidence_z, weight_cap);
        (p, hw, Method::SurrogateIs)
    } else {
        // Distrusted surrogate: report the plain weighted statistic and
        // flag the degradation through the `method` field.
        pi_obs::counter_add("yield.surrogate_fallback", 1);
        let (p, hw) = weighted_interval(&tally, config.confidence_z);
        (p, hw, Method::ImportanceSampling)
    };
    NetworkYieldEstimate {
        overall: YieldEstimate {
            yield_fraction: (1.0 - p_fail).clamp(0.0, 1.0),
            half_width: hw,
            evals: tally.dies,
            method,
            surrogate_disagreement: dis_rate,
        },
        channel_yield: tally
            .fail_channel_w
            .iter()
            .map(|&f| (1.0 - f / n).clamp(0.0, 1.0))
            .collect(),
    }
}

/// Weighted failure estimate and CLT half-width.
fn weighted_interval(tally: &WeightTally, z: f64) -> (f64, f64) {
    let n = tally.dies as f64;
    let p = tally.fail_w / n;
    if tally.dies < 2 {
        return (p, f64::INFINITY);
    }
    if tally.fail_w == 0.0 {
        // Zero observed failures carry no variance information — the CLT
        // interval degenerates to a confidently-zero width even after a
        // handful of dies. Fall back to the rule of three: with n clean
        // dies the failure rate is ≲ 3/n at ~95 % confidence.
        return (0.0, 3.0 / n);
    }
    let var = ((tally.fail_w2 - n * p * p) / (n - 1.0)).max(0.0);
    (p, z * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{DriveVariation, SpatialCorrelation, StageDelays};

    fn line(deadline_over_nominal: f64) -> LineProblem {
        let stages = StageDelays::new(vec![28e-12; 10], vec![11e-12; 10]);
        let deadline_s = stages.nominal_delay() * deadline_over_nominal;
        LineProblem {
            stages,
            variation: DriveVariation {
                sigma_d2d: 0.08,
                sigma_wid: 0.05,
            },
            correlation: SpatialCorrelation::none(),
            deadline_s,
        }
    }

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>().unwrap(), m);
        }
        assert!("bogus".parse::<Method>().is_err());
    }

    #[test]
    fn wilson_half_width_shrinks_with_n() {
        let a = wilson_half_width(90, 100, 1.96);
        let b = wilson_half_width(900, 1000, 1.96);
        let c = wilson_half_width(9000, 10_000, 1.96);
        assert!(a > b && b > c);
        // Large-n Wilson approaches the familiar √(p(1−p)/n).
        let expect = 1.96 * (0.09f64 / 10_000.0).sqrt();
        assert!((c - expect).abs() / expect < 0.05);
    }

    #[test]
    fn every_estimator_agrees_on_a_moderate_yield_line() {
        let p = line(1.06);
        let reference = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::Naive)
                .with_target_half_width(2e-3)
                .with_seed(11),
        );
        for method in Method::ALL {
            let cfg = EstimatorConfig::new(method).with_seed(23);
            let est = estimate_line_yield(&p, &cfg);
            let slack = est.half_width.max(reference.half_width).max(0.02);
            assert!(
                (est.yield_fraction - reference.yield_fraction).abs() <= 3.0 * slack,
                "{method}: {} vs naive {} (slack {slack})",
                est.yield_fraction,
                reference.yield_fraction,
            );
        }
    }

    #[test]
    fn adaptive_early_stop_respects_the_target() {
        let p = line(1.06);
        let cfg = EstimatorConfig::new(Method::Naive).with_target_half_width(0.01);
        let est = estimate_line_yield(&p, &cfg);
        assert!(est.half_width <= 0.01, "stopped above target");
        assert!(est.evals < cfg.max_evals, "early stop never triggered");
        // A tighter target costs more evaluations.
        let tight = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::Naive).with_target_half_width(0.004),
        );
        assert!(tight.evals > est.evals);
    }

    #[test]
    fn fixed_eval_mode_runs_exactly_max() {
        let p = line(1.06);
        let cfg = EstimatorConfig::new(Method::Naive)
            .with_target_half_width(0.0)
            .with_max_evals(1000);
        let est = estimate_line_yield(&p, &cfg);
        assert_eq!(est.evals, 1000);
    }

    #[test]
    fn scrambled_sobol_needs_far_fewer_evals_than_naive() {
        let p = line(1.08);
        let target = 5e-3;
        let naive = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::Naive).with_target_half_width(target),
        );
        let qmc = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::SobolScrambled).with_target_half_width(target),
        );
        assert!(qmc.half_width <= target);
        assert!(
            qmc.evals * 2 <= naive.evals,
            "QMC {} evals vs naive {}",
            qmc.evals,
            naive.evals
        );
        assert!(
            (qmc.yield_fraction - naive.yield_fraction).abs() < 3.0 * (target + naive.half_width)
        );
    }

    #[test]
    fn importance_sampling_shines_on_rare_failures() {
        // 3σ-ish deadline: failures are ~0.1 %, where naive MC needs
        // hundreds of thousands of dies for a tight *relative* answer.
        let p = line(1.25);
        let target = 5e-4;
        let is = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::ImportanceSampling).with_target_half_width(target),
        );
        let naive = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::Naive).with_target_half_width(target),
        );
        assert!(is.half_width <= target);
        assert!(
            is.evals * 4 <= naive.evals,
            "IS {} evals vs naive {}",
            is.evals,
            naive.evals
        );
        assert!(
            (is.yield_fraction - naive.yield_fraction).abs() < 3.0 * (target + naive.half_width)
        );
    }

    #[test]
    fn network_estimates_expose_channel_yields() {
        let fast = StageDelays::new(vec![20e-12; 6], vec![9e-12; 6]);
        let slow = StageDelays::new(vec![34e-12; 6], vec![9e-12; 6]);
        let period = slow.nominal_delay() * 1.05;
        let net = NetworkProblem::new(
            vec![fast, slow],
            DriveVariation {
                sigma_d2d: 0.08,
                sigma_wid: 0.05,
            },
            period,
        );
        for method in Method::ALL {
            let est = estimate_network_yield(&net, &EstimatorConfig::new(method));
            assert_eq!(est.channel_yield.len(), 2, "{method}");
            assert!(
                est.channel_yield[0] >= est.channel_yield[1],
                "{method}: slow channel must limit"
            );
            assert!(
                est.overall.yield_fraction <= est.channel_yield[1] + est.overall.half_width + 0.02,
                "{method}: network ≤ weakest channel"
            );
        }
    }

    #[test]
    fn zero_variation_gives_certain_answers() {
        let stages = StageDelays::new(vec![30e-12; 4], vec![10e-12; 4]);
        let p = LineProblem {
            deadline_s: stages.nominal_delay() * 1.01,
            stages,
            variation: DriveVariation {
                sigma_d2d: 0.0,
                sigma_wid: 0.0,
            },
            correlation: SpatialCorrelation::none(),
        };
        for method in Method::ALL {
            let est = estimate_line_yield(&p, &EstimatorConfig::new(method));
            assert!(
                (est.yield_fraction - 1.0).abs() < 1e-12,
                "{method}: {}",
                est.yield_fraction
            );
        }
    }

    /// Bugfix pin: a tiny importance-sampling budget on a high-yield
    /// problem used to report yield 1.0 with `half_width == 0` — a
    /// confidently-zero interval from a sample too small to see any
    /// failure. The rule-of-three fallback must report `3/n` instead.
    #[test]
    fn tiny_budget_zero_failures_is_not_confidently_certain() {
        // Enormous slack and a small variation budget: even after the
        // clamped 6σ importance shift the failure boundary sits over
        // 100σ out, so no sample of any seed can see a failure.
        let mut p = line(2.0);
        p.variation = DriveVariation {
            sigma_d2d: 0.01,
            sigma_wid: 0.01,
        };
        let budget = 256; // well below MIN_IS_DIES
        let cfg = EstimatorConfig::new(Method::ImportanceSampling)
            .with_seed(3)
            .with_max_evals(budget);
        let est = estimate_line_yield(&p, &cfg);
        assert!(est.evals <= budget);
        assert!((est.yield_fraction - 1.0).abs() < 1e-12, "no failures seen");
        let expect = 3.0 / est.evals as f64;
        assert!(
            (est.half_width - expect).abs() < 1e-12,
            "rule-of-three half-width: got {}, want {expect}",
            est.half_width
        );
        // And the interval honestly refuses sub-1e-2 certainty at n=256.
        assert!(est.half_width > 1e-2);
    }

    /// Correlated problems: every estimator must agree with the naive
    /// reference, and the analytic closure must land within a combined
    /// CI width of scrambled-Sobol MC (acceptance criterion for the
    /// spatial-correlation model).
    #[test]
    fn correlated_estimators_agree_across_rho() {
        // Two channels, each pinned to its own region, so the analytic
        // dominant-region factorization is exact within the closure.
        let mk = |rho: f64| {
            let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
            let period = ch().nominal_delay() * 1.09;
            NetworkProblem::new(
                vec![ch(), ch()],
                DriveVariation {
                    sigma_d2d: 0.08,
                    sigma_wid: 0.05,
                },
                period,
            )
            .with_correlation(SpatialCorrelation::regional(
                rho,
                [vec![0; 8], vec![1; 8]].concat(),
            ))
        };
        for rho in [0.0, 0.5, 0.9] {
            let net = mk(rho);
            let target = 5e-3;
            let reference = estimate_network_yield(
                &net,
                &EstimatorConfig::new(Method::Naive)
                    .with_seed(17)
                    .with_target_half_width(target),
            );
            for method in Method::ALL {
                let est = estimate_network_yield(
                    &net,
                    &EstimatorConfig::new(method)
                        .with_seed(17)
                        .with_target_half_width(target),
                );
                let slack = (est.overall.half_width + reference.overall.half_width).max(0.02);
                assert!(
                    (est.overall.yield_fraction - reference.overall.yield_fraction).abs()
                        < 3.0 * slack,
                    "{method} at rho={rho}: {} vs naive {}",
                    est.overall.yield_fraction,
                    reference.overall.yield_fraction,
                );
            }
            // Analytic vs scrambled-Sobol, specifically, within CI width
            // (plus the documented closure slack).
            let analytic = estimate_network_yield(&net, &EstimatorConfig::new(Method::Analytic));
            let rqmc = estimate_network_yield(
                &net,
                &EstimatorConfig::new(Method::SobolScrambled)
                    .with_seed(17)
                    .with_target_half_width(2e-3),
            );
            assert!(
                (analytic.overall.yield_fraction - rqmc.overall.yield_fraction).abs()
                    < rqmc.overall.half_width + 0.02,
                "analytic {} vs RQMC {} ± {} at rho={rho}",
                analytic.overall.yield_fraction,
                rqmc.overall.yield_fraction,
                rqmc.overall.half_width,
            );
        }
    }

    /// The region-aware importance shift must keep the estimator unbiased
    /// in the rare-failure regime it exists for.
    #[test]
    fn correlated_importance_shift_targets_the_tail() {
        let mut p = line(1.22);
        p.correlation = SpatialCorrelation::regional(0.7, vec![0; 10]);
        let is = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::ImportanceSampling)
                .with_seed(29)
                .with_target_half_width(1e-3),
        );
        let naive = estimate_line_yield(
            &p,
            &EstimatorConfig::new(Method::Naive)
                .with_seed(29)
                .with_target_half_width(1e-3),
        );
        let slack = (is.half_width + naive.half_width).max(5e-3);
        assert!(
            (is.yield_fraction - naive.yield_fraction).abs() < 3.0 * slack,
            "IS {} vs naive {}",
            is.yield_fraction,
            naive.yield_fraction,
        );
        assert!(is.yield_fraction < 1.0, "tail problem has real failures");
    }
    /// Every sampling method and control-variate setting must give the
    /// same bits whether its rounds run inline or fan out, on a problem
    /// whose rounds all sit below the inline bound and on one whose
    /// rounds all sit above it.
    #[test]
    fn inline_and_fanout_rounds_give_identical_estimates() {
        let small = line(1.06).as_network();
        let large = {
            let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
            let period = ch().nominal_delay() * 1.09;
            let regions: Vec<usize> = (0..64).map(|s| s / 16).collect();
            NetworkProblem::new(
                (0..8).map(|_| ch()).collect(),
                DriveVariation {
                    sigma_d2d: 0.08,
                    sigma_wid: 0.05,
                },
                period,
            )
            .with_correlation(SpatialCorrelation::regional(0.5, regions))
        };
        let (small_evals, large_evals) = (1024, 4096);
        // Largest round of the small runs, smallest round of the large.
        assert!(small_evals * small.dimension() < INLINE_DIE_DIMS);
        let first_round = FIRST_BATCH.min(FIRST_REPLICATE_POINTS * 8);
        assert!(first_round * large.dimension() >= INLINE_DIE_DIMS);
        for (problem, max_evals) in [(&small, small_evals), (&large, large_evals)] {
            for method in Method::ALL {
                for cv in [false, true] {
                    let cfg = EstimatorConfig::new(method)
                        .with_seed(41)
                        .with_control_variate(cv)
                        .with_target_half_width(0.0)
                        .with_max_evals(max_evals);
                    let default = estimate_network_yield(problem, &cfg);
                    let inline = estimate_with(problem, &cfg, usize::MAX);
                    let fanout = estimate_with(problem, &cfg, 0);
                    let dim = problem.dimension();
                    assert_eq!(default, inline, "{method} cv={cv} dim {dim}: inline");
                    assert_eq!(default, fanout, "{method} cv={cv} dim {dim}: fan-out");
                }
            }
        }
    }
}
