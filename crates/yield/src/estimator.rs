//! The estimation engine: adaptive, confidence-interval-driven yield
//! estimators over [`NetworkProblem`]s (a single line is the one-channel
//! special case).
//!
//! Every sampling method is a row of one **method table** (`Row::of`)
//! run by one adaptive loop, `drive`. A row pairs a **die source** —
//! normals from `Rng::stream(seed, index)`, the Sobol point at the index
//! under one digital shift per replicate (all zero for plain Sobol), or a
//! draw from a Gaussian [`Proposal`] with its likelihood ratio — with an
//! **interval rule**, and sets the schedule: first round, round cap and
//! early-stop floor. `drive` splits each round into **fixed-size
//! chunks**, maps them through `pi_rt::par_map` (or on the calling thread
//! when the round is too small to repay the fan-out) and merges them in
//! chunk order. Chunk boundaries never depend on the thread count and
//! each die depends only on its index, so the estimate — early-stop
//! decision included — is bit-identical for any `PI_THREADS`. After each
//! round `drive` checks the control variate's trust, recomputes the
//! 95 % interval and stops once it is narrow enough past the floor.
//!
//! - **Naive MC / plain Sobol** — Wilson interval on the pass count (for
//!   plain Sobol a *heuristic*: QMC points are not independent).
//! - **Scrambled Sobol** — CLT over `replicates` independently shifted
//!   copies of the point set: honest, and shrinking like the QMC error
//!   (≈ N⁻¹), not like N^(−1/2).
//! - **Importance sampling** — CLT on the likelihood-ratio weighted
//!   failure rate, with dies drawn around the limiting channel's failure
//!   boundary (the ISLE recipe), so rare failures become common.
//!   Surrogate-IS draws from the surrogate's fitted proposal instead.
//!
//! With a trusted control variate, each rule runs on the exact-minus-
//! surrogate difference plus the surrogate's exact expectation.

use pi_rt::norm::normal_inv_cdf;
use pi_rt::Rng;

use crate::analytic;
use crate::problem::{LineProblem, NetworkProblem};
use crate::sobol::Sobol;
use crate::surrogate::{Proposal, Surrogate};

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
    /// Cap on sampled dies. Scrambled Sobol splits it evenly over its
    /// replicates, rounding up: each runs `max_evals.div_ceil(replicates)`
    /// points, so a run may spend up to `replicates − 1` dies more (8 at
    /// `max_evals = 1` and 1008 at 1001, with the default 8 replicates).
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
/// die-dimensions mapped serially (see [`map_round`]): builds the
/// method's die source, takes its [`Row`] from the method table, and
/// runs [`drive`].
fn estimate_with(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let method = config.method;
    if method == Method::Analytic {
        let (overall, channel_yield) = analytic::network_yield(problem);
        return NetworkYieldEstimate {
            overall: YieldEstimate {
                yield_fraction: overall,
                half_width: 0.0,
                evals: 0,
                method,
                surrogate_disagreement: 0.0,
            },
            channel_yield,
        };
    }
    let (seed, dim, row) = (config.seed, problem.dimension(), Row::of(config));
    // The control variate: the surrogate's per-die verdict.
    let cv =
        (config.control_variate || method == Method::SurrogateIs).then(|| Surrogate::fit(problem));
    let cv = cv.as_ref();
    let (sobol, shifts, proposal);
    let source = match method {
        Method::Naive => Source::Stream(seed),
        Method::Sobol | Method::SobolScrambled => {
            sobol = Sobol::new(dim);
            // One digital shift per unit; the plain sequence's is all zero.
            shifts = match row.units {
                1 => vec![vec![0; dim]],
                units => (0..units)
                    .map(|r| sobol.digital_shifts(seed, r as u64))
                    .collect(),
            };
            Source::Sobol(&sobol, &shifts)
        }
        Method::ImportanceSampling => {
            let shift = importance_shift(problem);
            // The hand-picked shift puts the shifted mean *on* the
            // boundary (t = m before clamping), so the likelihood ratio on
            // the failure side is at most e^{t²/2 − t·m} ≤ e^{−t²/2}.
            let shift_sq: f64 = shift.iter().map(|m| m * m).sum();
            proposal = Proposal::single(shift);
            Source::Proposal(seed, &proposal, (-0.5 * shift_sq).exp().min(1.0))
        }
        Method::SurrogateIs => {
            proposal = cv.expect("surrogate-IS forces it").proposal();
            if pi_obs::enabled() {
                pi_obs::gauge_set("yield.surrogate_shift", proposal.leading_magnitude());
                pi_obs::gauge_set("yield.surrogate_components", proposal.components() as f64);
            }
            Source::Proposal(seed, &proposal, proposal.boundary_weight_cap())
        }
        Method::Analytic => unreachable!("answered in closed form above"),
    };
    let est = drive(problem, config, &row, &source, cv, inline_below);
    if method == Method::SurrogateIs {
        let rate = est.overall.surrogate_disagreement;
        pi_obs::gauge_set("yield.surrogate_disagreement", rate);
    }
    est
}

/// A sampling method's row in the method table: how [`drive`] tallies
/// its dies into an interval, and the schedule it runs them under.
struct Row {
    rule: Rule,
    /// Tallies fed side by side from the same die indices: the scrambled
    /// replicates, else one. They split the budget evenly.
    units: usize,
    /// Dies per unit in the round after `done` per unit have run.
    next_round: fn(usize) -> usize,
    /// Dies per unit a run needs before it may stop on its target:
    /// `[control variate off or distrusted, trusted]`.
    floor: [usize; 2],
    /// The method reported when the surrogate is distrusted.
    fallback: Method,
}

impl Row {
    /// The method table. Naive MC and plain Sobol run rounds of 256 dies
    /// doubling to 65 536, stopping after any. Scrambled Sobol runs 32
    /// points per replicate, then doubles the points run so far, uncapped,
    /// and stops on target from 128. Weighted rows run the naive rounds;
    /// their control-variate interval is honest from the first round (rule
    /// of three on bounded terms), so a trusted run may stop at 256 dies,
    /// the plain one at 1024 (both capped at the budget).
    fn of(config: &EstimatorConfig) -> Row {
        let rounds = Row {
            rule: Rule::Wilson,
            units: 1,
            next_round: |done| (done + FIRST_BATCH).min(MAX_BATCH),
            floor: [0, 0],
            fallback: config.method,
        };
        match config.method {
            Method::SobolScrambled => {
                let units = config.replicates;
                assert!(units >= 2, "scrambled Sobol needs at least 2 replicates");
                Row {
                    rule: Rule::Replicates,
                    units,
                    // Doubling the points run so far lands every stop on a
                    // power of two, where a Sobol prefix is a digital net.
                    next_round: |done| done.max(FIRST_REPLICATE_POINTS),
                    floor: [MIN_REPLICATE_POINTS; 2],
                    ..rounds
                }
            }
            Method::ImportanceSampling | Method::SurrogateIs => Row {
                rule: Rule::Weighted,
                floor: [MIN_IS_DIES, FIRST_BATCH].map(|f| f.min(config.max_evals)),
                fallback: Method::ImportanceSampling,
                ..rounds
            },
            _ => rounds,
        }
    }
}

/// First adaptive batch size (dies).
const FIRST_BATCH: usize = 256;
/// Largest adaptive batch size.
const MAX_BATCH: usize = 65_536;
/// First per-replicate point count of the scrambled-Sobol schedule.
const FIRST_REPLICATE_POINTS: usize = 32;
/// Replicate points before a target stop: a few agreeing replicates prove little.
const MIN_REPLICATE_POINTS: usize = 128;
/// Weighted dies before a target stop without a trusted control variate.
const MIN_IS_DIES: usize = 1024;

/// The adaptive loop every sampling method runs. Each round draws
/// `next_round(done)` more dies per unit (clamped to the budget) as
/// fixed-size chunks of the source, merged in item order. Then it checks
/// the control variate's trust, recomputes and probes the interval, and
/// stops once the half-width reaches the target past the row's floor, or
/// the budget is spent.
fn drive(
    problem: &NetworkProblem,
    config: &EstimatorConfig,
    row: &Row,
    source: &Source,
    cv: Option<&Surrogate>,
    inline_below: usize,
) -> NetworkYieldEstimate {
    let channels = problem.channels.len();
    let mut units: Vec<Tally> = (0..row.units).map(|_| Tally::zero(channels)).collect();
    let budget = config.max_evals.div_ceil(row.units);
    let (mut done, mut dis_rate, mut trusted) = (0, 0.0, false);
    let (mut ci, mut stop) = ((0.0, 0.0), "yield.stop_budget");
    let e_pass = cv.map(Surrogate::expectation_all_pass);
    let cap = match *source {
        Source::Proposal(_, _, cap) => cap,
        _ => 1.0,
    };
    while done < budget {
        let round = (row.next_round)(done).min(budget - done);
        let end = done + round;
        let chunk = move |s: usize| (s, (s + CHUNK).min(end));
        let items: Vec<(usize, (usize, usize))> = (0..row.units)
            .flat_map(|u| (done..end).step_by(CHUNK).map(move |s| (u, chunk(s))))
            .collect();
        let die_dims = round * row.units * problem.dimension();
        let partials = map_round(&items, die_dims, inline_below, |&(u, dies)| {
            source.tally(problem, cv, u, dies)
        });
        for (&(u, _), part) in items.iter().zip(&partials) {
            units[u].merge(part);
        }
        done += round;
        let dies = (done * row.units) as f64;
        dis_rate = units.iter().map(|t| t.dis_w).sum::<f64>() / dies;
        trusted = cv.is_some() && dis_rate <= config.disagreement_threshold;
        let trusted_e_pass = e_pass.filter(|_| trusted);
        ci = interval(row.rule, &units, trusted_e_pass, config.confidence_z, cap);
        pi_obs::sample("yield.ci_half_width", dies, ci.1);
        if cv.is_some() {
            pi_obs::sample("yield.surrogate_disagreement", dies, dis_rate);
        }
        if config.target_half_width > 0.0
            && ci.1 <= config.target_half_width
            && done >= row.floor[usize::from(trusted)]
        {
            stop = "yield.stop_target";
            break;
        }
    }
    pi_obs::counter_add(stop, 1);
    if cv.is_some() && !trusted {
        pi_obs::counter_add("yield.surrogate_fallback", 1);
    }
    NetworkYieldEstimate {
        overall: YieldEstimate {
            yield_fraction: ci.0,
            half_width: ci.1,
            evals: done * row.units,
            method: if trusted { config.method } else { row.fallback },
            surrogate_disagreement: if cv.is_some() { dis_rate } else { 0.0 },
        },
        channel_yield: channel_yield(row.rule, &units),
    }
}

/// Fixed parallel chunk size — *never* derived from the thread count, so
/// partial-tally merge order is identical for every `PI_THREADS`.
const CHUNK: usize = 1024;

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

/// Where a row's dies come from. Die `index` depends on the seed and the
/// index alone, never on the chunking.
enum Source<'a> {
    /// Normals from `Rng::stream(seed, index)` (naive MC).
    Stream(u64),
    /// Sobol point `index` through the inverse normal CDF, under one
    /// digital shift per unit (plain and scrambled Sobol).
    Sobol(&'a Sobol, &'a [Vec<u32>]),
    /// A draw from the proposal out of `Rng::stream(seed, index)`, weighted
    /// by its likelihood ratio, and the bound on that ratio near the
    /// surrogate failure boundary (importance sampling, surrogate-IS).
    Proposal(u64, &'a Proposal, f64),
}

impl Source<'_> {
    /// Tallies the unit's chunk of `dies` (`start..end`); each source runs
    /// its own monomorphic copy of [`tally_dies`]. Sobol points are stepped in
    /// natural order from the chunk start.
    fn tally(
        &self,
        problem: &NetworkProblem,
        cv: Option<&Surrogate>,
        unit: usize,
        dies: (usize, usize),
    ) -> Tally {
        match *self {
            // Drawing the normals up front and replaying them through the
            // explicit path reproduces the streamed `sample_die` exactly
            // (pinned by the problem-layer tests).
            Source::Stream(seed) => tally_dies(problem, cv, dies, |index, z| {
                let mut rng = Rng::stream(seed, index as u64);
                z.iter_mut().for_each(|slot| *slot = rng.normal());
                1.0
            }),
            Source::Sobol(sobol, shifts) => {
                let start = dies.0;
                let mut cursor = sobol.cursor(start as u64);
                tally_dies(problem, cv, dies, |index, z| {
                    if index > start {
                        cursor.advance();
                    }
                    for (slot, u) in z.iter_mut().zip(cursor.coords(&shifts[unit])) {
                        *slot = normal_inv_cdf(u);
                    }
                    1.0
                })
            }
            Source::Proposal(seed, proposal, _) => tally_dies(problem, cv, dies, |index, z| {
                proposal.sample(&mut Rng::stream(seed, index as u64), z)
            }),
        }
    }
}

/// Tallies dies `start..end`, each drawn into `z` by `draw(index, z)`,
/// which returns its likelihood ratio. Every buffer is allocated once per
/// chunk.
fn tally_dies(
    problem: &NetworkProblem,
    cv: Option<&Surrogate>,
    (start, end): (usize, usize),
    mut draw: impl FnMut(usize, &mut [f64]) -> f64,
) -> Tally {
    let channels = problem.channels.len();
    let mut part = Tally::zero(channels);
    let (mut pass, mut sur_pass) = (vec![false; channels], vec![false; channels]);
    let mut z = vec![0.0; problem.dimension()];
    for index in start..end {
        let w = draw(index, &mut z);
        let exact_ok = problem.die_from_normals(&z, &mut pass);
        part.dies += 1;
        part.w += w;
        part.w2 += w * w;
        if !exact_ok {
            part.fail_w += w;
            part.fail_w2 += w * w;
        }
        for (slot, &ok) in part.fail_channel_w.iter_mut().zip(&pass) {
            if !ok {
                *slot += w;
            }
        }
        let sur_ok = cv.map(|surrogate| surrogate.die(&z, &mut sur_pass));
        if sur_ok.is_some_and(|sur_ok| sur_ok != exact_ok) {
            part.disagree += 1;
            part.dis_w += w;
            // Difference of *failure* indicators: exact fails, surrogate
            // passes → +w; exact passes, surrogate fails → −w.
            let d = if exact_ok { -w } else { w };
            part.diff_w += d;
            part.diff_w2 += d * d;
        }
    }
    part
}

/// Running sums over one unit's dies, each weighted by its likelihood
/// ratio: 1 for the unweighted sources, where every sum is an exact count.
/// Chunks merge in a fixed order, so the sums — and every stop decision
/// drawn from them — are the same for any thread count.
#[derive(Default)]
struct Tally {
    dies: usize,
    /// Σ w·fail and Σ (w·fail)².
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
    /// Σw and Σw² over all dies, for the weighted rows' effective sample
    /// size gauge. Never feeds back into the estimate.
    w: f64,
    w2: f64,
}

impl Tally {
    fn zero(channels: usize) -> Self {
        let fail_channel_w = vec![0.0; channels];
        Tally {
            fail_channel_w,
            ..Default::default()
        }
    }

    fn merge(&mut self, other: &Tally) {
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
        self.w += other.w;
        self.w2 += other.w2;
    }
}

/// How a row's tallies become `(yield, half-width)`. With a trusted
/// control variate the statistic is the exact-minus-surrogate difference
/// plus the surrogate's exact expectation: far smaller, and with the
/// same interval machinery.
#[derive(Clone, Copy, PartialEq)]
enum Rule {
    /// A Wilson interval on one unit's pass fraction (naive MC, plain
    /// Sobol; for plain Sobol a heuristic).
    Wilson,
    /// A CLT interval over the units' pass fractions (scrambled Sobol).
    Replicates,
    /// A CLT interval on the likelihood-ratio weighted failure rate
    /// (importance sampling, surrogate-IS).
    Weighted,
}

/// The interval of `rule` over a run's `units`; `e_pass`, the
/// surrogate's exact pass probability, is given only while the control
/// variate is trusted. `cap` bounds a die's weight near the surrogate
/// failure boundary, where any unseen disagreement would live: it scales
/// the rule-of-three width of a control-variate interval.
fn interval(rule: Rule, units: &[Tally], e_pass: Option<f64>, z: f64, cap: f64) -> (f64, f64) {
    let t = &units[0];
    let n = t.dies as f64;
    // Pass minus surrogate pass, per die: −(fail − fail_surrogate).
    let diff = |t: &Tally| -t.diff_w / t.dies as f64;
    let pass = |t: &Tally| (t.dies as f64 - t.fail_w) / t.dies as f64;
    match (rule, e_pass) {
        (Rule::Wilson, None) => {
            let passes = t.dies - t.fail_w as usize;
            (pass(t), wilson_half_width(passes, t.dies, z))
        }
        (Rule::Wilson, Some(e_pass)) => {
            let d = diff(t);
            let hw = clt_half_width(t.dies, d, t.diff_w2, t.disagree > 0, cap, z);
            ((d + e_pass).clamp(0.0, 1.0), hw)
        }
        (Rule::Replicates, None) => replicate_interval(units, z, pass),
        (Rule::Replicates, Some(e_pass)) => {
            let (d, hw) = replicate_interval(units, z, diff);
            ((d + e_pass).clamp(0.0, 1.0), hw)
        }
        (Rule::Weighted, None) => {
            let p = t.fail_w / n;
            let hw = clt_half_width(t.dies, p, t.fail_w2, t.fail_w != 0.0, 1.0, z);
            ((1.0 - p).clamp(0.0, 1.0), hw)
        }
        (Rule::Weighted, Some(e_pass)) => {
            let d = t.diff_w / n;
            let hw = clt_half_width(t.dies, d, t.diff_w2, t.disagree > 0, cap, z);
            let p = (d + (1.0 - e_pass)).clamp(0.0, 1.0);
            ((1.0 - p).clamp(0.0, 1.0), hw)
        }
    }
}

/// Per-channel yields: one minus each channel's weighted failure rate,
/// or the mean over units of its pass fraction. A weighted run also
/// sets the `yield.is_ess` gauge.
fn channel_yield(rule: Rule, units: &[Tally]) -> Vec<f64> {
    let t = &units[0];
    if rule != Rule::Weighted {
        let r = units.len() as f64;
        let pass =
            |c: usize| move |t: &Tally| (t.dies as f64 - t.fail_channel_w[c]) / t.dies as f64;
        let mean = |c| units.iter().map(pass(c)).sum::<f64>() / r;
        return (0..t.fail_channel_w.len()).map(mean).collect();
    }
    if pi_obs::enabled() && t.w2 > 0.0 {
        // Kish effective sample size of the likelihood-ratio weights: how
        // many unweighted dies the weighted sample is "worth". A collapse
        // toward 1 flags weight degeneracy (shift pushed too far).
        pi_obs::gauge_set("yield.is_ess", t.w * t.w / t.w2);
    }
    let n = t.dies as f64;
    let fail = t.fail_channel_w.iter();
    fail.map(|&f| (1.0 - f / n).clamp(0.0, 1.0)).collect()
}

/// Wilson score half-width for `passes` out of `n` Bernoulli trials.
fn wilson_half_width(passes: usize, n: usize, z: f64) -> f64 {
    let nf = n as f64;
    let p = passes as f64 / nf;
    let z2 = z * z;
    z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / (1.0 + z2 / nf)
}

/// CLT half-width of a mean over `n` dies whose squared terms sum to
/// `sum_sq`: infinite below two dies, and the rule of three (scaled by
/// `cap`, each term's bound) when no nonzero term was `seen`, since those
/// carry no variance information.
fn clt_half_width(n: usize, mean: f64, sum_sq: f64, seen: bool, cap: f64, z: f64) -> f64 {
    let nf = n as f64;
    if n < 2 {
        f64::INFINITY
    } else if !seen {
        3.0 / nf * cap
    } else {
        let var = ((sum_sq - nf * mean * mean) / (nf - 1.0)).max(0.0);
        z * (var / nf).sqrt()
    }
}

/// Mean and CI half-width over a per-replicate statistic.
fn replicate_interval(tallies: &[Tally], z: f64, stat: impl Fn(&Tally) -> f64) -> (f64, f64) {
    let r = tallies.len() as f64;
    let means: Vec<f64> = tallies.iter().map(stat).collect();
    let mean = means.iter().sum::<f64>() / r;
    let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (r - 1.0);
    (mean, z * (var / r).sqrt())
}

/// Largest mean shift (in σ) the pilot may request.
const MAX_SHIFT_SIGMA: f64 = 6.0;

/// The importance-sampling mean shift: along the analytic sensitivity
/// direction of the *limiting* channel, far enough that the shifted mean
/// delay sits on the failure boundary.
fn importance_shift(problem: &NetworkProblem) -> Vec<f64> {
    let mut shift = vec![0.0; problem.dimension()];
    let variation = &problem.variation;
    let corr = &problem.correlation;
    let active = corr.is_active();
    // First stage coordinate in z: region factors (when active) come
    // between the D2D coordinate and the per-stage block.
    let stage_base = if active { 1 + corr.region_count() } else { 1 };

    // Find the limiting channel: smallest margin in closure σ units. The
    // closure is region-aware, so the sensitivity magnitude |s| already
    // includes the coherent same-region term when the correlation is on.
    // (channel, its first stage, margin, r_tot, |s|)
    let mut best: Option<(usize, usize, f64, f64, f64)> = None;
    let mut offset = 0usize;
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
            if best.is_none_or(|(_, _, m, _, _)| margin < m) {
                best = Some((c, offset, margin, r_tot, sens));
            }
        }
        offset += stages.len();
    }
    let Some((c, best_offset, margin, r_tot, sens)) = best else {
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
    let load_stage = if active {
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
        load_stage
    } else {
        1.0
    };
    for (j, r) in stages.repeater_s.iter().enumerate() {
        shift[stage_base + best_offset + j] = -t * variation.sigma_wid * load_stage * r / sens;
    }
    shift
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
