//! The offline workload: `noc_yield_flow`.
//!
//! One caller runs yield-filtered NoC synthesis jobs back to back (a
//! closed loop, no server). Each job synthesizes a built-in testcase with
//! the proposed link model and a `YieldFilter`, estimates the network's
//! yield with `network_yield_estimates`, and prices it with `evaluate`.

use std::time::Instant;

use pi_core::calibrate::CalibratedModels;
use pi_core::coefficients::builtin;
use pi_core::line::LineEvaluator;
use pi_core::variation::VariationModel;
use pi_cosi::{
    evaluate, network_yield_estimates, synthesize, CommSpec, ProposedLinkModel, RouterParams,
    SynthesisConfig, YieldFilter,
};
use pi_rt::Rng;
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method};

use crate::trace::Tracer;

/// Clock of every job, GHz.
pub const CLOCK_GHZ: f64 = 2.25;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest rounds of the job list per timed run (so the tail rule has
/// samples from every job kind beyond the median).
pub const MIN_ROUNDS: usize = 11;

const ESTIMATOR_SALT: u64 = 0x6e6f_635f_7969_656c;

/// One job of the flow.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Built-in testcase name.
    pub design: &'static str,
    /// Network yield target.
    pub target: f64,
    /// Regional correlation `(rho, cell mm)`, or independent variation.
    pub regional: Option<(f64, f64)>,
}

/// The job list, run in this order every round.
pub const JOBS: [Job; 3] = [
    Job {
        design: "dvopd",
        target: 0.99,
        regional: None,
    },
    Job {
        design: "vproc",
        target: 0.99,
        regional: None,
    },
    Job {
        design: "dvopd",
        target: 0.95,
        regional: Some((0.8, 2.0)),
    },
];

impl Job {
    /// The variation budget the job's filter and estimate use.
    #[must_use]
    pub fn variation(&self) -> VariationModel {
        match self.regional {
            None => VariationModel::nominal(),
            Some((rho, cell)) => VariationModel::nominal().with_regional(rho, Length::mm(cell)),
        }
    }

    /// Short label, e.g. `dvopd@0.95/rho0.8`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.regional {
            None => format!("{}@{}", self.design, self.target),
            Some((rho, _)) => format!("{}@{}/rho{rho}", self.design, self.target),
        }
    }
}

/// Everything jobs share: technology, models, specs, routers. Jobs also
/// share one evaluator and one proposed link model at the job clock,
/// borrowed from these (see [`Inputs::evaluator`] and [`link_model`]).
#[derive(Debug)]
pub struct Inputs {
    tech: Technology,
    models: CalibratedModels,
    dvopd: CommSpec,
    vproc: CommSpec,
    routers: RouterParams,
}

impl Inputs {
    /// Builds the shared inputs (the workload's set-up).
    #[must_use]
    pub fn build() -> Self {
        let tech = Technology::new(TechNode::N65);
        Inputs {
            models: builtin(TechNode::N65),
            routers: RouterParams::for_tech(&tech),
            dvopd: pi_cosi::testcases::dvopd(),
            vproc: pi_cosi::testcases::vproc(),
            tech,
        }
    }

    /// A line evaluator over the shared models.
    #[must_use]
    pub fn evaluator(&self) -> LineEvaluator<'_> {
        LineEvaluator::new(&self.models, &self.tech)
    }

    fn spec(&self, design: &str) -> &CommSpec {
        match design {
            "dvopd" => &self.dvopd,
            _ => &self.vproc,
        }
    }
}

/// The proposed link model every job synthesizes with.
#[must_use]
pub fn link_model<'a>(ev: &'a LineEvaluator<'a>) -> ProposedLinkModel<'a> {
    ProposedLinkModel::new(ev, DesignStyle::SingleSpacing, Freq::ghz(CLOCK_GHZ), 0.25)
}

/// Times one set-up: the shared inputs, evaluator and link model.
#[must_use]
pub fn time_setup() -> f64 {
    let t0 = Instant::now();
    let inputs = Inputs::build();
    let ev = inputs.evaluator();
    std::hint::black_box(link_model(&ev));
    t0.elapsed().as_secs_f64()
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// CPU time, all threads, seconds.
    pub cpu_s: f64,
    /// Of which synthesis (yield filter included), seconds.
    pub synth_s: f64,
    /// Of which the network yield estimate, seconds.
    pub net_yield_s: f64,
    /// Channels in the filtered network.
    pub channels: usize,
    /// Estimated network yield and its CI half-width.
    pub yield_fraction: f64,
    /// CI half-width of the estimate.
    pub half_width: f64,
    /// Estimator evaluations spent.
    pub evals: usize,
    /// Total network power, mW.
    pub power_mw: f64,
    /// Mean power per bit of the network's link plans, µW.
    pub bit_power_uw: f64,
}

/// The estimator configuration of job `index` under `seed`:
/// scrambled Sobol to a ±0.5 % interval.
#[must_use]
pub fn estimator(seed: u64, index: u64) -> EstimatorConfig {
    EstimatorConfig::new(Method::SobolScrambled)
        .with_seed(Rng::stream(seed ^ ESTIMATOR_SALT, index).next_u64())
        .with_target_half_width(0.005)
}

/// Runs one job, wrapping each layer call in a span of `tracer`.
///
/// # Errors
///
/// Synthesis failures, as text.
pub fn run_job(
    inputs: &Inputs,
    ev: &LineEvaluator<'_>,
    model: &ProposedLinkModel<'_>,
    job: &Job,
    config: &EstimatorConfig,
    unit: u64,
    tracer: &mut Tracer,
) -> Result<JobResult, String> {
    let t0 = Instant::now();
    let cpu0 = crate::child::self_cpu_s();
    let clock = Freq::ghz(CLOCK_GHZ);
    let variation = job.variation();
    tracer.span("job", unit, |tracer| {
        let synth = SynthesisConfig::at_clock(clock)
            .with_yield_filter(YieldFilter::new(job.target, variation));
        let t_synth = Instant::now();
        let net = tracer
            .span("cosi.synthesize", unit, |_| {
                synthesize(inputs.spec(job.design), model, &synth)
            })
            .map_err(|e| format!("{}: synthesis failed: {e}", job.label()))?;
        let synth_s = t_synth.elapsed().as_secs_f64();
        let t_yield = Instant::now();
        let est = tracer.span("cosi.net_yield", unit, |_| {
            network_yield_estimates(
                &net,
                ev,
                DesignStyle::SingleSpacing,
                &variation,
                clock,
                std::slice::from_ref(config),
            )
        });
        let net_yield_s = t_yield.elapsed().as_secs_f64();
        let est = est.into_iter().next().expect("one estimate per config");
        let report = tracer.span("cosi.evaluate", unit, |_| {
            evaluate(job.design, &net, &inputs.routers, clock)
        });
        Ok(JobResult {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: crate::child::self_cpu_s() - cpu0,
            synth_s,
            net_yield_s,
            channels: net.channels.len(),
            yield_fraction: est.overall.yield_fraction,
            half_width: est.overall.half_width,
            evals: est.overall.evals,
            power_mw: report.total_power().as_mw(),
            bit_power_uw: net
                .channels
                .iter()
                .map(|c| c.cost.power.total().as_uw() / c.n_bits as f64)
                .sum::<f64>()
                / net.channels.len().max(1) as f64,
        })
    })
}

/// A failed target check, described; `None` when the network meets it.
#[must_use]
pub fn check(job: &Job, r: &JobResult) -> Option<String> {
    (r.yield_fraction - r.half_width < job.target).then(|| {
        format!(
            "{}: network yield {} ± {} misses target {}",
            job.label(),
            r.yield_fraction,
            r.half_width,
            job.target
        )
    })
}

/// A timed run of the flow.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// `(job index, result)` for every job run, in order.
    pub results: Vec<(usize, JobResult)>,
    /// Total wall time of the job loop, seconds.
    pub wall_s: f64,
    /// Target misses.
    pub errors: Vec<String>,
}

/// Runs whole rounds of the job list until `seconds` have passed (and at
/// least [`MIN_ROUNDS`] rounds).
///
/// # Errors
///
/// Synthesis failures.
pub fn timed(seed: u64, seconds: f64) -> Result<Timed, String> {
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| time_setup()).collect();
    let inputs = Inputs::build();
    let ev = inputs.evaluator();
    let model = link_model(&ev);
    let mut tracer = Tracer::new(false);
    let mut results = Vec::new();
    let mut errors = Vec::new();
    let t0 = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        for (k, job) in JOBS.iter().enumerate() {
            let unit = (round * JOBS.len() + k) as u64;
            let r = run_job(
                &inputs,
                &ev,
                &model,
                job,
                &estimator(seed, unit),
                unit,
                &mut tracer,
            )?;
            errors.extend(check(job, &r));
            results.push((k, r));
        }
        round += 1;
    }
    Ok(Timed {
        setups,
        results,
        wall_s: t0.elapsed().as_secs_f64(),
        errors,
    })
}
