//! # pi-yield — variance-reduced statistical yield estimation
//!
//! The paper's sizing loop asks one statistical question over and over:
//! *what fraction of dies meets timing under process variation?* The seed
//! answered it with brute-force Monte Carlo — tens of thousands of full
//! line evaluations per sizing candidate. This crate replaces that with a
//! family of estimators that reach the same answer (within a stated
//! confidence interval) for a fraction of the evaluations. Each sampling
//! method is a row of one method table — a die source, an interval rule
//! and a schedule — run by one adaptive loop that owns the stop rule:
//!
//! | method | die source | interval | typical win |
//! |---|---|---|---|
//! | [`Method::Naive`] | per-die RNG streams (legacy MC) | Wilson | 1× (reference) |
//! | [`Method::SobolScrambled`] | digitally-shifted Sobol replicates | replicate CLT (honest) | 5–50× fewer evals |
//! | [`Method::ImportanceSampling`] | one-component [`Proposal`] shifted toward failure | weighted CLT | large for rare failures |
//! | [`Method::SurrogateIs`] | surrogate-fitted [`Proposal`] (shift or mixture) + control variate | weighted CLT on disagreement | ~100× for rare failures |
//! | [`Method::Analytic`] | none: D2D-conditioned Gaussian closure | — (model error) | zero samples |
//!
//! Every sampling estimator also accepts
//! [`EstimatorConfig::with_control_variate`]: the closed-form surrogate's
//! pass/fail verdict is evaluated alongside the exact one per die, the
//! sampled statistic becomes the (rare) disagreement, and the surrogate's
//! exact expectation is added back analytically. The estimate stays
//! unbiased for *any* surrogate; a high surrogate-vs-exact disagreement
//! rate (reported in [`YieldEstimate::surrogate_disagreement`]) triggers
//! fallback to the plain statistic.
//!
//! ## Layering
//!
//! `pi-yield` depends only on `pi-rt` and speaks plain `f64` seconds
//! ([`StageDelays`], [`LineProblem`], [`NetworkProblem`]); `pi-core` and
//! `pi-cosi` lower their typed models into these problems. That keeps the
//! dependency order acyclic: `rt → yield → core → cosi`.
//!
//! ## Determinism
//!
//! Every estimator is bit-reproducible for a given configuration at any
//! `PI_THREADS` setting: per-die RNG streams, fixed-size parallel chunks
//! merged in index order, and a batch schedule that depends only on the
//! configuration. The naive path reproduces the legacy Monte-Carlo loops
//! bit-for-bit (same draw order, same floored drive factor, same
//! accumulation order).
//!
//! ```
//! use pi_yield::{estimate_line_yield, EstimatorConfig, Method};
//! use pi_yield::{DriveVariation, LineProblem, StageDelays};
//!
//! let stages = StageDelays::new(vec![30e-12; 12], vec![11e-12; 12]);
//! let problem = LineProblem {
//!     deadline_s: stages.nominal_delay() * 1.08,
//!     stages,
//!     variation: DriveVariation { sigma_d2d: 0.08, sigma_wid: 0.05 },
//!     correlation: pi_yield::SpatialCorrelation::none(),
//! };
//! let est = estimate_line_yield(
//!     &problem,
//!     &EstimatorConfig::new(Method::SobolScrambled),
//! );
//! assert!(est.yield_fraction > 0.5 && est.half_width <= 5e-3);
//! ```

pub mod analytic;
pub mod estimator;
pub mod problem;
pub mod sobol;
pub mod surrogate;

pub use analytic::{
    correlated_channel_closure, line_closure, line_yield, network_yield, GaussianClosure,
};
pub use estimator::{
    estimate_line_yield, estimate_network_yield, EstimatorConfig, Method, NetworkYieldEstimate,
    YieldEstimate,
};
pub use problem::{
    drive_factor, drive_factor_from_normal, DriveVariation, LineProblem, NetworkProblem,
    SpatialCorrelation, StageDelays, DRIVE_FLOOR,
};
pub use sobol::Sobol;
pub use surrogate::{fitted_shift, Proposal, Surrogate};
