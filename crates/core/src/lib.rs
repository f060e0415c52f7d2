//! Calibrated closed-form predictive models for the delay, power and area
//! of global buffered interconnects — the contribution of *Carloni et al.,
//! "Accurate Predictive Interconnect Modeling for System-Level Design"*
//! (TVLSI 2010).
//!
//! The crate is organized along the paper's Section III:
//!
//! - [`repeater_model`] — the repeater delay / output-slew / input-cap
//!   functional forms (§III-A);
//! - [`mod@calibrate`] — characterization grids and the regression pipeline
//!   that fits every coefficient (§III-E);
//! - [`coefficients`] — the shipped Table I coefficient sets for the six
//!   built-in nodes;
//! - [`power`] / [`area`] — leakage, dynamic power and repeater-area models
//!   (§III-C);
//! - [`mod@line`] — buffered-line evaluation with stage-to-stage slew
//!   propagation (wire model of §III-B via `pi-wire`);
//! - [`nldm`] — a Liberty-style lookup-table timing model built from the
//!   same characterization data, for closed-form-vs-table comparisons;
//! - [`buffering`] — the weighted delay/power buffering optimizer and
//!   staggered insertion (§III-D), plus the max-feasible-length query used
//!   by NoC synthesis;
//! - [`variation`] — Monte-Carlo process-variation analysis (D2D + WID
//!   drive variation) and parametric timing yield;
//! - [`gp`] — a small pure-Rust geometric-program solver plus the
//!   posynomial link model behind jointly sized, yield-constrained,
//!   estimator-verified buffering plans.
//!
//! # Examples
//!
//! ```
//! use pi_core::coefficients::builtin;
//! use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
//! use pi_tech::units::Length;
//! use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
//!
//! let tech = Technology::new(TechNode::N65);
//! let models = builtin(TechNode::N65);
//! let evaluator = LineEvaluator::new(&models, &tech);
//! let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
//! let plan = BufferingPlan {
//!     kind: RepeaterKind::Inverter,
//!     count: 8,
//!     wn: Length::um(6.0),
//!     staggered: false,
//! };
//! let timing = evaluator.timing(&spec, &plan);
//! assert!(timing.delay.as_ps() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod buffering;
pub mod calibrate;
pub mod char_cache;
pub mod coefficients;
pub mod gp;
pub mod line;
pub mod nldm;
pub mod power;
pub mod repeater_model;
pub mod variation;

pub use area::AreaModel;
pub use buffering::{BufferingObjective, BufferingResult, SearchSpace};
pub use calibrate::{calibrate, CalibrateError, CalibratedModels, CalibrationGrid};
pub use gp::{GpError, GpProblem, GpSolution, KktResidual, LinkGpModel, Monomial, Posynomial};
pub use line::{BufferingPlan, LineEvaluator, LineSpec, LineTiming, StageTiming};
pub use nldm::{NldmLibrary, Table2d};
pub use power::{dynamic_power, energy_per_bit_mm, LeakageModel, PowerBreakdown};
pub use repeater_model::{EdgeModel, RepeaterModel, Transition};
pub use variation::{DelayDistribution, SizeQuery, VariationModel, YieldQuery, YieldSizing};
