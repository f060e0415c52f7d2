//! Sign-off reference flow for buffered interconnects.
//!
//! Substitutes for the paper's physical-implementation pipeline (§IV):
//! Cadence SOC Encounter placement/routing/extraction followed by Synopsys
//! PrimeTime SI delay calculation. The flow here:
//!
//! - [`extraction`] — uniform repeater placement and geometric parasitic
//!   extraction to distributed-RC segment descriptions (SPEF analogue);
//! - [`signoff`] — transistor-level transient analysis of each extracted
//!   stage (with worst-case switching aggressors) and the stage-converged
//!   line-delay analysis, plus a monolithic whole-line simulation for
//!   validation;
//! - [`flow`] — the Table II harness: per-line model-vs-sign-off errors and
//!   runtime ratios.
//!
//! # Examples
//!
//! ```no_run
//! use pi_core::line::{BufferingPlan, LineSpec};
//! use pi_golden::signoff::line_delay;
//! use pi_tech::units::Length;
//! use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
//!
//! # fn main() -> Result<(), pi_spice::SimError> {
//! let tech = Technology::new(TechNode::N65);
//! let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
//! let plan = BufferingPlan {
//!     kind: RepeaterKind::Inverter,
//!     count: 8,
//!     wn: Length::um(6.0),
//!     staggered: false,
//! };
//! let golden = line_delay(&tech, &spec, &plan)?;
//! println!("sign-off delay: {} ps", golden.delay.as_ps());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod extraction;
pub mod flow;
pub mod noise;
pub mod signoff;

pub use extraction::{extract, place_uniform, ExtractedLine, ExtractedSegment, Placement};
pub use flow::{accuracy_row, relative_error, AccuracyRow};
pub use noise::{victim_glitch, GlitchResult};
pub use signoff::{
    line_delay, line_delay_reference, simulate_full_line, simulate_full_line_reference,
    AggressorMode, GoldenLine, GoldenStage,
};
