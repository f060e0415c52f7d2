//! Constraint-driven network-on-chip communication synthesis driven by
//! pluggable interconnect cost models — the COSI-OCC substrate of the
//! paper's Table III experiment.
//!
//! Given a [`spec::CommSpec`] (cores with floorplan positions and
//! point-to-point bandwidth flows), [`synthesis::synthesize`] builds a
//! network of point-to-point buffered links and relay routers in which
//! every link meets the clock period under the chosen
//! [`model::LinkCostModel`]. Running the algorithm with the
//! [`model::OriginalLinkModel`] (Bakoglu, no coupling, naive wires) versus
//! the [`model::ProposedLinkModel`] (this paper's calibrated models)
//! reproduces the paper's model-impact study.
//!
//! A regular 2-D mesh baseline with XY routing ([`mesh`]) allows the
//! synthesized application-specific topologies to be compared against the
//! standard regular alternative under identical link models.
//!
//! The two SoC testcases — VPROC (42 cores) and DVOPD (26 cores), both
//! with 128-bit data widths — live in [`testcases`].
//!
//! # Examples
//!
//! ```
//! use pi_cosi::model::{LinkCostModel, OriginalLinkModel};
//! use pi_cosi::synthesis::{synthesize, SynthesisConfig};
//! use pi_cosi::testcases::dvopd;
//! use pi_tech::units::Freq;
//! use pi_tech::{TechNode, Technology};
//!
//! # fn main() -> Result<(), pi_cosi::synthesis::SynthesisError> {
//! let tech = Technology::new(TechNode::N65);
//! let clock = Freq::ghz(2.25);
//! let model = OriginalLinkModel::new(&tech, clock, 0.25);
//! let network = synthesize(&dvopd(), &model, &SynthesisConfig::at_clock(clock))?;
//! assert!(!network.channels.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dot;
pub mod explore;
pub mod mesh;
pub mod model;
pub mod net_yield;
pub mod placement;
pub mod report;
pub mod router;
pub mod spec;
pub mod spec_text;
pub mod synthesis;
pub mod testcases;

pub use dot::to_dot;
pub use explore::{explore_link_styles, StyleChoice, StyleResult};
pub use mesh::{mesh_network, MeshDims};
pub use model::{InfeasibleLink, LinkCost, LinkCostModel, OriginalLinkModel, ProposedLinkModel};
pub use net_yield::{network_yield_estimates, CHANNEL_LENGTH_FLOOR};
pub use placement::{channel_stage_regions, refine_relay_placement, RefinementStats};
pub use report::{evaluate, NetworkReport};
pub use router::RouterParams;
pub use spec::{CommSpec, Core, Flow, Point, SpecError};
pub use spec_text::{parse_spec, write_spec, ParseSpecError};
pub use synthesis::{
    infeasible_under, synthesize, Channel, NetNode, Network, NodeKind, SynthesisConfig,
    SynthesisError, YieldFilter,
};
