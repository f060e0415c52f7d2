//! NoC-synthesis benches: full topology synthesis of the DVOPD testcase
//! under each link model, plus a single link-cost query and the re-timing
//! of its priced plan that the yield filter runs per channel.

use pi_bench::micro::{emit, Micro};
use pi_core::coefficients::builtin;
use pi_core::line::LineEvaluator;
use pi_cosi::model::{LinkCostModel, OriginalLinkModel, ProposedLinkModel};
use pi_cosi::synthesis::{synthesize, SynthesisConfig};
use pi_cosi::testcases::dvopd;
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, TechNode, Technology};

fn main() {
    let tech = Technology::new(TechNode::N65);
    let models = builtin(TechNode::N65);
    let evaluator = LineEvaluator::new(&models, &tech);
    let clock = Freq::ghz(2.25);
    let config = SynthesisConfig::at_clock(clock);
    let spec = dvopd();

    let original_model = OriginalLinkModel::new(&tech, clock, 0.25);
    let original = Micro::default().run("synthesize_dvopd_original", || {
        synthesize(&spec, &original_model, &config).expect("synthesis")
    });

    let proposed_model =
        ProposedLinkModel::new(&evaluator, DesignStyle::SingleSpacing, clock, 0.25);
    let proposed = Micro::slow().run("synthesize_dvopd_proposed", || {
        synthesize(&spec, &proposed_model, &config).expect("synthesis")
    });
    let link_cost = Micro::slow().run("proposed_link_cost_3mm_128b", || {
        proposed_model
            .link_cost(Length::mm(3.0), 128)
            .expect("feasible")
    });

    let priced = proposed_model
        .link_cost(Length::mm(3.0), 128)
        .expect("feasible");
    let stage_delays = Micro::default().run("proposed_stage_delays_3mm", || {
        proposed_model
            .stage_delays(Length::mm(3.0), &priced.plan)
            .expect("stage timing")
    });

    emit(
        "NoC synthesis (DVOPD, 65 nm)",
        &[original, proposed, link_cost, stage_delays],
    );
}
