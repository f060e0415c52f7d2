//! Guard-band study (extension): how much clock derating must NoC
//! synthesis apply so the manufactured network meets timing under process
//! variation?
//!
//! For each guard band g, the DVOPD testcase is synthesized against a
//! clock g× faster than the target, then its timing yield is evaluated at
//! the *target* clock under nominal D2D+WID variation through the
//! `pi-yield` scrambled-Sobol estimator — the yield column now carries a
//! 95 % confidence interval and costs a fraction of the fixed-count
//! Monte-Carlo dies the study used to burn.

use pi_bench::TextTable;
use pi_core::coefficients::builtin;
use pi_core::line::LineEvaluator;
use pi_core::variation::VariationModel;
use pi_cosi::model::ProposedLinkModel;
use pi_cosi::net_yield::network_yield_estimates;
use pi_cosi::synthesis::{synthesize, SynthesisConfig};
use pi_cosi::testcases::dvopd;
use pi_tech::units::Freq;
use pi_tech::{DesignStyle, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method};

const SEED: u64 = 77;
/// Target CI half-width: ±0.5% yield at 95% confidence.
const TARGET_HW: f64 = 5e-3;

fn main() {
    let node = TechNode::N65;
    let tech = Technology::new(node);
    let models = builtin(node);
    let evaluator = LineEvaluator::new(&models, &tech);
    let target = Freq::ghz(2.25);
    let variation = VariationModel::nominal();
    let spec = dvopd();

    println!(
        "Guard-band sweep — {} @ {node}, target {} GHz, sigma_d2d {:.0}% + sigma_wid {:.0}%, \
         scrambled-Sobol estimator to ±{:.1}% @ 95%",
        spec.name,
        target.as_ghz(),
        variation.sigma_d2d * 100.0,
        variation.sigma_wid * 100.0,
        TARGET_HW * 100.0
    );
    let mut table = TextTable::new(vec![
        "guard band",
        "design clock [GHz]",
        "relays",
        "link dyn [mW]",
        "network yield",
        "weakest link yield",
        "dies sampled",
    ]);

    for derate in [1.0, 0.95, 0.9, 0.85, 0.8, 0.7] {
        let design_clock = Freq::hz(target.si() / derate);
        let model =
            ProposedLinkModel::new(&evaluator, DesignStyle::SingleSpacing, design_clock, 0.25);
        let net = match synthesize(&spec, &model, &SynthesisConfig::at_clock(design_clock)) {
            Ok(n) => n,
            Err(e) => {
                println!("  derate {derate}: synthesis failed ({e})");
                continue;
            }
        };
        let config = EstimatorConfig::new(Method::SobolScrambled)
            .with_seed(SEED)
            .with_target_half_width(TARGET_HW);
        let y = network_yield_estimates(
            &net,
            &evaluator,
            DesignStyle::SingleSpacing,
            &variation,
            target,
            &[config],
        )
        .remove(0);
        let weakest = y
            .channel_yield
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let link_dyn: f64 = net
            .channels
            .iter()
            .map(|c| c.cost.power.dynamic.as_mw())
            .sum();
        table.row(vec![
            format!("{:.0}%", (1.0 - derate) * 100.0),
            format!("{:.2}", design_clock.as_ghz()),
            format!("{}", net.relay_count()),
            format!("{link_dyn:.0}"),
            format!(
                "{:.1}% ±{:.1}%",
                y.overall.yield_fraction * 100.0,
                y.overall.half_width * 100.0
            ),
            format!("{:.1}%", weakest * 100.0),
            format!("{}", y.overall.evals),
        ]);
    }

    print!("{}", table.render());
    println!(
        "\nreading the table: links synthesized exactly at the target period \
         have no slack, so a handful of critical links collapse the whole \
         network's yield; a 10-20% guard band restores it, at the cost of \
         more relays and link power — the trade variation-aware synthesis \
         automates."
    );
}
