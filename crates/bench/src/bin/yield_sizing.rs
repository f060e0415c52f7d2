//! Yield-driven sizing study (extension, and a nod to the task's titular
//! paper "Novel sizing algorithm for yield improvement under process
//! variation"): starting from the nominal power-optimal buffering of a
//! link, upsize repeaters until the timing yield reaches 95%, and report
//! what the yield costs in power.
//!
//! The yield inside the sizing loop comes from the `pi-yield`
//! scrambled-Sobol estimator with adaptive early stopping, so every
//! candidate plan is judged against a ±0.5% @ 95% confidence interval at
//! a fraction of the fixed-count Monte-Carlo cost the loop used to pay.

use pi_bench::TextTable;
use pi_core::buffering::{BufferingObjective, SearchSpace};
use pi_core::coefficients::builtin;
use pi_core::line::{LineEvaluator, LineSpec};
use pi_core::variation::{SizeQuery, VariationModel};
use pi_tech::units::{Freq, Length};
use pi_tech::{DesignStyle, TechNode, Technology};
use pi_yield::{EstimatorConfig, Method};

const SEED: u64 = 4;
const TARGET: f64 = 0.95;
/// Target CI half-width: ±0.5% yield at 95% confidence.
const TARGET_HW: f64 = 5e-3;

fn main() {
    let node = TechNode::N65;
    let tech = Technology::new(node);
    let models = builtin(node);
    let evaluator = LineEvaluator::new(&models, &tech);
    let clock = Freq::ghz(2.0);
    let variation = VariationModel::nominal();

    let config = EstimatorConfig::new(Method::SobolScrambled)
        .with_seed(SEED)
        .with_target_half_width(TARGET_HW);

    println!(
        "Yield-driven sizing — {node} @ {} GHz, target yield {:.0}%, \
         sigma_d2d {:.0}% + sigma_wid {:.0}%, scrambled-Sobol to ±{:.1}% @ 95%",
        clock.as_ghz(),
        TARGET * 100.0,
        variation.sigma_d2d * 100.0,
        variation.sigma_wid * 100.0,
        TARGET_HW * 100.0
    );
    let mut table = TextTable::new(vec![
        "L [mm]",
        "nominal plan",
        "nominal yield",
        "sized plan",
        "sized yield",
        "power cost",
    ]);

    for l in [4.0, 6.0, 8.0, 10.0] {
        let spec = LineSpec::global(Length::mm(l), DesignStyle::SingleSpacing);
        let deadline = clock.period();
        // Nominal design: minimum power meeting the deadline (no margin).
        let Some(base) = evaluator.optimize_with_deadline(
            &spec,
            deadline,
            &BufferingObjective::balanced(clock),
            &SearchSpace::for_length(spec.length),
        ) else {
            println!("  {l} mm: infeasible at this clock");
            continue;
        };
        let y0 = evaluator
            .timing_yield_estimate(&spec, &base.plan, &variation, deadline, &config)
            .yield_fraction;
        let query = SizeQuery {
            spec,
            plan: base.plan,
            variation,
            deadline,
            target_yield: TARGET,
            config,
        };
        match evaluator.size_for_yield_batch(&[query]).remove(0) {
            Some(s) => {
                let p0 = evaluator.power(&spec, &base.plan, 0.25, clock).total();
                let p1 = evaluator.power(&spec, &s.plan, 0.25, clock).total();
                table.row(vec![
                    format!("{l:.0}"),
                    format!("{}x{:.1}um", base.plan.count, base.plan.wn.as_um()),
                    format!("{:.1}%", y0 * 100.0),
                    format!("{}x{:.1}um", s.plan.count, s.plan.wn.as_um()),
                    format!("{:.1}%", s.achieved_yield * 100.0),
                    format!("{:+.1}%", (p1 / p0 - 1.0) * 100.0),
                ]);
            }
            None => {
                table.row(vec![
                    format!("{l:.0}"),
                    format!("{}x{:.1}um", base.plan.count, base.plan.wn.as_um()),
                    format!("{:.1}%", y0 * 100.0),
                    "unreachable".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                ]);
            }
        }
    }

    print!("{}", table.render());
    println!(
        "\nreading the table: zero-margin power-optimal links yield poorly \
         under variation; targeted repeater upsizing recovers {:.0}% yield \
         for a modest power premium — sizing margin in exactly the places \
         the statistics demand, instead of blanket guard-banding.",
        TARGET * 100.0
    );
}
