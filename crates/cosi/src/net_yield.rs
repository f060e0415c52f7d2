//! Network-level parametric timing yield under process variation.
//!
//! A synthesized NoC works only if *every* link meets the clock on the
//! manufactured die. Die-to-die variation shifts all links together
//! (one shared drive factor per sample); within-die variation is drawn
//! independently per repeater. Links synthesized right at the deadline
//! have no slack, so an un-guard-banded network's yield collapses — the
//! motivation for synthesizing against a derated clock, which this module
//! lets one quantify.
//!
//! The estimation itself is delegated to the `pi-yield` engine: a
//! synthesized [`Network`] is lowered to a plain-`f64`
//! [`pi_yield::NetworkProblem`] (per-channel nominal stage delays), after
//! which every estimator applies through [`network_yield_estimates`]:
//! naive Monte Carlo (a naive configuration with `max_evals = samples`
//! and `target_half_width = 0` is the historical fixed-count tally, bit
//! for bit) and the variance-reduced, confidence-interval-driven family.

use pi_core::line::{LineEvaluator, LineSpec};
use pi_core::variation::VariationModel;
use pi_tech::units::{Freq, Length};
use pi_yield::{
    EstimatorConfig, NetworkProblem, NetworkYieldEstimate, SpatialCorrelation, StageDelays,
};

use crate::synthesis::Network;

/// Shortest channel length the yield path evaluates. Synthesized channels
/// can be arbitrarily short (a relay snapped next to a core), but the
/// calibrated line models are not characterized below this length, so
/// [`network_problem`] clamps shorter channels **up** to it. The clamp is
/// pessimistic (a longer line is slower) and is surfaced through the
/// `cosi.net_yield_length_floor` counter and a one-time warning rather
/// than applied silently.
pub const CHANNEL_LENGTH_FLOOR: Length = Length::from_si(50.0e-6);

/// Lowers a synthesized network to the plain-`f64` yield problem the
/// `pi-yield` estimators consume: per-channel nominal stage delays under
/// the evaluator's technology, the drive-variation budget, the clock
/// period every channel must meet, and — when `variation.rho_region > 0`
/// — a spatial-correlation model whose region ids come from the
/// channels' placement geometry (one region per `region_cell` floorplan
/// grid cell).
///
/// Channels shorter than [`CHANNEL_LENGTH_FLOOR`] are clamped up to it
/// (see the constant's docs); each clamp bumps the
/// `cosi.net_yield_length_floor` counter and the first one emits a
/// warning.
///
/// # Panics
///
/// Panics if the network has no channels or the evaluator's node differs
/// from the one the network was synthesized for (lengths are
/// reinterpreted under the evaluator's technology).
#[must_use]
pub fn network_problem(
    network: &Network,
    evaluator: &LineEvaluator<'_>,
    style: pi_tech::DesignStyle,
    variation: &VariationModel,
    clock: Freq,
) -> NetworkProblem {
    assert!(!network.channels.is_empty(), "network has no channels");
    let channels: Vec<StageDelays> = network
        .channels
        .iter()
        .map(|c| {
            if c.length < CHANNEL_LENGTH_FLOOR {
                pi_obs::warn_once(
                    "cosi.net_yield_length_floor",
                    &format!(
                        "channel length {:.1} um below the {:.0} um yield floor; \
                         clamping up (pessimistic)",
                        c.length.as_um(),
                        CHANNEL_LENGTH_FLOOR.as_um()
                    ),
                );
                pi_obs::counter_add("cosi.net_yield_length_floor", 1);
            }
            let spec = LineSpec::global(c.length.max(CHANNEL_LENGTH_FLOOR), style);
            let timing = evaluator.timing(&spec, &c.cost.plan);
            StageDelays::new(
                timing
                    .stages
                    .iter()
                    .map(|s| s.repeater_delay.si())
                    .collect(),
                timing.stages.iter().map(|s| s.wire_delay.si()).collect(),
            )
        })
        .collect();
    let correlation = if variation.rho_region > 0.0 {
        let counts: Vec<usize> = channels.iter().map(StageDelays::len).collect();
        let regions =
            crate::placement::channel_stage_regions(network, &counts, variation.region_cell);
        SpatialCorrelation::regional(variation.rho_region, regions)
    } else {
        SpatialCorrelation::none()
    };
    NetworkProblem::new(channels, variation.to_drive(), clock.period().si())
        .with_correlation(correlation)
}

/// Network timing yield under one or more `pi-yield` estimator
/// configurations — naive Monte Carlo, Sobol quasi-Monte-Carlo,
/// importance sampling or the analytic closure, each with a confidence
/// interval, adaptive early stopping and per-channel yields. This is the
/// one network-yield entry point: a single estimate is a batch of one,
/// and the serve path coalesces concurrent net-yield requests into it.
///
/// The expensive lowering ([`network_problem`]: one nominal line
/// evaluation per channel) runs **once** and is shared; the estimators
/// then run per configuration in input order, each on its own seed, so
/// every result is bit-identical to the same configuration estimated
/// alone, at any `PI_THREADS`.
///
/// # Panics
///
/// Panics on an empty network (unless `configs` is empty), a zero
/// evaluation budget, or a technology-node mismatch: lengths are
/// reinterpreted under the evaluator's technology.
#[must_use]
pub fn network_yield_estimates(
    network: &Network,
    evaluator: &LineEvaluator<'_>,
    style: pi_tech::DesignStyle,
    variation: &VariationModel,
    clock: Freq,
    configs: &[EstimatorConfig],
) -> Vec<NetworkYieldEstimate> {
    if configs.is_empty() {
        return Vec::new();
    }
    let problem = network_problem(network, evaluator, style, variation, clock);
    configs
        .iter()
        .map(|config| pi_yield::estimate_network_yield(&problem, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProposedLinkModel;
    use crate::synthesis::{synthesize, SynthesisConfig};
    use crate::testcases::dvopd;
    use pi_core::coefficients::builtin;
    use pi_rt::Rng;
    use pi_tech::{DesignStyle, TechNode, Technology};
    use pi_yield::Method;

    struct Setup {
        tech: Technology,
        models: pi_core::CalibratedModels,
        clock: Freq,
    }

    fn setup() -> Setup {
        Setup {
            tech: Technology::new(TechNode::N65),
            models: builtin(TechNode::N65),
            clock: Freq::ghz(2.25),
        }
    }

    fn synthesized(s: &Setup, derate: f64) -> Network {
        let ev = LineEvaluator::new(&s.models, &s.tech);
        // Synthesize against a derated (faster) clock to build guard band,
        // then evaluate yield at the real clock.
        let design_clock = Freq::hz(s.clock.si() / derate);
        let model = ProposedLinkModel::new(&ev, DesignStyle::SingleSpacing, design_clock, 0.25);
        synthesize(&dvopd(), &model, &SynthesisConfig::at_clock(design_clock)).expect("synthesis")
    }

    /// The naive estimator at a fixed die count with no early stop.
    fn fixed_count(samples: usize, seed: u64) -> EstimatorConfig {
        EstimatorConfig::new(Method::Naive)
            .with_seed(seed)
            .with_max_evals(samples)
            .with_target_half_width(0.0)
    }

    /// One single-spacing network estimate, as a batch of one.
    fn estimate(
        net: &Network,
        ev: &LineEvaluator<'_>,
        variation: &VariationModel,
        clock: Freq,
        config: EstimatorConfig,
    ) -> NetworkYieldEstimate {
        network_yield_estimates(
            net,
            ev,
            DesignStyle::SingleSpacing,
            variation,
            clock,
            &[config],
        )
        .remove(0)
    }

    /// The fixed-count Monte-Carlo tally the naive estimator replaced:
    /// die `i` draws from `Rng::stream(seed, i)`, and the whole-network
    /// and per-channel pass fractions are counted directly.
    fn legacy_tallies(problem: &NetworkProblem, samples: usize, seed: u64) -> (f64, Vec<f64>) {
        let channels = problem.channels.len();
        let mut pass_all = 0usize;
        let mut pass_channel = vec![0usize; channels];
        let mut pass = vec![false; channels];
        for die in 0..samples {
            let mut rng = Rng::stream(seed, die as u64);
            pass_all += usize::from(problem.sample_die(&mut rng, &mut pass));
            for (slot, &ok) in pass_channel.iter_mut().zip(&pass) {
                *slot += usize::from(ok);
            }
        }
        let fraction = |n: usize| n as f64 / samples as f64;
        (
            fraction(pass_all),
            pass_channel.into_iter().map(fraction).collect(),
        )
    }

    #[test]
    fn yield_is_deterministic_and_bounded() {
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 1.0);
        let v = VariationModel::nominal();
        let a = estimate(&net, &ev, &v, s.clock, fixed_count(200, 3));
        let b = estimate(&net, &ev, &v, s.clock, fixed_count(200, 3));
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a.overall.yield_fraction));
        for y in &a.channel_yield {
            assert!((0.0..=1.0).contains(y));
        }
        // Network yield cannot exceed its weakest channel's yield.
        let weakest = a.channel_yield.iter().copied().fold(1.0, f64::min);
        assert!(a.overall.yield_fraction <= weakest + 1e-12);
    }

    #[test]
    fn guard_banding_buys_yield() {
        // Links designed exactly at the period have ~no margin; designing
        // against a 15% faster clock (guard band) must raise yield
        // dramatically at the true clock.
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let v = VariationModel::nominal();
        let tight = synthesized(&s, 1.0);
        let banded = synthesized(&s, 0.85);
        let y_tight = estimate(&tight, &ev, &v, s.clock, fixed_count(300, 9))
            .overall
            .yield_fraction;
        let y_banded = estimate(&banded, &ev, &v, s.clock, fixed_count(300, 9))
            .overall
            .yield_fraction;
        assert!(
            y_banded > y_tight + 0.2,
            "tight {y_tight} vs guard-banded {y_banded}"
        );
        assert!(y_banded > 0.8, "guard-banded yield {y_banded}");
    }

    #[test]
    fn zero_variation_gives_full_yield_on_feasible_network() {
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 1.0);
        let y = estimate(
            &net,
            &ev,
            &VariationModel::none(),
            s.clock,
            fixed_count(50, 1),
        );
        assert!(
            (y.overall.yield_fraction - 1.0).abs() < 1e-12,
            "every link was designed to meet the period"
        );
    }

    #[test]
    fn estimators_agree_with_the_naive_reference() {
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 0.9);
        let v = VariationModel::nominal();
        let reference = estimate(&net, &ev, &v, s.clock, fixed_count(3000, 5)).overall;
        for method in Method::ALL {
            let est = estimate(&net, &ev, &v, s.clock, EstimatorConfig::new(method));
            let slack = est.overall.half_width.max(0.03);
            assert!(
                (est.overall.yield_fraction - reference.yield_fraction).abs() <= 3.0 * slack,
                "{method}: {} vs naive {}",
                est.overall.yield_fraction,
                reference.yield_fraction
            );
            assert_eq!(est.channel_yield.len(), net.channels.len(), "{method}");
        }
    }

    #[test]
    fn sub_floor_channels_are_clamped_up_not_dropped() {
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let mut net = synthesized(&s, 1.0);
        // Shrink one channel well below the characterized floor.
        net.channels[0].length = Length::um(10.0);
        let v = VariationModel::nominal();
        let problem = network_problem(&net, &ev, DesignStyle::SingleSpacing, &v, s.clock);
        assert_eq!(problem.channels.len(), net.channels.len());
        // The clamped channel evaluates exactly as a floor-length line.
        let spec = LineSpec::global(CHANNEL_LENGTH_FLOOR, DesignStyle::SingleSpacing);
        let timing = ev.timing(&spec, &net.channels[0].cost.plan);
        let expected: Vec<f64> = timing
            .stages
            .iter()
            .map(|t| t.repeater_delay.si())
            .collect();
        assert_eq!(problem.channels[0].repeater_s, expected);
        // And the whole-network yield still computes (no panic, bounded).
        let y = estimate(&net, &ev, &v, s.clock, fixed_count(64, 2));
        assert!((0.0..=1.0).contains(&y.overall.yield_fraction));
    }

    #[test]
    fn regional_variation_attaches_placement_derived_correlation() {
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 0.9);
        let independent = VariationModel::nominal();
        let correlated = independent.with_regional(0.7, pi_tech::units::Length::mm(2.0));
        let flat = network_problem(&net, &ev, DesignStyle::SingleSpacing, &independent, s.clock);
        assert!(!flat.correlation.is_active());
        let problem = network_problem(&net, &ev, DesignStyle::SingleSpacing, &correlated, s.clock);
        assert!(problem.correlation.is_active());
        assert_eq!(
            problem.correlation.stage_region.len(),
            problem.total_stages()
        );
        assert!(
            problem.correlation.region_count() >= 2,
            "a multi-core die spans regions"
        );
        // The analytic closure on the correlated problem agrees with the
        // scrambled-Sobol estimator within its CI plus model tolerance.
        let (y_corr, _) = pi_yield::network_yield(&problem);
        let rqmc = pi_yield::estimate_network_yield(
            &problem,
            &EstimatorConfig::new(pi_yield::Method::SobolScrambled)
                .with_seed(17)
                .with_target_half_width(2e-3),
        );
        assert!(
            (y_corr - rqmc.overall.yield_fraction).abs() < rqmc.overall.half_width + 0.02,
            "closure {y_corr} vs RQMC {}",
            rqmc.overall.yield_fraction
        );
    }

    #[test]
    fn filtered_synthesis_meets_the_yield_target_on_dvopd() {
        // The tentpole acceptance check: yield-aware synthesis filtering
        // must deliver a network whose estimated yield clears the target,
        // where unfiltered synthesis at the same clock falls short.
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let model = ProposedLinkModel::new(&ev, DesignStyle::SingleSpacing, s.clock, 0.25);
        let variation =
            VariationModel::nominal().with_regional(0.5, pi_tech::units::Length::mm(2.0));
        let target = 0.9;
        let plain_cfg = SynthesisConfig::at_clock(s.clock);
        let filtered_cfg =
            plain_cfg.with_yield_filter(crate::synthesis::YieldFilter::new(target, variation));
        let plain = synthesize(&dvopd(), &model, &plain_cfg).expect("plain synthesis");
        let filtered = synthesize(&dvopd(), &model, &filtered_cfg).expect("filtered synthesis");
        let cfg = EstimatorConfig::new(Method::SobolScrambled)
            .with_seed(7)
            .with_target_half_width(2e-3);
        let y_plain = estimate(&plain, &ev, &variation, s.clock, cfg).overall;
        let y_filtered = estimate(&filtered, &ev, &variation, s.clock, cfg).overall;
        assert!(
            y_filtered.yield_fraction + y_filtered.half_width + 0.02 >= target,
            "filtered network yield {} misses the {target} target",
            y_filtered.yield_fraction
        );
        assert!(
            y_filtered.yield_fraction >= y_plain.yield_fraction - y_plain.half_width,
            "filtering must not lose yield: {} vs {}",
            y_filtered.yield_fraction,
            y_plain.yield_fraction
        );
    }

    #[test]
    fn batched_network_estimates_match_standalone_calls_bit_for_bit() {
        // Every estimator family, seeds, the control variate on and off,
        // independent and placement-correlated variation: a batch of N
        // must equal N batches of one, bit for bit.
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 0.9);
        let configs: Vec<EstimatorConfig> = [
            (Method::Naive, 5u64, false),
            (Method::SobolScrambled, 6, false),
            (Method::Analytic, 7, false),
            (Method::Sobol, 8, false),
            (Method::ImportanceSampling, 9, false),
            (Method::SurrogateIs, 10, false),
            (Method::Naive, 11, true),
            (Method::SobolScrambled, 6, true),
        ]
        .iter()
        .map(|&(m, seed, cv)| {
            EstimatorConfig::new(m)
                .with_seed(seed)
                .with_max_evals(2048)
                .with_control_variate(cv)
        })
        .collect();
        let independent = VariationModel::nominal();
        let correlated = independent.with_regional(0.7, Length::mm(2.0));
        for v in [independent, correlated] {
            let batch = network_yield_estimates(
                &net,
                &ev,
                DesignStyle::SingleSpacing,
                &v,
                s.clock,
                &configs,
            );
            assert_eq!(batch.len(), configs.len());
            for (cfg, got) in configs.iter().zip(&batch) {
                let one = estimate(&net, &ev, &v, s.clock, *cfg);
                assert_eq!(
                    one.overall.yield_fraction.to_bits(),
                    got.overall.yield_fraction.to_bits(),
                    "{} rho {}",
                    cfg.method,
                    v.rho_region
                );
                assert_eq!(
                    one.overall.half_width.to_bits(),
                    got.overall.half_width.to_bits()
                );
                assert_eq!(one.overall.evals, got.overall.evals);
                assert_eq!(one.overall.method, got.overall.method);
                let bits = |ys: &[f64]| ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&one.channel_yield), bits(&got.channel_yield));
            }
        }
        assert!(network_yield_estimates(
            &net,
            &ev,
            DesignStyle::SingleSpacing,
            &independent,
            s.clock,
            &[]
        )
        .is_empty());
    }

    #[test]
    fn naive_estimator_reproduces_the_legacy_tallies() {
        // Same seed, same die count: the pi-yield naive estimator and the
        // fixed-count loop must agree exactly (shared draw order through
        // NetworkProblem::sample_die).
        let s = setup();
        let ev = LineEvaluator::new(&s.models, &s.tech);
        let net = synthesized(&s, 0.95);
        let v = VariationModel::nominal();
        let problem = network_problem(&net, &ev, DesignStyle::SingleSpacing, &v, s.clock);
        let (legacy, legacy_channels) = legacy_tallies(&problem, 512, 21);
        let est = estimate(&net, &ev, &v, s.clock, fixed_count(512, 21));
        assert_eq!(est.overall.evals, 512);
        assert_eq!(legacy.to_bits(), est.overall.yield_fraction.to_bits());
        assert_eq!(legacy_channels.len(), est.channel_yield.len());
        for (a, b) in legacy_channels.iter().zip(&est.channel_yield) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
