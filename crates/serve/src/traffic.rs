//! Synthetic request traffic with realistic wire lengths.
//!
//! Request lengths are drawn from the Davis two-region stochastic
//! wire-length distribution (the same occupancy-based model behind the
//! Hefeida/Davis a-priori interconnect predictions): for a square array of
//! `N` gates with Rent exponent `p`, the expected number of point-to-point
//! wires of length `l` (in gate pitches) is
//!
//! ```text
//! region I   (1 ≤ l ≤ √N):   i(l) ∝ (l³/3 − 2√N·l² + 2N·l) · l^(2p−4)
//! region II  (√N ≤ l < 2√N): i(l) ∝ (1/6)·(2√N − l)³      · l^(2p−4)
//! ```
//!
//! With `N = 4096` gates (√N = 64) and `p = 0.6`, lengths run from one
//! pitch to 127 pitches; at a 0.125 mm global-routing pitch that spans
//! 0.125–15.875 mm — the global-interconnect regime the models cover. The
//! discrete pitch grid means a warmed server sees at most 127 distinct
//! lengths, which is what gives the plan cache its hit rate.
//!
//! Sampling is inverse-CDF over the discrete pmf and fully deterministic:
//! request `i` of a run seeded `s` uses the splittable stream
//! `Rng::stream(s, i)`, so any request can be regenerated independently.

use pi_rt::Rng;

use crate::api::{ApiRequest, EvalRequest, SizeRequest, YieldRequest};

/// Gate count of the synthetic die (`√N = 64`).
pub const GATES: u64 = 4096;

/// Rent exponent of the synthetic design.
pub const RENT_P: f64 = 0.6;

/// Gate pitch, millimeters (an 8 mm die span at 64 pitches).
pub const PITCH_MM: f64 = 0.125;

/// Discrete CDF over wire lengths of `1..=2√N − 1` gate pitches.
/// `cdf[k]` is the probability of a length of at most `k + 1` pitches;
/// the last entry is exactly 1.
#[must_use]
pub fn wire_length_cdf() -> Vec<f64> {
    let sqrt_n = (GATES as f64).sqrt();
    let n = GATES as f64;
    let max_pitch = (2.0 * sqrt_n) as usize - 1;
    let mut weights = Vec::with_capacity(max_pitch);
    for pitch in 1..=max_pitch {
        let l = pitch as f64;
        let occupancy = if l <= sqrt_n {
            l.powi(3) / 3.0 - 2.0 * sqrt_n * l * l + 2.0 * n * l
        } else {
            (2.0 * sqrt_n - l).powi(3) / 6.0
        };
        weights.push(occupancy * l.powf(2.0 * RENT_P - 4.0));
    }
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    *cdf.last_mut().expect("non-empty cdf") = 1.0;
    cdf
}

/// A deterministic request generator over the wiring distribution.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    seed: u64,
    tech: String,
    yield_pct: u32,
    size_pct: u32,
    cdf: Vec<f64>,
}

impl TrafficGen {
    /// A generator for `tech` where `yield_pct` percent of requests are
    /// yield queries and the rest are model evals. Equivalent to
    /// [`TrafficGen::with_mix`] with no sizing traffic — and bit-identical
    /// to it request for request.
    #[must_use]
    pub fn new(seed: u64, tech: &str, yield_pct: u32) -> Self {
        Self::with_mix(seed, tech, yield_pct, 0)
    }

    /// A generator mixing `yield_pct` percent yield queries and
    /// `size_pct` percent sizing queries into the eval stream (both
    /// clamped so the mix sums to at most 100).
    #[must_use]
    pub fn with_mix(seed: u64, tech: &str, yield_pct: u32, size_pct: u32) -> Self {
        let yield_pct = yield_pct.min(100);
        TrafficGen {
            seed,
            tech: tech.to_owned(),
            yield_pct,
            size_pct: size_pct.min(100 - yield_pct),
            cdf: wire_length_cdf(),
        }
    }

    /// Inverse-CDF lookup: the wire length in gate pitches at quantile
    /// `u ∈ [0, 1)`.
    #[must_use]
    pub fn pitches_at(&self, u: f64) -> usize {
        1 + self.cdf.partition_point(|&c| c <= u)
    }

    /// The `i`-th request of the run — a pure function of `(seed, i)`.
    #[must_use]
    pub fn request(&self, i: u64) -> ApiRequest {
        let mut rng = Rng::stream(self.seed, i);
        let pitches = self.pitches_at(rng.random_unit());
        let length_mm = pitches as f64 * PITCH_MM;
        // A deadline a little above the typical delay of the length keeps
        // yield answers in the interesting mid-yield band.
        let deadline_ps = 45.0 + 130.0 * length_mm;
        let kind = rng.below(100);
        if kind < self.yield_pct as usize {
            let estimator = if rng.below(2) == 0 {
                "analytic"
            } else {
                "sobol-scrambled"
            };
            ApiRequest::Yield(YieldRequest {
                tech: self.tech.clone(),
                length_mm,
                deadline_ps,
                estimator: estimator.to_owned(),
                seed: rng.next_u64(),
                ci_pct: 2.0,
                cv: false,
                rho: None,
                regions: None,
                corner: None,
            })
        } else if kind < (self.yield_pct + self.size_pct) as usize {
            // A 25% deadline margin leaves the sizing ladder headroom to
            // reach the target yield at every length in the distribution.
            let estimator = if rng.below(2) == 0 {
                "analytic"
            } else {
                "sobol-scrambled"
            };
            ApiRequest::Size(SizeRequest {
                tech: self.tech.clone(),
                length_mm,
                deadline_ps: deadline_ps * 1.25,
                target_yield: 0.9,
                estimator: estimator.to_owned(),
                seed: rng.next_u64(),
                ci_pct: 2.0,
                // A quarter of the sizing traffic takes the GP engine, so
                // load runs exercise both sizing paths.
                gp: rng.below(4) == 0,
                corner: None,
            })
        } else {
            ApiRequest::Eval(EvalRequest {
                tech: self.tech.clone(),
                length_mm,
                count: None,
                wn_um: None,
                corner: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_a_proper_distribution() {
        let cdf = wire_length_cdf();
        assert_eq!(cdf.len(), 127, "lengths 1..=2√N−1 pitches");
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(cdf[0] > 0.0, "one-pitch wires have positive mass");
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn short_wires_dominate_as_rents_rule_predicts() {
        let gen = TrafficGen::new(7, "65nm", 0);
        let mut rng = Rng::seed_from_u64(99);
        let samples = 20_000;
        let mut total = 0usize;
        let mut short = 0usize;
        for _ in 0..samples {
            let p = gen.pitches_at(rng.random_unit());
            assert!((1..=127).contains(&p));
            total += p;
            short += usize::from(p <= 16);
        }
        let mean = total as f64 / samples as f64;
        assert!(
            (2.0..20.0).contains(&mean),
            "mean pitch {mean} out of the short-dominated range"
        );
        assert!(
            short as f64 / samples as f64 > 0.5,
            "most wires are ≤ 16 pitches"
        );
    }

    #[test]
    fn inverse_cdf_hits_both_regions() {
        let gen = TrafficGen::new(7, "65nm", 0);
        assert_eq!(gen.pitches_at(0.0), 1);
        let deep_tail = gen.pitches_at(0.999_999_9);
        assert!(
            deep_tail > 64,
            "region II (l > √N) is reachable: {deep_tail}"
        );
        assert!(deep_tail <= 127);
    }

    #[test]
    fn requests_are_deterministic_per_seed_and_index() {
        let gen = TrafficGen::new(11, "65nm", 50);
        for i in [0u64, 1, 17, 1000] {
            assert_eq!(gen.request(i), gen.request(i), "pure function of (seed, i)");
        }
        let other = TrafficGen::new(12, "65nm", 50);
        assert_ne!(
            (0..20).map(|i| gen.request(i)).collect::<Vec<_>>(),
            (0..20).map(|i| other.request(i)).collect::<Vec<_>>(),
            "different seeds → different traffic"
        );
    }

    #[test]
    fn yield_pct_controls_the_mix() {
        let evals_only = TrafficGen::new(3, "65nm", 0);
        let yields_only = TrafficGen::new(3, "65nm", 100);
        for i in 0..50 {
            assert!(matches!(evals_only.request(i), ApiRequest::Eval(_)));
            match yields_only.request(i) {
                ApiRequest::Yield(y) => {
                    assert!(y.deadline_ps > 0.0);
                    assert!(y.length_mm >= PITCH_MM);
                }
                other => panic!("expected a yield request, got {other:?}"),
            }
        }
        let mixed = TrafficGen::new(3, "65nm", 30);
        let yields = (0..1000)
            .filter(|&i| matches!(mixed.request(i), ApiRequest::Yield(_)))
            .count();
        assert!((150..450).contains(&yields), "~30% yields, got {yields}");
    }

    #[test]
    fn size_mix_rides_along_without_perturbing_the_other_streams() {
        // `new` (size_pct 0) and `with_mix` agree bit-for-bit, so adding
        // sizing traffic to a config cannot shift eval/yield streams.
        let plain = TrafficGen::new(11, "65nm", 40);
        let mix0 = TrafficGen::with_mix(11, "65nm", 40, 0);
        for i in 0..100 {
            assert_eq!(plain.request(i), mix0.request(i));
        }

        let mixed = TrafficGen::with_mix(11, "65nm", 20, 30);
        let mut sizes = 0usize;
        for i in 0..1000 {
            if let ApiRequest::Size(s) = mixed.request(i) {
                sizes += 1;
                assert!(s.deadline_ps > 45.0 * 1.25);
                assert_eq!(s.target_yield, 0.9);
                assert!(matches!(
                    s.estimator.as_str(),
                    "analytic" | "sobol-scrambled"
                ));
            }
        }
        assert!((150..450).contains(&sizes), "~30% sizes, got {sizes}");

        // Over-full mixes clamp instead of starving evals into negatives.
        let clamped = TrafficGen::with_mix(11, "65nm", 80, 50);
        assert!((0..200).all(|i| !matches!(clamped.request(i), ApiRequest::Eval(_))));
    }

    #[test]
    fn size_deadlines_are_reachable_across_the_length_range() {
        // The 1.25× margin must leave the sizing ladder room to hit the
        // 0.9 target at representative lengths from both Davis regions.
        use pi_core::line::LineSpec;
        use pi_core::variation::{SizeQuery, VariationModel};
        use pi_tech::units::{Length, Time};
        use pi_tech::DesignStyle;
        use pi_yield::{EstimatorConfig, Method};

        let store = crate::store::NodeStore::default();
        let ctx = store.context(pi_tech::TechNode::N65);
        let ev = ctx.evaluator();
        for pitches in [1usize, 16, 64, 127] {
            let length_mm = pitches as f64 * PITCH_MM;
            let deadline = Time::ps((45.0 + 130.0 * length_mm) * 1.25);
            let length = Length::mm(length_mm);
            let spec = LineSpec::global(length, DesignStyle::SingleSpacing);
            let query = SizeQuery {
                spec,
                plan: ctx.plan_for(length).expect("plan"),
                variation: VariationModel::nominal(),
                deadline,
                target_yield: 0.9,
                config: EstimatorConfig::new(Method::Analytic).with_seed(1),
            };
            assert!(
                ev.size_for_yield_batch(&[query])[0].is_some(),
                "no feasible sizing at {length_mm} mm under the mix deadline"
            );
        }
    }
}
