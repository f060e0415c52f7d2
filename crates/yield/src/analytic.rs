//! Analytic yield fast path: Gaussian closure over the additive D2D/WID
//! delay structure.
//!
//! A sampled line delay is `Σⱼ rⱼ/(g_d·g_wⱼ) + wⱼ` with one shared
//! die-to-die factor `g_d` and independent within-die factors `g_wⱼ`.
//! Two closures exploit that structure:
//!
//! - [`line_closure`] collapses the whole line to a single Gaussian
//!   (`E[1/g] ≈ (1+σ²)` per factor for the mean; first-order sensitivity
//!   for the variance). It costs a handful of flops and feeds the
//!   importance-sampling pilot.
//! - [`line_yield`] / [`network_yield`] **condition on the D2D factor**:
//!   given `g_d`, the WID sums are independent across stages, so each
//!   channel's conditional delay is Gaussian by closure and every channel
//!   is *conditionally independent* — the network yield at fixed `g_d` is
//!   a plain product of per-channel `Φ` terms. One 1-D quadrature over
//!   the D2D normal then gives the unconditional yield, capturing the
//!   full nonlinearity (and the drive floor) of the dominant D2D
//!   dimension exactly.
//!
//! The closures ignore the [`DRIVE_FLOOR`](crate::problem::DRIVE_FLOOR)
//! in the *WID* factors (a `< 10⁻⁸` effect at the σ ≲ 15 % budgets used
//! here) and linearize `1/g_w` about its mean; tests pin the resulting
//! agreement with Monte Carlo to well under a confidence-interval width.

use pi_rt::norm::{normal_cdf, normal_pdf};

use crate::problem::{
    drive_factor_from_normal, DriveVariation, LineProblem, NetworkProblem, SpatialCorrelation,
    StageDelays,
};

/// A line delay collapsed to a single Gaussian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianClosure {
    /// Mean delay, seconds (with the second-order `E[1/g]` correction).
    pub mean_s: f64,
    /// Standard deviation, seconds (first-order sensitivity).
    pub sigma_s: f64,
}

impl GaussianClosure {
    /// `P(delay ≤ deadline)` under this closure (a step function when
    /// the variation budget is zero).
    #[must_use]
    pub fn yield_at(&self, deadline_s: f64) -> f64 {
        gaussian_tail(deadline_s, self.mean_s, self.sigma_s)
    }

    /// The `q`-quantile of the closed delay distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.mean_s + self.sigma_s * pi_rt::norm::normal_inv_cdf(q)
    }
}

/// `Φ((deadline − mean)/sigma)`, degrading to a step when `sigma == 0`.
fn gaussian_tail(deadline_s: f64, mean_s: f64, sigma_s: f64) -> f64 {
    if sigma_s > 0.0 {
        normal_cdf((deadline_s - mean_s) / sigma_s)
    } else if mean_s <= deadline_s {
        1.0
    } else {
        0.0
    }
}

/// Single-Gaussian closure of one line under the variation model.
///
/// Mean: `Σ rⱼ·E[1/g_d]·E[1/g_w] + Σ wⱼ` with `E[1/(1+σZ)] ≈ 1+σ²`.
/// Variance (first order): `σ_d²(Σrⱼ)² + σ_w²Σrⱼ²` — the D2D term is
/// *coherent* across stages (it scales with the square of the summed
/// repeater delay), the WID term averages out (sum of squares).
#[must_use]
pub fn line_closure(stages: &StageDelays, variation: &DriveVariation) -> GaussianClosure {
    let r_tot: f64 = stages.repeater_s.iter().sum();
    let r_sq: f64 = stages.repeater_s.iter().map(|r| r * r).sum();
    let w_tot: f64 = stages.wire_s.iter().sum();
    let sd2 = variation.sigma_d2d * variation.sigma_d2d;
    let sw2 = variation.sigma_wid * variation.sigma_wid;
    let mean_s = r_tot * (1.0 + sd2) * (1.0 + sw2) + w_tot;
    let var = sd2 * r_tot * r_tot + sw2 * r_sq;
    GaussianClosure {
        mean_s,
        sigma_s: var.sqrt(),
    }
}

/// The D2D-independent part of one channel's conditional delay moments,
/// summed over its stages once so that the D2D quadrature evaluates the
/// moments at each node with two divisions and an add.
#[derive(Debug, Clone, Copy)]
struct ConditionalMoments {
    /// `Σrⱼ·(1+σ_w²)`: the WID-corrected repeater delay at `g_d = 1`.
    repeater_s: f64,
    /// `Σwⱼ`: the wire delay, untouched by drive variation.
    wire_s: f64,
    /// `√(σ_w²·Σrⱼ²)`: the WID standard deviation at `g_d = 1`.
    sigma_s: f64,
}

impl ConditionalMoments {
    fn new(stages: &StageDelays, variation: &DriveVariation) -> Self {
        let r_tot: f64 = stages.repeater_s.iter().sum();
        let r_sq: f64 = stages.repeater_s.iter().map(|r| r * r).sum();
        let sw2 = variation.sigma_wid * variation.sigma_wid;
        ConditionalMoments {
            repeater_s: r_tot * (1.0 + sw2),
            wire_s: stages.wire_s.iter().sum(),
            sigma_s: (sw2 * r_sq).sqrt(),
        }
    }

    /// Conditional delay `(mean, sigma)` given the D2D factor `g_d2d`.
    fn at(&self, g_d2d: f64) -> (f64, f64) {
        (self.repeater_s / g_d2d + self.wire_s, self.sigma_s / g_d2d)
    }
}

/// Per-region repeater-delay exposure `R_{c,g} = Σ_{j in region g} rⱼ` of
/// one channel, as `(region, R_cg)` pairs in first-touch order.
/// `stage_region` is this channel's slice of the channel-major map.
pub(crate) fn region_loadings(stages: &StageDelays, stage_region: &[usize]) -> Vec<(usize, f64)> {
    let mut loadings: Vec<(usize, f64)> = Vec::new();
    for (r, &region) in stages.repeater_s.iter().zip(stage_region) {
        match loadings.iter_mut().find(|(g, _)| *g == region) {
            Some((_, sum)) => *sum += r,
            None => loadings.push((region, *r)),
        }
    }
    loadings
}

/// Marginal single-Gaussian closure of one channel of a **correlated**
/// problem. The mean is unchanged from [`line_closure`]; the variance
/// gains the region co-movement term:
/// `σ_d²(Σrⱼ)² + σ_w²[(1−ρ)Σrⱼ² + ρ·Σ_g R_{c,g}²]` — same-region stages
/// shift together, so their first-order sensitivities add coherently.
/// `stage_offset` is the channel's first stage in channel-major order.
#[must_use]
pub fn correlated_channel_closure(
    stages: &StageDelays,
    variation: &DriveVariation,
    correlation: &SpatialCorrelation,
    stage_offset: usize,
) -> GaussianClosure {
    if !correlation.is_active() {
        return line_closure(stages, variation);
    }
    let loadings = region_loadings(
        stages,
        &correlation.stage_region[stage_offset..stage_offset + stages.len()],
    );
    let region_sq: f64 = loadings.iter().map(|&(_, r)| r * r).sum();
    let r_tot: f64 = stages.repeater_s.iter().sum();
    let r_sq: f64 = stages.repeater_s.iter().map(|r| r * r).sum();
    let w_tot: f64 = stages.wire_s.iter().sum();
    let sd2 = variation.sigma_d2d * variation.sigma_d2d;
    let sw2 = variation.sigma_wid * variation.sigma_wid;
    let rho = correlation.rho_region;
    let mean_s = r_tot * (1.0 + sd2) * (1.0 + sw2) + w_tot;
    let var = sd2 * r_tot * r_tot + sw2 * ((1.0 - rho) * r_sq + rho * region_sq);
    GaussianClosure {
        mean_s,
        sigma_s: var.sqrt(),
    }
}

/// Number of quadrature steps over the D2D normal. 256 trapezoid panels
/// over ±8σ put the quadrature error far below the closure error.
const QUAD_STEPS: usize = 256;
/// Integration range in D2D standard deviations.
const QUAD_RANGE: f64 = 8.0;

/// Integrates `f(g_d2d)` against the standard-normal density of the D2D
/// variate (trapezoid over ±8σ; exact short-circuit when `σ_d2d = 0`).
fn integrate_over_d2d(variation: &DriveVariation, mut f: impl FnMut(f64) -> f64) -> f64 {
    if variation.sigma_d2d == 0.0 {
        return f(1.0);
    }
    let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
    let mut acc = 0.0;
    for i in 0..=QUAD_STEPS {
        let z = -QUAD_RANGE + h * i as f64;
        let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
        let g = drive_factor_from_normal(z, variation.sigma_d2d);
        acc += weight * normal_pdf(z) * f(g);
    }
    acc * h
}

/// Analytic timing yield of a single line (D2D conditioning + WID
/// Gaussian closure). No samples are drawn.
///
/// With an active [`SpatialCorrelation`] the conditional variance given
/// the D2D factor picks up the region co-movement term; for a single
/// channel the joint distribution *is* the marginal, so the same 1-D
/// quadrature stays exact within the closure.
#[must_use]
pub fn line_yield(problem: &LineProblem) -> f64 {
    let moments = ConditionalMoments::new(&problem.stages, &problem.variation);
    if problem.correlation.is_active() {
        let loadings = region_loadings(&problem.stages, &problem.correlation.stage_region);
        let region_sq: f64 = loadings.iter().map(|&(_, r)| r * r).sum();
        let r_sq: f64 = problem.stages.repeater_s.iter().map(|r| r * r).sum();
        let rho = problem.correlation.rho_region;
        let sw2 = problem.variation.sigma_wid * problem.variation.sigma_wid;
        let wid_var = sw2 * ((1.0 - rho) * r_sq + rho * region_sq);
        return integrate_over_d2d(&problem.variation, |g| {
            let (mean, _) = moments.at(g);
            gaussian_tail(problem.deadline_s, mean, wid_var.sqrt() / g)
        })
        .clamp(0.0, 1.0);
    }
    integrate_over_d2d(&problem.variation, |g| {
        let (mean, sigma) = moments.at(g);
        gaussian_tail(problem.deadline_s, mean, sigma)
    })
    .clamp(0.0, 1.0)
}

/// Analytic network yield and per-channel yields.
///
/// Conditioned on the D2D factor the channels are independent, so the
/// network pass probability at fixed `g` is the product of per-channel
/// `Φ` terms; the same quadrature accumulates the marginal per-channel
/// yields for free.
///
/// With an active [`SpatialCorrelation`] the channels are no longer
/// conditionally independent given the D2D factor alone: channels routed
/// through the same region co-move through the shared region normals.
/// Each channel's region exposure is collapsed onto its **dominant**
/// region (the one carrying the largest repeater-delay sum) with a
/// loading that preserves the full correlated marginal variance; the
/// network probability then factorizes across regions, each factor one
/// extra 1-D quadrature over that region's shared normal. This is exact
/// when every channel lies in a single region and a conservative lower
/// bound otherwise (the dropped cross-dominant-region coupling is
/// nonnegative), which is the right direction for a feasibility filter.
#[must_use]
pub fn network_yield(problem: &NetworkProblem) -> (f64, Vec<f64>) {
    if problem.correlation.is_active() {
        return network_yield_correlated(problem);
    }
    let moments: Vec<ConditionalMoments> = problem
        .channels
        .iter()
        .map(|stages| ConditionalMoments::new(stages, &problem.variation))
        .collect();
    let mut per_channel = vec![0.0; moments.len()];
    let overall = if problem.variation.sigma_d2d == 0.0 {
        accumulate_conditional(&moments, problem.period_s, 1.0, &mut per_channel, 1.0)
    } else {
        let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
        let mut acc = 0.0;
        for i in 0..=QUAD_STEPS {
            let z = -QUAD_RANGE + h * i as f64;
            let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
            let g = drive_factor_from_normal(z, problem.variation.sigma_d2d);
            let w = weight * normal_pdf(z) * h;
            acc += accumulate_conditional(&moments, problem.period_s, g, &mut per_channel, w);
        }
        acc
    };
    for y in &mut per_channel {
        *y = y.clamp(0.0, 1.0);
    }
    (overall.clamp(0.0, 1.0), per_channel)
}

/// Number of quadrature panels over each shared-region normal in the
/// correlated network closure. The integrand (φ times a product of Φ
/// terms) is smooth and the trapezoid rule converges spectrally, so 64
/// panels over ±8σ sit far below the closure error.
const REGION_QUAD_STEPS: usize = 64;

/// D2D-independent pieces of one channel's correlated decomposition.
/// Given the D2D factor `g`, the conditional delay is
/// `mean(g) − λ(g)·Z_dom − τ(g)·ξ` with
/// `mean(g) = r_tot(1+σ_w²)/g + w_tot`,
/// `λ(g) = σ_w·√ρ·√region_sq / g` and `τ(g) = σ_w·√((1−ρ)·r_sq) / g`.
struct ChannelDecomp {
    r_tot: f64,
    r_sq: f64,
    w_tot: f64,
    /// `Σ_g R_{c,g}²` over the channel's touched regions.
    region_sq: f64,
    /// Region with the largest exposure (first wins ties).
    dominant: usize,
}

fn decompose_channels(problem: &NetworkProblem) -> Vec<ChannelDecomp> {
    let mut offset = 0usize;
    problem
        .channels
        .iter()
        .map(|stages| {
            let loadings = region_loadings(
                stages,
                &problem.correlation.stage_region[offset..offset + stages.len()],
            );
            offset += stages.len();
            let region_sq: f64 = loadings.iter().map(|&(_, r)| r * r).sum();
            let dominant = loadings
                .iter()
                .fold(None::<(usize, f64)>, |best, &(g, r)| match best {
                    Some((_, br)) if br >= r => best,
                    _ => Some((g, r)),
                })
                .map_or(0, |(g, _)| g);
            ChannelDecomp {
                r_tot: stages.repeater_s.iter().sum(),
                r_sq: stages.repeater_s.iter().map(|r| r * r).sum(),
                w_tot: stages.wire_s.iter().sum(),
                region_sq,
                dominant,
            }
        })
        .collect()
}

fn network_yield_correlated(problem: &NetworkProblem) -> (f64, Vec<f64>) {
    let decomp = decompose_channels(problem);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); problem.correlation.region_count()];
    for (c, d) in decomp.iter().enumerate() {
        groups[d.dominant].push(c);
    }
    let mut per_channel = vec![0.0; problem.channels.len()];
    let mut scratch = Vec::new();
    let overall = if problem.variation.sigma_d2d == 0.0 {
        correlated_conditional(
            problem,
            &decomp,
            &groups,
            1.0,
            &mut per_channel,
            1.0,
            &mut scratch,
        )
    } else {
        let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
        let mut acc = 0.0;
        for i in 0..=QUAD_STEPS {
            let z = -QUAD_RANGE + h * i as f64;
            let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
            let g = drive_factor_from_normal(z, problem.variation.sigma_d2d);
            acc += correlated_conditional(
                problem,
                &decomp,
                &groups,
                g,
                &mut per_channel,
                weight * normal_pdf(z) * h,
                &mut scratch,
            );
        }
        acc
    };
    for y in &mut per_channel {
        *y = y.clamp(0.0, 1.0);
    }
    (overall.clamp(0.0, 1.0), per_channel)
}

/// Adds `weight ×` the conditional per-channel yields into `per_channel`
/// and returns `weight ×` the conditional all-channels-pass probability
/// under the dominant-region factorization. `scratch` holds the
/// per-member `(mean, λ, τ)` triples to avoid per-node allocation.
#[allow(clippy::too_many_arguments)]
fn correlated_conditional(
    problem: &NetworkProblem,
    decomp: &[ChannelDecomp],
    groups: &[Vec<usize>],
    g_d2d: f64,
    per_channel: &mut [f64],
    weight: f64,
    scratch: &mut Vec<(f64, f64, f64)>,
) -> f64 {
    let rho = problem.correlation.rho_region;
    let sqrt_rho = rho.sqrt();
    let sw = problem.variation.sigma_wid;
    let sw2 = sw * sw;
    let period = problem.period_s;
    let mut product = 1.0;
    for members in groups {
        if members.is_empty() {
            continue;
        }
        scratch.clear();
        for &c in members {
            let d = &decomp[c];
            let mean = d.r_tot * (1.0 + sw2) / g_d2d + d.w_tot;
            let lambda = sw * sqrt_rho * d.region_sq.sqrt() / g_d2d;
            let tau = sw * ((1.0 - rho) * d.r_sq).sqrt() / g_d2d;
            per_channel[c] +=
                weight * gaussian_tail(period, mean, (lambda * lambda + tau * tau).sqrt());
            scratch.push((mean, lambda, tau));
        }
        // ∫ φ(u) · Π_c Φ((T − m_c + λ_c·u)/τ_c) du over this region's
        // shared normal.
        let h = 2.0 * QUAD_RANGE / REGION_QUAD_STEPS as f64;
        let mut region_prob = 0.0;
        for i in 0..=REGION_QUAD_STEPS {
            let u = -QUAD_RANGE + h * i as f64;
            let quad_w = if i == 0 || i == REGION_QUAD_STEPS {
                0.5
            } else {
                1.0
            };
            let mut inner = 1.0;
            for &(mean, lambda, tau) in scratch.iter() {
                inner *= gaussian_tail(period, mean - lambda * u, tau);
                if inner == 0.0 {
                    break;
                }
            }
            region_prob += quad_w * normal_pdf(u) * inner;
        }
        product *= (region_prob * h).clamp(0.0, 1.0);
    }
    weight * product
}

/// Adds `weight ×` the conditional per-channel yields into `per_channel`
/// and returns `weight ×` the conditional all-channels-pass probability.
fn accumulate_conditional(
    moments: &[ConditionalMoments],
    period_s: f64,
    g_d2d: f64,
    per_channel: &mut [f64],
    weight: f64,
) -> f64 {
    let mut product = 1.0;
    for (channel, marginal) in moments.iter().zip(per_channel.iter_mut()) {
        let (mean, sigma) = channel.at(g_d2d);
        let y = gaussian_tail(period_s, mean, sigma);
        *marginal += weight * y;
        product *= y;
    }
    weight * product
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variation() -> DriveVariation {
        DriveVariation {
            sigma_d2d: 0.08,
            sigma_wid: 0.05,
        }
    }

    fn stages() -> StageDelays {
        StageDelays::new(vec![30e-12; 8], vec![12e-12; 8])
    }

    #[test]
    fn closure_mean_is_near_nominal() {
        let c = line_closure(&stages(), &variation());
        let nominal = stages().nominal_delay();
        assert!(c.mean_s > nominal, "1/g correction raises the mean");
        assert!((c.mean_s - nominal) / nominal < 0.02);
        assert!(c.sigma_s > 0.0);
    }

    #[test]
    fn zero_variation_closure_is_a_step() {
        let none = DriveVariation {
            sigma_d2d: 0.0,
            sigma_wid: 0.0,
        };
        let c = line_closure(&stages(), &none);
        assert!((c.mean_s - stages().nominal_delay()).abs() < 1e-18);
        assert_eq!(c.yield_at(c.mean_s * 1.01), 1.0);
        assert_eq!(c.yield_at(c.mean_s * 0.99), 0.0);
    }

    #[test]
    fn analytic_yield_is_monotone_in_deadline() {
        let s = stages();
        let v = variation();
        let nominal = s.nominal_delay();
        let mut last = 0.0;
        for frac in [0.9, 1.0, 1.05, 1.1, 1.3] {
            let p = LineProblem {
                stages: s.clone(),
                variation: v,
                correlation: SpatialCorrelation::none(),
                deadline_s: nominal * frac,
            };
            let y = line_yield(&p);
            assert!((0.0..=1.0).contains(&y));
            assert!(y >= last, "yield not monotone at {frac}");
            last = y;
        }
        assert!(last > 0.99);
    }

    #[test]
    fn median_deadline_gives_half_yield() {
        let s = stages();
        let v = variation();
        let c = line_closure(&s, &v);
        let p = LineProblem {
            stages: s,
            variation: v,
            correlation: SpatialCorrelation::none(),
            deadline_s: c.mean_s,
        };
        let y = line_yield(&p);
        assert!((y - 0.5).abs() < 0.05, "yield at the closure mean: {y}");
    }

    #[test]
    fn network_yield_is_bounded_by_weakest_channel() {
        let v = variation();
        let fast = StageDelays::new(vec![20e-12; 6], vec![10e-12; 6]);
        let slow = StageDelays::new(vec![40e-12; 6], vec![10e-12; 6]);
        let nominal = slow.nominal_delay();
        let p = NetworkProblem::new(vec![fast, slow], v, nominal * 1.02);
        let (overall, per) = network_yield(&p);
        assert_eq!(per.len(), 2);
        assert!(per[0] > per[1], "slow channel limits yield");
        let weakest = per[1];
        assert!(overall <= weakest + 1e-9);
        assert!(overall > 0.0 && overall < 1.0);
    }

    /// Conditional moments summed over the stages again at every node:
    /// what the quadrature did before the sums were hoisted.
    fn conditional_moments(stages: &StageDelays, variation: &DriveVariation, g: f64) -> (f64, f64) {
        let r_tot: f64 = stages.repeater_s.iter().sum();
        let r_sq: f64 = stages.repeater_s.iter().map(|r| r * r).sum();
        let w_tot: f64 = stages.wire_s.iter().sum();
        let sw2 = variation.sigma_wid * variation.sigma_wid;
        let mean = r_tot * (1.0 + sw2) / g + w_tot;
        let sigma = (sw2 * r_sq).sqrt() / g;
        (mean, sigma)
    }

    #[test]
    fn hoisted_moments_match_a_per_node_recompute_bit_for_bit() {
        // Forty channels of uneven stage delays, so that a reassociated
        // moment expression would round differently somewhere.
        let channels: Vec<StageDelays> = (1..=40)
            .map(|k| {
                let n = 2 + k % 7;
                let r = (0..n).map(|j| (17.3 + 0.731 * k as f64 + 1.37 * j as f64) * 1e-12);
                let w = (0..n).map(|j| (9.1 + 0.173 * (k * j) as f64) * 1e-12);
                StageDelays::new(r.collect(), w.collect())
            })
            .collect();
        let slowest = channels
            .iter()
            .map(StageDelays::nominal_delay)
            .fold(0.0, f64::max);
        for v in [
            variation(),
            DriveVariation {
                sigma_d2d: 0.0,
                sigma_wid: 0.0731,
            },
        ] {
            let p = NetworkProblem::new(channels.clone(), v, slowest * 1.05);
            let (got, per) = network_yield(&p);
            let mut per_node = vec![0.0; channels.len()];
            let mut acc = 0.0;
            let nodes: Vec<(f64, f64)> = if v.sigma_d2d == 0.0 {
                vec![(1.0, 1.0)]
            } else {
                let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
                (0..=QUAD_STEPS)
                    .map(|i| {
                        let z = -QUAD_RANGE + h * i as f64;
                        let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
                        let g = drive_factor_from_normal(z, v.sigma_d2d);
                        (g, weight * normal_pdf(z) * h)
                    })
                    .collect()
            };
            for (g, w) in nodes {
                let mut product = 1.0;
                for (c, stages) in channels.iter().enumerate() {
                    let (mean, sigma) = conditional_moments(stages, &v, g);
                    let (hoisted_mean, hoisted_sigma) = ConditionalMoments::new(stages, &v).at(g);
                    assert_eq!(hoisted_mean.to_bits(), mean.to_bits(), "mean, channel {c}");
                    assert_eq!(
                        hoisted_sigma.to_bits(),
                        sigma.to_bits(),
                        "sigma, channel {c}"
                    );
                    let y = gaussian_tail(p.period_s, mean, sigma);
                    per_node[c] += w * y;
                    product *= y;
                }
                acc += w * product;
            }
            assert_eq!(got.to_bits(), acc.clamp(0.0, 1.0).to_bits());
            for (a, b) in per.iter().zip(&per_node) {
                assert_eq!(a.to_bits(), b.clamp(0.0, 1.0).to_bits());
            }
            assert!(
                got > 0.05 && got < 0.999,
                "a non-trivial network yield: {got}"
            );
            // The single-line closure runs the same hoisted moments.
            let line = LineProblem {
                stages: channels[0].clone(),
                variation: v,
                correlation: SpatialCorrelation::none(),
                deadline_s: p.period_s,
            };
            let want = integrate_over_d2d(&v, |g| {
                let (mean, sigma) = conditional_moments(&line.stages, &v, g);
                gaussian_tail(line.deadline_s, mean, sigma)
            });
            assert_eq!(line_yield(&line).to_bits(), want.clamp(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn quantile_inverts_yield() {
        let c = line_closure(&stages(), &variation());
        let q95 = c.quantile(0.95);
        assert!((c.yield_at(q95) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn correlated_closure_widens_with_rho_and_matches_uncorrelated_at_zero() {
        let s = stages();
        let v = variation();
        let base = line_closure(&s, &v);
        let mut last_sigma = 0.0;
        for rho in [0.0, 0.3, 0.6, 0.9, 1.0] {
            let corr = SpatialCorrelation::regional(rho, vec![0; s.len()]);
            let c = correlated_channel_closure(&s, &v, &corr, 0);
            assert_eq!(c.mean_s.to_bits(), base.mean_s.to_bits(), "mean at {rho}");
            if rho == 0.0 {
                assert_eq!(c.sigma_s.to_bits(), base.sigma_s.to_bits());
            }
            assert!(c.sigma_s >= last_sigma, "sigma monotone in rho");
            last_sigma = c.sigma_s;
        }
        // A single shared region at rho = 1 collapses the WID average-out:
        // the variance term becomes σ_w²·(Σr)², same form as the D2D term.
        let corr = SpatialCorrelation::regional(1.0, vec![0; s.len()]);
        let c = correlated_channel_closure(&s, &v, &corr, 0);
        let r_tot: f64 = s.repeater_s.iter().sum();
        let sd2 = v.sigma_d2d * v.sigma_d2d;
        let sw2 = v.sigma_wid * v.sigma_wid;
        let want = ((sd2 + sw2) * r_tot * r_tot).sqrt();
        assert!((c.sigma_s - want).abs() / want < 1e-12);
    }

    #[test]
    fn correlated_line_yield_drops_for_a_tight_deadline() {
        let s = stages();
        let v = variation();
        let nominal = s.nominal_delay();
        let mut last = 0.0;
        let mut first = None;
        // Tight deadline: more variance means more mass beyond it, so
        // yield must fall monotonically as rho rises.
        for rho in [0.0, 0.4, 0.8] {
            let p = LineProblem {
                stages: s.clone(),
                variation: v,
                correlation: SpatialCorrelation::regional(rho, vec![0; s.len()]),
                deadline_s: nominal * 1.12,
            };
            let y = line_yield(&p);
            if let Some(f) = first {
                assert!(y <= f, "yield rose with rho at {rho}");
            } else {
                first = Some(y);
                // rho = 0 with a region map must equal the plain problem.
                let plain = LineProblem {
                    stages: s.clone(),
                    variation: v,
                    correlation: SpatialCorrelation::none(),
                    deadline_s: nominal * 1.12,
                };
                assert_eq!(y.to_bits(), line_yield(&plain).to_bits());
            }
            assert!(y < 1.0 && y > 0.5);
            last = y;
        }
        assert!(last < first.unwrap() - 0.005, "rho=0.8 visibly cuts yield");
    }

    #[test]
    fn correlated_network_yield_matches_single_region_product_structure() {
        // Two identical channels in *distinct* regions at high rho: the
        // dominant-region factorization is exact, and the network yield
        // must sit below the single-channel marginal (two chances to
        // fail) but above the independent-channels square whenever the
        // shared D2D factor couples them.
        let v = variation();
        let ch = || StageDelays::new(vec![30e-12; 8], vec![12e-12; 8]);
        let period = ch().nominal_delay() * 1.1;
        let p = NetworkProblem::new(vec![ch(), ch()], v, period).with_correlation(
            SpatialCorrelation::regional(0.8, [vec![0; 8], vec![1; 8]].concat()),
        );
        let (overall, per) = network_yield(&p);
        assert!(per[0] > 0.5 && per[0] < 1.0);
        assert!((per[0] - per[1]).abs() < 1e-12, "identical channels");
        assert!(overall <= per[0] + 1e-9, "joint below marginal");
        assert!(
            overall >= per[0] * per[1] - 1e-9,
            "D2D coupling keeps joint above independence: {overall} vs {}",
            per[0] * per[1]
        );
    }
}
