//! Surrogate-guided estimation: a linear-Gaussian surrogate of the
//! network's pass/fail behaviour, fitted from the analytic closure's
//! per-stage sensitivities, with three jobs:
//!
//! 1. **Control variate** — the surrogate verdict is a deterministic
//!    function of the same normal vector the exact die evaluation
//!    consumes, and its expectation under the sampling measure is
//!    computable *exactly* (nested 1-D quadrature over the shared D2D
//!    and region coordinates; the per-stage coordinates integrate in
//!    closed form). Any estimator can therefore evaluate both indicators
//!    per die, average the *difference*, and add the surrogate's exact
//!    expectation back: the result is unbiased for the exact yield no
//!    matter how wrong the surrogate is, and its variance scales with
//!    the surrogate–exact *disagreement* rate instead of the failure
//!    rate.
//! 2. **Fitted importance shift** — the mean shift that minimizes the
//!    shifted-measure second moment of the surrogate failure indicator
//!    has a closed-form objective (`M₂(t) = e^{t²}·Φ(−(m+t))` along the
//!    limiting channel's sensitivity direction); a few safeguarded
//!    Newton steps on `log M₂` place the shift slightly *past* the
//!    failure boundary, where the hand-picked boundary shift of the
//!    plain importance sampler is measurably suboptimal.
//! 3. **Mixture proposals** — when several channels compete for the
//!    limiting margin (common under spatial correlation, where the
//!    dominant-region decomposition separates failure modes by region),
//!    a single shift leaves the other modes' failures carrying huge
//!    likelihood ratios. The proposal then becomes a small Gaussian
//!    mixture with one component per competing channel, weighted by
//!    each channel's surrogate failure probability.
//!
//! The surrogate deliberately matches the *dominant-region collapsed*
//! form of the analytic closure (`analytic::network_yield_correlated`):
//! each channel's full region exposure `√(Σ_g R_{c,g}²)` loads onto its
//! single dominant-region coordinate. That keeps every channel's
//! marginal variance exact while making the all-channels-pass
//! expectation factorize across regions — the property the control
//! variate needs.
//!
//! Along the shared D2D coordinate the surrogate is **exact**, not
//! linearized: the exact die delay is `Σ rⱼ/(g_d·gⱼ) + w_tot`, so a
//! channel passes iff `Σ rⱼ/gⱼ ≤ (period − w_tot)·g_d(z₀)` — the floored
//! drive factor multiplies straight through the slack. Only the
//! within-die sum is linearized (`Σ rⱼ/gⱼ ≈ r_tot(1+σ_w²) − σ_w Σ rⱼzⱼ`).
//! The D2D nonlinearity `1/g_d` is strongly convex exactly where the
//! importance proposal concentrates its samples (z₀ ≈ −3σ), so keeping
//! it exact — cheap, since the expectation already integrates over z₀ by
//! quadrature — collapses the disagreement rate by an order of
//! magnitude. The remaining WID-linearization and region-collapse error
//! shows up only in the disagreement rate, which is reported as the
//! estimator's trust metric.

use pi_rt::norm::{normal_cdf, normal_pdf};
use pi_rt::Rng;

use crate::analytic;
use crate::problem::{drive_factor_from_normal, NetworkProblem};

/// Quadrature panels over the shared D2D coordinate (trapezoid, ±8σ).
const QUAD_STEPS: usize = 256;
/// Quadrature panels over each shared-region coordinate.
const REGION_QUAD_STEPS: usize = 64;
/// Integration range in standard deviations.
const QUAD_RANGE: f64 = 8.0;
/// Largest fitted mean shift (in σ along the sensitivity direction),
/// matching the plain importance sampler's clamp.
const MAX_SHIFT_SIGMA: f64 = 6.0;
/// Channels whose margin sits within this many σ of the limiting margin
/// count as competing failure modes and get their own mixture component.
const MIXTURE_WINDOW_SIGMA: f64 = 1.0;
/// Mixture size cap: more components than this add likelihood-ratio
/// evaluation cost faster than they remove variance.
const MAX_COMPONENTS: usize = 4;

/// `Φ(margin/σ)`, degrading to a step when `σ == 0`.
fn pass_prob(margin: f64, sigma: f64) -> f64 {
    if sigma > 0.0 {
        normal_cdf(margin / sigma)
    } else if margin >= 0.0 {
        1.0
    } else {
        0.0
    }
}

/// One channel of the surrogate. The channel passes iff
/// `a·g_d(z₀) − b + s·z̃ ≥ 0` where `g_d` is the exact (floored) D2D
/// drive factor, `a = period − w_tot`, `b = r_tot(1+σ_w²)` is the
/// linearized within-die sum, and `s·z̃` spans the region and stage
/// coordinates only.
#[derive(Debug, Clone)]
struct ChannelModel {
    /// Slack multiplier `a = period − w_tot`, seconds.
    a_s: f64,
    /// Linearized within-die repeater sum `b = r_tot(1+σ_w²)`, seconds.
    b_s: f64,
    /// The D2D sigma, for the exact drive factor in [`Self::margin_at`].
    sigma_d: f64,
    /// Sparse sensitivity vector `(z index, seconds per σ)`, ascending
    /// by index: the dominant-region coordinate (when correlated), then
    /// this channel's stage coordinates. The D2D coordinate is *not*
    /// here — it enters exactly through [`Self::margin_at`].
    sens: Vec<(usize, f64)>,
    /// Linearized D2D sensitivity `σ_d·a` (the `z₀` slope at nominal),
    /// seconds — used only for the proposal direction and `norm_s`.
    s_d2d: f64,
    /// Dominant-region coordinate and loading `λ = σ_w·√ρ·√(Σ_g R²)`,
    /// when the correlation is active.
    region: Option<(usize, f64)>,
    /// Quadratic sum of the channel-private stage sensitivities:
    /// `τ = σ_w·√((1−ρ)·Σrⱼ²)` (or `σ_w·√(Σrⱼ²)` uncorrelated), seconds.
    tau_s: f64,
    /// `√(s_d2d² + λ² + τ²)` — the linearized surrogate delay σ.
    norm_s: f64,
}

impl ChannelModel {
    /// Deterministic slack at D2D coordinate `z₀`: `a·g_d(z₀) − b`.
    /// Exact in `z₀` including the drive floor.
    fn margin_at(&self, z0: f64) -> f64 {
        self.a_s * drive_factor_from_normal(z0, self.sigma_d) - self.b_s
    }

    /// Conditional spread over the region + stage coordinates.
    fn wid_sigma(&self) -> f64 {
        let lambda = self.region.map_or(0.0, |(_, l)| l);
        (lambda * lambda + self.tau_s * self.tau_s).sqrt()
    }

    /// Surrogate pass verdict for one die.
    fn passes(&self, z: &[f64]) -> bool {
        let mut acc = self.margin_at(z[0]);
        for &(k, s) in &self.sens {
            acc += s * z[k];
        }
        acc >= 0.0
    }

    /// Linearized margin in σ units (`+∞` when the channel has no
    /// variation and passes deterministically, `−∞` when it fails
    /// deterministically). Used to rank channels and fit shifts.
    fn margin_sigma(&self) -> f64 {
        let margin = self.a_s - self.b_s;
        if self.norm_s > 0.0 {
            margin / self.norm_s
        } else if margin >= 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// The fitted linear-Gaussian surrogate of a [`NetworkProblem`].
#[derive(Debug, Clone)]
pub struct Surrogate {
    channels: Vec<ChannelModel>,
    /// Problem dimension (for the dense shift vectors of the proposal).
    dimension: usize,
    /// Whether any channel loads the shared D2D coordinate.
    d2d_active: bool,
}

impl Surrogate {
    /// Fits the surrogate from the closure sensitivities of `problem`.
    #[must_use]
    pub fn fit(problem: &NetworkProblem) -> Self {
        let variation = &problem.variation;
        let corr = &problem.correlation;
        let active = corr.is_active();
        let stage_base = if active { 1 + corr.region_count() } else { 1 };
        let sd = variation.sigma_d2d;
        let sw = variation.sigma_wid;
        let (load_region, load_stage) = if active { corr.loadings() } else { (0.0, 1.0) };

        let mut channels = Vec::with_capacity(problem.channels.len());
        let mut offset = 0usize;
        for stages in &problem.channels {
            let r_tot: f64 = stages.repeater_s.iter().sum();
            let w_tot: f64 = stages.wire_s.iter().sum();
            // The exact pass condition divides the repeater sum by the
            // shared D2D drive, so the slack multiplies through it:
            // a·g_d(z₀) ≥ b + WID terms, with b carrying the
            // second-order E[1/g] correction of the closure mean.
            let a_s = problem.period_s - w_tot;
            let b_s = r_tot * (1.0 + sw * sw);
            let s_d2d = sd * a_s;

            let mut sens: Vec<(usize, f64)> = Vec::with_capacity(stages.len() + 1);
            let region = if active {
                let loadings = analytic::region_loadings(
                    stages,
                    &corr.stage_region[offset..offset + stages.len()],
                );
                let region_sq: f64 = loadings.iter().map(|&(_, r)| r * r).sum();
                let dominant = loadings
                    .iter()
                    .fold(None::<(usize, f64)>, |best, &(g, r)| match best {
                        Some((_, br)) if br >= r => best,
                        _ => Some((g, r)),
                    })
                    .map_or(0, |(g, _)| g);
                let lambda = sw * load_region * region_sq.sqrt();
                if lambda > 0.0 {
                    sens.push((1 + dominant, lambda));
                    Some((dominant, lambda))
                } else {
                    None
                }
            } else {
                None
            };
            let mut tau_sq = 0.0;
            for (j, r) in stages.repeater_s.iter().enumerate() {
                let s = sw * load_stage * r;
                if s != 0.0 {
                    sens.push((stage_base + offset + j, s));
                }
                tau_sq += s * s;
            }
            let lambda = region.map_or(0.0, |(_, l)| l);
            let norm_s = (s_d2d * s_d2d + lambda * lambda + tau_sq).sqrt();
            channels.push(ChannelModel {
                a_s,
                b_s,
                sigma_d: sd,
                sens,
                s_d2d,
                region,
                tau_s: tau_sq.sqrt(),
                norm_s,
            });
            offset += stages.len();
        }
        Surrogate {
            channels,
            dimension: problem.dimension(),
            d2d_active: sd > 0.0,
        }
    }

    /// Surrogate verdicts for one die: fills per-channel passes and
    /// returns whether every channel passes.
    ///
    /// # Panics
    ///
    /// Panics if `pass.len()` differs from the channel count.
    pub fn die(&self, z: &[f64], pass: &mut [bool]) -> bool {
        assert_eq!(pass.len(), self.channels.len(), "pass slice size");
        let mut all = true;
        for (c, ok) in self.channels.iter().zip(pass.iter_mut()) {
            *ok = c.passes(z);
            all &= *ok;
        }
        all
    }

    /// Per-channel margins in σ units, ascending by channel index.
    #[must_use]
    pub fn margins(&self) -> Vec<f64> {
        self.channels
            .iter()
            .map(ChannelModel::margin_sigma)
            .collect()
    }

    /// Exact marginal pass probability of each channel. Conditioned on
    /// the D2D coordinate, the WID part is a linear combination of
    /// standard normals, so each channel passes with probability
    /// `Φ(margin_at(z₀)/√(λ²+τ²))`; the D2D coordinate integrates out
    /// by quadrature (closed form when it carries no variation).
    #[must_use]
    pub fn channel_expectations(&self) -> Vec<f64> {
        self.channels
            .iter()
            .map(|c| {
                if !self.d2d_active {
                    return pass_prob(c.margin_at(0.0), c.wid_sigma());
                }
                let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
                let wid = c.wid_sigma();
                let mut acc = 0.0;
                for i in 0..=QUAD_STEPS {
                    let z0 = -QUAD_RANGE + h * i as f64;
                    let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
                    acc += weight * normal_pdf(z0) * pass_prob(c.margin_at(z0), wid);
                }
                (acc * h).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Exact probability that **every** channel passes under the
    /// standard-normal sampling measure.
    ///
    /// Conditioned on the shared D2D coordinate `z₀` and the shared
    /// region coordinates, the channels are independent (their remaining
    /// sensitivities touch disjoint stage coordinates), each passing
    /// with probability `Φ((margin + s₀z₀ + λu)/τ)`. The expectation is
    /// then an outer trapezoid quadrature over `z₀` of a product over
    /// region groups, each group one inner quadrature over its shared
    /// normal — the same factorization the analytic closure uses, but
    /// applied to the surrogate itself (exact D2D drive, linearized
    /// WID), so the result matches the per-die indicator exactly (up to
    /// quadrature error far below any sampling noise).
    #[must_use]
    pub fn expectation_all_pass(&self) -> f64 {
        if !self.d2d_active {
            return self.conditional_all_pass(0.0);
        }
        let h = 2.0 * QUAD_RANGE / QUAD_STEPS as f64;
        let mut acc = 0.0;
        for i in 0..=QUAD_STEPS {
            let z0 = -QUAD_RANGE + h * i as f64;
            let weight = if i == 0 || i == QUAD_STEPS { 0.5 } else { 1.0 };
            acc += weight * normal_pdf(z0) * self.conditional_all_pass(z0);
        }
        (acc * h).clamp(0.0, 1.0)
    }

    /// `P(all pass | z₀)`: independent channels factor straight in;
    /// channels sharing a dominant region integrate jointly over that
    /// region's normal.
    fn conditional_all_pass(&self, z0: f64) -> f64 {
        let mut product = 1.0;
        // Channels with no active region coordinate are conditionally
        // independent given z₀ alone.
        for c in &self.channels {
            if c.region.is_none() {
                product *= pass_prob(c.margin_at(z0), c.tau_s);
            }
        }
        if product == 0.0 {
            return 0.0;
        }
        // Group the remaining channels by dominant region; each group
        // integrates over one shared normal.
        let mut done = vec![false; self.channels.len()];
        for (i, c) in self.channels.iter().enumerate() {
            let Some((region, _)) = c.region else {
                continue;
            };
            if done[i] {
                continue;
            }
            let members: Vec<&ChannelModel> = self
                .channels
                .iter()
                .enumerate()
                .filter(|&(j, m)| {
                    let here = m.region.is_some_and(|(g, _)| g == region);
                    if here {
                        done[j] = true;
                    }
                    here
                })
                .map(|(_, m)| m)
                .collect();
            let h = 2.0 * QUAD_RANGE / REGION_QUAD_STEPS as f64;
            let mut region_prob = 0.0;
            for k in 0..=REGION_QUAD_STEPS {
                let u = -QUAD_RANGE + h * k as f64;
                let quad_w = if k == 0 || k == REGION_QUAD_STEPS {
                    0.5
                } else {
                    1.0
                };
                let mut inner = 1.0;
                for m in &members {
                    let lambda = m.region.map_or(0.0, |(_, l)| l);
                    inner *= pass_prob(m.margin_at(z0) + lambda * u, m.tau_s);
                    if inner == 0.0 {
                        break;
                    }
                }
                region_prob += quad_w * normal_pdf(u) * inner;
            }
            product *= (region_prob * h).clamp(0.0, 1.0);
        }
        product
    }

    /// Fits the importance-sampling proposal: one component per
    /// competing channel (margins within `MIXTURE_WINDOW_SIGMA` of the
    /// limiting margin), each shifted by its own variance-optimal
    /// magnitude along its sensitivity direction.
    #[must_use]
    pub fn proposal(&self) -> Proposal {
        // Candidate channels, ascending by margin; channels without
        // variation cannot be shifted toward failure.
        let mut candidates: Vec<(usize, f64)> = self
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.norm_s > 0.0)
            .map(|(i, c)| (i, c.margin_sigma()))
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let Some(&(_, m_min)) = candidates.first() else {
            // No variation at all: a single zero shift (plain MC).
            return Proposal {
                components: vec![Component {
                    weight: 1.0,
                    shift: vec![0.0; self.dimension],
                    sparse: Vec::new(),
                    shift_sq: 0.0,
                    magnitude: 0.0,
                    margin: f64::INFINITY,
                }],
            };
        };
        candidates.truncate(MAX_COMPONENTS);
        let competing: Vec<(usize, f64)> = candidates
            .into_iter()
            .filter(|&(_, m)| m <= m_min + MIXTURE_WINDOW_SIGMA)
            .collect();

        // Component weights ∝ each channel's surrogate failure mass.
        let raw: Vec<f64> = competing
            .iter()
            .map(|&(_, m)| normal_cdf(-m).max(f64::MIN_POSITIVE))
            .collect();
        let total: f64 = raw.iter().sum();
        let components = competing
            .iter()
            .zip(&raw)
            .map(|(&(i, m), &mass)| {
                let c = &self.channels[i];
                let t = fitted_shift(m);
                // Shift toward failure: slack = margin + s·z, so failure
                // lies along −s/|s|. The D2D direction re-enters here
                // through its linearized slope.
                let mut shift = vec![0.0; self.dimension];
                let mut sparse = Vec::with_capacity(c.sens.len() + 1);
                let d2d = (c.s_d2d != 0.0).then_some((0usize, c.s_d2d));
                for &(k, s) in d2d.iter().chain(&c.sens) {
                    let mu = -t * s / c.norm_s;
                    shift[k] = mu;
                    sparse.push((k, mu));
                }
                Component {
                    weight: mass / total,
                    shift,
                    sparse,
                    shift_sq: t * t,
                    magnitude: t,
                    margin: m,
                }
            })
            .collect();
        Proposal { components }
    }
}

/// Hazard function `h(u) = φ(u)/Φ(−u)` of the standard normal, with the
/// large-`u` asymptotic `u + 1/u` taking over before the ratio hits
/// 0/0 underflow.
fn hazard(u: f64) -> f64 {
    if u > 8.0 {
        return u + 1.0 / u;
    }
    normal_pdf(u) / normal_cdf(-u)
}

/// The variance-optimal exponential-tilt magnitude for estimating
/// `P(U > m)`, `U ~ N(0,1)`, by mean-shifted importance sampling: the
/// minimizer of the shifted second moment `M₂(t) = e^{t²}·Φ(−(m+t))`.
///
/// `f(t) = log M₂ = t² + ln Φ(−(m+t))` is smooth with
/// `f'(t) = 2t − h(m+t)` and `f''(t) = 2 − h'(m+t)`,
/// `h'(u) = h(u)·(h(u)−u) ∈ (0, ~1]`, so safeguarded Newton converges in
/// a handful of steps. The optimum sits slightly *past* the failure
/// boundary (`t* ≈ m + 1/(2m)` for large `m`), unlike the hand-picked
/// boundary shift `t = m`.
#[must_use]
pub fn fitted_shift(m: f64) -> f64 {
    if !m.is_finite() {
        return 0.0;
    }
    let mut t = if m > 0.0 { m + 0.5 / m.max(1.0) } else { 0.25 };
    t = t.clamp(0.0, MAX_SHIFT_SIGMA);
    for _ in 0..32 {
        let h = hazard(m + t);
        let fp = 2.0 * t - h;
        let fpp = 2.0 - h * (h - (m + t));
        let step = if fpp > 1e-9 { fp / fpp } else { fp * 0.25 };
        let next = (t - step).clamp(0.0, MAX_SHIFT_SIGMA);
        if (next - t).abs() < 1e-12 {
            t = next;
            break;
        }
        t = next;
    }
    t
}

/// One Gaussian component of the proposal: `N(shift, I)` with mixture
/// weight `weight`.
#[derive(Debug, Clone)]
struct Component {
    weight: f64,
    /// Dense mean-shift vector (problem dimension).
    shift: Vec<f64>,
    /// The same shift, sparse, for likelihood-ratio dot products.
    sparse: Vec<(usize, f64)>,
    /// `|shift|²`.
    shift_sq: f64,
    /// Shift magnitude `t` along the channel's unit sensitivity.
    magnitude: f64,
    /// The channel margin (σ units) this component targets.
    margin: f64,
}

/// A (possibly mixture) Gaussian importance-sampling proposal fitted
/// from the surrogate.
#[derive(Debug, Clone)]
pub struct Proposal {
    components: Vec<Component>,
}

impl Proposal {
    /// A one-component proposal with the given dense mean `shift`: the
    /// plain importance sampler's. Its likelihood ratio reads the shift's
    /// non-zeros in index order. The margin it targets is unknown here,
    /// so [`Proposal::boundary_weight_cap`] stays at the conservative 1.
    pub(crate) fn single(shift: Vec<f64>) -> Self {
        let sparse = (0..shift.len())
            .filter(|&k| shift[k] != 0.0)
            .map(|k| (k, shift[k]))
            .collect();
        let shift_sq: f64 = shift.iter().map(|m| m * m).sum();
        Proposal {
            components: vec![Component {
                weight: 1.0,
                shift,
                sparse,
                shift_sq,
                magnitude: shift_sq.sqrt(),
                margin: f64::INFINITY,
            }],
        }
    }

    /// Number of mixture components (≥ 1).
    #[must_use]
    pub fn components(&self) -> usize {
        self.components.len()
    }

    /// Shift magnitude of the leading (limiting-channel) component.
    #[must_use]
    pub fn leading_magnitude(&self) -> f64 {
        self.components[0].magnitude
    }

    /// Draws one die's normal vector into `z` and returns its
    /// likelihood ratio `w(z) = φ(z)/q(z)`.
    ///
    /// A single-component proposal consumes exactly `dim` normals — the
    /// same stream consumption as the plain importance sampler. A
    /// mixture consumes one extra uniform (the component pick) first.
    pub fn sample(&self, rng: &mut Rng, z: &mut [f64]) -> f64 {
        let k = if self.components.len() > 1 {
            let u = rng.random_unit();
            let mut acc = 0.0;
            let mut pick = self.components.len() - 1;
            for (i, c) in self.components.iter().enumerate() {
                acc += c.weight;
                if u < acc {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            0
        };
        let shift = &self.components[k].shift;
        for (slot, &mu) in z.iter_mut().zip(shift) {
            *slot = mu + rng.normal();
        }
        self.weight(z)
    }

    /// Likelihood ratio at `z`:
    /// `w(z) = 1 / Σ_k α_k·exp(μ_k·z − |μ_k|²/2)`.
    #[must_use]
    pub fn weight(&self, z: &[f64]) -> f64 {
        if self.components.len() == 1 {
            let c = &self.components[0];
            let mut dot = 0.0;
            for &(k, mu) in &c.sparse {
                dot += mu * z[k];
            }
            return (-dot + 0.5 * c.shift_sq).exp();
        }
        let mut denom = 0.0;
        for c in &self.components {
            let mut dot = 0.0;
            for &(k, mu) in &c.sparse {
                dot += mu * z[k];
            }
            denom += c.weight * (dot - 0.5 * c.shift_sq).exp();
        }
        1.0 / denom
    }

    /// Deterministic bound on the likelihood ratio over the leading
    /// component's *failure side* (`u ≥ m` along the shift direction):
    /// `w ≤ e^{t²/2 − t·m}`, capped at 1. Used to scale the
    /// rule-of-three interval when a control-variate run sees zero
    /// disagreements: any unseen disagreement near the surrogate
    /// boundary weighs at most this much. Mixtures fall back to the
    /// conservative cap of 1.
    #[must_use]
    pub fn boundary_weight_cap(&self) -> f64 {
        if self.components.len() != 1 {
            return 1.0;
        }
        let c = &self.components[0];
        if !c.margin.is_finite() {
            return 1.0;
        }
        (0.5 * c.magnitude * c.magnitude - c.magnitude * c.margin)
            .exp()
            .min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{DriveVariation, LineProblem, SpatialCorrelation, StageDelays};

    fn variation() -> DriveVariation {
        DriveVariation {
            sigma_d2d: 0.08,
            sigma_wid: 0.05,
        }
    }

    fn line(frac: f64) -> LineProblem {
        let stages = StageDelays::new(vec![28e-12; 10], vec![11e-12; 10]);
        LineProblem {
            deadline_s: stages.nominal_delay() * frac,
            stages,
            variation: variation(),
            correlation: SpatialCorrelation::none(),
        }
    }

    #[test]
    fn single_channel_expectation_matches_the_closure() {
        // Without D2D variation the surrogate *is* the linear-Gaussian
        // closure, so the expectations agree to rounding.
        let mut p = line(1.08);
        p.variation.sigma_d2d = 0.0;
        let sur = Surrogate::fit(&p.as_network());
        let closure = analytic::line_closure(&p.stages, &p.variation);
        let want = closure.yield_at(p.deadline_s);
        let got = sur.expectation_all_pass();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        assert_eq!(sur.channel_expectations(), vec![got]);

        // With D2D variation the surrogate keeps the exact 1/g_d drive
        // nonlinearity the closure linearizes away, so the two only
        // agree approximately — and the surrogate's own channel marginal
        // still matches its joint expectation (one channel).
        let p = line(1.08);
        let sur = Surrogate::fit(&p.as_network());
        let closure = analytic::line_closure(&p.stages, &p.variation);
        let want = closure.yield_at(p.deadline_s);
        let got = sur.expectation_all_pass();
        assert!((got - want).abs() < 2e-2, "{got} vs {want}");
        assert!(got < want, "the 1/g_d convexity can only cost yield here");
        let marginal = sur.channel_expectations()[0];
        assert!((marginal - got).abs() < 1e-12, "{marginal} vs {got}");
    }

    #[test]
    fn die_verdicts_average_to_the_expectation() {
        // The exact expectation must match the Monte-Carlo average of the
        // per-die indicator — that agreement is what makes the control
        // variate unbiased.
        let p = line(1.05).as_network();
        let sur = Surrogate::fit(&p);
        let dim = p.dimension();
        let mut pass = vec![false; 1];
        let n = 200_000usize;
        let mut hits = 0usize;
        for i in 0..n {
            let mut rng = Rng::stream(42, i as u64);
            let z: Vec<f64> = (0..dim).map(|_| rng.normal()).collect();
            if sur.die(&z, &mut pass) {
                hits += 1;
            }
        }
        let mc = hits as f64 / n as f64;
        let exact = sur.expectation_all_pass();
        let se = (exact * (1.0 - exact) / n as f64).sqrt();
        assert!(
            (mc - exact).abs() < 4.0 * se + 1e-4,
            "MC {mc} vs exact {exact} (se {se})"
        );
    }

    #[test]
    fn correlated_network_expectation_matches_monte_carlo() {
        let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
        let period = ch().nominal_delay() * 1.08;
        let net = NetworkProblem::new(vec![ch(), ch()], variation(), period).with_correlation(
            SpatialCorrelation::regional(0.7, [vec![0; 8], vec![1; 8]].concat()),
        );
        let sur = Surrogate::fit(&net);
        let dim = net.dimension();
        let mut pass = vec![false; 2];
        let n = 200_000usize;
        let mut hits = 0usize;
        for i in 0..n {
            let mut rng = Rng::stream(7, i as u64);
            let z: Vec<f64> = (0..dim).map(|_| rng.normal()).collect();
            if sur.die(&z, &mut pass) {
                hits += 1;
            }
        }
        let mc = hits as f64 / n as f64;
        let exact = sur.expectation_all_pass();
        let se = (exact * (1.0 - exact) / n as f64).sqrt();
        assert!(
            (mc - exact).abs() < 4.0 * se + 1e-4,
            "MC {mc} vs exact {exact} (se {se})"
        );
    }

    #[test]
    fn fitted_shift_beats_the_boundary_shift() {
        // The Newton optimum must satisfy the stationarity condition
        // 2t = h(m+t) and produce a strictly smaller second moment than
        // the hand-picked boundary shift t = m.
        let m2 = |m: f64, t: f64| (t * t).exp() * normal_cdf(-(m + t));
        for m in [1.0, 2.0, 3.0, 4.0] {
            let t = fitted_shift(m);
            assert!(t > m, "optimum sits past the boundary at m={m}");
            assert!(
                (2.0 * t - hazard(m + t)).abs() < 1e-6,
                "stationarity at {m}"
            );
            assert!(m2(m, t) < m2(m, m), "no improvement over t=m at {m}");
            // And it is a local minimum: nudging either way loses. The
            // nudge is large enough that the quadratic gain dominates
            // the tail-CDF rounding noise.
            assert!(m2(m, t) <= m2(m, t + 3e-2));
            assert!(m2(m, t) <= m2(m, t - 3e-2));
        }
        // Degenerate inputs stay safe.
        assert_eq!(fitted_shift(f64::INFINITY), 0.0);
        assert!(fitted_shift(100.0) <= MAX_SHIFT_SIGMA);
        assert!(fitted_shift(-3.0) >= 0.0);
    }

    #[test]
    fn competing_channels_produce_a_mixture() {
        // Two equal channels in distinct regions: both margins tie, so
        // the proposal must carry one component per failure mode with
        // equal weights.
        let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
        let period = ch().nominal_delay() * 1.1;
        let net = NetworkProblem::new(vec![ch(), ch()], variation(), period).with_correlation(
            SpatialCorrelation::regional(0.8, [vec![0; 8], vec![1; 8]].concat()),
        );
        let prop = Surrogate::fit(&net).proposal();
        assert_eq!(prop.components(), 2);
        let w = &prop.components;
        assert!((w[0].weight - 0.5).abs() < 1e-12);
        // A lone channel keeps a single component.
        let single = line(1.2).as_network();
        assert_eq!(Surrogate::fit(&single).proposal().components(), 1);
    }

    #[test]
    fn single_component_weight_matches_the_classic_formula() {
        let p = line(1.22).as_network();
        let sur = Surrogate::fit(&p);
        let prop = sur.proposal();
        assert_eq!(prop.components(), 1);
        let dim = p.dimension();
        let mut z = vec![0.0; dim];
        let mut rng = Rng::stream(3, 5);
        let w = prop.sample(&mut rng, &mut z);
        // Recompute the textbook likelihood ratio from the dense shift.
        let shift = &prop.components[0].shift;
        let dot: f64 = shift.iter().zip(&z).map(|(m, zk)| m * zk).sum();
        let shift_sq: f64 = shift.iter().map(|m| m * m).sum();
        let classic = (-dot + 0.5 * shift_sq).exp();
        assert!((w - classic).abs() / classic < 1e-12);
        // Exactly `dim` normals were consumed: the next draw of a fresh
        // stream at the same index after dim normals matches.
        let mut replay = Rng::stream(3, 5);
        for _ in 0..dim {
            replay.normal();
        }
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn mixture_weights_are_self_normalizing() {
        // E_q[w] = 1 for any proposal that dominates the nominal — a
        // quick sanity check of the mixture likelihood ratio.
        let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
        let period = ch().nominal_delay() * 1.12;
        let net = NetworkProblem::new(vec![ch(), ch()], variation(), period).with_correlation(
            SpatialCorrelation::regional(0.8, [vec![0; 8], vec![1; 8]].concat()),
        );
        let prop = Surrogate::fit(&net).proposal();
        assert!(prop.components() > 1);
        let dim = net.dimension();
        let mut z = vec![0.0; dim];
        let n = 100_000usize;
        let mut acc = 0.0;
        for i in 0..n {
            let mut rng = Rng::stream(11, i as u64);
            acc += prop.sample(&mut rng, &mut z);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "E[w] = {mean}");
    }

    #[test]
    fn zero_variation_surrogate_is_deterministic() {
        let mut p = line(1.01);
        p.variation = DriveVariation {
            sigma_d2d: 0.0,
            sigma_wid: 0.0,
        };
        let net = p.as_network();
        let sur = Surrogate::fit(&net);
        assert_eq!(sur.expectation_all_pass(), 1.0);
        assert_eq!(sur.margins(), vec![f64::INFINITY]);
        let prop = sur.proposal();
        assert_eq!(prop.components(), 1);
        assert_eq!(prop.leading_magnitude(), 0.0);
        let mut z = vec![0.0; net.dimension()];
        let mut rng = Rng::stream(1, 0);
        assert_eq!(prop.sample(&mut rng, &mut z), 1.0);
    }
}
