//! A small pure-Rust geometric-program (GP) solver and the posynomial
//! link model that turns yield-driven sizing into a GP.
//!
//! Buffered-line delay in the Bakoglu/Pamunuwa form is a **posynomial**
//! in the drive width `w` and repeater count `n` (segment length enters
//! as the monomial `L/n`): every term is a positive coefficient times
//! `w^a · n^b` with real exponents. Under the log transform
//! `y = ln x` a posynomial becomes the log-sum-exp of affine functions —
//! convex — so joint sizing of a link is a convex program solved exactly,
//! instead of a one-knob greedy ladder walk.
//!
//! The solver ([`solve`]) is a classic two-phase damped-Newton barrier
//! method on the log-transformed problem:
//!
//! 1. **Phase I** minimizes the log-sum-exp *smoothed maximum* of the
//!    constraint values to find a strictly feasible start (or prove
//!    there is none);
//! 2. **Phase II** follows the central path: for a geometrically
//!    increasing barrier weight `t` it Newton-minimizes
//!    `t·F₀(y) − Σ ln(−Fᵢ(y))` with backtracking line search.
//!
//! Both phases run through one allocation-free Newton kernel: the
//! problem is compiled once per solve into log-coefficients and a flat
//! exponent matrix, the oracles write into a workspace owned by the
//! solve, line-search trials evaluate the merit value only, and a
//! centering step ends once its Armijo margin falls below what `f64`
//! can resolve at the current merit value.
//!
//! Everything is serial scalar `f64` arithmetic with fixed iteration
//! schedules — no RNG, no threading — so results are bit-identical at
//! any `PI_THREADS` setting.
//!
//! The model layer ([`LineEvaluator::link_gp_model`]) extracts the
//! posynomial coefficients from the calibrated repeater and wire models
//! at the settled slew of the starting plan, and folds the variation
//! budget in through the analytic Gaussian closure of `pi-yield`: the
//! yield target maps to the normal quantile `z* = Φ⁻¹(target)` and the
//! guarded delay `mean + z*·σ̄` stays posynomial because
//! `σ = √(σ_d²·r_tot² + σ_w²·Σrⱼ²) ≤ σ_d·r_tot + σ_w·r_tot/√n` for a
//! uniform line — a conservative (never optimistic) bound.
//!
//! GP answers are **proposals only**: [`LineEvaluator::size_for_yield_gp_batch`]
//! verifies every proposed plan with the configured `pi-yield` estimator
//! and accepts only when the CI lower bound clears the target, falling
//! back to the greedy ladder otherwise, so answers stay statistically
//! certified.

use pi_tech::units::{Cap, Freq, Length, Time};

use crate::line::{BufferingPlan, LineEvaluator, LineSpec};
use crate::repeater_model::Transition;
use crate::variation::{SizeQuery, VariationModel, YieldQuery, YieldSizing};

/// One monomial term `coeff · Π xⱼ^exponents[j]` with `coeff > 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    /// Positive multiplicative coefficient.
    pub coeff: f64,
    /// Real exponent per variable.
    pub exponents: Vec<f64>,
}

/// A sum of monomials — closed under the GP operations (sum, product,
/// positive scaling, monomial division).
#[derive(Debug, Clone, PartialEq)]
pub struct Posynomial {
    /// The monomial terms (at least one; all the same dimension).
    pub terms: Vec<Monomial>,
}

impl Posynomial {
    /// Builds a posynomial from `(coeff, exponents)` pairs, dropping
    /// terms whose coefficient is not strictly positive (a zero physical
    /// coefficient simply contributes nothing).
    ///
    /// # Panics
    ///
    /// Panics if no positive term remains or the dimensions disagree.
    #[must_use]
    pub fn new(terms: Vec<(f64, Vec<f64>)>) -> Self {
        let dim = terms.first().map_or(0, |(_, e)| e.len());
        let terms: Vec<Monomial> = terms
            .into_iter()
            .filter(|(c, _)| *c > 0.0)
            .map(|(coeff, exponents)| {
                assert_eq!(exponents.len(), dim, "mixed-dimension posynomial");
                assert!(coeff.is_finite(), "non-finite posynomial coefficient");
                Monomial { coeff, exponents }
            })
            .collect();
        assert!(!terms.is_empty(), "posynomial needs a positive term");
        Posynomial { terms }
    }

    /// The single-term posynomial `coeff · Π xⱼ^exponents[j]`.
    ///
    /// # Panics
    ///
    /// Panics unless `coeff > 0`.
    #[must_use]
    pub fn monomial(coeff: f64, exponents: Vec<f64>) -> Self {
        Posynomial::new(vec![(coeff, exponents)])
    }

    /// Number of variables.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.terms[0].exponents.len()
    }

    /// Evaluates at `x` (componentwise positive).
    #[must_use]
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                t.coeff
                    * t.exponents
                        .iter()
                        .zip(x)
                        .map(|(&a, &xi)| xi.powf(a))
                        .product::<f64>()
            })
            .sum()
    }
}

/// A geometric program in standard form: minimize `objective(x)` subject
/// to `constraints[i](x) ≤ 1`, `x > 0` componentwise.
#[derive(Debug, Clone, PartialEq)]
pub struct GpProblem {
    /// The posynomial objective.
    pub objective: Posynomial,
    /// Posynomial inequality constraints, each `Fᵢ(x) ≤ 1`.
    pub constraints: Vec<Posynomial>,
}

/// Why a GP solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpError {
    /// Phase I could not find a strictly feasible point.
    Infeasible,
    /// The Newton iteration stalled numerically (singular Hessian that
    /// ridging could not repair).
    Stalled,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Infeasible => write!(f, "no strictly feasible point"),
            GpError::Stalled => write!(f, "Newton iteration stalled"),
        }
    }
}

impl std::error::Error for GpError {}

/// First-order optimality report at the returned point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktResidual {
    /// `‖∇F₀ + Σ λᵢ∇Fᵢ‖_∞` in the log domain (stationarity).
    pub stationarity: f64,
    /// `max(0, maxᵢ Fᵢ)` in the log domain (primal feasibility).
    pub feasibility: f64,
    /// The barrier duality gap `m/t` at the final centering step.
    pub duality_gap: f64,
}

/// A successful GP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct GpSolution {
    /// The optimizer in the original (positive) variables.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Total damped-Newton steps across both phases.
    pub iterations: u32,
    /// KKT residuals at `x`.
    pub kkt: KktResidual,
}

/// A problem compiled for the Newton kernel: every posynomial (the
/// objective first, then the constraints) as log-coefficients plus a
/// flat row-major exponent matrix.
struct Compiled {
    dim: usize,
    /// Terms of posynomial `k` are `starts[k]..starts[k + 1]`.
    starts: Vec<usize>,
    /// `ln cⱼ` per term.
    log_coeff: Vec<f64>,
    /// `dim` exponents per term.
    exps: Vec<f64>,
}

/// What the oracles write into: per-posynomial values, gradients and
/// Hessians, and the merit function's gradient and Hessian.
struct Buffers {
    /// Per-term exponents `zⱼ`, overwritten by their softmax weights.
    z: Vec<f64>,
    /// Value of each posynomial; Phase I overwrites the constraint
    /// values with their smoothed-max weights.
    f: Vec<f64>,
    /// Gradient of each posynomial, `dim` apiece.
    g: Vec<f64>,
    /// Hessian of each posynomial, `dim²` apiece.
    h: Vec<f64>,
    /// Gradient of the merit function.
    grad: Vec<f64>,
    /// Hessian of the merit function.
    hess: Vec<f64>,
}

/// Everything one solve writes, allocated once per solve.
struct Workspace {
    buf: Buffers,
    /// Cholesky factor of the merit Hessian.
    chol: Vec<f64>,
    /// Newton step.
    step: Vec<f64>,
    /// Line-search trial point.
    trial: Vec<f64>,
    /// Newton steps taken.
    iterations: u32,
    /// Line-search halvings.
    backtracks: u32,
}

/// The convex function one damped-Newton descent minimizes.
#[derive(Debug, Clone, Copy)]
enum Merit {
    /// Phase I: the smoothed maximum `τ·ln((1/m)·Σ exp(Fᵢ/τ))` of the
    /// constraints.
    SmoothedMax(f64),
    /// Phase II: the barrier `t·F₀ − Σ ln(−Fᵢ)`.
    Barrier(f64),
}

/// Turns the constraint values `f` into their smoothed-max weights in
/// place; returns the smoothed maximum and the weight sum.
fn soften(tau: f64, vmax: f64, f: &mut [f64]) -> (f64, f64) {
    let mut wsum = 0.0;
    for v in f.iter_mut() {
        *v = ((*v - vmax) / tau).exp();
        wsum += *v;
    }
    (vmax + tau * (wsum / f.len() as f64).ln(), wsum)
}

impl Compiled {
    fn new(problem: &GpProblem) -> Self {
        let dim = problem.objective.dim();
        let mut starts = vec![0];
        let mut log_coeff = Vec::new();
        let mut exps = Vec::new();
        for p in std::iter::once(&problem.objective).chain(&problem.constraints) {
            for t in &p.terms {
                assert_eq!(t.exponents.len(), dim, "mixed-dimension posynomial");
                log_coeff.push(t.coeff.ln());
                exps.extend_from_slice(&t.exponents);
            }
            starts.push(log_coeff.len());
        }
        Compiled {
            dim,
            starts,
            log_coeff,
            exps,
        }
    }

    /// Number of posynomials, the objective included.
    fn count(&self) -> usize {
        self.starts.len() - 1
    }

    fn workspace(&self) -> Workspace {
        let (dim, count) = (self.dim, self.count());
        let max_terms = self.starts.windows(2).map(|s| s[1] - s[0]).max();
        Workspace {
            buf: Buffers {
                z: vec![0.0; max_terms.unwrap_or(0)],
                f: vec![0.0; count],
                g: vec![0.0; count * dim],
                h: vec![0.0; count * dim * dim],
                grad: vec![0.0; dim],
                hess: vec![0.0; dim * dim],
            },
            chol: vec![0.0; dim * dim],
            step: vec![0.0; dim],
            trial: vec![0.0; dim],
            iterations: 0,
            backtracks: 0,
        }
    }

    /// `Fₖ(y) = ln Σ cⱼ·exp(aⱼ·y)` of posynomial `k`, the convex
    /// log-transformed form the solver works on. Leaves the unnormalized
    /// softmax weights in `z`; returns the value and the weight sum.
    fn lse_value(&self, k: usize, y: &[f64], z: &mut [f64]) -> (f64, f64) {
        let dim = self.dim;
        let terms = self.starts[k]..self.starts[k + 1];
        let z = &mut z[..terms.len()];
        let mut zmax = f64::NEG_INFINITY;
        for (zj, j) in z.iter_mut().zip(terms) {
            let mut dot = 0.0;
            for (a, yi) in self.exps[j * dim..(j + 1) * dim].iter().zip(y) {
                dot += a * yi;
            }
            *zj = self.log_coeff[j] + dot;
            zmax = zmax.max(*zj);
        }
        if let [w] = z {
            // A monomial is affine in the log domain: its one weight is
            // exactly exp(0) = 1 and ln 1 = 0, so skip both (`+ 0.0`
            // keeps the sign of a zero exactly as `zmax + ln 1` does).
            if zmax.is_finite() {
                *w = 1.0;
                return (zmax + 0.0, 1.0);
            }
        }
        let mut wsum = 0.0;
        for zj in z.iter_mut() {
            *zj = (*zj - zmax).exp();
            wsum += *zj;
        }
        (zmax + wsum.ln(), wsum)
    }

    /// [`Compiled::lse_value`] plus the gradient and row-major Hessian of
    /// posynomial `k`, written into `grad` and `hess`.
    fn lse_full(
        &self,
        k: usize,
        y: &[f64],
        z: &mut [f64],
        grad: &mut [f64],
        hess: &mut [f64],
    ) -> f64 {
        let dim = self.dim;
        let (value, wsum) = self.lse_value(k, y, z);
        grad.fill(0.0);
        hess.fill(0.0);
        for (&w, j) in z.iter().zip(self.starts[k]..self.starts[k + 1]) {
            let a = &self.exps[j * dim..(j + 1) * dim];
            let p = w / wsum;
            for (g, &ai) in grad.iter_mut().zip(a) {
                *g += p * ai;
            }
            for i in 0..dim {
                for l in 0..dim {
                    hess[i * dim + l] += p * a[i] * a[l];
                }
            }
        }
        for i in 0..dim {
            for l in 0..dim {
                hess[i * dim + l] -= grad[i] * grad[l];
            }
        }
        value
    }

    /// The largest constraint value `maxᵢ Fᵢ(y)` (log domain).
    fn max_violation(&self, y: &[f64], buf: &mut Buffers) -> f64 {
        (1..self.count())
            .map(|k| self.lse_value(k, y, &mut buf.z).0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The merit value alone — all a line-search trial needs. `None`
    /// outside the barrier domain or on a non-finite value.
    fn merit_value(&self, merit: Merit, y: &[f64], buf: &mut Buffers) -> Option<f64> {
        let value = match merit {
            Merit::SmoothedMax(tau) => {
                let mut vmax = f64::NEG_INFINITY;
                for k in 1..self.count() {
                    buf.f[k] = self.lse_value(k, y, &mut buf.z).0;
                    vmax = vmax.max(buf.f[k]);
                }
                soften(tau, vmax, &mut buf.f[1..]).0
            }
            Merit::Barrier(t) => {
                let mut value = t * self.lse_value(0, y, &mut buf.z).0;
                for k in 1..self.count() {
                    let fi = self.lse_value(k, y, &mut buf.z).0;
                    if fi >= 0.0 {
                        return None;
                    }
                    value -= (-fi).ln();
                }
                value
            }
        };
        value.is_finite().then_some(value)
    }

    /// The merit value, with its gradient and Hessian written into
    /// `buf.grad` and `buf.hess`. The value is computed exactly as
    /// [`Compiled::merit_value`] computes it.
    fn merit_full(&self, merit: Merit, y: &[f64], buf: &mut Buffers) -> Option<f64> {
        let (dim, count) = (self.dim, self.count());
        let dd = dim * dim;
        let Buffers {
            z,
            f,
            g,
            h,
            grad,
            hess,
        } = buf;
        let value = match merit {
            Merit::SmoothedMax(tau) => {
                // Gradient: the softmax mixture of constraint gradients.
                let mut vmax = f64::NEG_INFINITY;
                for k in 1..count {
                    let (gk, hk) = (&mut g[k * dim..][..dim], &mut h[k * dd..][..dd]);
                    f[k] = self.lse_full(k, y, z, gk, hk);
                    vmax = vmax.max(f[k]);
                }
                let (value, wsum) = soften(tau, vmax, &mut f[1..]);
                grad.fill(0.0);
                hess.fill(0.0);
                for k in 1..count {
                    let pw = f[k] / wsum;
                    let (gk, hk) = (&g[k * dim..][..dim], &h[k * dd..][..dd]);
                    for (s, &gi) in grad.iter_mut().zip(gk) {
                        *s += pw * gi;
                    }
                    for (i, hv) in hess.iter_mut().enumerate() {
                        *hv += pw * (hk[i] + gk[i / dim] * gk[i % dim] / tau);
                    }
                }
                for i in 0..dim {
                    for l in 0..dim {
                        hess[i * dim + l] -= grad[i] * grad[l] / tau;
                    }
                }
                value
            }
            Merit::Barrier(t) => {
                let f0 = self.lse_full(0, y, z, &mut g[..dim], &mut h[..dd]);
                let mut value = t * f0;
                for (s, &gi) in grad.iter_mut().zip(&g[..dim]) {
                    *s = t * gi;
                }
                for (s, &hi) in hess.iter_mut().zip(&h[..dd]) {
                    *s = t * hi;
                }
                for k in 1..count {
                    let (gk, hk) = (&mut g[k * dim..][..dim], &mut h[k * dd..][..dd]);
                    let fi = self.lse_full(k, y, z, gk, hk);
                    if fi >= 0.0 {
                        return None;
                    }
                    value -= (-fi).ln();
                    let inv = -1.0 / fi;
                    for (s, &gi) in grad.iter_mut().zip(gk.iter()) {
                        *s += inv * gi;
                    }
                    for i in 0..dim {
                        for l in 0..dim {
                            hess[i * dim + l] += inv * inv * gk[i] * gk[l] + inv * hk[i * dim + l];
                        }
                    }
                }
                value
            }
        };
        value.is_finite().then_some(value)
    }

    /// Damped Newton on `merit` from `y`, in place, for at most
    /// `max_iters` steps, counting steps and halvings into `ws`.
    ///
    /// Backtracking is Armijo with α = 0.25, β = 0.5; a trial outside the
    /// merit's domain also backtracks. A step whose Armijo-accepted trial
    /// is not strictly below the current value ends the descent without
    /// being taken: the Armijo margin has fallen below the rounding unit
    /// of the value, so the point is as central as `f64` can resolve.
    fn newton(
        &self,
        merit: Merit,
        y: &mut [f64],
        max_iters: u32,
        ws: &mut Workspace,
    ) -> Result<(), GpError> {
        for _ in 0..max_iters {
            let value = self
                .merit_full(merit, y, &mut ws.buf)
                .ok_or(GpError::Stalled)?;
            if !chol_solve(&ws.buf.hess, &ws.buf.grad, &mut ws.chol, &mut ws.step) {
                return Err(GpError::Stalled);
            }
            let decrement: f64 = ws.buf.grad.iter().zip(&ws.step).map(|(g, s)| g * s).sum();
            if decrement <= 1e-12 {
                break;
            }
            let mut t = 1.0;
            let mut accepted = None;
            for _ in 0..60 {
                for ((trial, yi), s) in ws.trial.iter_mut().zip(y.iter()).zip(&ws.step) {
                    *trial = yi - t * s;
                }
                if let Some(v) = self.merit_value(merit, &ws.trial, &mut ws.buf) {
                    if v <= value - 0.25 * t * decrement {
                        accepted = Some(v);
                        break;
                    }
                }
                t *= 0.5;
                ws.backtracks += 1;
            }
            match accepted {
                Some(v) if v < value => {
                    y.copy_from_slice(&ws.trial);
                    ws.iterations += 1;
                }
                Some(_) => break,
                None => {
                    ws.iterations += 1;
                    break;
                }
            }
        }
        Ok(())
    }

    /// KKT residuals at the central point `y` of barrier weight `t`,
    /// with multipliers `λᵢ = 1 / (t·(−Fᵢ))`.
    fn kkt(&self, y: &[f64], t: f64, duality_gap: f64, buf: &mut Buffers) -> KktResidual {
        let (dim, dd) = (self.dim, self.dim * self.dim);
        let Buffers { z, g, h, grad, .. } = buf;
        self.lse_full(0, y, z, grad, &mut h[..dd]);
        let mut feasibility: f64 = 0.0;
        for k in 1..self.count() {
            let gk = &mut g[k * dim..][..dim];
            let fi = self.lse_full(k, y, z, gk, &mut h[k * dd..][..dd]);
            feasibility = feasibility.max(fi);
            let lambda = 1.0 / (t * (-fi).max(1e-300));
            for (s, &gi) in grad.iter_mut().zip(gk.iter()) {
                *s += lambda * gi;
            }
        }
        KktResidual {
            stationarity: grad.iter().fold(0.0f64, |a, v| a.max(v.abs())),
            feasibility: feasibility.max(0.0),
            duality_gap,
        }
    }
}

/// Solves the dense symmetric positive-definite system `h·x = rhs` into
/// `x` by Cholesky (factor in `l`), with a deterministic
/// ridge-escalation fallback. Returns `false` only if the matrix stays
/// indefinite through the largest ridge.
fn chol_solve(h: &[f64], rhs: &[f64], l: &mut [f64], x: &mut [f64]) -> bool {
    let n = rhs.len();
    let scale = (0..n).map(|i| h[i * n + i].abs()).fold(1e-300, f64::max);
    'ridge: for ridge_exp in [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0] {
        let ridge = ridge_exp * scale;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = h[i * n + j] + if i == j { ridge } else { 0.0 };
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        continue 'ridge;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward/back substitution: L·Lᵀ·x = rhs.
        x.copy_from_slice(rhs);
        for i in 0..n {
            for k in 0..i {
                x[i] -= l[i * n + k] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= l[k * n + i] * x[k];
            }
            x[i] /= l[i * n + i];
        }
        if x.iter().all(|v| v.is_finite()) {
            return true;
        }
    }
    false
}

/// Solves the geometric program starting from the strictly positive
/// point `x0` (not necessarily feasible — Phase I repairs that).
///
/// Deterministic: fixed iteration schedules, serial scalar arithmetic.
///
/// # Errors
///
/// [`GpError::Infeasible`] when no strictly feasible point exists (as
/// established by the Phase-I minimization), [`GpError::Stalled`] on an
/// unrecoverable numerical failure.
///
/// # Panics
///
/// Panics if `x0` has the wrong dimension or a non-positive component.
pub fn solve(problem: &GpProblem, x0: &[f64]) -> Result<GpSolution, GpError> {
    solve_counted(problem, x0).map(|(sol, _)| sol)
}

/// A GP solve that also returns its total line-search halvings: the
/// barrier kernel, or the legacy oracle when tests compare the two.
type CountedSolver = fn(&GpProblem, &[f64]) -> Result<(GpSolution, u32), GpError>;

/// [`solve`], also returning the solve's total line-search halvings.
fn solve_counted(problem: &GpProblem, x0: &[f64]) -> Result<(GpSolution, u32), GpError> {
    let dim = problem.objective.dim();
    assert_eq!(x0.len(), dim, "start point dimension mismatch");
    assert!(
        x0.iter().all(|&v| v > 0.0 && v.is_finite()),
        "GP variables must start strictly positive"
    );
    for c in &problem.constraints {
        assert_eq!(c.dim(), dim, "constraint dimension mismatch");
    }
    let gp = Compiled::new(problem);
    let mut ws = gp.workspace();
    let mut y: Vec<f64> = x0.iter().map(|&v| v.ln()).collect();
    let m = problem.constraints.len();

    // Phase I: drive the smoothed maximum constraint value negative.
    // `Fᵢ(y) ≤ 0` in the log domain is `constraint(x) ≤ 1`.
    if m > 0 && gp.max_violation(&y, &mut ws.buf) > -1e-9 {
        for tau in [0.5, 0.05, 0.005] {
            gp.newton(Merit::SmoothedMax(tau), &mut y, 40, &mut ws)?;
            if gp.max_violation(&y, &mut ws.buf) < -1e-7 {
                break;
            }
        }
        if gp.max_violation(&y, &mut ws.buf) >= 0.0 {
            return Err(GpError::Infeasible);
        }
    }

    // Phase II: central path for a geometrically increasing weight t.
    let mut t = 1.0;
    loop {
        gp.newton(Merit::Barrier(t), &mut y, 60, &mut ws)?;
        if m == 0 || m as f64 / t < 1e-9 || t > 1e12 {
            break;
        }
        t *= 20.0;
    }
    let gap = if m == 0 { 0.0 } else { m as f64 / t };
    let kkt = gp.kkt(&y, t, gap, &mut ws.buf);
    let x: Vec<f64> = y.iter().map(|&v| v.exp()).collect();
    let objective = problem.objective.eval(&x);
    let sol = GpSolution {
        x,
        objective,
        iterations: ws.iterations,
        kkt,
    };
    Ok((sol, ws.backtracks))
}

/// Posynomial surrogate of one buffered link in the variables
/// `x = [w, n]` (drive width in µm, repeater count), extracted from the
/// calibrated models at the settled slew of a reference plan.
///
/// Segment length enters through the monomial `L/n`, so all three paper
/// quantities — delay, dynamic power, repeater area — are posynomial in
/// `(w, n, L/n)` as the GP formulation requires.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkGpModel {
    /// Variation-guarded delay `mean + z*·σ̄` in seconds — the robust
    /// objective; `σ̄` is the posynomial upper bound on the analytic
    /// closure's σ, so the guard is never optimistic.
    pub guarded_delay: Posynomial,
    /// Mean delay under the variation model, seconds.
    pub mean_delay: Posynomial,
    /// Line power (dynamic + leakage) surrogate, watts.
    pub power: Posynomial,
    /// Total repeater area surrogate, m².
    pub area: Posynomial,
    /// Drive-width search box, µm.
    pub w_bounds: (f64, f64),
    /// Repeater-count search box.
    pub n_bounds: (f64, f64),
}

impl LinkGpModel {
    /// The box constraints as standard-form GP constraints.
    #[must_use]
    pub fn box_constraints(&self) -> Vec<Posynomial> {
        vec![
            Posynomial::monomial(1.0 / self.w_bounds.1, vec![1.0, 0.0]),
            Posynomial::monomial(self.w_bounds.0, vec![-1.0, 0.0]),
            Posynomial::monomial(1.0 / self.n_bounds.1, vec![0.0, 1.0]),
            Posynomial::monomial(1.0, vec![0.0, -1.0]),
        ]
    }

    /// The robust-delay sizing GP over the library box, with its start
    /// point at the geometric centre of the box.
    fn sizing_problem(&self) -> (GpProblem, [f64; 2]) {
        let problem = GpProblem {
            objective: self.guarded_delay.clone(),
            constraints: self.box_constraints(),
        };
        let x0 = [
            (self.w_bounds.0 * self.w_bounds.1).sqrt(),
            (self.n_bounds.0 * self.n_bounds.1).sqrt(),
        ];
        (problem, x0)
    }
}

/// The activity factor and clock the power surrogate is reported at —
/// the `balanced` buffering-objective convention.
const POWER_ACTIVITY: f64 = 0.25;

impl LineEvaluator<'_> {
    /// Extracts the posynomial link model for `spec` around the settled
    /// slew of `plan`, guarding the delay for `target_yield` under
    /// `variation` (see the module docs for the formulation).
    ///
    /// # Panics
    ///
    /// Panics if the spec's length is not finite and positive, the plan
    /// has no repeaters, or `target_yield` is outside `(0, 1)`.
    #[must_use]
    pub fn link_gp_model(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        target_yield: f64,
    ) -> LinkGpModel {
        assert!(
            spec.length.si().is_finite() && spec.length.si() > 0.0,
            "line length must be finite and positive"
        );
        assert!(
            target_yield > 0.0 && target_yield < 1.0,
            "target yield must be in (0, 1) for the quantile map"
        );
        let model = self.models().repeater(plan.kind);
        let beta = model.beta_ratio;
        // Representative slew: the settled output slew of the reference
        // plan (stage-to-stage propagation converges in a few stages).
        let slew = self.timing(spec, plan).output_slew();
        // Probe the affine-in-load delay at a 1 µm reference width; the
        // drive resistance is exactly ∝ 1/w, so one width suffices. The
        // inverter chain alternates edges, so average the two.
        let w_ref = Length::um(1.0);
        let c_ref = Cap::ff(10.0);
        let mut intrinsic = 0.0; // seconds
        let mut rho = 0.0; // Ω·µm
        for tr in [Transition::Rise, Transition::Fall] {
            let edge = model.edge(tr);
            let i0 = edge.delay(slew, Cap::ZERO, w_ref, beta).si();
            let i1 = edge.delay(slew, c_ref, w_ref, beta).si();
            intrinsic += i0 / 2.0;
            rho += (i1 - i0) / c_ref.si() * w_ref.as_um() / 2.0;
        }
        let cin_pu = model.cin(Length::um(1.0)).si(); // F per µm of wn
        let rc = self.wire_rc(spec, plan.staggered);
        let l_ref = Length::mm(1.0);
        let cgl = rc.total_cg(l_ref).si() / l_ref.si(); // F/m
        let ccl = rc.total_cc(l_ref).si() / l_ref.si(); // F/m
        let rl = rc.total_r(l_ref).as_ohm() / l_ref.si(); // Ω/m
        let sf = rc.switch_factor;
        let wire_cc_coeff = if rc.neighbors_switch { 0.5 * sf } else { 0.4 };
        let len = spec.length.si();

        // Repeater delay over the line: r_tot = A·n + B/w.
        let a = intrinsic + rho * cin_pu;
        let b = rho * (cgl + sf * ccl) * len;
        // Wire delay over the line: w_tot = C/n + D·w.
        let c = rl * len * len * (0.4 * cgl + wire_cc_coeff * ccl);
        let d = 0.7 * rl * len * cin_pu;

        // Analytic-closure mean and the posynomial σ upper bound.
        let sd2 = variation.sigma_d2d * variation.sigma_d2d;
        let sw2 = variation.sigma_wid * variation.sigma_wid;
        let mean_scale = (1.0 + sd2) * (1.0 + sw2);
        let z = pi_rt::norm::normal_inv_cdf(target_yield).max(0.0);
        let mean_delay = Posynomial::new(vec![
            (mean_scale * a, vec![0.0, 1.0]),
            (mean_scale * b, vec![-1.0, 0.0]),
            (c, vec![0.0, -1.0]),
            (d, vec![1.0, 0.0]),
        ]);
        // σ ≤ σ_d·(A·n + B/w) + σ_w·(A·√n + B/(w·√n)) for uniform stages.
        let guarded_delay = Posynomial::new(vec![
            ((mean_scale + z * variation.sigma_d2d) * a, vec![0.0, 1.0]),
            ((mean_scale + z * variation.sigma_d2d) * b, vec![-1.0, 0.0]),
            (c, vec![0.0, -1.0]),
            (d, vec![1.0, 0.0]),
            (z * variation.sigma_wid * a, vec![0.0, 0.5]),
            (z * variation.sigma_wid * b, vec![-1.0, -0.5]),
        ]);

        // Power P = p_base + p_count·n + p_width·n·w and area
        // S = s_count·n + s_width·n·w, from exact probes of the affine
        // model forms (three power probes, two area probes).
        let clock = Freq::ghz(1.0);
        let probe = |count: usize, wn: Length| {
            let p = BufferingPlan { count, wn, ..*plan };
            self.power(spec, &p, POWER_ACTIVITY, clock).total().si()
        };
        let p11 = probe(1, Length::um(1.0));
        let p21 = probe(2, Length::um(1.0));
        let p12 = probe(1, Length::um(2.0));
        let p_width = p12 - p11; // per stage per µm
        let p_count = p21 - p12; // per stage, width-independent part
        let p_base = p11 - p_count - p_width;
        let power = Posynomial::new(vec![
            (p_base.max(1e-30), vec![0.0, 0.0]),
            (p_count.max(1e-30), vec![0.0, 1.0]),
            (p_width.max(1e-30), vec![1.0, 1.0]),
        ]);
        let plan1 = |wn| BufferingPlan {
            count: 1,
            wn,
            ..*plan
        };
        let s1 = self.repeater_area(&plan1(Length::um(1.0))).si();
        let s2 = self.repeater_area(&plan1(Length::um(2.0))).si();
        let s_width = s2 - s1;
        let s_count = s1 - s_width;
        let area = Posynomial::new(vec![
            (s_count.max(1e-30), vec![0.0, 1.0]),
            (s_width.max(1e-30), vec![1.0, 1.0]),
        ]);

        let unit = self.tech().layout().unit_nmos_width;
        let drives = pi_tech::library::STANDARD_DRIVES;
        let w_min = (unit * f64::from(drives[0])).as_um();
        let w_max = (unit * f64::from(drives[drives.len() - 1])).as_um();
        let n_max = crate::variation::ladder_count_cap(spec, plan) as f64;
        LinkGpModel {
            guarded_delay,
            mean_delay,
            power,
            area,
            w_bounds: (w_min, w_max),
            n_bounds: (1.0, n_max),
        }
    }

    /// GP proposal step: solve the robust-delay GP over the library box
    /// and snap the continuous optimum to discrete candidate plans,
    /// ordered best-guarded-delay first. Returns `None` (after counting
    /// `gp.infeasible`) when the guarded delay cannot meet `deadline`
    /// anywhere in the box, or on a degenerate spec.
    fn gp_propose(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
        target_yield: f64,
    ) -> Option<Vec<BufferingPlan>> {
        self.gp_propose_via(solve_counted, spec, plan, variation, deadline, target_yield)
    }

    /// [`LineEvaluator::gp_propose`] with the GP solved by `solver`,
    /// which returns the solution and its line-search halvings.
    fn gp_propose_via(
        &self,
        solver: CountedSolver,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
        target_yield: f64,
    ) -> Option<Vec<BufferingPlan>> {
        let usable = spec.length.si().is_finite()
            && spec.length.si() > 0.0
            && deadline.si().is_finite()
            && deadline.si() > 0.0
            && target_yield < 1.0;
        if !usable {
            pi_obs::counter_add("gp.infeasible", 1);
            return None;
        }
        let model = self.link_gp_model(spec, plan, variation, target_yield);
        let (problem, x0) = model.sizing_problem();
        pi_obs::counter_add("gp.solve", 1);
        let (sol, backtracks) = match solver(&problem, &x0) {
            Ok(solved) => solved,
            Err(_) => {
                pi_obs::counter_add("gp.infeasible", 1);
                return None;
            }
        };
        pi_obs::hist_record("gp.iterations", f64::from(sol.iterations));
        pi_obs::hist_record("gp.backtracks", f64::from(backtracks));
        pi_obs::hist_record("gp.kkt_residual", sol.kkt.stationarity);
        if sol.objective > deadline.si() {
            // Even the jointly optimal robust delay misses the deadline:
            // the yield constraint is infeasible in this library box.
            pi_obs::counter_add("gp.infeasible", 1);
            return None;
        }
        // Snap: library drives bracketing w*, counts bracketing n*.
        let unit = self.tech().layout().unit_nmos_width;
        let drives = pi_tech::library::STANDARD_DRIVES;
        let w_star = sol.x[0];
        let below = drives
            .iter()
            .rev()
            .find(|&&d| (unit * f64::from(d)).as_um() <= w_star * 1.001)
            .copied()
            .unwrap_or(drives[0]);
        let above = drives
            .iter()
            .find(|&&d| (unit * f64::from(d)).as_um() >= w_star * 0.999)
            .copied()
            .unwrap_or(drives[drives.len() - 1]);
        let n_star = sol.x[1];
        let n_lo = (n_star.floor().max(1.0)) as usize;
        let n_hi = (n_star.ceil().max(1.0).min(model.n_bounds.1)) as usize;
        let mut candidates: Vec<BufferingPlan> = Vec::with_capacity(4);
        for d in [below, above] {
            for n in [n_lo, n_hi] {
                let cand = BufferingPlan {
                    count: n,
                    wn: unit * f64::from(d),
                    ..*plan
                };
                if !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        // Verify best-robust-delay first; ties break on the smaller plan
        // so the ordering is total and deterministic.
        candidates.sort_by(|p, q| {
            let gp = model.guarded_delay.eval(&[p.wn.as_um(), p.count as f64]);
            let gq = model.guarded_delay.eval(&[q.wn.as_um(), q.count as f64]);
            gp.total_cmp(&gq)
                .then(p.wn.si().total_cmp(&q.wn.si()))
                .then(p.count.cmp(&q.count))
        });
        pi_obs::counter_add("gp.proposals", candidates.len() as u64);
        Some(candidates)
    }

    /// Jointly sizes each query's link by geometric programming, then
    /// **verifies** each proposed plan with the configured `pi-yield`
    /// estimator: a plan is accepted only when its CI lower bound
    /// (`yield_fraction − half_width`) clears the target. When the GP is
    /// infeasible or no proposal verifies, the query falls back to the
    /// greedy ladder of [`LineEvaluator::size_for_yield_batch`] — so the
    /// answer is always statistically certified, and never *worse* than
    /// the ladder's. A solo GP sizing is a batch of one.
    ///
    /// `steps` in a result counts verification probes spent before
    /// acceptance (0 = first GP proposal verified), or the ladder's own
    /// step count after a fallback.
    ///
    /// The queries run in lock step. Phase A solves every query's GP
    /// (serial, deterministic) and verifies the proposals in batched
    /// estimator sweeps; queries whose proposals all fail (or whose GP is
    /// infeasible) fall back together as one ladder batch. Each answer —
    /// and every `gp.*`/`sizing.*` counter total — is **bit-identical to
    /// the same query run as a batch of one**, at any `PI_THREADS`;
    /// results are in input order.
    ///
    /// # Panics
    ///
    /// Panics if any query's target yield is outside `(0, 1]` or any
    /// configuration has a zero budget.
    #[must_use]
    pub fn size_for_yield_gp_batch(&self, queries: &[SizeQuery]) -> Vec<Option<YieldSizing>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let _obs_span = pi_obs::span("core.size_for_yield_gp_batch");
        for q in queries {
            assert!(
                q.target_yield > 0.0 && q.target_yield <= 1.0,
                "target yield must be in (0, 1]"
            );
        }
        struct GpJob {
            candidates: Vec<BufferingPlan>,
            idx: usize,
            result: Option<YieldSizing>,
        }
        let mut jobs: Vec<GpJob> = queries
            .iter()
            .map(|q| GpJob {
                candidates: self
                    .gp_propose(&q.spec, &q.plan, &q.variation, q.deadline, q.target_yield)
                    .unwrap_or_default(),
                idx: 0,
                result: None,
            })
            .collect();
        loop {
            let mut round: Vec<(usize, YieldQuery)> = Vec::new();
            for (j, (job, q)) in jobs.iter().zip(queries).enumerate() {
                if job.result.is_some() || job.idx >= job.candidates.len() {
                    continue;
                }
                round.push((
                    j,
                    YieldQuery {
                        spec: q.spec,
                        plan: job.candidates[job.idx],
                        variation: q.variation,
                        deadline: q.deadline,
                        config: q.config,
                    },
                ));
            }
            if round.is_empty() {
                break;
            }
            pi_obs::hist_record("gp.verify_sweep_jobs", round.len() as f64);
            let probes: Vec<YieldQuery> = round.iter().map(|(_, p)| *p).collect();
            let estimates = self.timing_yield_estimate_batch(&probes);
            for ((j, probe), est) in round.iter().zip(&estimates) {
                let job = &mut jobs[*j];
                pi_obs::counter_add("gp.verify_probe", 1);
                let lower = est.yield_fraction - est.half_width;
                if lower >= queries[*j].target_yield {
                    pi_obs::counter_add("gp.accepted", 1);
                    job.result = Some(YieldSizing {
                        plan: probe.plan,
                        achieved_yield: est.yield_fraction,
                        steps: job.idx,
                    });
                } else {
                    pi_obs::counter_add("gp.candidate_fail", 1);
                    job.idx += 1;
                }
            }
        }
        // Phase B: everything unverified falls back to the ladder, as
        // one lock-step batch (bit-identical to each fallback sized alone).
        let fallback: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].result.is_none())
            .collect();
        pi_obs::counter_add("gp.fallback", fallback.len() as u64);
        let fb_queries: Vec<SizeQuery> = fallback.iter().map(|&i| queries[i]).collect();
        let fb_results = self.size_for_yield_batch(&fb_queries);
        let mut out: Vec<Option<YieldSizing>> = jobs.into_iter().map(|j| j.result).collect();
        for (&i, r) in fallback.iter().zip(fb_results) {
            out[i] = r;
        }
        out
    }
}

/// The references the production paths are tested against: the
/// allocating solver the barrier kernel replaced (every oracle call
/// returns fresh `Vec`s, line-search trials evaluate the full oracle, and
/// a centering step ends only on the Newton-decrement threshold or the
/// iteration cap), and the one-job GP sizing loop the lock-step batch
/// replaced.
#[cfg(test)]
mod legacy {
    use super::{GpError, GpProblem, GpSolution, KktResidual, Posynomial};
    use crate::line::LineEvaluator;
    use crate::variation::{SizeQuery, YieldSizing};

    /// The one-job GP sizing loop: verify the proposals in order, accept
    /// the first whose CI lower bound clears the target, else fall back
    /// to the sequential ladder oracle.
    pub(super) fn size_for_yield_gp(ev: &LineEvaluator<'_>, q: &SizeQuery) -> Option<YieldSizing> {
        let proposals = ev.gp_propose(&q.spec, &q.plan, &q.variation, q.deadline, q.target_yield);
        for (steps, plan) in proposals.unwrap_or_default().into_iter().enumerate() {
            let est = ev.timing_yield_estimate(&q.spec, &plan, &q.variation, q.deadline, &q.config);
            if est.yield_fraction - est.half_width >= q.target_yield {
                return Some(YieldSizing {
                    plan,
                    achieved_yield: est.yield_fraction,
                    steps,
                });
            }
        }
        crate::variation::legacy::size_for_yield(ev, q)
    }

    /// `F(y) = ln Σ cₖ·exp(aₖ·y)` with gradient and (row-major) Hessian.
    fn lse(poly: &Posynomial, y: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
        let dim = poly.dim();
        let z: Vec<f64> = poly
            .terms
            .iter()
            .map(|t| t.coeff.ln() + t.exponents.iter().zip(y).map(|(a, yi)| a * yi).sum::<f64>())
            .collect();
        let zmax = z.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let weights: Vec<f64> = z.iter().map(|&v| (v - zmax).exp()).collect();
        let wsum: f64 = weights.iter().sum();
        let value = zmax + wsum.ln();
        let mut grad = vec![0.0; dim];
        for (t, &w) in poly.terms.iter().zip(&weights) {
            for (g, &a) in grad.iter_mut().zip(&t.exponents) {
                *g += w / wsum * a;
            }
        }
        let mut hess = vec![0.0; dim * dim];
        for (t, &w) in poly.terms.iter().zip(&weights) {
            let p = w / wsum;
            for i in 0..dim {
                for j in 0..dim {
                    hess[i * dim + j] += p * t.exponents[i] * t.exponents[j];
                }
            }
        }
        for i in 0..dim {
            for j in 0..dim {
                hess[i * dim + j] -= grad[i] * grad[j];
            }
        }
        (value, grad, hess)
    }

    /// Solves a dense symmetric positive-definite system by Cholesky with a
    /// deterministic ridge-escalation fallback. Returns `None` only if the
    /// matrix stays indefinite through the largest ridge.
    fn chol_solve(h: &[f64], rhs: &[f64]) -> Option<Vec<f64>> {
        let n = rhs.len();
        let scale = (0..n).map(|i| h[i * n + i].abs()).fold(1e-300, f64::max);
        for ridge_exp in [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0] {
            let ridge = ridge_exp * scale;
            let mut l = vec![0.0; n * n];
            let mut ok = true;
            'factor: for i in 0..n {
                for j in 0..=i {
                    let mut sum = h[i * n + j] + if i == j { ridge } else { 0.0 };
                    for k in 0..j {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            ok = false;
                            break 'factor;
                        }
                        l[i * n + i] = sum.sqrt();
                    } else {
                        l[i * n + j] = sum / l[j * n + j];
                    }
                }
            }
            if !ok {
                continue;
            }
            // Forward/back substitution: L·Lᵀ·x = rhs.
            let mut x = rhs.to_vec();
            for i in 0..n {
                for k in 0..i {
                    x[i] -= l[i * n + k] * x[k];
                }
                x[i] /= l[i * n + i];
            }
            for i in (0..n).rev() {
                for k in (i + 1)..n {
                    x[i] -= l[k * n + i] * x[k];
                }
                x[i] /= l[i * n + i];
            }
            if x.iter().all(|v| v.is_finite()) {
                return Some(x);
            }
        }
        None
    }

    /// One damped-Newton descent on a convex function given by its
    /// `(value, gradient, hessian)` oracle. Returns the Newton-step count.
    fn newton_minimize(
        y: &mut [f64],
        max_iters: u32,
        mut oracle: impl FnMut(&[f64]) -> Option<(f64, Vec<f64>, Vec<f64>)>,
    ) -> Result<u32, GpError> {
        let mut iters = 0;
        for _ in 0..max_iters {
            let (value, grad, hess) = oracle(y).ok_or(GpError::Stalled)?;
            let step = chol_solve(&hess, &grad).ok_or(GpError::Stalled)?;
            let decrement: f64 = grad.iter().zip(&step).map(|(g, s)| g * s).sum();
            if decrement <= 1e-12 {
                break;
            }
            // Backtracking line search (Armijo, α = 0.25, β = 0.5); oracle
            // returning None (e.g. barrier domain violation) also backtracks.
            let mut t = 1.0;
            let mut accepted = false;
            for _ in 0..60 {
                let trial: Vec<f64> = y.iter().zip(&step).map(|(yi, s)| yi - t * s).collect();
                if let Some((v, _, _)) = oracle(&trial) {
                    if v <= value - 0.25 * t * decrement {
                        y.copy_from_slice(&trial);
                        accepted = true;
                        break;
                    }
                }
                t *= 0.5;
            }
            iters += 1;
            if !accepted {
                break;
            }
        }
        Ok(iters)
    }

    /// The allocating two-phase barrier solve.
    pub(super) fn solve(problem: &GpProblem, x0: &[f64]) -> Result<GpSolution, GpError> {
        let dim = problem.objective.dim();
        assert_eq!(x0.len(), dim, "start point dimension mismatch");
        assert!(
            x0.iter().all(|&v| v > 0.0 && v.is_finite()),
            "GP variables must start strictly positive"
        );
        for c in &problem.constraints {
            assert_eq!(c.dim(), dim, "constraint dimension mismatch");
        }
        let mut y: Vec<f64> = x0.iter().map(|&v| v.ln()).collect();
        let mut iterations = 0u32;
        let m = problem.constraints.len();

        // Phase I: drive the smoothed maximum constraint value negative.
        // `Fᵢ(y) ≤ 0` in the log domain is `constraint(x) ≤ 1`.
        let max_violation = |y: &[f64]| {
            problem
                .constraints
                .iter()
                .map(|c| lse(c, y).0)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        if m > 0 && max_violation(&y) > -1e-9 {
            for tau in [0.5, 0.05, 0.005] {
                let oracle = |y: &[f64]| {
                    // Smoothed max: τ·ln Σ exp(Fᵢ/τ) — convex, gradient the
                    // softmax mixture of constraint gradients.
                    let parts: Vec<(f64, Vec<f64>, Vec<f64>)> =
                        problem.constraints.iter().map(|c| lse(c, y)).collect();
                    let vmax = parts.iter().fold(f64::NEG_INFINITY, |a, p| a.max(p.0));
                    let w: Vec<f64> = parts.iter().map(|p| ((p.0 - vmax) / tau).exp()).collect();
                    let wsum: f64 = w.iter().sum();
                    let value = vmax + tau * (wsum / parts.len() as f64).ln();
                    let mut grad = vec![0.0; dim];
                    let mut hess = vec![0.0; dim * dim];
                    let mut mixed = vec![0.0; dim];
                    for (p, &wi) in parts.iter().zip(&w) {
                        let pw = wi / wsum;
                        for i in 0..dim {
                            grad[i] += pw * p.1[i];
                            mixed[i] += pw * p.1[i];
                        }
                        for (i, h) in hess.iter_mut().enumerate() {
                            *h += pw * (p.2[i] + p.1[i / dim] * p.1[i % dim] / tau);
                        }
                    }
                    for i in 0..dim {
                        for j in 0..dim {
                            hess[i * dim + j] -= mixed[i] * mixed[j] / tau;
                        }
                    }
                    (value.is_finite()).then_some((value, grad, hess))
                };
                iterations += newton_minimize(&mut y, 40, oracle)?;
                if max_violation(&y) < -1e-7 {
                    break;
                }
            }
            if max_violation(&y) >= 0.0 {
                return Err(GpError::Infeasible);
            }
        }

        // Phase II: central path. φ_t(y) = t·F₀(y) − Σ ln(−Fᵢ(y)).
        let mut t = 1.0;
        let mut gap = if m == 0 { 0.0 } else { m as f64 / t };
        loop {
            let oracle = |y: &[f64]| {
                let (f0, g0, h0) = lse(&problem.objective, y);
                let mut value = t * f0;
                let mut grad: Vec<f64> = g0.iter().map(|g| t * g).collect();
                let mut hess: Vec<f64> = h0.iter().map(|h| t * h).collect();
                for c in &problem.constraints {
                    let (fi, gi, hi) = lse(c, y);
                    if fi >= 0.0 {
                        return None; // outside the barrier domain
                    }
                    value -= (-fi).ln();
                    let inv = -1.0 / fi;
                    for i in 0..dim {
                        grad[i] += inv * gi[i];
                    }
                    for i in 0..dim {
                        for j in 0..dim {
                            hess[i * dim + j] += inv * inv * gi[i] * gi[j] + inv * hi[i * dim + j];
                        }
                    }
                }
                value.is_finite().then_some((value, grad, hess))
            };
            iterations += newton_minimize(&mut y, 60, oracle)?;
            if m == 0 {
                break;
            }
            gap = m as f64 / t;
            if gap < 1e-9 || t > 1e12 {
                break;
            }
            t *= 20.0;
        }

        // KKT report at the final central point: λᵢ = 1 / (t·(−Fᵢ)).
        let (_, g0, _) = lse(&problem.objective, &y);
        let mut stationarity_vec = g0;
        let mut feasibility: f64 = 0.0;
        for c in &problem.constraints {
            let (fi, gi, _) = lse(c, &y);
            feasibility = feasibility.max(fi);
            let lambda = 1.0 / (t * (-fi).max(1e-300));
            for (s, g) in stationarity_vec.iter_mut().zip(&gi) {
                *s += lambda * g;
            }
        }
        let stationarity = stationarity_vec.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let x: Vec<f64> = y.iter().map(|&v| v.exp()).collect();
        let objective = problem.objective.eval(&x);
        Ok(GpSolution {
            x,
            objective,
            iterations,
            kkt: KktResidual {
                stationarity,
                feasibility: feasibility.max(0.0),
                duality_gap: gap,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::builtin;
    use crate::variation::legacy::{assert_same_sizing, sizing_counters};
    use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
    use pi_yield::EstimatorConfig;

    fn setup() -> (Technology, crate::CalibratedModels) {
        (Technology::new(TechNode::N65), builtin(TechNode::N65))
    }

    /// A sizing query under the nominal variation budget.
    fn query(
        spec: LineSpec,
        plan: BufferingPlan,
        deadline: Time,
        target_yield: f64,
        config: EstimatorConfig,
    ) -> SizeQuery {
        SizeQuery {
            spec,
            plan,
            variation: VariationModel::nominal(),
            deadline,
            target_yield,
            config,
        }
    }

    fn reference() -> (LineSpec, BufferingPlan) {
        (
            LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing),
            BufferingPlan {
                kind: RepeaterKind::Inverter,
                count: 8,
                wn: Length::um(2.4),
                staggered: false,
            },
        )
    }

    #[test]
    fn posynomial_eval_matches_hand_computation() {
        // 2·x² + 3/(x·√y) at (2, 4): 8 + 3/4.
        let p = Posynomial::new(vec![(2.0, vec![2.0, 0.0]), (3.0, vec![-1.0, -0.5])]);
        assert!((p.eval(&[2.0, 4.0]) - 8.75).abs() < 1e-12);
    }

    #[test]
    fn solver_matches_analytic_optimum_with_small_kkt_residual() {
        // minimize x + y subject to 1/(x·y) ≤ 1: optimum x = y = 1,
        // objective 2, constraint active — the KKT system is exercised
        // with a nonzero multiplier.
        let problem = GpProblem {
            objective: Posynomial::new(vec![(1.0, vec![1.0, 0.0]), (1.0, vec![0.0, 1.0])]),
            constraints: vec![Posynomial::monomial(1.0, vec![-1.0, -1.0])],
        };
        let sol = solve(&problem, &[5.0, 0.3]).expect("feasible");
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-4, "y = {:?}", sol.x);
        assert!((sol.objective - 2.0).abs() < 1e-4);
        assert!(
            sol.kkt.stationarity < 1e-4,
            "KKT stationarity {}",
            sol.kkt.stationarity
        );
        assert_eq!(sol.kkt.feasibility, 0.0);
        assert!(sol.kkt.duality_gap < 1e-8);
        assert!(sol.iterations > 0);
    }

    #[test]
    fn solver_detects_infeasible_constraints() {
        // x ≤ 1/2 and 1 ≤ x/4 (i.e. x ≥ 4) cannot hold together.
        let problem = GpProblem {
            objective: Posynomial::monomial(1.0, vec![1.0]),
            constraints: vec![
                Posynomial::monomial(2.0, vec![1.0]),
                Posynomial::monomial(4.0, vec![-1.0]),
            ],
        };
        assert_eq!(solve(&problem, &[1.0]), Err(GpError::Infeasible));
    }

    #[test]
    fn unconstrained_solve_finds_the_interior_minimum() {
        // x + 4/x: minimum at x = 2, value 4.
        let problem = GpProblem {
            objective: Posynomial::new(vec![(1.0, vec![1.0]), (4.0, vec![-1.0])]),
            constraints: vec![],
        };
        let sol = solve(&problem, &[17.0]).expect("unconstrained");
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 4.0).abs() < 1e-10);
    }

    /// The sweep the kernel is checked against its legacy oracle on:
    /// every length × style × variation model × target, as
    /// `(spec, start plan, variation, target)`.
    fn legacy_sweep() -> Vec<(LineSpec, BufferingPlan, VariationModel, f64)> {
        let variations = [
            VariationModel::none(),
            VariationModel::nominal(),
            VariationModel::nominal().with_regional(0.8, Length::mm(2.0)),
        ];
        let mut cases = Vec::new();
        for mm in [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0] {
            for style in [DesignStyle::SingleSpacing, DesignStyle::Shielded] {
                let spec = LineSpec::global(Length::mm(mm), style);
                let plan = BufferingPlan {
                    kind: RepeaterKind::Inverter,
                    count: ((mm * 1.5).ceil() as usize).max(1),
                    wn: Length::um(2.4),
                    staggered: false,
                };
                for v in variations {
                    for target in [0.5, 0.9, 0.99, 0.999] {
                        cases.push((spec, plan, v, target));
                    }
                }
            }
        }
        cases
    }

    fn legacy_counted(problem: &GpProblem, x0: &[f64]) -> Result<(GpSolution, u32), GpError> {
        legacy::solve(problem, x0).map(|sol| (sol, 0))
    }

    #[test]
    fn kernel_matches_the_legacy_oracle_across_the_link_sweep() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let mut feasible = 0;
        for (spec, plan, v, target) in legacy_sweep() {
            let case = format!(
                "{} mm {:?} {v:?} @ {target}",
                spec.length.as_mm(),
                spec.style
            );
            let (problem, x0) = ev.link_gp_model(&spec, &plan, &v, target).sizing_problem();
            let (old, new) = (legacy::solve(&problem, &x0), solve(&problem, &x0));
            let (Ok(old), Ok(new)) = (&old, &new) else {
                assert_eq!(old.map(|_| ()), new.map(|_| ()), "{case}: outcome");
                continue;
            };
            feasible += 1;
            for (a, b) in old.x.iter().zip(&new.x) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs(),
                    "{case}: x {:?} vs {:?}",
                    old.x,
                    new.x
                );
            }
            assert!(
                new.iterations <= old.iterations,
                "{case}: {} Newton steps vs legacy {}",
                new.iterations,
                old.iterations
            );
            // A deadline no plan misses, so both paths reach the snap.
            let deadline = Time::s(1.0);
            assert_eq!(
                ev.gp_propose_via(solve_counted, &spec, &plan, &v, deadline, target),
                ev.gp_propose_via(legacy_counted, &spec, &plan, &v, deadline, target),
                "{case}: snapped candidates"
            );
        }
        assert!(feasible >= 200, "only {feasible} feasible sweep problems");
    }

    #[test]
    fn reference_link_solve_does_not_stall_at_the_iteration_cap() {
        // Before the roundoff-aware stop, every centering step at barrier
        // weights ≳ 1e9 ran to the 60-step cap on vacuous Armijo steps
        // (~106 Newton steps on this link).
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let model = ev.link_gp_model(&spec, &plan, &VariationModel::nominal(), 0.9);
        let (problem, x0) = model.sizing_problem();
        let sol = solve(&problem, &x0).expect("feasible");
        assert!(sol.iterations <= 64, "{} Newton steps", sol.iterations);
        assert!(sol.kkt.duality_gap < 1e-8);
    }

    #[test]
    fn phase_one_start_outside_the_box_beats_the_legacy_step_count() {
        // Start at n = 8 with the count box shrunk to [1, 1.5]: Phase I
        // must first walk back into the box.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let model = LinkGpModel {
            n_bounds: (1.0, 1.5),
            ..ev.link_gp_model(&spec, &plan, &VariationModel::nominal(), 0.9)
        };
        let (problem, mut x0) = model.sizing_problem();
        x0[1] = 8.0;
        let old = legacy::solve(&problem, &x0).expect("legacy feasible");
        let new = solve(&problem, &x0).expect("feasible");
        assert!(
            new.iterations < old.iterations,
            "{} Newton steps vs legacy {}",
            new.iterations,
            old.iterations
        );
        assert!((1.0..=1.5).contains(&new.x[1]), "n = {}", new.x[1]);
        for (a, b) in old.x.iter().zip(&new.x) {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs(),
                "x {:?} vs {:?}",
                old.x,
                new.x
            );
        }
        // The degenerate box n ∈ [1, 1] has no strictly feasible point.
        let degenerate = LinkGpModel {
            n_bounds: (1.0, 1.0),
            ..model
        };
        let (problem, x0) = degenerate.sizing_problem();
        assert_eq!(solve(&problem, &x0), Err(GpError::Infeasible));
    }

    #[test]
    fn link_model_tracks_the_true_timing_shape() {
        // The posynomial surrogate (zero variation ⇒ plain delay) must
        // stay within a modest relative error of the slew-propagating
        // evaluator across the discrete plan grid it proposes over.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let model = ev.link_gp_model(&spec, &plan, &VariationModel::none(), 0.5);
        for count in [4usize, 8, 12, 16] {
            for wn_um in [1.2, 2.4, 4.8, 9.6] {
                let p = BufferingPlan {
                    count,
                    wn: Length::um(wn_um),
                    ..plan
                };
                let surrogate = model.mean_delay.eval(&[wn_um, count as f64]);
                let truth = ev.timing(&spec, &p).delay.si();
                let err = (surrogate - truth).abs() / truth;
                assert!(
                    err < 0.35,
                    "surrogate off by {:.0}% at n={count}, w={wn_um}",
                    100.0 * err
                );
            }
        }
    }

    #[test]
    fn link_model_guard_dominates_the_mean() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let v = VariationModel::nominal();
        let model = ev.link_gp_model(&spec, &plan, &v, 0.95);
        let x = [plan.wn.as_um(), plan.count as f64];
        assert!(model.guarded_delay.eval(&x) > model.mean_delay.eval(&x));
        // Power and area surrogates match the evaluator exactly (their
        // model forms are affine, probed exactly).
        let power = ev
            .power(&spec, &plan, POWER_ACTIVITY, Freq::ghz(1.0))
            .total()
            .si();
        assert!((model.power.eval(&x) - power).abs() / power < 1e-9);
        let area = ev.repeater_area(&plan).si();
        assert!((model.area.eval(&x) - area).abs() / area < 1e-9);
    }

    #[test]
    fn gp_sizing_meets_target_and_beats_the_ladder_delay() {
        // The reference link sweep: at an equal certified yield target,
        // the jointly sized plan's nominal delay must match or beat the
        // greedy ladder's (the ladder stops at the first — i.e. nearly
        // slowest — passing rung; the GP optimizes delay jointly).
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let v = VariationModel::nominal();
        let cfg = EstimatorConfig::new(pi_yield::Method::SobolScrambled).with_seed(7);
        for mm in [3.0, 5.0, 8.0] {
            let spec = LineSpec::global(Length::mm(mm), DesignStyle::SingleSpacing);
            let start = BufferingPlan {
                kind: RepeaterKind::Inverter,
                count: (mm * 1.5).ceil() as usize,
                wn: Length::um(2.4),
                staggered: false,
            };
            let nominal = ev.timing(&spec, &start).delay;
            let deadline = nominal * 0.98;
            let target = 0.9;
            let q = query(spec, start, deadline, target, cfg);
            let ladder = ev.size_for_yield_batch(&[q]).remove(0);
            let gp = ev.size_for_yield_gp_batch(&[q]).remove(0);
            let (Some(ladder), Some(gp)) = (ladder, gp) else {
                panic!("{mm} mm case must be sizable both ways");
            };
            // Certified: the accepted plan's CI lower bound clears target.
            let est = ev.timing_yield_estimate(&spec, &gp.plan, &v, deadline, &cfg);
            assert!(
                est.yield_fraction - est.half_width >= target,
                "{mm} mm: GP plan not certified"
            );
            let d_gp = ev.timing(&spec, &gp.plan).delay.si();
            let d_ladder = ev.timing(&spec, &ladder.plan).delay.si();
            assert!(
                d_gp <= d_ladder * (1.0 + 1e-12),
                "{mm} mm: GP delay {d_gp} vs ladder {d_ladder}"
            );
        }
    }

    #[test]
    fn gp_sizing_falls_back_to_the_ladder_when_infeasible() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let v = VariationModel::nominal();
        let cfg = EstimatorConfig::new(pi_yield::Method::Naive).with_seed(3);
        // 10 ps for 5 mm: infeasible for the GP guard *and* the ladder.
        let hopeless = query(spec, plan, Time::ps(10.0), 0.9, cfg);
        let sized = ev.size_for_yield_gp_batch(&[hopeless]).remove(0);
        assert!(sized.is_none(), "hopeless deadline must exhaust");
        // A loose deadline is feasible and must agree with verification.
        let nominal = ev.timing(&spec, &plan).delay;
        let loose = query(spec, plan, nominal * 1.4, 0.9, cfg);
        let sized = ev
            .size_for_yield_gp_batch(&[loose])
            .remove(0)
            .expect("loose deadline sizable");
        let est = ev.timing_yield_estimate(&spec, &sized.plan, &v, nominal * 1.4, &cfg);
        assert!(est.yield_fraction - est.half_width >= 0.9);
    }

    #[test]
    fn gp_sizing_never_accepts_below_the_ci_lower_bound() {
        // Whatever the surrogate believes, the accepted plan must carry
        // the configured estimator's certification. Sweep targets and
        // re-verify each accepted plan independently.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let v = VariationModel::nominal();
        let nominal = ev.timing(&spec, &plan).delay;
        let cfg = EstimatorConfig::new(pi_yield::Method::SobolScrambled).with_seed(11);
        for target in [0.5, 0.8, 0.95, 0.99] {
            let q = query(spec, plan, nominal, target, cfg);
            if let Some(sized) = ev.size_for_yield_gp_batch(&[q]).remove(0) {
                let est = ev.timing_yield_estimate(&spec, &sized.plan, &v, nominal, &cfg);
                assert!(
                    est.yield_fraction - est.half_width >= target,
                    "target {target}: accepted below the CI lower bound"
                );
            }
        }
    }

    #[test]
    fn gp_batch_is_bit_identical_to_solo_runs() {
        // Mixed jobs: verified on the first or a later proposal, fallen
        // back to the ladder (verified there or exhausted), GP-infeasible,
        // across estimator families, seeds, screens and correlation.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let cfg = |method, seed: u64| {
            EstimatorConfig::new(method)
                .with_seed(seed)
                .with_max_evals(512)
        };
        let sobol = |seed| cfg(pi_yield::Method::SobolScrambled, seed);
        let spec = |mm| LineSpec::global(Length::mm(mm), DesignStyle::SingleSpacing);
        let plan = |count, um| BufferingPlan {
            kind: RepeaterKind::Inverter,
            count,
            wn: Length::um(um),
            staggered: false,
        };
        let nominal5 = ev.timing(&spec(5.0), &plan(8, 2.4)).delay;
        let nominal3 = ev.timing(&spec(3.0), &plan(5, 2.4)).delay;
        let regional = SizeQuery {
            variation: VariationModel::nominal().with_regional(0.8, Length::mm(2.0)),
            ..query(spec(8.0), plan(12, 2.4), Time::ps(600.0), 0.9, sobol(8))
        };
        let queries = vec![
            query(spec(5.0), plan(8, 2.4), nominal5, 0.9, sobol(1)),
            query(spec(8.0), plan(12, 2.4), Time::ps(560.0), 0.95, sobol(2)),
            // Hopeless: GP infeasible, ladder exhausts.
            query(spec(5.0), plan(8, 2.4), Time::ps(10.0), 0.9, sobol(3)),
            query(
                spec(3.0),
                plan(5, 2.4),
                nominal3 * 0.98,
                0.9,
                cfg(pi_yield::Method::Naive, 4),
            ),
            query(
                spec(5.0),
                plan(8, 2.4),
                nominal5,
                0.99,
                cfg(pi_yield::Method::Analytic, 5),
            ),
            query(
                spec(5.0),
                plan(8, 2.4),
                nominal5 * 0.98,
                0.9,
                cfg(pi_yield::Method::ImportanceSampling, 6),
            ),
            // A target the GP guard cannot certify at 1.0: straight to the
            // ladder.
            query(spec(3.0), plan(5, 2.4), nominal3 * 1.5, 1.0, sobol(7)),
            regional,
            // Too few dies to certify 0.99 anywhere: every proposal fails
            // verification and the ladder exhausts.
            query(
                spec(5.0),
                plan(8, 2.4),
                nominal5 * 1.2,
                0.99,
                cfg(pi_yield::Method::Naive, 10).with_max_evals(128),
            ),
            query(
                spec(8.0),
                plan(12, 2.4),
                Time::ps(560.0),
                0.9,
                sobol(9).with_control_variate(true),
            ),
        ];
        let (batched, batch_counters) = sizing_counters(|| ev.size_for_yield_gp_batch(&queries));
        let (solos, solo_counters) = sizing_counters(|| {
            queries
                .iter()
                .map(|q| {
                    ev.size_for_yield_gp_batch(std::slice::from_ref(q))
                        .remove(0)
                })
                .collect::<Vec<_>>()
        });
        assert!(batched[2].is_none());
        for (i, q) in queries.iter().enumerate() {
            assert_same_sizing(
                &batched[i],
                &solos[i],
                &format!("job {i} vs a batch of one"),
            );
            let oracle = legacy::size_for_yield_gp(&ev, q);
            assert_same_sizing(
                &batched[i],
                &oracle,
                &format!("job {i} vs the solo GP loop"),
            );
        }
        // perfbench's cost ladder reads `gp.verify_probe`, `gp.fallback`
        // and `sizing.steps`: batching must not change the work counted.
        assert_eq!(
            batch_counters, solo_counters,
            "gp.*/sizing.* counter totals"
        );
        for name in [
            "gp.solve",
            "gp.infeasible",
            "gp.verify_probe",
            "gp.accepted",
            "gp.candidate_fail",
            "gp.fallback",
            "sizing.steps",
            "sizing.exhausted",
        ] {
            assert!(
                batch_counters.contains_key(name),
                "{name} never counted: {batch_counters:?}"
            );
        }
        assert!(ev.size_for_yield_gp_batch(&[]).is_empty());
    }

    #[test]
    fn degenerate_inputs_are_rejected_without_panicking() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = reference();
        let v = VariationModel::nominal();
        // NaN length: the GP guard refuses, the ladder (whose candidate
        // cap also guards the cast) walks its drive rungs and exhausts.
        let bad = LineSpec {
            length: Length::from_si(f64::NAN),
            ..spec
        };
        assert!(ev
            .gp_propose(&bad, &plan, &v, Time::ps(500.0), 0.9)
            .is_none());
        // Non-finite deadline likewise refuses the GP path.
        assert!(ev
            .gp_propose(&spec, &plan, &v, Time::s(f64::NAN), 0.9)
            .is_none());
    }
}
