//! Standard-normal distribution functions: density, CDF, and quantile.
//!
//! The quantile ([`normal_inv_cdf`]) is Acklam's rational approximation
//! (central region + two tail branches), with relative error below
//! `1.15e-9` over the full open interval `(0, 1)` — more than enough to
//! turn low-discrepancy uniforms into Gaussian variates without the
//! distortion a Box–Muller pairing would introduce (Box–Muller consumes
//! *two* uniforms per normal, which scrambles the dimension assignment a
//! quasi-Monte-Carlo sequence relies on; the inverse CDF consumes exactly
//! one).
//!
//! The CDF ([`normal_cdf`]) goes through [`erfc`], which costs the same
//! few dozen flops and one `exp` at every argument:
//!
//! - below `x = 0.5`, the all-positive erf power series (≤ 13 terms);
//! - on `[0.5, 27.5)`, `erfc(x) = e^(−x²)·erfcx(x)` with the scaled
//!   function `erfcx` taken from a table of 865 nodes spaced `1/32`
//!   apart plus one degree-9 Taylor step from the nearest node. The
//!   Taylor coefficients follow exactly from the ODE
//!   `erfcx′ = 2x·erfcx − 2/√π`, so the table stores one value per node;
//! - exact 0 from `x = 27.5` on, past the double-precision underflow at
//!   `x ≈ 27.3`; negative arguments reflect through `erfc(x) = 2 − erfc(−x)`.
//!
//! The table is seeded once, on first use, from the iterative evaluation
//! this module used before: the power series below 2 and a
//! Lentz-evaluated Laplace continued fraction above it, whose iteration
//! count grows toward the branch point — 120–800 ns per call at the
//! 3–6σ margins the analytic yield closures live on, against a fixed
//! 25–40 ns now. The Taylor truncation (`|x − x₀| ≤ 1/64`) is below
//! `1e-20` relative, so the result carries the seed's error plus a few
//! ulp: within `5e-15` of the continued fraction above `x = 2` and
//! within `2.2e-13` of the series below it (the series' own `1 − erf`
//! cancellation, worst near `x ≈ 1.9`). Unlike the Zelen–Severo
//! polynomial this module once used (absolute error `7.5e-8`, tens of
//! percent *relative* error at 4–6σ), that bound is relative all the
//! way down the tail.

/// The standard-normal density `φ(x)`.
#[must_use]
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Branch point of the iterative evaluation between the erf power
/// series and the erfc continued fraction. Below it the
/// all-positive-terms series converges in ≤ 30 terms; above it the
/// Laplace continued fraction does.
const ERFC_BRANCH: f64 = 2.0;

/// `erf(x)` for `0 ≤ x < ERFC_BRANCH` via the scaled Maclaurin series
/// `erf(x) = (2/√π)·e^(−x²)·Σ 2ⁿx^(2n+1)/(1·3···(2n+1))` — every term is
/// positive, so there is no cancellation and the error is a few ulp.
fn erf_series(x: f64) -> f64 {
    let two_x2 = 2.0 * x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    while term > sum * 1e-17 {
        n += 1;
        term *= two_x2 / f64::from(2 * n + 1);
        sum += term;
    }
    2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp() * sum
}

/// The Laplace continued fraction
/// `f(x) = x + (1/2)/(x + 1/(x + (3/2)/(x + …)))`, evaluated with the
/// modified Lentz algorithm, so that `erfc(x) = e^(−x²)/(√π·f(x))` and
/// `erfcx(x) = 1/(√π·f(x))` for `x ≥ ERFC_BRANCH`. Relative error is a
/// few ulp; the iteration count grows as `x` falls toward the branch.
fn laplace_fraction(x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    for n in 1..200 {
        let a = 0.5 * f64::from(n);
        d = x + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = x + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    f
}

/// First tabulated node; below it [`erfc`] sums the power series.
const TABLE_START: f64 = 0.5;
/// Nodes per unit of `x` (node spacing `1/32`, a power of two, so every
/// node and every offset `x − node` is exact).
const NODES_PER_UNIT: f64 = 32.0;
/// Tabulated nodes: `0.5, 0.5 + 1/32, …, 27.5`. The last node only serves
/// arguments just below [`ERFC_ZERO`] that round up to it.
const TABLE_LEN: usize = 865;
/// From here on `erfc` is exactly 0 (it underflows at `x ≈ 27.3`).
const ERFC_ZERO: f64 = 27.5;
/// Degree of the Taylor step from the nearest node.
const TAYLOR_DEGREE: usize = 9;
/// `2/(k+1)` for `k = 1..TAYLOR_DEGREE`: the coefficient recurrence's
/// divisors as multipliers.
const TWO_OVER_K_PLUS_1: [f64; TAYLOR_DEGREE - 1] = [
    1.0,
    2.0 / 3.0,
    2.0 / 4.0,
    2.0 / 5.0,
    2.0 / 6.0,
    2.0 / 7.0,
    2.0 / 8.0,
    2.0 / 9.0,
];

/// `erfcx(x) = e^(x²)·erfc(x)` at every table node, seeded on first use
/// from the iterative evaluation.
static ERFCX_NODES: std::sync::OnceLock<[f64; TABLE_LEN]> = std::sync::OnceLock::new();

/// The `i`-th table node.
fn node(i: usize) -> f64 {
    TABLE_START + i as f64 / NODES_PER_UNIT
}

/// `erfcx(x)` by the iterative evaluation: the series below the branch
/// point (where `e^(x²)` is at most `e⁴`), the continued fraction above.
fn erfcx_iterative(x: f64) -> f64 {
    if x < ERFC_BRANCH {
        (1.0 - erf_series(x)) * (x * x).exp()
    } else {
        1.0 / (std::f64::consts::PI.sqrt() * laplace_fraction(x))
    }
}

/// `erfcx(x)` by a degree-9 Taylor step from node `i`. With `aₖ` the
/// Taylor coefficients at the node `x₀`, the ODE
/// `erfcx′ = 2x·erfcx − 2/√π` gives `a₁ = 2x₀a₀ − 2/√π` and
/// `aₖ₊₁ = (2x₀aₖ + 2aₖ₋₁)/(k+1)`. Each term is added as its coefficient
/// comes out of the recurrence, so the recurrence is the only serial
/// dependency chain (a Horner pass would be a second one after it).
fn erfcx_taylor(i: usize, x: f64) -> f64 {
    let nodes = ERFCX_NODES.get_or_init(|| std::array::from_fn(|i| erfcx_iterative(node(i))));
    let x0 = node(i);
    let dx = x - x0;
    let mut prev = nodes[i];
    let mut cur = 2.0 * x0 * prev - std::f64::consts::FRAC_2_SQRT_PI;
    let mut power = dx;
    let mut sum = prev + cur * dx;
    for scale in TWO_OVER_K_PLUS_1 {
        (prev, cur) = (cur, (x0 * cur + prev) * scale);
        power *= dx;
        sum += cur * power;
    }
    sum
}

/// The complementary error function `erfc(x)`, with relative error of
/// order `1e-13` wherever the result is a normal double: it tracks the
/// iterative evaluation it replaced to within `2.2e-13` relative (within
/// `5e-15` for `x ≥ 2`). This is the primitive behind [`normal_cdf`]; the
/// deep-tail accuracy is what the yield closures rely on at 4–6σ margins.
///
/// Fixed cost: the power series below `0.5`, `e^(−x²)` times a tabulated
/// degree-9 Taylor step of `erfcx` on `[0.5, 27.5)`, exact 0 beyond, and
/// `2 − erfc(−x)` for negative `x` (see the module docs). `erfc(NaN)` is
/// NaN.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x < TABLE_START {
        1.0 - erf_series(x)
    } else if x < ERFC_ZERO {
        let nearest = ((x - TABLE_START) * NODES_PER_UNIT + 0.5) as usize;
        (-x * x).exp() * erfcx_taylor(nearest, x)
    } else if x >= ERFC_ZERO {
        0.0
    } else {
        f64::NAN
    }
}

/// The standard-normal CDF `Φ(x) = erfc(−x/√2)/2`.
///
/// Relative error below `1e-12` for `x ≤ 0` (the lower tail is computed
/// directly, never as `1 − …`), and absolute error at the same level for
/// `x > 0`.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Acklam central-region numerator coefficients.
const A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
/// Acklam central-region denominator coefficients.
const B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
/// Acklam tail numerator coefficients.
const C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
/// Acklam tail denominator coefficients.
const D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Boundary between Acklam's tail and central branches.
const P_LOW: f64 = 0.02425;

/// The standard-normal quantile `Φ⁻¹(p)` (Acklam's algorithm).
///
/// Relative error below `1.15e-9` for all `p` in `(0, 1)`.
///
/// # Panics
///
/// Panics unless `0 < p < 1` (the quantile is infinite at the endpoints).
#[must_use]
pub fn normal_inv_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_inv_cdf needs p in (0, 1), got {p}"
    );
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference quantiles to 9 decimal places (R `qnorm`, Wichura AS 241).
    const QUANTILES: [(f64, f64); 9] = [
        (0.5, 0.0),
        (0.841_344_746_068_543, 1.0),
        (0.975, 1.959_963_984_540_054),
        (0.99, 2.326_347_874_040_841),
        (0.998_650_101_968_37, 3.0),
        (0.999_968_328_758_167, 4.0),
        (0.001, -3.090_232_306_167_813),
        (1e-6, -4.753_424_308_822_899),
        (1e-9, -5.997_807_015_007_183),
    ];

    #[test]
    fn matches_known_quantiles() {
        for &(p, z) in &QUANTILES {
            let got = normal_inv_cdf(p);
            let tol = 1.15e-9 * z.abs().max(1.0);
            assert!(
                (got - z).abs() < tol.max(2e-9),
                "quantile({p}) = {got}, want {z}"
            );
        }
    }

    #[test]
    fn is_antisymmetric_and_monotone() {
        let mut last = f64::NEG_INFINITY;
        for i in 1..1000 {
            let p = f64::from(i) / 1000.0;
            let z = normal_inv_cdf(p);
            assert!(
                (z + normal_inv_cdf(1.0 - p)).abs() < 1e-9,
                "symmetry at {p}"
            );
            assert!(z > last, "monotone at {p}");
            last = z;
        }
    }

    #[test]
    fn round_trips_through_the_cdf() {
        // The quantile is now the coarser of the pair (1.15e-9 relative),
        // so the round trip is bounded by its error, not the CDF's.
        for i in 1..200 {
            let p = f64::from(i) / 200.0;
            assert!(
                (normal_cdf(normal_inv_cdf(p)) - p).abs() < 1e-8,
                "round trip at {p}"
            );
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((normal_cdf(1.0) - 0.841_344_746_068_543).abs() < 1e-12);
        assert!((normal_cdf(-1.959_963_984_540_054) - 0.025).abs() < 1e-12);
        assert!((normal_cdf(3.0) - 0.998_650_101_968_37).abs() < 1e-12);
        assert!(normal_cdf(-9.0) >= 0.0 && normal_cdf(9.0) <= 1.0);
    }

    /// Lower-tail references to full double precision (computed from
    /// `erfc` in a 50-digit setting): the satellite bugfix demands
    /// relative error ≤ 1e-6 at |z| ≤ 6; the erfc-based CDF delivers
    /// ~1e-13 out to 8σ and beyond.
    const TAILS: [(f64, f64); 7] = [
        (-1.0, 1.586_552_539_314_570_5e-1),
        (-2.0, 2.275_013_194_817_921e-2),
        (-3.0, 1.349_898_031_630_094_4e-3),
        (-4.0, 3.167_124_183_311_992_4e-5),
        (-5.0, 2.866_515_718_791_939e-7),
        (-6.0, 9.865_876_450_376_98e-10),
        (-8.0, 6.220_960_574_271_78e-16),
    ];

    #[test]
    fn cdf_tail_relative_error_is_bounded() {
        for &(z, p) in &TAILS {
            let lower = normal_cdf(z);
            let rel = (lower - p).abs() / p;
            assert!(rel < 1e-12, "Φ({z}) = {lower:e}, want {p:e} (rel {rel:e})");
            // The matching upper tail must complement to 1 at full
            // precision (it is absolute-error bounded, not relative).
            let upper = normal_cdf(-z);
            assert!(
                (lower + upper - 1.0).abs() < 1e-15,
                "Φ({z}) + Φ({}) != 1",
                -z
            );
        }
    }

    #[test]
    fn erfc_matches_references_and_is_monotone() {
        // erfc(1) and erfc(3) to 15 significant digits.
        assert!((erfc(1.0) - 1.572_992_070_502_851_3e-1).abs() < 1e-15);
        let r3 = (erfc(3.0) - 2.209_049_699_858_544e-5).abs() / 2.209_049_699_858_544e-5;
        assert!(r3 < 1e-12, "erfc(3) rel err {r3:e}");
        // Continuity across the series/fraction branch point.
        let below = erfc(ERFC_BRANCH - 1e-9);
        let above = erfc(ERFC_BRANCH + 1e-9);
        assert!((below - above).abs() / above < 1e-7, "branch continuity");
        // Strictly monotone where consecutive values are more than an
        // ulp of 2 apart (beyond −4σ the result saturates toward 2.0).
        let mut last = f64::INFINITY;
        for i in -40..=60 {
            let v = erfc(f64::from(i) * 0.1);
            assert!(v < last, "erfc monotone at {i}");
            last = v;
        }
    }

    /// The iterative evaluation `erfc` used before the table (series
    /// below the branch point, continued fraction above): the oracle the
    /// tabulated evaluation is held to.
    fn erfc_iterative(x: f64) -> f64 {
        if x < 0.0 {
            2.0 - erfc_iterative(-x)
        } else if x < ERFC_BRANCH {
            1.0 - erf_series(x)
        } else {
            (-x * x).exp() / (std::f64::consts::PI.sqrt() * laplace_fraction(x))
        }
    }

    #[test]
    fn erfc_matches_the_iterative_oracle_and_is_monotone() {
        // 200k points over [-6, 27.3] at a step that is not a multiple of
        // the node spacing, so every offset from a node is visited.
        let (lo, hi) = (-6.0, 27.3);
        let n = 200_000;
        let mut worst = (0.0f64, 0.0f64);
        let mut last = f64::INFINITY;
        for i in 0..=n {
            let x = lo + (hi - lo) * f64::from(i) / f64::from(n);
            let got = erfc(x);
            assert!(got <= last, "erfc not monotone at {x}: {got:e} > {last:e}");
            last = got;
            let want = erfc_iterative(x);
            if want >= 1e-300 {
                let rel = (got - want).abs() / want;
                if rel > worst.0 {
                    worst = (rel, x);
                }
            }
        }
        assert!(
            worst.0 <= 5e-13,
            "erfc rel err {:e} at x = {}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn erfc_is_continuous_where_the_nearest_node_switches() {
        for i in 0..TABLE_LEN - 1 {
            // The midpoint rounds to node i + 1; just below it, node i.
            let mid = node(i) + 0.5 / NODES_PER_UNIT;
            let from_below = erfcx_taylor(i, mid);
            let from_above = erfcx_taylor(i + 1, mid);
            let jump = (from_below - from_above).abs() / from_above;
            assert!(jump <= 1e-13, "erfcx jumps {jump:e} at x = {mid}");
            // erfc itself, a couple of ulp either side of the switch: the
            // gap is the jump plus the true change, 2x·Δx relative.
            let below = mid - mid * f64::EPSILON;
            if erfc(mid) < 1e-300 {
                continue;
            }
            let gap = (erfc(below) - erfc(mid)).abs() / erfc(mid);
            let slope = 2.0 * mid * (mid - below);
            assert!(gap <= 1e-13 + slope, "erfc jumps {gap:e} at x = {mid}");
        }
    }

    #[test]
    fn erfc_edges() {
        assert!(erfc(f64::NAN).is_nan());
        assert!(normal_cdf(f64::NAN).is_nan());
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        // exp(−x²) underflows at x ≈ 27.3; from there on both the oracle
        // and the tabulated evaluation are exactly 0, and from 27.5 on
        // the table is not consulted at all.
        for x in [
            27.3,
            27.4,
            ERFC_ZERO - 1e-12,
            ERFC_ZERO,
            28.0,
            40.0,
            f64::MAX,
        ] {
            assert_eq!(erfc(x), 0.0, "erfc({x})");
            assert_eq!(erfc(-x), 2.0, "erfc({})", -x);
        }
        assert_eq!(erfc_iterative(27.3), 0.0);
        // Both ends of the table agree with the oracle.
        for x in [TABLE_START, TABLE_START - 1e-12, 26.5] {
            let want = erfc_iterative(x);
            assert!((erfc(x) - want).abs() / want <= 5e-13, "erfc({x})");
        }
    }

    #[test]
    fn pdf_is_the_cdf_derivative() {
        let h = 1e-5;
        for &x in &[-2.5, -1.0, 0.0, 0.7, 2.0] {
            let numeric = (normal_cdf(x + h) - normal_cdf(x - h)) / (2.0 * h);
            assert!(
                (numeric - normal_pdf(x)).abs() < 1e-2,
                "derivative check at {x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs p in (0, 1)")]
    fn endpoint_rejected() {
        let _ = normal_inv_cdf(0.0);
    }
}
