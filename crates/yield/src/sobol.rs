//! Sobol low-discrepancy sequences with in-tree direction numbers.
//!
//! Instead of shipping a direction-number table, the generator *derives*
//! its direction numbers at construction time, keeping the crate
//! dependency- and data-file-free:
//!
//! 1. **Primitive polynomials over GF(2)** are enumerated in increasing
//!    degree/lexicographic order (primitivity is verified by checking that
//!    `x` has full multiplicative order `2^d − 1` modulo the candidate —
//!    the textbook definition, testable in microseconds for the degrees
//!    needed here). This reproduces the classic Sobol dimension ordering.
//! 2. **Initial direction numbers** `m_k` (odd, `m_k < 2^k`) are drawn
//!    from a fixed SplitMix64 stream keyed by `(dimension, k)` — the
//!    "random linear initialization" scheme; any odd choice yields a
//!    valid `(t, s)`-sequence, and the fixed seed makes the table
//!    reproducible forever.
//! 3. The remaining numbers follow the standard Sobol recurrence
//!    `m_k = 2a₁m_{k−1} ⊕ 4a₂m_{k−2} ⊕ … ⊕ 2^d m_{k−d} ⊕ m_{k−d}`.
//!
//! Points are **index-addressable** (`point`/`coord` take the raw index
//! `n` and XOR the direction numbers selected by its binary digits — no
//! Gray-code iterator state), which is what lets the estimation engine
//! evaluate any batch of indices in parallel while staying bit-identical
//! for every thread count.
//!
//! Randomization is by **digital shift**: a per-dimension 32-bit XOR mask
//! drawn from a seeded [`Rng`] stream. A digital shift
//! preserves the digital-net structure (every shifted point set has the
//! same discrepancy bound) while making independent replicates, which is
//! how the estimator builds honest confidence intervals for QMC.

use pi_rt::rng::{mix64, SplitMix64};
use pi_rt::Rng;

/// Bits of precision per coordinate (and the log2 of the maximum index).
const BITS: usize = 32;

/// Fixed seed of the initial-direction-number stream. Changing this
/// changes every Sobol point in the workspace; it is part of the format.
const INIT_SEED: u64 = 0x5EED_D12E_C710_4B01;

/// Carry-less (GF(2)) multiplication of two polynomials.
fn gf2_mul(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 == 1 {
            out ^= a;
        }
        a <<= 1;
        b >>= 1;
    }
    out
}

/// Reduces a GF(2) polynomial modulo `p` of degree `d`.
fn gf2_mod(mut x: u64, p: u64, d: u32) -> u64 {
    while x >> d != 0 {
        let deg = 63 - x.leading_zeros();
        x ^= p << (deg - d);
    }
    x
}

/// `x^e mod p` in GF(2)[x], `p` of degree `d`.
fn gf2_pow_x(mut e: u64, p: u64, d: u32) -> u64 {
    let mut base = gf2_mod(0b10, p, d); // the polynomial `x`
    let mut acc = 1u64;
    while e != 0 {
        if e & 1 == 1 {
            acc = gf2_mod(gf2_mul(acc, base), p, d);
        }
        base = gf2_mod(gf2_mul(base, base), p, d);
        e >>= 1;
    }
    acc
}

/// Prime factors of `n` (unique), by trial division.
fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut f = 2u64;
    while f * f <= n {
        if n % f == 0 {
            out.push(f);
            while n % f == 0 {
                n /= f;
            }
        }
        f += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Whether `p` (degree `d`, constant term 1) is primitive over GF(2):
/// `x` must have multiplicative order exactly `2^d − 1` modulo `p`.
fn is_primitive(p: u64, d: u32) -> bool {
    let order = (1u64 << d) - 1;
    if gf2_pow_x(order, p, d) != 1 {
        return false;
    }
    prime_factors(order)
        .into_iter()
        .all(|q| gf2_pow_x(order / q, p, d) != 1)
}

/// The first `count` primitive polynomials over GF(2), in increasing
/// degree and lexicographic order, as `(degree, coefficient mask)`.
fn primitive_polynomials(count: usize) -> Vec<(u32, u64)> {
    let mut out = Vec::with_capacity(count);
    let mut d = 1u32;
    while out.len() < count {
        assert!(d <= 24, "Sobol dimension beyond the supported range");
        // Leading and constant coefficients are 1 for any candidate.
        let lead = 1u64 << d;
        let mut mask = lead | 1;
        while mask < lead << 1 && out.len() < count {
            if is_primitive(mask, d) {
                out.push((d, mask));
            }
            mask += 2;
        }
        d += 1;
    }
    out
}

/// A Sobol sequence of fixed dimension with index-addressable points.
#[derive(Debug, Clone)]
pub struct Sobol {
    /// `v[j][k]`: direction number `k` of dimension `j`, left-aligned in
    /// 32 bits (the binary point sits above bit 31).
    v: Vec<[u32; BITS]>,
}

impl Sobol {
    /// Builds the direction-number table for `dim` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or beyond the supported range (degree-24
    /// polynomials cover tens of thousands of dimensions — far more than
    /// any repeater count in this workspace).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Sobol dimension must be positive");
        let mut v = Vec::with_capacity(dim);

        // Dimension 0: van der Corput in base 2 (identity matrix).
        let mut first = [0u32; BITS];
        for (k, slot) in first.iter_mut().enumerate() {
            *slot = 1u32 << (BITS - 1 - k);
        }
        v.push(first);

        let polys = primitive_polynomials(dim.saturating_sub(1));
        for (j, &(d, mask)) in polys.iter().enumerate() {
            let d = d as usize;
            // Initial m_1..m_d: odd, m_k < 2^k, from the fixed stream.
            let mut m = [0u64; BITS + 1];
            let mut sm = SplitMix64::new(mix64(INIT_SEED ^ (j as u64 + 1)));
            for (k, slot) in m.iter_mut().enumerate().skip(1).take(d) {
                *slot = (sm.next_u64() & ((1u64 << k) - 1)) | 1;
            }
            // Recurrence for m_{d+1}..m_32.
            for k in (d + 1)..=BITS {
                let mut mk = m[k - d] ^ (m[k - d] << d);
                for i in 1..d {
                    // a_i is the coefficient of x^{d-i} in the polynomial.
                    if (mask >> (d - i)) & 1 == 1 {
                        mk ^= m[k - i] << i;
                    }
                }
                m[k] = mk;
            }
            let mut dirs = [0u32; BITS];
            for (k, slot) in dirs.iter_mut().enumerate() {
                let mk = m[k + 1];
                debug_assert!(mk < 1u64 << (k + 1), "m_k must stay below 2^k");
                *slot = u32::try_from(mk << (BITS - 1 - k)).expect("32-bit direction number");
            }
            v.push(dirs);
        }
        Sobol { v }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.v.len()
    }

    /// Raw 32-bit digits of point `index` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `index` needs more than 32 bits.
    #[must_use]
    pub fn point_bits(&self, dim: usize, index: u64) -> u32 {
        assert!(index < 1u64 << BITS, "Sobol index beyond 2^32");
        let dirs = &self.v[dim];
        let mut x = 0u32;
        let mut n = index;
        let mut k = 0;
        while n != 0 {
            if n & 1 == 1 {
                x ^= dirs[k];
            }
            n >>= 1;
            k += 1;
        }
        x
    }

    /// Coordinate `dim` of point `index`, digitally shifted by `shift`
    /// (pass 0 for the plain sequence), mapped to the open unit interval.
    ///
    /// The half-spacing offset keeps every value strictly inside
    /// `(0, 1)`, so the inverse-normal transform never sees an endpoint;
    /// the extreme is `Φ⁻¹(2⁻³³) ≈ −6.4σ`.
    #[must_use]
    pub fn coord(&self, dim: usize, index: u64, shift: u32) -> f64 {
        (f64::from(self.point_bits(dim, index) ^ shift) + 0.5) / (1u64 << BITS) as f64
    }

    /// Fills `out[j]` with coordinate `j` of point `index` under the
    /// per-dimension digital `shifts` (empty slice = unshifted).
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the table's dimension, or `shifts`
    /// is non-empty but shorter than `out`.
    pub fn fill_point(&self, index: u64, shifts: &[u32], out: &mut [f64]) {
        assert!(out.len() <= self.dimension(), "dimension overflow");
        for (j, slot) in out.iter_mut().enumerate() {
            let shift = if shifts.is_empty() { 0 } else { shifts[j] };
            *slot = self.coord(j, index, shift);
        }
    }

    /// Independent per-dimension digital-shift masks for replicate
    /// `replicate` of `seed`, one per dimension.
    #[must_use]
    pub fn digital_shifts(&self, seed: u64, replicate: u64) -> Vec<u32> {
        let mut rng = Rng::stream(mix64(seed) ^ mix64(replicate), 0);
        (0..self.dimension())
            .map(|_| (rng.next_u64() >> BITS) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_counts_per_degree_match_theory() {
        // φ(2^d − 1)/d primitive polynomials per degree:
        // d = 1..6 → 1, 1, 2, 2, 6, 6.
        let polys = primitive_polynomials(18);
        let count = |deg: u32| polys.iter().filter(|(d, _)| *d == deg).count();
        assert_eq!(count(1), 1);
        assert_eq!(count(2), 1);
        assert_eq!(count(3), 2);
        assert_eq!(count(4), 2);
        assert_eq!(count(5), 6);
        assert_eq!(count(6), 6);
    }

    #[test]
    fn classic_low_degree_polynomials_found() {
        // x+1, x²+x+1, x³+x+1, x³+x²+1, x⁴+x+1, x⁴+x³+1 — the canonical
        // list every Sobol implementation starts from.
        let polys = primitive_polynomials(6);
        let masks: Vec<u64> = polys.iter().map(|&(_, m)| m).collect();
        assert_eq!(masks, vec![0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001]);
    }

    #[test]
    fn first_dimension_is_van_der_corput() {
        let s = Sobol::new(1);
        // Indices 0..8 of the base-2 van der Corput sequence.
        let expect = [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875];
        for (i, &e) in expect.iter().enumerate() {
            let x = s.coord(0, i as u64, 0);
            assert!((x - e).abs() < 1e-9, "index {i}: {x} vs {e}");
        }
    }

    #[test]
    fn every_dimension_is_stratified() {
        // The first 2^m points of each dimension must land exactly once
        // in each dyadic interval of width 2^-m — the defining property
        // of a nonsingular upper-triangular generator matrix.
        let dims = 24;
        let s = Sobol::new(dims);
        let m = 8usize;
        for j in 0..dims {
            let mut seen = vec![0u32; 1 << m];
            for n in 0..(1u64 << m) {
                let bin = (s.point_bits(j, n) >> (BITS - m)) as usize;
                seen[bin] += 1;
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "dimension {j} is not 2^{m}-stratified"
            );
        }
    }

    #[test]
    fn digital_shift_preserves_stratification() {
        let s = Sobol::new(4);
        let shifts = s.digital_shifts(9, 3);
        let m = 6usize;
        for (j, &shift) in shifts.iter().enumerate() {
            let mut seen = vec![0u32; 1 << m];
            for n in 0..(1u64 << m) {
                let bin = ((s.point_bits(j, n) ^ shift) >> (BITS - m)) as usize;
                seen[bin] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "shifted dim {j}");
        }
    }

    #[test]
    fn pairwise_projections_are_uniform() {
        // Chi-square on a 16×16 grid over 4096 points for several
        // dimension pairs. For 255 degrees of freedom a uniform sample
        // would sit near 255 ± 23; Sobol pairs should do no worse.
        let s = Sobol::new(12);
        for &(a, b) in &[(0usize, 1usize), (1, 2), (3, 7), (5, 11)] {
            let grid = 16usize;
            let n = 4096u64;
            let mut cells = vec![0u32; grid * grid];
            for i in 0..n {
                let x = (s.coord(a, i, 0) * grid as f64) as usize;
                let y = (s.coord(b, i, 0) * grid as f64) as usize;
                cells[x.min(grid - 1) * grid + y.min(grid - 1)] += 1;
            }
            let expected = n as f64 / (grid * grid) as f64;
            let chi2: f64 = cells
                .iter()
                .map(|&c| {
                    let d = f64::from(c) - expected;
                    d * d / expected
                })
                .sum();
            assert!(chi2 < 400.0, "pair ({a},{b}) chi-square {chi2}");
        }
    }

    #[test]
    fn shift_replicates_are_distinct_and_deterministic() {
        let s = Sobol::new(5);
        assert_eq!(s.digital_shifts(1, 0), s.digital_shifts(1, 0));
        assert_ne!(s.digital_shifts(1, 0), s.digital_shifts(1, 1));
        assert_ne!(s.digital_shifts(1, 0), s.digital_shifts(2, 0));
    }

    #[test]
    fn high_dimension_table_builds() {
        // Enough dimensions for a large NoC (hundreds of repeaters).
        let s = Sobol::new(400);
        assert_eq!(s.dimension(), 400);
        // Spot-check stratification in a high dimension.
        let mut seen = vec![0u32; 64];
        for n in 0..64u64 {
            seen[(s.point_bits(399, n) >> (BITS - 6)) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
