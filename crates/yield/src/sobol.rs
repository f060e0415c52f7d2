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
//! Points are **index-addressable** (`point_bits`/`coord` take the raw
//! index `n` and XOR the direction numbers selected by its binary digits —
//! no Gray-code iterator state), which is what lets the estimation engine
//! start a chunk of dies at any index. Inside a chunk a cursor steps in
//! *natural* order, `n → n + 1`, by XOR-ing one prefix of the direction
//! numbers per dimension, so its points equal `point_bits` at every
//! index. Chunk starts never depend on the thread count, so the estimates
//! stay bit-identical for any `PI_THREADS`.
//!
//! The direction-number table is built once per process and grown on
//! demand: dimension `j`'s numbers do not depend on the total dimension,
//! so one table sized to the largest dimension seen serves every
//! generator.
//!
//! Randomization is by **digital shift**: a per-dimension 32-bit XOR mask
//! drawn from a seeded [`Rng`] stream. A digital shift
//! preserves the digital-net structure (every shifted point set has the
//! same discrepancy bound) while making independent replicates, which is
//! how the estimator builds honest confidence intervals for QMC.

use std::sync::{Arc, Mutex, PoisonError};

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

/// The primitive polynomial after `prev` over GF(2), in increasing
/// degree and lexicographic order (`None` = the first, `x + 1`), as
/// `(degree, coefficient mask)`.
fn next_primitive(prev: Option<(u32, u64)>) -> (u32, u64) {
    // Leading and constant coefficients are 1 for any candidate.
    let (mut d, mut mask) = match prev {
        None => (1, 0b11),
        Some((d, mask)) => (d, mask + 2),
    };
    loop {
        assert!(d <= 24, "Sobol dimension beyond the supported range");
        while mask < 1u64 << (d + 1) {
            if is_primitive(mask, d) {
                return (d, mask);
            }
            mask += 2;
        }
        d += 1;
        mask = (1u64 << d) | 1;
    }
}

/// Direction numbers of dimension `dim ≥ 1`, whose primitive polynomial
/// has degree `d` and coefficient mask `mask`.
fn direction_numbers(dim: usize, d: u32, mask: u64) -> [u32; BITS] {
    let d = d as usize;
    // Initial m_1..m_d: odd, m_k < 2^k, from the fixed stream.
    let mut m = [0u64; BITS + 1];
    let mut sm = SplitMix64::new(mix64(INIT_SEED ^ dim as u64));
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
    dirs
}

/// The direction-number table shared by every [`Sobol`] in the process.
///
/// Dimension `j`'s numbers depend on `j` alone, never on how many
/// dimensions were built, so the table for `d` dimensions is a prefix of
/// the table for any larger `d`: one table, grown on demand to the
/// largest dimension asked for, serves every generator.
#[derive(Debug)]
struct Directions {
    /// `v[j][k]`: direction number `k` of dimension `j`, left-aligned in
    /// 32 bits (the binary point sits above bit 31).
    v: Vec<[u32; BITS]>,
    /// `steps[t][j] = v[j][0] ⊕ … ⊕ v[j][t]`: the XOR that takes point
    /// `n` to point `n + 1` in dimension `j` when `t` is the number of
    /// trailing zeros of `n + 1`. Step-major, so one step is a contiguous
    /// sweep over the dimensions.
    steps: Vec<Vec<u32>>,
    /// The polynomial of the last dimension built (`None` while only the
    /// van der Corput dimension exists); growth resumes the search here.
    last_poly: Option<(u32, u64)>,
}

impl Directions {
    /// A table of exactly `dim` dimensions extending `prev` (if any).
    fn grown(prev: Option<&Directions>, dim: usize) -> Self {
        let (mut v, mut last_poly) = match prev {
            Some(t) => (t.v.clone(), t.last_poly),
            // Dimension 0: van der Corput in base 2 (identity matrix).
            None => (vec![std::array::from_fn(|k| 1u32 << (BITS - 1 - k))], None),
        };
        v.reserve_exact(dim.saturating_sub(v.len()));
        while v.len() < dim {
            let (d, mask) = next_primitive(last_poly);
            v.push(direction_numbers(v.len(), d, mask));
            last_poly = Some((d, mask));
        }
        let mut steps: Vec<Vec<u32>> = (0..BITS).map(|_| Vec::with_capacity(v.len())).collect();
        for dirs in &v {
            let mut prefix = 0;
            for (row, &x) in steps.iter_mut().zip(dirs) {
                prefix ^= x;
                row.push(prefix);
            }
        }
        Directions {
            v,
            steps,
            last_poly,
        }
    }
}

/// The shared table, replaced (never mutated) when a larger dimension is
/// asked for; generators already holding the old one keep it alive.
static TABLE: Mutex<Option<Arc<Directions>>> = Mutex::new(None);

/// A table covering at least `dim` dimensions.
fn table(dim: usize) -> Arc<Directions> {
    // A panic while growing leaves the previous table in place, so a
    // poisoned lock still guards a consistent value.
    let mut slot = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(t) = slot.as_ref().filter(|t| t.v.len() >= dim) {
        return Arc::clone(t);
    }
    let grown = Arc::new(Directions::grown(slot.as_deref(), dim));
    *slot = Some(Arc::clone(&grown));
    grown
}

/// Maps 32 raw digits to the open unit interval. The half-spacing offset
/// keeps every value strictly inside `(0, 1)`, so the inverse-normal
/// transform never sees an endpoint; the extreme is `Φ⁻¹(2⁻³³) ≈ −6.4σ`.
fn unit(bits: u32) -> f64 {
    (f64::from(bits) + 0.5) / (1u64 << BITS) as f64
}

/// A Sobol sequence of fixed dimension with index-addressable points.
#[derive(Debug, Clone)]
pub struct Sobol {
    /// The shared direction numbers; may cover more than `dim` dimensions.
    table: Arc<Directions>,
    dim: usize,
}

impl Sobol {
    /// A generator for `dim` dimensions. The direction-number table is
    /// built once per process and grown on demand, so only the first
    /// generator of a new largest dimension pays for the polynomial
    /// search.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or beyond the supported range (degree-24
    /// polynomials cover tens of thousands of dimensions — far more than
    /// any repeater count in this workspace).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Sobol dimension must be positive");
        Sobol {
            table: table(dim),
            dim,
        }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dim
    }

    /// Raw 32-bit digits of point `index` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `index` needs more than 32 bits.
    #[must_use]
    pub fn point_bits(&self, dim: usize, index: u64) -> u32 {
        assert_index(index);
        let dirs = &self.table.v[..self.dim][dim];
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
    #[must_use]
    pub fn coord(&self, dim: usize, index: u64, shift: u32) -> f64 {
        unit(self.point_bits(dim, index) ^ shift)
    }

    /// A cursor at point `start`, for walking consecutive points in
    /// natural order.
    ///
    /// # Panics
    ///
    /// Panics if `start` needs more than 32 bits.
    #[must_use]
    pub(crate) fn cursor(&self, start: u64) -> SobolCursor<'_> {
        SobolCursor {
            bits: (0..self.dim).map(|j| self.point_bits(j, start)).collect(),
            sobol: self,
            index: start,
        }
    }

    /// Independent per-dimension digital-shift masks for replicate
    /// `replicate` of `seed`, one per dimension.
    #[must_use]
    pub fn digital_shifts(&self, seed: u64, replicate: u64) -> Vec<u32> {
        let mut rng = Rng::stream(mix64(seed) ^ mix64(replicate), 0);
        (0..self.dim)
            .map(|_| (rng.next_u64() >> BITS) as u32)
            .collect()
    }
}

/// Points are addressed by 32-bit indices.
fn assert_index(index: u64) {
    assert!(index < 1u64 << BITS, "Sobol index beyond 2^32");
}

/// Consecutive Sobol points in natural order: the digits of the start
/// point are computed once by [`Sobol::point_bits`], and each
/// [`advance`](Self::advance) then costs one XOR per dimension. The
/// digits equal `point_bits` at every index.
#[derive(Debug)]
pub(crate) struct SobolCursor<'a> {
    sobol: &'a Sobol,
    index: u64,
    /// Unshifted digits of point `index`, one per dimension.
    bits: Vec<u32>,
}

impl SobolCursor<'_> {
    /// Coordinates of the current point under the per-dimension digital
    /// `shifts`, mapped to the open unit interval exactly as
    /// [`Sobol::coord`] maps them.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` does not hold one mask per dimension.
    pub(crate) fn coords<'s>(&'s self, shifts: &'s [u32]) -> impl Iterator<Item = f64> + 's {
        assert_eq!(shifts.len(), self.bits.len(), "one shift per dimension");
        self.bits.iter().zip(shifts).map(|(&b, &s)| unit(b ^ s))
    }

    /// Steps to the next point: `n + 1` differs from `n` in direction
    /// numbers `0..=t`, `t` the trailing zeros of `n + 1`.
    ///
    /// # Panics
    ///
    /// Panics when the current point is the last one, `2³² − 1`.
    pub(crate) fn advance(&mut self) {
        let next = self.index + 1;
        assert_index(next);
        let step = &self.sobol.table.steps[next.trailing_zeros() as usize];
        for (x, &s) in self.bits.iter_mut().zip(step) {
            *x ^= s;
        }
        self.index = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `count` primitive polynomials, in search order.
    fn primitive_polynomials(count: usize) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = Vec::with_capacity(count);
        while out.len() < count {
            out.push(next_primitive(out.last().copied()));
        }
        out
    }

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
    /// Walks `len` points from `start` and checks every digit, raw and
    /// through a digital shift, against index-addressed `point_bits`.
    fn assert_cursor_matches(s: &Sobol, shifts: &[u32], start: u64, len: u64) {
        let mut cursor = s.cursor(start);
        for index in start..start + len {
            if index > start {
                cursor.advance();
            }
            assert_eq!(cursor.index, index);
            for (j, &bits) in cursor.bits.iter().enumerate() {
                assert_eq!(bits, s.point_bits(j, index), "dim {j} at {index}");
            }
            for (j, u) in cursor.coords(shifts).enumerate() {
                let want = s.coord(j, index, shifts[j]);
                assert_eq!(u.to_bits(), want.to_bits(), "shifted dim {j} at {index}");
            }
        }
    }

    #[test]
    fn cursor_steps_reproduce_point_bits() {
        let s = Sobol::new(37);
        let shifts = s.digital_shifts(5, 2);
        let mut starts = vec![0u64, 1];
        for k in [1u32, 5, 10, 20, 31] {
            starts.extend([(1u64 << k) - 1, 1u64 << k]);
        }
        let mut rng = Rng::stream(0xC0DE, 0);
        starts.extend((0..8).map(|_| rng.next_u64() >> 33));
        for start in starts {
            assert_cursor_matches(&s, &shifts, start, 300);
        }
        // Up to the very last point, whose successor does not exist.
        let last = (1u64 << BITS) - 1;
        assert_cursor_matches(&s, &shifts, last - 40, 41);
    }

    #[test]
    #[should_panic(expected = "Sobol index beyond 2^32")]
    fn cursor_never_steps_past_the_last_point() {
        let s = Sobol::new(3);
        let mut cursor = s.cursor((1u64 << BITS) - 1);
        cursor.advance();
    }

    #[test]
    fn shared_table_is_a_prefix_for_every_dimension() {
        let small = Sobol::new(7);
        let large = Sobol::new(260);
        let again = Sobol::new(7);
        for s in [&small, &again] {
            assert_eq!(s.dimension(), 7);
            // Exactly `dim` masks, whatever the table currently covers.
            assert_eq!(s.digital_shifts(3, 1).len(), 7);
            assert_eq!(s.digital_shifts(3, 1), large.digital_shifts(3, 1)[..7]);
            for j in 0..7 {
                for n in [1u64, 2, 3, 1000, 123_456_789] {
                    assert_eq!(s.point_bits(j, n), large.point_bits(j, n));
                }
            }
        }
        // Dimension 259's numbers match a cold derivation of its own.
        let polys = primitive_polynomials(259);
        let (d, mask) = polys[258];
        assert_eq!(large.table.v[259], direction_numbers(259, d, mask));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn point_bits_rejects_dimensions_beyond_the_generator() {
        let _large = Sobol::new(50);
        let s = Sobol::new(4);
        let _ = s.point_bits(4, 1);
    }
}
