//! Structure-exploiting linear solver for MNA systems.
//!
//! Extracted distributed-RC stage netlists are chains: after a
//! bandwidth-reducing permutation their conductance matrices are banded
//! with a tiny half-bandwidth. Two features break pure bandedness:
//!
//! - **voltage-source rows** carry a zero diagonal and couple a branch
//!   current to an arbitrary node, and
//! - **hub nodes** (the vdd rail feeding every repeater) touch many
//!   otherwise-distant nodes.
//!
//! [`BorderedSolver`] therefore factors a *bordered banded* system: the
//! few "wide" unknowns are moved into a dense border of size `m`, the
//! remaining interior is permuted with reverse Cuthill–McKee and factored
//! as a banded LU with partial pivoting (LAPACK `dgbtrf`-style storage),
//! and the border is eliminated through an `m × m` dense Schur
//! complement:
//!
//! ```text
//! ┌ B  F ┐ ┌ x_I ┐   ┌ b_I ┐      S = C − G·B⁻¹·F   (m × m, dense)
//! │      │ │     │ = │     │
//! └ G  C ┘ └ x_B ┘   └ b_B ┘      x_B = S⁻¹(b_B − G·B⁻¹ b_I)
//! ```
//!
//! The symbolic work — border selection, RCM ordering, bandwidth and
//! profitability analysis — runs **once per circuit topology**
//! ([`BorderedSolver::analyze`]); every Newton refactorization reuses the
//! fixed pattern and costs O(n·b²) instead of the dense O(n³).

use crate::solver::{DenseSolver, SingularMatrix};

/// Interior unknowns touching at least this many distinct neighbors are
/// promoted into the dense border (rail hubs, etc.).
const HUB_DEGREE: usize = 8;

/// Below this dimension a dense factorization is always at least as fast.
const MIN_DIM: usize = 12;

/// Smallest pivot magnitude accepted by the banded factorization.
const PIVOT_TINY: f64 = 1e-280;

/// Bordered banded LU solver with a fixed, pre-analyzed structure.
///
/// Lifecycle: [`analyze`](BorderedSolver::analyze) once per topology, then
/// per refactorization [`zero`](BorderedSolver::zero) →
/// [`add`](BorderedSolver::add)* → [`factor`](BorderedSolver::factor), and
/// [`solve`](BorderedSolver::solve) per right-hand side.
#[derive(Debug, Clone)]
pub struct BorderedSolver {
    dim: usize,
    /// Border size (source rows + hub nodes).
    m: usize,
    /// Interior size (`dim - m`).
    nb: usize,
    /// Interior half-bandwidth after RCM (kl = ku).
    kl: usize,
    /// Band storage width: `kl` subdiagonals + `2·kl` superdiagonals
    /// (pivoting fill) + diagonal.
    w: usize,
    /// Unknown index → position: interior `[0, nb)`, border `[nb, dim)`.
    pos: Vec<usize>,
    /// Banded interior block, row-major windows (`nb × w`).
    ab: Vec<f64>,
    pivots: Vec<usize>,
    /// Interior-rows × border-cols coupling (`nb × m`, row-major).
    f: Vec<f64>,
    /// Border-rows × interior-cols coupling (`m × nb`, row-major).
    g: Vec<f64>,
    /// Border block (`m × m`, row-major).
    c: Vec<f64>,
    /// `B⁻¹ F` (`nb × m`, row-major), computed by `factor`.
    y: Vec<f64>,
    schur: DenseSolver,
    /// Scratch: interior rhs, border rhs, one band column.
    s_int: Vec<f64>,
    s_bord: Vec<f64>,
}

impl BorderedSolver {
    /// Symbolic analysis: picks the border, orders the interior with RCM,
    /// measures the bandwidth, and sizes the storage.
    ///
    /// `edges` lists the structural off-diagonal nonzeros as unordered
    /// unknown-index pairs (duplicates fine); `forced_border` lists
    /// unknowns that must live in the border (voltage-source current rows,
    /// whose zero diagonal would otherwise demand band-destroying pivots).
    ///
    /// Returns `None` when the bordered factorization would not beat a
    /// dense one (tiny systems, overly large borders, wide bands), letting
    /// callers fall back to [`DenseSolver`].
    #[must_use]
    pub fn analyze(dim: usize, edges: &[(usize, usize)], forced_border: &[usize]) -> Option<Self> {
        if dim < MIN_DIM {
            return None;
        }
        // Deduplicated symmetric adjacency.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); dim];
        for &(a, b) in edges {
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        let mut in_border = vec![false; dim];
        for &r in forced_border {
            in_border[r] = true;
        }
        for (v, l) in adj.iter().enumerate() {
            if l.len() >= HUB_DEGREE {
                in_border[v] = true;
            }
        }
        let m = in_border.iter().filter(|&&b| b).count();
        let nb = dim - m;
        if nb < MIN_DIM / 2 || m > dim / 2 {
            return None;
        }
        // Interior adjacency (border vertices removed), then RCM.
        let interior: Vec<usize> = (0..dim).filter(|&v| !in_border[v]).collect();
        let mut int_id = vec![usize::MAX; dim];
        for (i, &v) in interior.iter().enumerate() {
            int_id[v] = i;
        }
        let mut int_adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (i, &v) in interior.iter().enumerate() {
            for &u in &adj[v] {
                if !in_border[u] {
                    int_adj[i].push(int_id[u]);
                }
            }
        }
        let order = rcm_order(&int_adj);
        // pos: interior vertices by RCM rank, border vertices appended in
        // index order (deterministic).
        let mut pos = vec![usize::MAX; dim];
        for (rank, &i) in order.iter().enumerate() {
            pos[interior[i]] = rank;
        }
        let mut next = nb;
        for (v, p) in pos.iter_mut().enumerate() {
            if in_border[v] {
                *p = next;
                next += 1;
            }
        }
        // Interior half-bandwidth under the RCM ordering.
        let mut kl = 0usize;
        for (i, l) in int_adj.iter().enumerate() {
            let pi = pos[interior[i]];
            for &u in l {
                let pu = pos[interior[u]];
                kl = kl.max(pi.abs_diff(pu));
            }
        }
        let w = 3 * kl + 1;
        // Profitability: flop estimate of the bordered path vs dense LU.
        let b = kl as f64;
        let (nbf, mf, df) = (nb as f64, m as f64, dim as f64);
        let banded_factor = nbf * (b + 1.0) * (2.0 * b + 1.0);
        let band_solves = (mf + 1.0) * nbf * (3.0 * b + 1.0);
        let schur_cost = mf * mf * nbf + mf * mf * mf / 3.0;
        let dense_cost = df * df * df / 3.0;
        if banded_factor + band_solves + schur_cost >= 0.7 * dense_cost {
            return None;
        }
        Some(BorderedSolver {
            dim,
            m,
            nb,
            kl,
            w,
            pos,
            ab: vec![0.0; nb * w],
            pivots: vec![0; nb],
            f: vec![0.0; nb * m],
            g: vec![0.0; m * nb],
            c: vec![0.0; m * m],
            y: vec![0.0; nb * m],
            schur: DenseSolver::new(m),
            s_int: vec![0.0; nb],
            s_bord: vec![0.0; m],
        })
    }

    /// System dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Border size (dense Schur block dimension).
    #[must_use]
    pub fn border(&self) -> usize {
        self.m
    }

    /// Interior half-bandwidth after reordering.
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.kl
    }

    /// Clears the numeric arrays ahead of re-assembly.
    pub fn zero(&mut self) {
        self.ab.iter_mut().for_each(|v| *v = 0.0);
        self.f.iter_mut().for_each(|v| *v = 0.0);
        self.g.iter_mut().for_each(|v| *v = 0.0);
        self.c.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Accumulates `v` at matrix entry `(i, j)` (original unknown indices).
    ///
    /// Interior-interior entries must lie within the analyzed bandwidth —
    /// i.e. `(i, j)` must have been present in the `edges` handed to
    /// [`BorderedSolver::analyze`] (or be a diagonal).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let (pi, pj) = (self.pos[i], self.pos[j]);
        let (nb, m, w, kl) = (self.nb, self.m, self.w, self.kl);
        match (pi < nb, pj < nb) {
            (true, true) => {
                debug_assert!(
                    pi.abs_diff(pj) <= kl,
                    "entry ({i},{j}) outside analyzed bandwidth"
                );
                self.ab[pi * w + (pj + kl - pi)] += v;
            }
            (true, false) => self.f[pi * m + (pj - nb)] += v,
            (false, true) => self.g[(pi - nb) * nb + pj] += v,
            (false, false) => self.c[(pi - nb) * m + (pj - nb)] += v,
        }
    }

    /// Numeric factorization over the pre-analyzed pattern: banded LU of
    /// the interior, then the dense Schur complement of the border.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot vanishes in either block.
    pub fn factor(&mut self) -> Result<(), SingularMatrix> {
        self.factor_band()?;
        // Y = B⁻¹ F, one banded solve per border column.
        for k in 0..self.m {
            for i in 0..self.nb {
                self.s_int[i] = self.f[i * self.m + k];
            }
            Self::solve_band_buf(
                &self.ab,
                &self.pivots,
                self.nb,
                self.kl,
                self.w,
                &mut self.s_int,
            );
            for i in 0..self.nb {
                self.y[i * self.m + k] = self.s_int[i];
            }
        }
        // S = C − G·Y.
        let mut s = std::mem::take(&mut self.c);
        for r in 0..self.m {
            let grow = &self.g[r * self.nb..(r + 1) * self.nb];
            for (i, &gv) in grow.iter().enumerate() {
                if gv != 0.0 {
                    let yrow = &self.y[i * self.m..(i + 1) * self.m];
                    let srow = &mut s[r * self.m..(r + 1) * self.m];
                    for (sv, &yv) in srow.iter_mut().zip(yrow) {
                        *sv -= gv * yv;
                    }
                }
            }
        }
        let res = if self.m == 0 {
            Ok(())
        } else {
            self.schur.factor(&s)
        };
        // Restore C (it still holds the unreduced border block for reuse).
        self.c = s;
        res
    }

    /// Solves the factored system in place over `b` (original unknown
    /// ordering).
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length.
    pub fn solve(&mut self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim, "rhs size mismatch");
        let (nb, m) = (self.nb, self.m);
        for (v, &p) in self.pos.iter().enumerate() {
            if p < nb {
                self.s_int[p] = b[v];
            } else {
                self.s_bord[p - nb] = b[v];
            }
        }
        // z = B⁻¹ b_I.
        Self::solve_band_buf(&self.ab, &self.pivots, nb, self.kl, self.w, &mut self.s_int);
        // x_B = S⁻¹ (b_B − G z).
        for r in 0..m {
            let grow = &self.g[r * nb..(r + 1) * nb];
            let mut acc = self.s_bord[r];
            for (i, &gv) in grow.iter().enumerate() {
                acc -= gv * self.s_int[i];
            }
            self.s_bord[r] = acc;
        }
        if m > 0 {
            self.schur.solve(&mut self.s_bord);
        }
        // x_I = z − Y x_B.
        for i in 0..nb {
            let yrow = &self.y[i * m..(i + 1) * m];
            let mut acc = self.s_int[i];
            for (k, &yv) in yrow.iter().enumerate() {
                acc -= yv * self.s_bord[k];
            }
            self.s_int[i] = acc;
        }
        for (v, &p) in self.pos.iter().enumerate() {
            b[v] = if p < nb {
                self.s_int[p]
            } else {
                self.s_bord[p - nb]
            };
        }
    }

    /// Banded LU with partial pivoting (`dgbtf2`-style, in place).
    fn factor_band(&mut self) -> Result<(), SingularMatrix> {
        let (nb, kl, w) = (self.nb, self.kl, self.w);
        let ab = &mut self.ab;
        for j in 0..nb {
            let i_max = (j + kl).min(nb - 1);
            // Partial pivot over the kl rows below the diagonal.
            let mut pivot = j;
            let mut best = ab[j * w + kl].abs();
            for i in (j + 1)..=i_max {
                let v = ab[i * w + (j + kl - i)].abs();
                if v > best {
                    best = v;
                    pivot = i;
                }
            }
            if best < PIVOT_TINY {
                return Err(SingularMatrix);
            }
            self.pivots[j] = pivot;
            let k_max = (j + 2 * kl).min(nb - 1);
            if pivot != j {
                // Swap only the active trailing parts of the two rows.
                for k in j..=k_max {
                    ab.swap(j * w + (k + kl - j), pivot * w + (k + kl - pivot));
                }
            }
            let inv = 1.0 / ab[j * w + kl];
            for i in (j + 1)..=i_max {
                let idx = i * w + (j + kl - i);
                let mult = ab[idx] * inv;
                ab[idx] = mult;
                if mult != 0.0 {
                    for k in (j + 1)..=k_max {
                        ab[i * w + (k + kl - i)] -= mult * ab[j * w + (k + kl - j)];
                    }
                }
            }
        }
        Ok(())
    }

    /// Banded triangular solves with interleaved row interchanges
    /// (`dgbtrs`-style).
    fn solve_band_buf(ab: &[f64], pivots: &[usize], nb: usize, kl: usize, w: usize, b: &mut [f64]) {
        if nb == 0 {
            return;
        }
        for j in 0..nb {
            let p = pivots[j];
            if p != j {
                b.swap(j, p);
            }
            let bj = b[j];
            if bj != 0.0 {
                for i in (j + 1)..=(j + kl).min(nb - 1) {
                    b[i] -= ab[i * w + (j + kl - i)] * bj;
                }
            }
        }
        for i in (0..nb).rev() {
            let mut acc = b[i];
            for k in (i + 1)..=(i + 2 * kl).min(nb - 1) {
                acc -= ab[i * w + (k + kl - i)] * b[k];
            }
            b[i] = acc / ab[i * w + kl];
        }
    }
}

/// Reverse Cuthill–McKee ordering of an undirected graph given as
/// adjacency lists (deduplicated). Returns the vertices in elimination
/// order; deterministic (BFS from the minimum-degree vertex of each
/// component, neighbors visited by ascending `(degree, index)`).
fn rcm_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut frontier: Vec<usize> = Vec::new();
    loop {
        // Start vertex: unvisited vertex with minimum (degree, index).
        let start = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| (adj[v].len(), v));
        let Some(start) = start else { break };
        visited[start] = true;
        let mut head = order.len();
        order.push(start);
        while head < order.len() {
            let v = order[head];
            head += 1;
            frontier.clear();
            frontier.extend(adj[v].iter().copied().filter(|&u| !visited[u]));
            frontier.sort_unstable_by_key(|&u| (adj[u].len(), u));
            for &u in &frontier {
                visited[u] = true;
                order.push(u);
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_rt::Rng;

    /// Dense reference solve for comparison.
    fn dense_solve(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut s = DenseSolver::new(n);
        s.factor(a).unwrap();
        let mut x = b.to_vec();
        s.solve(&mut x);
        x
    }

    /// `(dim, edges, border, matrix)` system description for the tests.
    type TestSystem = (usize, Vec<(usize, usize)>, Vec<usize>, Vec<f64>);

    /// Builds a ladder + hub + source-row system mimicking an MNA stage:
    /// a chain of `n` nodes, a hub tied to every `hub_stride`-th node, and
    /// one zero-diagonal border row pair.
    fn mna_like(n: usize, rng: &mut Rng) -> TestSystem {
        let dim = n + 2; // chain + hub + source row
        let hub = n;
        let src = n + 1;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1));
        }
        for i in (0..n).step_by(3) {
            edges.push((i, hub));
        }
        edges.push((hub, src)); // source incidence on the hub
        let mut a = vec![0.0; dim * dim];
        for &(p, q) in &edges {
            if p == src || q == src {
                continue;
            }
            let g = 0.5 + rng.random_range(0.0..2.0);
            a[p * dim + p] += g;
            a[q * dim + q] += g;
            a[p * dim + q] -= g;
            a[q * dim + p] -= g;
        }
        // Grounded conductances keep the system well conditioned.
        for i in (0..n).step_by(5) {
            a[i * dim + i] += 1.0;
        }
        for i in 0..dim - 1 {
            a[i * dim + i] += 1e-9;
        }
        // Source incidence: zero diagonal on the source row.
        a[hub * dim + src] += 1.0;
        a[src * dim + hub] += 1.0;
        (dim, edges, vec![src], a)
    }

    fn check_matches_dense(
        dim: usize,
        edges: &[(usize, usize)],
        border: &[usize],
        a: &[f64],
        tol: f64,
    ) {
        let mut s = BorderedSolver::analyze(dim, edges, border).expect("profitable structure");
        s.zero();
        for i in 0..dim {
            for j in 0..dim {
                if a[i * dim + j] != 0.0 {
                    s.add(i, j, a[i * dim + j]);
                }
            }
        }
        s.factor().unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..4 {
            let b: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut x = b.clone();
            s.solve(&mut x);
            let x_ref = dense_solve(a, &b, dim);
            for (xi, ri) in x.iter().zip(&x_ref) {
                assert!((xi - ri).abs() < tol * (1.0 + ri.abs()), "{xi} vs {ri}");
            }
        }
    }

    #[test]
    fn bordered_matches_dense_on_mna_like_system() {
        let mut rng = Rng::seed_from_u64(0xbaded);
        for n in [24, 40, 100] {
            let (dim, edges, border, a) = mna_like(n, &mut rng);
            check_matches_dense(dim, &edges, &border, &a, 1e-9);
        }
    }

    #[test]
    fn refactorization_reuses_the_pattern() {
        let mut rng = Rng::seed_from_u64(3);
        let (dim, edges, border, _) = mna_like(24, &mut rng);
        let mut s = BorderedSolver::analyze(dim, &edges, &border).unwrap();
        for round in 0..3 {
            let (_, _, _, a) = mna_like(24, &mut Rng::seed_from_u64(100 + round));
            s.zero();
            for i in 0..dim {
                for j in 0..dim {
                    if a[i * dim + j] != 0.0 {
                        s.add(i, j, a[i * dim + j]);
                    }
                }
            }
            s.factor().unwrap();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
            let mut x = b.clone();
            s.solve(&mut x);
            let x_ref = dense_solve(&a, &b, dim);
            for (xi, ri) in x.iter().zip(&x_ref) {
                assert!((xi - ri).abs() < 1e-8 * (1.0 + ri.abs()));
            }
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_of_a_shuffled_ladder() {
        // A 40-node chain numbered in an interleaved order has raw
        // bandwidth ~20; RCM must recover bandwidth 1.
        let n = 40;
        let shuffled: Vec<usize> = (0..n / 2).flat_map(|i| [i, n / 2 + i]).collect();
        let mut adj = vec![Vec::new(); n];
        for w in shuffled.windows(2) {
            adj[w[0]].push(w[1]);
            adj[w[1]].push(w[0]);
        }
        let order = rcm_order(&adj);
        let mut pos = vec![0; n];
        for (rank, &v) in order.iter().enumerate() {
            pos[v] = rank;
        }
        let pos = &pos;
        let bw = adj
            .iter()
            .enumerate()
            .flat_map(|(v, l)| l.iter().map(move |&u| pos[v].abs_diff(pos[u])))
            .max()
            .unwrap();
        assert_eq!(bw, 1, "RCM should recover the chain ordering");
    }

    #[test]
    fn tiny_or_dense_structures_fall_back() {
        // Too small.
        assert!(BorderedSolver::analyze(6, &[(0, 1)], &[]).is_none());
        // Fully dense graph: every pair connected — no banded win.
        let n = 24;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        assert!(BorderedSolver::analyze(n, &edges, &[]).is_none());
    }

    #[test]
    fn pivoting_survives_weak_diagonals() {
        // Chain with wildly varying conductances to force row swaps.
        let n = 30;
        let dim = n;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1));
        }
        let mut a = vec![0.0; dim * dim];
        for (k, &(p, q)) in edges.iter().enumerate() {
            let g = if k % 3 == 0 { 1e6 } else { 1e-3 };
            a[p * dim + p] += g;
            a[q * dim + q] += g;
            a[p * dim + q] -= g;
            a[q * dim + p] -= g;
        }
        a[0] += 1.0; // ground tie
        for i in 0..dim {
            a[i * dim + i] += 1e-9;
        }
        // The 1e6/1e-3 conductance mix drives the condition number to
        // ~1e9+, so two *different* stable factorizations legitimately
        // disagree at the 1e-3 level on O(10) solutions. Without partial
        // pivoting the banded factorization diverges outright, which is
        // what this tolerance distinguishes.
        check_matches_dense(dim, &edges, &[], &a, 1e-2);
    }
}
