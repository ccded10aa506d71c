//! Linear algebra kernels for the GGA inner solve.
//!
//! The GGA normal matrix is symmetric positive definite (an M-matrix built
//! from link conductances plus emitter derivatives), so it factors as
//! `LDLᵀ` without pivoting. Two factorizations are kept:
//!
//! * [`SparseSym`] + [`SparseLdl`] — compressed-sparse-row storage and a
//!   sparse `LDLᵀ` factorization under a minimum-degree ordering. The
//!   symbolic analysis runs once per pattern; each solve is a numeric
//!   refactorization plus two triangular solves, whose cost follows the
//!   fill of `L` — small on the near-tree graphs of water networks. This is
//!   the production path.
//! * [`DenseSpd`] — dense Cholesky, `O(n³)`, the reference oracle and the
//!   recovery ladder's fallback.
//!
//! Both are exercised against each other in tests and benchmarked in the
//! backend ablation (DESIGN.md §5).

use std::collections::BTreeSet;

/// A dense symmetric positive definite matrix with a Cholesky solver.
#[derive(Debug, Clone)]
pub struct DenseSpd {
    n: usize,
    /// Row-major storage of the full matrix.
    a: Vec<f64>,
}

impl DenseSpd {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseSpd {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` to entry `(i, j)` and, if `i != j`, to `(j, i)`.
    pub fn add_sym(&mut self, i: usize, j: usize, value: f64) {
        self.a[i * self.n + j] += value;
        if i != j {
            self.a[j * self.n + i] += value;
        }
    }

    /// Entry accessor (for tests).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Zeros every entry, keeping the allocation (workspace reuse).
    pub fn reset(&mut self) {
        self.a.fill(0.0);
    }

    /// Solves `A x = b` by Cholesky factorization. Returns `None` if the
    /// matrix is not positive definite.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let mut scratch = DenseScratch::default();
        self.solve_into(b, &mut scratch).then_some(scratch.x)
    }

    /// Solves `A x = b` into `scratch.x`, reusing `scratch`'s buffers
    /// across calls (zero allocation once warmed). Returns `false` if the
    /// matrix is not positive definite.
    pub fn solve_into(&self, b: &[f64], scratch: &mut DenseScratch) -> bool {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        scratch.l.clear();
        scratch.l.resize(n * n, 0.0);
        let l = &mut scratch.l;
        // Lower-triangular factor L with A = L Lᵀ.
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return false;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward substitution L y = b.
        scratch.y.clear();
        scratch.y.resize(n, 0.0);
        let y = &mut scratch.y;
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution Lᵀ x = y.
        scratch.x.clear();
        scratch.x.resize(n, 0.0);
        let x = &mut scratch.x;
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        true
    }
}

/// Reusable buffers for [`DenseSpd::solve_into`]: the Cholesky factor and
/// the substitution vectors, kept allocated across solves.
#[derive(Debug, Clone, Default)]
pub struct DenseScratch {
    l: Vec<f64>,
    y: Vec<f64>,
    /// The solution of the last successful solve.
    pub x: Vec<f64>,
}

/// A sparse symmetric matrix assembled from coordinate triplets and stored
/// in CSR form (full pattern, both triangles).
#[derive(Debug, Clone)]
pub struct SparseSym {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Builder that accumulates `(i, j, value)` triplets; duplicates are summed.
#[derive(Debug, Clone)]
pub struct SparseBuilder {
    n: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl SparseBuilder {
    /// Creates a builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        SparseBuilder {
            n,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(i, j)` and, if `i != j`, at `(j, i)`.
    pub fn add_sym(&mut self, i: usize, j: usize, value: f64) {
        self.triplets.push((i, j, value));
        if i != j {
            self.triplets.push((j, i, value));
        }
    }

    /// Finalizes into CSR form (duplicate triplets are summed).
    pub fn build(mut self) -> SparseSym {
        self.triplets.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let mut row_of: Vec<usize> = Vec::with_capacity(self.triplets.len());
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());
        for &(i, j, v) in &self.triplets {
            if row_of.last() == Some(&i) && col_idx.last() == Some(&j) {
                // audit: unwrap-ok(push on the line above guarantees non-empty)
                *values.last_mut().expect("non-empty alongside col_idx") += v;
            } else {
                row_of.push(i);
                col_idx.push(j);
                values.push(v);
            }
        }
        let mut row_ptr = vec![0usize; self.n + 1];
        for &r in &row_of {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        SparseSym {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

impl SparseSym {
    /// Builds the *symbolic* CSR structure for a symmetric matrix with the
    /// given off-diagonal coupling pairs, with every diagonal entry present
    /// and all values zero. Duplicate and mirrored pairs collapse to one
    /// slot. This is the once-per-network half of workspace assembly: the
    /// numeric half writes values through [`SparseSym::slot_of`] indices
    /// with no per-solve sorting or allocation.
    pub fn symbolic(n: usize, pairs: &[(usize, usize)]) -> SparseSym {
        let mut cols: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for &(i, j) in pairs {
            debug_assert!(i < n && j < n, "pair ({i}, {j}) out of bounds for n={n}");
            if i != j {
                cols[i].push(j);
                cols[j].push(i);
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        for (i, row) in cols.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr[i + 1] = col_idx.len();
        }
        let values = vec![0.0; col_idx.len()];
        SparseSym {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The value-array index of entry `(i, j)`, if present in the pattern
    /// (binary search within the row).
    pub fn slot_of(&self, i: usize, j: usize) -> Option<usize> {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// Zeros every stored value, keeping the symbolic structure.
    pub fn reset_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `v` at a slot previously obtained from [`SparseSym::slot_of`].
    #[inline]
    pub fn add_at(&mut self, slot: usize, v: f64) {
        self.values[slot] += v;
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dense entry lookup (for tests; `O(row nnz)`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .filter(|(&c, _)| c == j)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Column indices of row `i`'s stored entries, ascending.
    fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

/// Marks a root of the elimination tree in [`SparseLdl`]'s parent array.
const NO_PARENT: usize = usize::MAX;

/// Sparse `LDLᵀ` factorization of a [`SparseSym`] pattern, analyzed once and
/// refactored in place for every new set of values.
///
/// [`SparseLdl::analyze`] does the symbolic half: a deterministic
/// minimum-degree ordering `P` of the pattern, the elimination tree of
/// `P A Pᵀ` and the column counts of its unit lower-triangular factor `L`.
/// That fixes the size of every buffer, so [`SparseLdl::solve_into`] — an
/// up-looking numeric factorization followed by the two triangular solves —
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct SparseLdl {
    /// `perm[k]` is the original row eliminated at step `k`.
    perm: Vec<usize>,
    /// Inverse of `perm`.
    pinv: Vec<usize>,
    /// Elimination-tree parent of each permuted column ([`NO_PARENT`] at a
    /// root).
    parent: Vec<usize>,
    /// Column pointers of the strictly-lower part of `L`.
    l_ptr: Vec<usize>,
    /// Row indices and values of `L`, filled column by column.
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// The diagonal `D`.
    d: Vec<f64>,
    // Numeric scratch: entries filled so far per column, the sparse
    // accumulator row, the row's nonzero pattern and its visit flags.
    l_len: Vec<usize>,
    y: Vec<f64>,
    pattern: Vec<usize>,
    flag: Vec<usize>,
    /// The solution of the last successful solve.
    pub x: Vec<f64>,
}

impl SparseLdl {
    /// Symbolic analysis of `a`'s pattern (values are ignored): ordering,
    /// elimination tree and column counts. `O(nnz(L))` after the ordering.
    pub fn analyze(a: &SparseSym) -> SparseLdl {
        let n = a.n;
        let perm = minimum_degree(a);
        let mut pinv = vec![0usize; n];
        for (k, &row) in perm.iter().enumerate() {
            pinv[row] = k;
        }
        // Elimination tree and column counts (Liu's algorithm, row by row
        // over the permuted upper triangle).
        let mut parent = vec![NO_PARENT; n];
        let mut counts = vec![0usize; n];
        let mut flag = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for &col in a.row_cols(perm[k]) {
                let mut i = pinv[col];
                if i >= k {
                    continue;
                }
                while flag[i] != k {
                    if parent[i] == NO_PARENT {
                        parent[i] = k;
                    }
                    counts[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut l_ptr = vec![0usize; n + 1];
        for k in 0..n {
            l_ptr[k + 1] = l_ptr[k] + counts[k];
        }
        let l_nnz = l_ptr[n];
        SparseLdl {
            perm,
            pinv,
            parent,
            l_ptr,
            l_idx: vec![0; l_nnz],
            l_val: vec![0.0; l_nnz],
            d: vec![0.0; n],
            l_len: counts,
            y: vec![0.0; n],
            pattern: vec![0; n],
            flag,
            x: vec![0.0; n],
        }
    }

    /// The fill-reducing ordering: `ordering()[k]` is the row eliminated at
    /// step `k`.
    pub fn ordering(&self) -> &[usize] {
        &self.perm
    }

    /// Stored entries of the strictly-lower factor `L`.
    pub fn factor_nnz(&self) -> usize {
        self.l_idx.len()
    }

    /// Factors `a` (which must have the pattern this was analyzed from) and
    /// solves `A x = b` into [`SparseLdl::x`]. Returns `false` — leaving `x`
    /// unspecified — on a non-positive or non-finite pivot, i.e. when `a` is
    /// not positive definite.
    pub fn solve_into(&mut self, a: &SparseSym, b: &[f64]) -> bool {
        let n = self.perm.len();
        assert_eq!(a.n, n, "matrix does not match the analyzed pattern");
        assert_eq!(b.len(), n);
        if !self.factor(a) {
            return false;
        }
        // x̂ = P b, then L z = x̂, D w = z, Lᵀ v = w, x = Pᵀ v (all in `y`).
        for (k, &row) in self.perm.iter().enumerate() {
            self.y[k] = b[row];
        }
        for j in 0..n {
            let yj = self.y[j];
            for p in self.l_ptr[j]..self.l_ptr[j + 1] {
                self.y[self.l_idx[p]] -= self.l_val[p] * yj;
            }
        }
        for (yj, dj) in self.y.iter_mut().zip(&self.d) {
            *yj /= dj;
        }
        for j in (0..n).rev() {
            let mut yj = self.y[j];
            for p in self.l_ptr[j]..self.l_ptr[j + 1] {
                yj -= self.l_val[p] * self.y[self.l_idx[p]];
            }
            self.y[j] = yj;
        }
        for (k, &row) in self.perm.iter().enumerate() {
            self.x[row] = self.y[k];
            self.y[k] = 0.0;
        }
        true
    }

    /// Up-looking numeric factorization `P A Pᵀ = L D Lᵀ`: row `k` of `L`
    /// is a sparse triangular solve whose pattern is the union of the
    /// elimination-tree paths from the row's nonzeros up to `k`.
    fn factor(&mut self, a: &SparseSym) -> bool {
        let n = self.perm.len();
        for k in 0..n {
            let mut top = n;
            self.flag[k] = k;
            self.l_len[k] = 0;
            let (lo, hi) = (a.row_ptr[self.perm[k]], a.row_ptr[self.perm[k] + 1]);
            for slot in lo..hi {
                let mut i = self.pinv[a.col_idx[slot]];
                if i > k {
                    continue;
                }
                self.y[i] += a.values[slot];
                // Walk up the tree to the first visited node, then push
                // the path so the pattern stays topologically ordered.
                let mut len = 0;
                while self.flag[i] != k {
                    self.pattern[len] = i;
                    len += 1;
                    self.flag[i] = k;
                    i = self.parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.pattern[top] = self.pattern[len];
                }
            }
            let mut dk = self.y[k];
            self.y[k] = 0.0;
            for &i in &self.pattern[top..n] {
                let yi = self.y[i];
                self.y[i] = 0.0;
                let (start, end) = (self.l_ptr[i], self.l_ptr[i] + self.l_len[i]);
                for p in start..end {
                    self.y[self.l_idx[p]] -= self.l_val[p] * yi;
                }
                let l_ki = yi / self.d[i];
                dk -= l_ki * yi;
                self.l_idx[end] = k;
                self.l_val[end] = l_ki;
                self.l_len[i] += 1;
            }
            // Every accumulator entry the row touched is back to zero here,
            // so an early return leaves the buffers ready for the next call.
            if dk <= 0.0 || !dk.is_finite() {
                return false;
            }
            self.d[k] = dk;
        }
        true
    }
}

/// Deterministic minimum-degree ordering of `a`'s pattern: repeatedly
/// eliminates the vertex of least degree in the elimination graph (ties to
/// the lowest row index) and joins its neighbours into a clique.
fn minimum_degree(a: &SparseSym) -> Vec<usize> {
    let n = a.n;
    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|i| a.row_cols(i).iter().copied().filter(|&j| j != i).collect())
        .collect();
    let mut queue: BTreeSet<(usize, usize)> = adj
        .iter()
        .enumerate()
        .map(|(i, nb)| (nb.len(), i))
        .collect();
    // `stamp[w] == tick` marks `w` as already adjacent to the vertex being
    // updated, so clique members are not added twice.
    let mut stamp = vec![0usize; n];
    let mut tick = 0;
    let mut perm = Vec::with_capacity(n);
    while let Some((_, v)) = queue.pop_first() {
        perm.push(v);
        let clique = std::mem::take(&mut adj[v]);
        for &u in &clique {
            queue.remove(&(adj[u].len(), u));
            let nb = &mut adj[u];
            nb.retain(|&w| w != v);
            tick += 1;
            for &w in nb.iter() {
                stamp[w] = tick;
            }
            for &w in &clique {
                if w != u && stamp[w] != tick {
                    nb.push(w);
                }
            }
            queue.insert((nb.len(), u));
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_dense(n: usize) -> DenseSpd {
        // Tridiagonal SPD matrix: 2 on diagonal, -1 off (grounded chain).
        let mut m = DenseSpd::zeros(n);
        for i in 0..n {
            m.add_sym(i, i, 2.0);
            if i + 1 < n {
                m.add_sym(i, i + 1, -1.0);
            }
        }
        m
    }

    fn laplacian_sparse(n: usize) -> SparseSym {
        let mut b = SparseBuilder::new(n);
        for i in 0..n {
            b.add_sym(i, i, 2.0);
            if i + 1 < n {
                b.add_sym(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn cholesky_solves_identity() {
        let mut m = DenseSpd::zeros(3);
        for i in 0..3 {
            m.add_sym(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cholesky_solves_tridiagonal_exactly() {
        let n = 10;
        let m = laplacian_dense(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xt) in x_true.iter().enumerate() {
                *bi += m.get(i, j) * xt;
            }
        }
        let x = m.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut m = DenseSpd::zeros(2);
        m.add_sym(0, 0, 1.0);
        m.add_sym(1, 1, -1.0);
        assert!(m.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn sparse_assembly_merges_duplicates() {
        let mut b = SparseBuilder::new(2);
        b.add_sym(0, 0, 1.0);
        b.add_sym(0, 0, 2.0);
        b.add_sym(0, 1, -1.0);
        let m = b.build();
        assert!((m.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((m.get(0, 1) + 1.0).abs() < 1e-12);
        assert!((m.get(1, 0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn symbolic_pattern_matches_builder_and_slots_resolve() {
        let n = 6;
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut m = SparseSym::symbolic(n, &pairs);
        // Write the chain Laplacian through slots.
        for i in 0..n {
            let d = m.slot_of(i, i).unwrap();
            m.add_at(d, 2.0);
        }
        for &(i, j) in &pairs {
            m.add_at(m.slot_of(i, j).unwrap(), -1.0);
            m.add_at(m.slot_of(j, i).unwrap(), -1.0);
        }
        let reference = laplacian_sparse(n);
        for i in 0..n {
            for j in 0..n {
                assert!((m.get(i, j) - reference.get(i, j)).abs() < 1e-12);
            }
        }
        assert!(m.slot_of(0, 3).is_none());
        m.reset_values();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), reference.nnz());
    }

    /// A looped `side × side` grid Laplacian grounded at row 0, with
    /// distinct weights (offset by `base`) so the ordering and the values
    /// both matter.
    fn grid_sparse(side: usize, base: f64) -> SparseSym {
        let n = side * side;
        let mut b = SparseBuilder::new(n);
        let mut couple = |i: usize, j: usize, w: f64| {
            b.add_sym(i, i, w);
            b.add_sym(j, j, w);
            b.add_sym(i, j, -w);
        };
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                let w = base + ((i * 5) % 7) as f64 * 0.25;
                if c + 1 < side {
                    couple(i, i + 1, w);
                }
                if r + 1 < side {
                    couple(i, i + side, 0.5 * w);
                }
            }
        }
        b.add_sym(0, 0, 3.0);
        b.build()
    }

    fn to_dense(s: &SparseSym) -> DenseSpd {
        let n = s.dim();
        let mut d = DenseSpd::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = s.get(i, j);
                if v != 0.0 {
                    d.add_sym(i, j, v);
                }
            }
        }
        d
    }

    fn assert_ldl_matches_cholesky(s: &SparseSym) {
        let n = s.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let xd = to_dense(s).solve(&b).unwrap();
        let mut ldl = SparseLdl::analyze(s);
        assert!(ldl.solve_into(s, &b));
        for (a, b) in xd.iter().zip(&ldl.x) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn ldl_matches_cholesky() {
        assert_ldl_matches_cholesky(&laplacian_sparse(30));
        assert_ldl_matches_cholesky(&grid_sparse(7, 1.0));
    }

    #[test]
    fn ldl_refactors_new_values_on_one_analysis() {
        let first = grid_sparse(6, 1.0);
        let b: Vec<f64> = (0..first.dim()).map(|i| (i as f64).cos()).collect();
        let mut ldl = SparseLdl::analyze(&first);
        assert!(ldl.solve_into(&first, &b));
        // Same pattern, new values: the cached analysis still applies.
        let s = grid_sparse(6, 3.0);
        assert!(ldl.solve_into(&s, &b));
        let xd = to_dense(&s).solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&ldl.x) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // A fresh analysis of the same pattern gives the same bits.
        let mut fresh = SparseLdl::analyze(&s);
        assert!(fresh.solve_into(&s, &b));
        assert_eq!(fresh.x, ldl.x);
    }

    #[test]
    fn ldl_zero_rhs_returns_zero() {
        let s = laplacian_sparse(5);
        let mut ldl = SparseLdl::analyze(&s);
        assert!(ldl.solve_into(&s, &[0.0; 5]));
        assert!(ldl.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ordering_is_a_deterministic_permutation() {
        let s = grid_sparse(8, 1.0);
        let first = SparseLdl::analyze(&s);
        let mut seen = first.ordering().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..s.dim()).collect::<Vec<_>>());
        assert_eq!(first.ordering(), SparseLdl::analyze(&s).ordering());
    }

    #[test]
    fn tree_pattern_has_zero_fill() {
        // A binary tree rooted at 0, numbered so the natural order would
        // fill (the root is eliminated first).
        let n = 31;
        let pairs: Vec<(usize, usize)> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        let s = SparseSym::symbolic(n, &pairs);
        let ldl = SparseLdl::analyze(&s);
        assert_eq!(ldl.factor_nnz(), pairs.len());
    }

    #[test]
    fn ldl_rejects_zero_row_and_indefinite() {
        // Row 1 is all zero.
        let mut zero_row = SparseBuilder::new(3);
        zero_row.add_sym(0, 0, 2.0);
        zero_row.add_sym(1, 1, 0.0);
        zero_row.add_sym(2, 2, 2.0);
        zero_row.add_sym(0, 2, -1.0);
        let zero_row = zero_row.build();
        let mut indefinite = SparseBuilder::new(2);
        indefinite.add_sym(0, 0, 1.0);
        indefinite.add_sym(1, 1, -1.0);
        let indefinite = indefinite.build();
        for mut m in [zero_row, indefinite] {
            let mut ldl = SparseLdl::analyze(&m);
            let b = vec![1.0; m.dim()];
            assert!(!ldl.solve_into(&m, &b));
            // The failed call leaves the buffers reusable: make the same
            // pattern positive definite and solve again.
            for i in 0..m.dim() {
                let d = m.slot_of(i, i).unwrap();
                m.values[d] = 4.0;
            }
            assert!(ldl.solve_into(&m, &b));
            let xd = to_dense(&m).solve(&b).unwrap();
            for (a, b) in xd.iter().zip(&ldl.x) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }
}
