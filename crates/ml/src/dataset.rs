//! Dataset utilities: splitting and feature standardization.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::matrix::Matrix;

/// Splits `(x, labels)` into train/test with a shuffled index permutation.
///
/// `labels[v]` is the per-output label vector; both views are split on the
/// same sample permutation. `test_fraction` is clamped so both sides keep
/// at least one sample.
///
/// # Panics
///
/// Panics if `x` has fewer than 2 rows or label lengths mismatch.
pub fn train_test_split(
    x: &Matrix,
    labels: &[Vec<u8>],
    test_fraction: f64,
    seed: u64,
) -> (Matrix, Vec<Vec<u8>>, Matrix, Vec<Vec<u8>>) {
    let n = x.rows();
    assert!(n >= 2, "need at least two samples to split");
    for y in labels {
        assert_eq!(y.len(), n, "label length mismatch");
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        idx.swap(i, rng.random_range(0..=i));
    }
    let n_test = ((n as f64 * test_fraction).round() as usize).clamp(1, n - 1);
    let (test_idx, train_idx) = idx.split_at(n_test);

    let select_labels = |ids: &[usize]| -> Vec<Vec<u8>> {
        labels
            .iter()
            .map(|y| ids.iter().map(|&i| y[i]).collect())
            .collect()
    };
    (
        x.select_rows(train_idx),
        select_labels(train_idx),
        x.select_rows(test_idx),
        select_labels(test_idx),
    )
}

/// Deterministically splits `0..n` into `(train, holdout)` index sets.
///
/// The permutation depends only on `(n, seed)`, so any two calls — from any
/// thread — agree exactly; gradient boosting uses this for its
/// early-stopping holdout. `fraction` is clamped so both sides keep at
/// least one index. Both returned sets are sorted ascending.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn holdout_indices(n: usize, fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(n >= 2, "need at least two samples to hold out");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        idx.swap(i, rng.random_range(0..=i));
    }
    let n_holdout = ((n as f64 * fraction).round() as usize).clamp(1, n - 1);
    let (holdout, train) = idx.split_at(n_holdout);
    let mut holdout = holdout.to_vec();
    let mut train = train.to_vec();
    holdout.sort_unstable();
    train.sort_unstable();
    (train, holdout)
}

/// Per-feature standardization (zero mean, unit variance) fitted on training
/// data and applied to any matrix — constant features pass through
/// unchanged.
#[derive(Debug, Clone)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fits means and standard deviations on `x`.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix.
    pub fn fit(x: &Matrix) -> Self {
        assert!(x.rows() > 0, "cannot fit scaler on empty matrix");
        let n = x.rows() as f64;
        let d = x.cols();
        let mut means = vec![0.0; d];
        for row in x.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in x.iter_rows() {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m) * (v - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Scaler { means, stds }
    }

    /// Returns the standardized copy of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.means.len(), "feature count mismatch");
        let mut out = Matrix::with_cols(x.cols());
        for row in x.iter_rows() {
            let scaled: Vec<f64> = row
                .iter()
                .zip(&self.means)
                .zip(&self.stds)
                .map(|((v, m), s)| (v - m) / s)
                .collect();
            out.push_row(&scaled);
        }
        out
    }

    /// Standardizes a single feature vector in place.
    ///
    /// # Errors
    ///
    /// [`MlError::FeatureMismatch`] when `row` is not as wide as the
    /// fitted matrix; `row` is then left untouched.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::FeatureMismatch {
                expected: self.means.len(),
                got: row.len(),
            });
        }
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
        Ok(())
    }
}

impl Codec for Scaler {
    fn encode(&self, w: &mut Writer) {
        self.means.encode(w);
        self.stds.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let means: Vec<f64> = Codec::decode(r)?;
        let stds: Vec<f64> = Codec::decode(r)?;
        if means.len() != stds.len() {
            return Err(ArtifactError::Malformed {
                reason: "scaler mean/std length mismatch".into(),
            });
        }
        Ok(Scaler { means, stds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_all_samples() {
        let x = Matrix::from_vec_rows((0..20).map(|i| vec![i as f64]).collect());
        let labels = vec![(0..20).map(|i| (i % 2) as u8).collect::<Vec<u8>>()];
        let (xtr, ytr, xte, yte) = train_test_split(&x, &labels, 0.25, 1);
        assert_eq!(xtr.rows() + xte.rows(), 20);
        assert_eq!(xte.rows(), 5);
        assert_eq!(ytr[0].len(), xtr.rows());
        assert_eq!(yte[0].len(), xte.rows());
        // All original values present exactly once.
        let mut vals: Vec<f64> = xtr.column(0);
        vals.extend(xte.column(0));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, (0..20).map(|i| i as f64).collect::<Vec<f64>>());
    }

    #[test]
    fn split_keeps_labels_aligned_with_rows() {
        let x = Matrix::from_vec_rows((0..30).map(|i| vec![i as f64]).collect());
        // Label equals feature parity, so alignment is verifiable post-split.
        let labels = vec![(0..30).map(|i| (i % 2) as u8).collect::<Vec<u8>>()];
        let (xtr, ytr, xte, yte) = train_test_split(&x, &labels, 0.3, 9);
        for (row, &y) in xtr.iter_rows().zip(&ytr[0]) {
            assert_eq!((row[0] as usize % 2) as u8, y);
        }
        for (row, &y) in xte.iter_rows().zip(&yte[0]) {
            assert_eq!((row[0] as usize % 2) as u8, y);
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let x = Matrix::from_vec_rows((0..10).map(|i| vec![i as f64]).collect());
        let labels = vec![vec![0u8; 10]];
        let (a, _, _, _) = train_test_split(&x, &labels, 0.2, 3);
        let (b, _, _, _) = train_test_split(&x, &labels, 0.2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn holdout_indices_partition_and_are_deterministic() {
        let (train, hold) = holdout_indices(50, 0.2, 7);
        assert_eq!(hold.len(), 10);
        assert_eq!(train.len(), 40);
        let mut all: Vec<usize> = train.iter().chain(hold.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<usize>>());
        assert_eq!(holdout_indices(50, 0.2, 7), (train, hold));
        assert_ne!(holdout_indices(50, 0.2, 8).1, holdout_indices(50, 0.2, 7).1);
    }

    #[test]
    fn holdout_keeps_both_sides_nonempty() {
        let (train, hold) = holdout_indices(2, 0.9, 0);
        assert_eq!(train.len(), 1);
        assert_eq!(hold.len(), 1);
    }

    #[test]
    fn scaler_standardizes_train_exactly() {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]);
        let scaler = Scaler::fit(&x);
        let z = scaler.transform(&x);
        for j in 0..2 {
            let col = z.column(j);
            let mean: f64 = col.iter().sum::<f64>() / 3.0;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_passes_constant_features() {
        let x = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let scaler = Scaler::fit(&x);
        let z = scaler.transform(&x);
        assert!(z.column(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transform_row_matches_transform() {
        let x = Matrix::from_rows(&[&[1.0, -4.0], &[3.0, 6.0]]);
        let scaler = Scaler::fit(&x);
        let z = scaler.transform(&x);
        let mut row = [1.0, -4.0];
        scaler.transform_row(&mut row).unwrap();
        assert_eq!(&row[..], z.row(0));
    }

    #[test]
    fn transform_row_rejects_a_wrong_width() {
        let scaler = Scaler::fit(&Matrix::from_rows(&[&[1.0, -4.0], &[3.0, 6.0]]));
        let mut row = [1.0, 2.0, 3.0];
        assert_eq!(
            scaler.transform_row(&mut row),
            Err(MlError::FeatureMismatch {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(row, [1.0, 2.0, 3.0]);
    }
}
