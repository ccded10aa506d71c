//! Linear models: least-squares scorer and logistic regression.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

use crate::classifier::util::{
    check_fit, check_predict, check_width, linear_margin, row_margin, sigmoid,
};
use crate::classifier::Classifier;
use crate::dense::solve_spd;
use crate::error::MlError;
use crate::matrix::Matrix;

/// Ordinary least squares fit to 0/1 targets, used as a classifier by
/// clamping the score into `[0, 1]` (the paper's "LinearR" baseline).
#[derive(Debug, Clone, Default)]
pub struct LinearRegressionClassifier {
    /// Ridge regularization strength (tiny by default for conditioning).
    pub ridge: f64,
    weights: Option<Vec<f64>>, // last entry is the intercept
}

impl LinearRegressionClassifier {
    /// Creates a classifier with the given ridge strength.
    pub fn new(ridge: f64) -> Self {
        LinearRegressionClassifier {
            ridge,
            weights: None,
        }
    }
}

impl Classifier for LinearRegressionClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        check_fit(x, y)?;
        let d = x.cols() + 1; // + intercept
        let ridge = if self.ridge > 0.0 { self.ridge } else { 1e-6 };
        // Normal equations (XᵀX + λI) w = Xᵀy with an appended 1-column.
        let mut xtx = vec![0.0f64; d * d];
        let mut xty = vec![0.0f64; d];
        for (row, &yi) in x.iter_rows().zip(y) {
            let yi = yi as f64;
            for a in 0..d {
                let xa = if a < x.cols() { row[a] } else { 1.0 };
                xty[a] += xa * yi;
                for b in a..d {
                    let xb = if b < x.cols() { row[b] } else { 1.0 };
                    xtx[a * d + b] += xa * xb;
                }
            }
        }
        // Mirror and regularize.
        for a in 0..d {
            for b in 0..a {
                xtx[a * d + b] = xtx[b * d + a];
            }
            xtx[a * d + a] += ridge;
        }
        let w = solve_spd(&xtx, d, &xty).ok_or(MlError::Diverged)?;
        self.weights = Some(w);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        check_predict(x, Some(w.len() - 1))?;
        Ok(x.iter_rows()
            .map(|row| linear_margin(row, w).clamp(0.0, 1.0))
            .collect())
    }

    fn predict_proba_row(&self, row: &[f64], margin: Option<f64>) -> Result<f64, MlError> {
        Ok(row_margin(self.weights.as_deref(), row, margin)?.clamp(0.0, 1.0))
    }

    fn margin_weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for LinearRegressionClassifier {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.ridge);
        self.weights.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LinearRegressionClassifier {
            ridge: r.f64()?,
            weights: Codec::decode(r)?,
        })
    }
}

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionConfig {
    /// L2 regularization strength.
    pub l2: f64,
    /// Maximum IRLS (Newton) iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the weight update norm.
    pub tolerance: f64,
    /// Weight positive samples by `negatives/positives` to counter the heavy
    /// class imbalance of per-node leak labels.
    pub balance_classes: bool,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            l2: 1e-3,
            max_iterations: 30,
            tolerance: 1e-8,
            balance_classes: true,
        }
    }
}

/// L2-regularized logistic regression fitted by IRLS (Newton) — the paper's
/// "LogisticR", also the fusion layer of HybridRSL ("LogisticR has low
/// variances and is less prone to overfitting").
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    weights: Option<Vec<f64>>, // last entry is the intercept
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression::with_config(LogisticRegressionConfig::default())
    }
}

impl LogisticRegression {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn with_config(config: LogisticRegressionConfig) -> Self {
        LogisticRegression {
            config,
            weights: None,
        }
    }

    /// The fitted weights `[w..., intercept]`, if fitted.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// `P(y = 1)` for one row of `width` features yielded by `features`,
    /// so HybridRSL's fusion layer can score its meta features without
    /// building a row.
    pub(crate) fn proba_of<'a>(
        &self,
        width: usize,
        features: impl IntoIterator<Item = &'a f64>,
    ) -> Result<f64, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        check_width(width, Some(w.len() - 1))?;
        Ok(sigmoid(linear_margin(features, w)))
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        let n_pos = check_fit(x, y)?;
        let n = x.rows();
        let d = x.cols() + 1;
        let pos_weight = if self.config.balance_classes && n_pos > 0 && n_pos < n {
            (n - n_pos) as f64 / n_pos as f64
        } else {
            1.0
        };
        let mut w = vec![0.0f64; d];
        for _ in 0..self.config.max_iterations {
            // IRLS step: solve (Xᵀ S X + λI) Δ = Xᵀ(y − μ) − λw.
            let mut h = vec![0.0f64; d * d];
            let mut g = vec![0.0f64; d];
            for (row, &yi) in x.iter_rows().zip(y) {
                let sw = if yi == 1 { pos_weight } else { 1.0 };
                let mu = sigmoid(linear_margin(row, &w));
                let s = (mu * (1.0 - mu)).max(1e-6) * sw;
                let r = (yi as f64 - mu) * sw;
                for a in 0..d {
                    let xa = if a < x.cols() { row[a] } else { 1.0 };
                    g[a] += xa * r;
                    for b in a..d {
                        let xb = if b < x.cols() { row[b] } else { 1.0 };
                        h[a * d + b] += xa * s * xb;
                    }
                }
            }
            for a in 0..d {
                for b in 0..a {
                    h[a * d + b] = h[b * d + a];
                }
                h[a * d + a] += self.config.l2;
                g[a] -= self.config.l2 * w[a];
            }
            let delta = solve_spd(&h, d, &g).ok_or(MlError::Diverged)?;
            let step: f64 = delta.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !step.is_finite() {
                return Err(MlError::Diverged);
            }
            for (wi, di) in w.iter_mut().zip(&delta) {
                *wi += di;
            }
            if step < self.config.tolerance {
                break;
            }
        }
        self.weights = Some(w);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        check_predict(x, Some(w.len() - 1))?;
        Ok(x.iter_rows()
            .map(|row| sigmoid(linear_margin(row, w)))
            .collect())
    }

    fn predict_proba_row(&self, row: &[f64], margin: Option<f64>) -> Result<f64, MlError> {
        Ok(sigmoid(row_margin(self.weights.as_deref(), row, margin)?))
    }

    fn margin_weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for LogisticRegressionConfig {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.l2);
        w.len_prefix(self.max_iterations);
        w.f64(self.tolerance);
        w.bool(self.balance_classes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LogisticRegressionConfig {
            l2: r.f64()?,
            max_iterations: usize::decode(r)?,
            tolerance: r.f64()?,
            balance_classes: r.bool()?,
        })
    }
}

impl Codec for LogisticRegression {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.weights.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(LogisticRegression {
            config: Codec::decode(r)?,
            weights: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable() -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 10.0 - 2.0;
            rows.push(vec![v, 0.5 * v + 0.1]);
            labels.push(u8::from(v > 0.0));
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn logistic_separates_linear_data() {
        let (x, y) = linearly_separable();
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 39, "correct = {correct}");
    }

    #[test]
    fn logistic_probabilities_ordered_by_margin() {
        let (x, y) = linearly_separable();
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y).unwrap();
        let p = clf
            .predict_proba(&Matrix::from_rows(&[
                &[-2.0, -0.9],
                &[0.1, 0.15],
                &[2.0, 1.1],
            ]))
            .unwrap();
        assert!(p[0] < p[1] && p[1] < p[2]);
        assert!(p[0] < 0.1 && p[2] > 0.9);
    }

    #[test]
    fn linear_regression_classifier_clamps_probabilities() {
        let (x, y) = linearly_separable();
        let mut clf = LinearRegressionClassifier::default();
        clf.fit(&x, &y).unwrap();
        for p in clf.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 36, "correct = {correct}");
    }

    #[test]
    fn unfitted_models_error() {
        let x = Matrix::from_rows(&[&[1.0]]);
        assert_eq!(
            LogisticRegression::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
        assert_eq!(
            LinearRegressionClassifier::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn feature_mismatch_detected() {
        let (x, y) = linearly_separable();
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y).unwrap();
        let bad = Matrix::from_rows(&[&[1.0]]);
        assert!(matches!(
            clf.predict_proba(&bad),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn single_class_training_degenerates_gracefully() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = [0, 0, 0];
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y).unwrap();
        let p = clf.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| v < 0.5));
    }

    #[test]
    fn class_balancing_raises_minority_recall() {
        // 95:5 imbalance with clean separation at x > 1.8.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..95 {
            rows.push(vec![(i % 19) as f64 / 10.0]);
            labels.push(0);
        }
        for _ in 0..5 {
            rows.push(vec![2.0]);
            labels.push(1);
        }
        let x = Matrix::from_vec_rows(rows);
        let mut balanced = LogisticRegression::with_config(LogisticRegressionConfig {
            balance_classes: true,
            ..Default::default()
        });
        balanced.fit(&x, &labels).unwrap();
        let p = balanced
            .predict_proba(&Matrix::from_rows(&[&[2.0]]))
            .unwrap();
        assert!(p[0] > 0.5, "balanced model must catch the minority class");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let mut clf = LogisticRegression::default();
        assert!(matches!(
            clf.fit(&x, &[1]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
