//! The plug-and-play classifier interface and model factory.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

use crate::binned::BinnedDataset;
use crate::boosting::{GradientBoosting, GradientBoostingConfig};
use crate::error::MlError;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::hybrid::{HybridRsl, HybridRslConfig};
use crate::linear::{LinearRegressionClassifier, LogisticRegression, LogisticRegressionConfig};
use crate::matrix::Matrix;
use crate::svm::{LinearSvm, LinearSvmConfig};
use crate::tree::{DecisionTree, DecisionTreeConfig};

/// A binary classifier with probabilistic output — the interface Algorithm 1
/// (`fit`) and Algorithm 2 (`predict_proba` / `predict`) consume.
///
/// Labels are `0` (no leak) / `1` (leak). `predict_proba` returns
/// `P(y = 1)` per sample; `predict` thresholds it at 0.5.
pub trait Classifier: Send + Sync {
    /// Fits the model to training features `x` and labels `y`.
    ///
    /// # Errors
    ///
    /// [`MlError::DimensionMismatch`] when `x.rows() != y.len()` and
    /// [`MlError::EmptyTrainingSet`] on empty input. Single-class training
    /// sets are legal: the model degenerates to a constant predictor.
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError>;

    /// Fits with a pre-built, shared [`BinnedDataset`] over the same `x`.
    ///
    /// Tree-based families use `binned` for histogram split finding when
    /// their configuration asks for it, avoiding a per-output re-binning
    /// pass inside [`crate::MultiOutputModel`]. The default implementation
    /// ignores `binned` and delegates to [`fit`](Self::fit) — correct for
    /// every family without histogram training.
    ///
    /// # Errors
    ///
    /// Same contract as [`fit`](Self::fit).
    fn fit_binned(&mut self, x: &Matrix, y: &[u8], binned: &BinnedDataset) -> Result<(), MlError> {
        let _ = binned;
        self.fit(x, y)
    }

    /// Probability of the positive class per row of `x`.
    ///
    /// # Errors
    ///
    /// [`MlError::NotFitted`] before `fit`; [`MlError::FeatureMismatch`]
    /// when `x` has a different column count than the training matrix.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError>;

    /// Probability of the positive class for one feature row, bit for bit
    /// what [`predict_proba`](Self::predict_proba) gives that row, without
    /// building a matrix. This is the per-output step of
    /// [`crate::MultiOutputModel::predict_proba_one`].
    ///
    /// `margin` is `Some` only when the caller has already computed the
    /// row's linear margin under [`margin_weights`](Self::margin_weights);
    /// models without margin weights ignore it.
    ///
    /// # Errors
    ///
    /// Same contract as [`predict_proba`](Self::predict_proba).
    fn predict_proba_row(&self, row: &[f64], margin: Option<f64>) -> Result<f64, MlError>;

    /// The weights `[w_0, …, w_{d−1}, bias]` of the linear margin
    /// `bias + Σ xᵢ·wᵢ` (summed bias first, then features in order) this
    /// model's probability is a function of, when it has one.
    /// [`crate::MultiOutputModel`] stacks them across outputs so one pass
    /// over a row computes every output's margin.
    fn margin_weights(&self) -> Option<&[f64]> {
        None
    }

    /// Hard 0/1 predictions (`predict_proba` thresholded at 0.5).
    fn predict(&self, x: &Matrix) -> Result<Vec<u8>, MlError> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| u8::from(p > 0.5))
            .collect())
    }

    /// Hard 0/1 prediction for one feature row, what
    /// [`predict`](Self::predict) gives that row; `margin` as in
    /// [`predict_proba_row`](Self::predict_proba_row).
    ///
    /// # Errors
    ///
    /// Same contract as [`predict_proba`](Self::predict_proba).
    fn predict_row(&self, row: &[f64], margin: Option<f64>) -> Result<u8, MlError> {
        Ok(u8::from(self.predict_proba_row(row, margin)? > 0.5))
    }

    /// Boosting rounds actually fitted, for model families that boost
    /// (telemetry hook; `None` for everything else).
    fn boosting_rounds(&self) -> Option<usize> {
        None
    }

    /// Serializes the full model state (hyperparameters + fitted weights)
    /// with the artifact wire codec. The inverse is
    /// [`ModelKind::decode_classifier`], which dispatches on the family.
    fn encode_state(&self, w: &mut Writer);
}

/// Factory for the model families the paper compares (Sec. IV-A / Fig. 6),
/// keyed so experiment configuration stays declarative.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelKind {
    /// Ordinary least squares used as a scorer ("LinearR").
    LinearR,
    /// L2-regularized logistic regression ("LogisticR").
    LogisticR {
        /// Hyperparameters.
        config: LogisticRegressionConfig,
    },
    /// Gradient boosted trees ("GB").
    GradientBoosting {
        /// Hyperparameters.
        config: GradientBoostingConfig,
    },
    /// Random forest ("RF").
    RandomForest {
        /// Hyperparameters.
        config: RandomForestConfig,
    },
    /// Linear SVM trained with Pegasos, probabilities via Platt scaling
    /// ("SVM").
    Svm {
        /// Hyperparameters.
        config: LinearSvmConfig,
    },
    /// A single CART tree (building block, also pluggable).
    DecisionTree {
        /// Hyperparameters.
        config: DecisionTreeConfig,
    },
    /// The paper's proposed stack: RF + SVM fused through LogisticR
    /// ("HybridRSL", Fig. 4).
    HybridRsl {
        /// Hyperparameters.
        config: HybridRslConfig,
    },
}

impl ModelKind {
    /// Default-configured variants for each named family.
    pub fn linear_r() -> Self {
        ModelKind::LinearR
    }

    /// Logistic regression with defaults.
    pub fn logistic_r() -> Self {
        ModelKind::LogisticR {
            config: LogisticRegressionConfig::default(),
        }
    }

    /// Gradient boosting with defaults.
    pub fn gradient_boosting() -> Self {
        ModelKind::GradientBoosting {
            config: GradientBoostingConfig::default(),
        }
    }

    /// Random forest with defaults.
    pub fn random_forest() -> Self {
        ModelKind::RandomForest {
            config: RandomForestConfig::default(),
        }
    }

    /// Linear SVM with defaults.
    pub fn svm() -> Self {
        ModelKind::Svm {
            config: LinearSvmConfig::default(),
        }
    }

    /// HybridRSL with defaults.
    pub fn hybrid_rsl() -> Self {
        ModelKind::HybridRsl {
            config: HybridRslConfig::default(),
        }
    }

    /// Short display name matching the paper's legend labels.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LinearR => "LinearR",
            ModelKind::LogisticR { .. } => "LogisticR",
            ModelKind::GradientBoosting { .. } => "GB",
            ModelKind::RandomForest { .. } => "RF",
            ModelKind::Svm { .. } => "SVM",
            ModelKind::DecisionTree { .. } => "CART",
            ModelKind::HybridRsl { .. } => "HybridRSL",
        }
    }

    /// The histogram bin budget this family would train with, or `None`
    /// when it uses no histogram split finding. [`crate::MultiOutputModel`]
    /// uses this to decide whether to build one shared [`BinnedDataset`]
    /// up front.
    pub fn histogram_bins(&self) -> Option<u16> {
        match self {
            ModelKind::GradientBoosting { config } => config.split.bins(),
            ModelKind::RandomForest { config } => config.tree.split.bins(),
            ModelKind::DecisionTree { config } => config.split.bins(),
            ModelKind::HybridRsl { config } => config.forest.tree.split.bins(),
            _ => None,
        }
    }

    /// Instantiates an unfitted classifier; `seed` controls any internal
    /// randomness (bootstraps, shuffles) for reproducibility.
    pub fn build(&self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ModelKind::LinearR => Box::new(LinearRegressionClassifier::default()),
            ModelKind::LogisticR { config } => {
                Box::new(LogisticRegression::with_config(config.clone()))
            }
            ModelKind::GradientBoosting { config } => {
                Box::new(GradientBoosting::with_config(config.clone(), seed))
            }
            ModelKind::RandomForest { config } => {
                Box::new(RandomForest::with_config(config.clone(), seed))
            }
            ModelKind::Svm { config } => Box::new(LinearSvm::with_config(config.clone(), seed)),
            ModelKind::DecisionTree { config } => {
                Box::new(DecisionTree::with_config(config.clone(), seed))
            }
            ModelKind::HybridRsl { config } => {
                Box::new(HybridRsl::with_config(config.clone(), seed))
            }
        }
    }

    /// Decodes one classifier of this family from bytes produced by
    /// [`Classifier::encode_state`]. The encoded state carries its own
    /// hyperparameters, so only the family dispatch comes from `self`.
    pub fn decode_classifier(
        &self,
        r: &mut Reader<'_>,
    ) -> Result<Box<dyn Classifier>, ArtifactError> {
        Ok(match self {
            ModelKind::LinearR => Box::new(LinearRegressionClassifier::decode(r)?),
            ModelKind::LogisticR { .. } => Box::new(LogisticRegression::decode(r)?),
            ModelKind::GradientBoosting { .. } => Box::new(GradientBoosting::decode(r)?),
            ModelKind::RandomForest { .. } => Box::new(RandomForest::decode(r)?),
            ModelKind::Svm { .. } => Box::new(LinearSvm::decode(r)?),
            ModelKind::DecisionTree { .. } => Box::new(DecisionTree::decode(r)?),
            ModelKind::HybridRsl { .. } => Box::new(HybridRsl::decode(r)?),
        })
    }
}

impl Codec for ModelKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            ModelKind::LinearR => w.u8(0),
            ModelKind::LogisticR { config } => {
                w.u8(1);
                config.encode(w);
            }
            ModelKind::GradientBoosting { config } => {
                w.u8(2);
                config.encode(w);
            }
            ModelKind::RandomForest { config } => {
                w.u8(3);
                config.encode(w);
            }
            ModelKind::Svm { config } => {
                w.u8(4);
                config.encode(w);
            }
            ModelKind::DecisionTree { config } => {
                w.u8(5);
                config.encode(w);
            }
            ModelKind::HybridRsl { config } => {
                w.u8(6);
                config.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.u8()? {
            0 => ModelKind::LinearR,
            1 => ModelKind::LogisticR {
                config: Codec::decode(r)?,
            },
            2 => ModelKind::GradientBoosting {
                config: Codec::decode(r)?,
            },
            3 => ModelKind::RandomForest {
                config: Codec::decode(r)?,
            },
            4 => ModelKind::Svm {
                config: Codec::decode(r)?,
            },
            5 => ModelKind::DecisionTree {
                config: Codec::decode(r)?,
            },
            6 => ModelKind::HybridRsl {
                config: Codec::decode(r)?,
            },
            tag => {
                return Err(ArtifactError::Malformed {
                    reason: format!("unknown model-kind tag {tag}"),
                })
            }
        })
    }
}

/// Shared helpers for the model implementations.
pub(crate) mod util {
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::error::MlError;
    use crate::matrix::Matrix;

    /// Numerically-stable logistic sigmoid.
    #[inline]
    pub fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    /// Validates `fit` inputs and returns the positive count.
    pub fn check_fit(x: &Matrix, y: &[u8]) -> Result<usize, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if x.rows() != y.len() {
            return Err(MlError::DimensionMismatch {
                samples: x.rows(),
                labels: y.len(),
            });
        }
        Ok(y.iter().filter(|&&v| v == 1).count())
    }

    /// Validates `predict` inputs against the trained feature count.
    pub fn check_predict(x: &Matrix, trained_cols: Option<usize>) -> Result<usize, MlError> {
        check_width(x.cols(), trained_cols)?;
        Ok(x.cols())
    }

    /// Validates the width of one `predict` row against the trained
    /// feature count.
    pub fn check_width(got: usize, trained_cols: Option<usize>) -> Result<(), MlError> {
        let expected = trained_cols.ok_or(MlError::NotFitted)?;
        if got != expected {
            return Err(MlError::FeatureMismatch { expected, got });
        }
        Ok(())
    }

    /// The linear margin `bias + Σ xᵢ·wᵢ` of `features` under `w` (one
    /// weight per feature, then the bias), summed bias first and then in
    /// feature order: the one summation order every linear family and
    /// [`crate::MultiOutputModel`]'s stacked margins share.
    #[inline]
    pub fn linear_margin<'a>(features: impl IntoIterator<Item = &'a f64>, w: &[f64]) -> f64 {
        let mut m = w[w.len() - 1];
        for (xi, wi) in features.into_iter().zip(w) {
            m += xi * wi;
        }
        m
    }

    /// One row's linear margin under the fitted weights `w` (see
    /// [`linear_margin`]): `margin` when the caller already stacked it,
    /// computed here otherwise. Checks that the model is fitted and the
    /// row as wide as the weights.
    pub fn row_margin(w: Option<&[f64]>, row: &[f64], margin: Option<f64>) -> Result<f64, MlError> {
        let w = w.ok_or(MlError::NotFitted)?;
        check_width(row.len(), Some(w.len() - 1))?;
        Ok(margin.unwrap_or_else(|| linear_margin(row, w)))
    }

    /// Builds a class-balanced index list by oversampling the minority class
    /// (leak labels are heavily imbalanced: a handful of leaky nodes out of
    /// hundreds). Caps the oversampling factor at 10× to bound cost.
    pub fn balanced_indices(y: &[u8], rng: &mut StdRng) -> Vec<usize> {
        let pos: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 1).collect();
        let neg: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 0).collect();
        if pos.is_empty() || neg.is_empty() {
            return (0..y.len()).collect();
        }
        let (minority, majority) = if pos.len() < neg.len() {
            (&pos, &neg)
        } else {
            (&neg, &pos)
        };
        let target = majority.len().min(minority.len() * 10);
        let mut idx: Vec<usize> = majority.iter().chain(minority.iter()).copied().collect();
        for _ in minority.len()..target {
            idx.push(minority[rng.random_range(0..minority.len())]);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::util::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn check_fit_catches_mismatches() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(matches!(
            check_fit(&x, &[1]),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert_eq!(check_fit(&x, &[1, 0]).unwrap(), 1);
        let empty = Matrix::with_cols(1);
        assert!(matches!(
            check_fit(&empty, &[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn balanced_indices_oversample_minority() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut y = vec![0u8; 100];
        y[3] = 1;
        y[17] = 1;
        let idx = balanced_indices(&y, &mut rng);
        let pos = idx.iter().filter(|&&i| y[i] == 1).count();
        // 2 minority samples oversampled up to 10x = 20.
        assert_eq!(pos, 20);
        assert_eq!(idx.iter().filter(|&&i| y[i] == 0).count(), 98);
    }

    #[test]
    fn balanced_indices_identity_for_single_class() {
        let mut rng = StdRng::seed_from_u64(1);
        let y = vec![0u8; 10];
        assert_eq!(balanced_indices(&y, &mut rng).len(), 10);
    }

    #[test]
    fn factory_names_match_paper_legend() {
        assert_eq!(ModelKind::linear_r().name(), "LinearR");
        assert_eq!(ModelKind::logistic_r().name(), "LogisticR");
        assert_eq!(ModelKind::gradient_boosting().name(), "GB");
        assert_eq!(ModelKind::random_forest().name(), "RF");
        assert_eq!(ModelKind::svm().name(), "SVM");
        assert_eq!(ModelKind::hybrid_rsl().name(), "HybridRSL");
    }
}
