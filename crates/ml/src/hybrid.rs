//! The paper's proposed HybridRSL stack (Fig. 4).
//!
//! "The same dataset is trained and predicted by RF and SVM separately, and
//! their predicted results, i.e. leak probabilities for each node, are then
//! aggregated as a new feature set and input into LogisticR for further
//! learning." RF and SVM are chosen because they "remain robust with
//! decreasing number of IoT sensors", and LogisticR because it "has low
//! variances and is less prone to overfitting".

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};

use crate::binned::BinnedDataset;
use crate::classifier::Classifier;
use crate::error::MlError;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::linear::{LogisticRegression, LogisticRegressionConfig};
use crate::matrix::Matrix;
use crate::svm::{LinearSvm, LinearSvmConfig};

/// Hyperparameters for [`HybridRsl`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HybridRslConfig {
    /// Base random forest.
    pub forest: RandomForestConfig,
    /// Base SVM.
    pub svm: LinearSvmConfig,
    /// Fusion logistic regression.
    pub fusion: LogisticRegressionConfig,
    /// Also feed the raw features to the fusion layer alongside the two
    /// base probabilities (false reproduces the paper's sketch exactly).
    pub passthrough_features: bool,
}

/// The stacked RF + SVM → LogisticR classifier.
#[derive(Debug, Clone)]
pub struct HybridRsl {
    config: HybridRslConfig,
    forest: RandomForest,
    svm: LinearSvm,
    fusion: LogisticRegression,
    fitted: bool,
}

impl HybridRsl {
    /// Creates an unfitted stack; `seed` derives the base-learner seeds.
    pub fn with_config(config: HybridRslConfig, seed: u64) -> Self {
        HybridRsl {
            forest: RandomForest::with_config(config.forest.clone(), seed ^ 0xF0),
            svm: LinearSvm::with_config(config.svm.clone(), seed ^ 0x51),
            fusion: LogisticRegression::with_config(config.fusion.clone()),
            config,
            fitted: false,
        }
    }

    fn meta_features(&self, x: &Matrix) -> Result<Matrix, MlError> {
        let rf_p = self.forest.predict_proba(x)?;
        let svm_p = self.svm.predict_proba(x)?;
        let mut meta = Matrix::with_cols(2);
        for (a, b) in rf_p.iter().zip(&svm_p) {
            meta.push_row(&[*a, *b]);
        }
        if self.config.passthrough_features {
            Ok(meta.hconcat(x))
        } else {
            Ok(meta)
        }
    }
}

impl Default for HybridRsl {
    fn default() -> Self {
        HybridRsl::with_config(HybridRslConfig::default(), 0)
    }
}

impl Classifier for HybridRsl {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.forest.fit(x, y)?;
        self.svm.fit(x, y)?;
        let meta = self.meta_features(x)?;
        self.fusion.fit(&meta, y)?;
        self.fitted = true;
        Ok(())
    }

    fn fit_binned(&mut self, x: &Matrix, y: &[u8], binned: &BinnedDataset) -> Result<(), MlError> {
        // Only the forest base learner grows trees; SVM and the fusion
        // layer train on raw features / meta-probabilities.
        self.forest.fit_binned(x, y, binned)?;
        self.svm.fit(x, y)?;
        let meta = self.meta_features(x)?;
        self.fusion.fit(&meta, y)?;
        self.fitted = true;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let meta = self.meta_features(x)?;
        self.fusion.predict_proba(&meta)
    }

    /// The same arithmetic as [`predict_proba`](Self::predict_proba) on
    /// one row, with no meta matrix: the forest walks its trees in
    /// lockstep, the SVM takes `margin` when the caller stacked it, and
    /// the fusion layer reads the meta features in place.
    fn predict_proba_row(&self, row: &[f64], margin: Option<f64>) -> Result<f64, MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        let meta = [
            self.forest.predict_proba_row(row, None)?,
            self.svm.predict_proba_row(row, margin)?,
        ];
        let passthrough: &[f64] = if self.config.passthrough_features {
            row
        } else {
            &[]
        };
        self.fusion.proba_of(
            meta.len() + passthrough.len(),
            meta.iter().chain(passthrough),
        )
    }

    /// The SVM's weights: the base learner whose margin is linear.
    fn margin_weights(&self) -> Option<&[f64]> {
        self.svm.margin_weights()
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for HybridRslConfig {
    fn encode(&self, w: &mut Writer) {
        self.forest.encode(w);
        self.svm.encode(w);
        self.fusion.encode(w);
        w.bool(self.passthrough_features);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(HybridRslConfig {
            forest: Codec::decode(r)?,
            svm: Codec::decode(r)?,
            fusion: Codec::decode(r)?,
            passthrough_features: r.bool()?,
        })
    }
}

impl Codec for HybridRsl {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.forest.encode(w);
        self.svm.encode(w);
        self.fusion.encode(w);
        w.bool(self.fitted);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(HybridRsl {
            config: Codec::decode(r)?,
            forest: Codec::decode(r)?,
            svm: Codec::decode(r)?,
            fusion: Codec::decode(r)?,
            fitted: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data where one feature is linear-friendly and one is rule-friendly,
    /// so the stack can profit from both base learners.
    fn mixed_data(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let lin = (i as f64 / n as f64) * 4.0 - 2.0;
            let band = ((i * 7) % 10) as f64;
            let label = u8::from(lin > 0.0 || (3.0..5.0).contains(&band));
            rows.push(vec![lin, band]);
            labels.push(label);
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn hybrid_fits_and_predicts() {
        let (x, y) = mixed_data(240);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        let pred = h.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn hybrid_at_least_matches_worse_base_learner() {
        let (x, y) = mixed_data(300);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        let mut rf = RandomForest::default();
        rf.fit(&x, &y).unwrap();
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y).unwrap();
        let acc = |p: Vec<u8>| p.iter().zip(&y).filter(|(a, b)| a == b).count();
        let h_acc = acc(h.predict(&x).unwrap());
        let rf_acc = acc(rf.predict(&x).unwrap());
        let svm_acc = acc(svm.predict(&x).unwrap());
        assert!(
            h_acc >= rf_acc.min(svm_acc),
            "hybrid {h_acc} rf {rf_acc} svm {svm_acc}"
        );
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = mixed_data(150);
        let mut h = HybridRsl::default();
        h.fit(&x, &y).unwrap();
        for p in h.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn passthrough_features_supported() {
        let (x, y) = mixed_data(150);
        let mut h = HybridRsl::with_config(
            HybridRslConfig {
                passthrough_features: true,
                ..Default::default()
            },
            0,
        );
        h.fit(&x, &y).unwrap();
        assert!(h.predict_proba(&x).is_ok());
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert_eq!(
            HybridRsl::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }
}
