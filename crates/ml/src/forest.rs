//! Random forest (the paper's "RF").

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binned::BinnedDataset;
use crate::classifier::util::{balanced_indices, check_fit, check_predict, check_width};
use crate::classifier::Classifier;
use crate::error::MlError;
use crate::matrix::Matrix;
use crate::tree::{Criterion, DecisionTreeConfig, SplitStrategy, TreeArena};

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Per-tree growth parameters; `max_features = None` here means √d
    /// (the forest default), unlike the standalone tree.
    pub tree: DecisionTreeConfig,
    /// Class-balance each bootstrap sample.
    pub balance_classes: bool,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 25,
            tree: DecisionTreeConfig {
                max_depth: 10,
                min_samples_split: 4,
                max_features: None,
                balance_classes: false, // balancing handled at the bootstrap
                split: SplitStrategy::histogram(),
            },
            balance_classes: true,
        }
    }
}

/// A bagging ensemble of CART trees with √d feature subsampling.
///
/// The paper selects RF as one of the two HybridRSL base learners because it
/// "remain\[s\] robust with decreasing number of IoT sensors".
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    seed: u64,
    trees: TreeArena,
    n_features: Option<usize>,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn with_config(config: RandomForestConfig, seed: u64) -> Self {
        RandomForest {
            config,
            seed,
            trees: TreeArena::new(0),
            n_features: None,
        }
    }

    /// Number of grown trees (after fit).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Mean leaf value over the trees, walked in lockstep; `row` must be
    /// as wide as the training matrix.
    fn proba_row(&self, row: &[f64]) -> f64 {
        self.trees.leaf_values(row).sum::<f64>() / self.trees.len() as f64
    }
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest::with_config(RandomForestConfig::default(), 0)
    }
}

impl RandomForest {
    /// Shared fit body; `shared` is an optional pre-built binned view of
    /// `x`.
    fn fit_impl(
        &mut self,
        x: &Matrix,
        y: &[u8],
        shared: Option<&BinnedDataset>,
    ) -> Result<(), MlError> {
        check_fit(x, y)?;
        let targets: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let base: Vec<usize> = if self.config.balance_classes {
            balanced_indices(y, &mut rng)
        } else {
            (0..y.len()).collect()
        };
        let sqrt_features = ((x.cols() as f64).sqrt().ceil() as usize).max(1);
        let mut tree_config = self.config.tree.clone();
        if tree_config.max_features.is_none() {
            tree_config.max_features = Some(sqrt_features);
        }

        let owned: BinnedDataset;
        let binned: Option<&BinnedDataset> = match (tree_config.split.bins(), shared) {
            (None, _) => None,
            (Some(_), Some(b)) => Some(b),
            (Some(bins), None) => {
                owned = BinnedDataset::build(x, bins);
                Some(&owned)
            }
        };

        let mut trees = TreeArena::new(x.cols());
        for t in 0..self.config.n_trees {
            let mut tree_rng = StdRng::seed_from_u64(
                self.seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1),
            );
            // Bootstrap over the (balanced) base index set.
            let sample: Vec<usize> = (0..base.len())
                .map(|_| base[tree_rng.random_range(0..base.len())])
                .collect();
            match binned {
                Some(b) => trees.grow_binned(
                    b,
                    &targets,
                    &sample,
                    Criterion::Gini,
                    &tree_config,
                    &mut tree_rng,
                ),
                None => trees.grow(
                    x,
                    &targets,
                    &sample,
                    Criterion::Gini,
                    &tree_config,
                    &mut tree_rng,
                ),
            }
        }
        trees.shrink_to_fit();
        self.trees = trees;
        self.n_features = Some(x.cols());
        Ok(())
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        self.fit_impl(x, y, None)
    }

    fn fit_binned(&mut self, x: &Matrix, y: &[u8], binned: &BinnedDataset) -> Result<(), MlError> {
        self.fit_impl(x, y, Some(binned))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        check_predict(x, self.n_features)?;
        Ok(x.iter_rows().map(|row| self.proba_row(row)).collect())
    }

    fn predict_proba_row(&self, row: &[f64], _margin: Option<f64>) -> Result<f64, MlError> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        check_width(row.len(), self.n_features)?;
        Ok(self.proba_row(row))
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for RandomForestConfig {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.n_trees);
        self.tree.encode(w);
        w.bool(self.balance_classes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(RandomForestConfig {
            n_trees: usize::decode(r)?,
            tree: Codec::decode(r)?,
            balance_classes: r.bool()?,
        })
    }
}

impl Codec for RandomForest {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.u64(self.seed);
        self.trees.encode(w);
        self.n_features.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let forest = RandomForest {
            config: Codec::decode(r)?,
            seed: r.u64()?,
            trees: Codec::decode(r)?,
            n_features: Codec::decode(r)?,
        };
        forest.trees.check_width(forest.n_features)?;
        Ok(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize) -> (Matrix, Vec<u8>) {
        // Points inside radius 1 are positive — nonlinear boundary.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let a = (i as f64 * 0.7).sin() * 2.0;
            let b = (i as f64 * 1.3).cos() * 2.0;
            rows.push(vec![a, b]);
            labels.push(u8::from(a * a + b * b < 1.0));
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn forest_learns_nonlinear_boundary() {
        let (x, y) = ring_data(300);
        let mut rf = RandomForest::default();
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(
            correct as f64 / y.len() as f64 > 0.95,
            "accuracy {}",
            correct as f64 / y.len() as f64
        );
    }

    #[test]
    fn forest_probability_is_tree_average() {
        let (x, y) = ring_data(100);
        let mut rf = RandomForest::with_config(
            RandomForestConfig {
                n_trees: 7,
                ..Default::default()
            },
            3,
        );
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.tree_count(), 7);
        for p in rf.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let (x, y) = ring_data(120);
        let mut a = RandomForest::with_config(RandomForestConfig::default(), 5);
        let mut b = RandomForest::with_config(RandomForestConfig::default(), 5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
        let mut c = RandomForest::with_config(RandomForestConfig::default(), 6);
        c.fit(&x, &y).unwrap();
        assert_ne!(a.predict_proba(&x).unwrap(), c.predict_proba(&x).unwrap());
    }

    #[test]
    fn unfitted_forest_errors() {
        let x = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert_eq!(
            RandomForest::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn decode_rejects_trees_narrower_than_the_forest() {
        let (x, y) = ring_data(60);
        let mut rf = RandomForest::default();
        rf.fit(&x, &y).unwrap();
        let mut w = Writer::new();
        rf.encode(&mut w);
        let mut bytes = w.into_bytes();
        // The encoding ends with the forest's own width, `Some(2)`.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            RandomForest::decode(&mut Reader::new(&bytes)),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn forest_beats_single_tree_out_of_sample() {
        let (x, y) = ring_data(400);
        let (xt, yt) = ring_data(397); // phase-shifted points, same law
        let mut rf = RandomForest::default();
        rf.fit(&x, &y).unwrap();
        let rf_acc = rf
            .predict(&xt)
            .unwrap()
            .iter()
            .zip(&yt)
            .filter(|(a, b)| a == b)
            .count() as f64
            / yt.len() as f64;
        assert!(rf_acc > 0.9, "rf out-of-sample accuracy {rf_acc}");
    }
}
