//! Multi-output classification: one binary classifier per candidate leak
//! node.
//!
//! "Due to the mutual independence of labels, the problem is then
//! transformed to multiple binary classifications where a binary classifier
//! is trained for each node independently" (Sec. III-B). Training is
//! parallelized across outputs with scoped threads pulling from a shared
//! work queue; results land in per-output slots, so the trained bank — and
//! its serialized bytes — is **identical for any thread count** (the same
//! discipline `DatasetBuilder` uses, tested at {1, 2, 8} threads in
//! `crates/ml/tests/determinism.rs`).
//!
//! When the model family trains on histograms (see
//! [`SplitStrategy`](crate::SplitStrategy)), the feature matrix is
//! quantized **once** into a shared read-only [`BinnedDataset`] under the
//! `ml.train.bin` span, instead of once per output.

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use aqua_telemetry::{TelemetryCtx, Value};
use crossbeam::thread;

use crate::binned::BinnedDataset;
use crate::classifier::util::check_width;
use crate::classifier::{Classifier, ModelKind};
use crate::error::MlError;
use crate::matrix::Matrix;
use crate::sync::OnceLock;
use crate::work::WorkQueue;

/// A bank of per-output binary classifiers sharing one feature matrix —
/// the paper's profile model `f = {f_v : v ∈ V}` (Algorithm 1).
pub struct MultiOutputModel {
    kind: ModelKind,
    models: Vec<Box<dyn Classifier>>,
    /// Every output's margin weights, stacked; derived from `models` by
    /// the first row predict, never encoded.
    margins: OnceLock<Option<StackedMargins>>,
}

/// Outputs per panel of [`StackedMargins`]: the margins one sweep over
/// the row keeps in registers.
const PANEL: usize = 16;

/// The linear-margin weights of every output
/// ([`Classifier::margin_weights`]), transposed so that one pass over a
/// feature row computes all the margins.
///
/// Outputs are grouped in panels of [`PANEL`], the last one padded with
/// zero weights. Within a panel the weights are feature-major:
/// `weights[(p * features + i) * PANEL + j]` is output `p * PANEL + j`'s
/// weight on feature `i`. One sweep per panel starts its margins at their
/// biases and adds one feature at a time across the panel — a contiguous,
/// vectorizable inner loop over accumulators that stay in registers — so
/// each output still sums bias first and then features `0..d` in order,
/// bit for bit the sum
/// [`linear_margin`](crate::classifier::util::linear_margin) takes.
struct StackedMargins {
    outputs: usize,
    features: usize,
    bias: Vec<f64>,
    weights: Vec<f64>,
}

impl StackedMargins {
    /// Stacks the models' margin weights; `None` unless every model has
    /// them and all are equally wide, with at least one feature.
    fn derive(models: &[Box<dyn Classifier>]) -> Option<StackedMargins> {
        let per_output: Vec<&[f64]> = models
            .iter()
            .map(|m| m.margin_weights())
            .collect::<Option<_>>()?;
        let width = per_output.first()?.len();
        if width < 2 || per_output.iter().any(|w| w.len() != width) {
            return None;
        }
        let (features, outputs) = (width - 1, per_output.len());
        let panels = outputs.div_ceil(PANEL);
        let mut bias = vec![0.0; panels * PANEL];
        let mut weights = vec![0.0; panels * features * PANEL];
        for (v, w) in per_output.iter().enumerate() {
            let (p, j) = (v / PANEL, v % PANEL);
            bias[v] = w[features];
            for (i, &wi) in w[..features].iter().enumerate() {
                weights[(p * features + i) * PANEL + j] = wi;
            }
        }
        Some(StackedMargins {
            outputs,
            features,
            bias,
            weights,
        })
    }

    /// Every output's margin for `row`.
    fn margins(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        check_width(row.len(), Some(self.features))?;
        let mut margins = Vec::with_capacity(self.bias.len());
        let panels = self.weights.chunks_exact(self.features * PANEL);
        for (bias, panel) in self.bias.chunks_exact(PANEL).zip(panels) {
            let mut acc = [0.0; PANEL];
            acc.copy_from_slice(bias);
            for (&x, w) in row.iter().zip(panel.chunks_exact(PANEL)) {
                for (m, &wj) in acc.iter_mut().zip(w) {
                    *m += x * wj;
                }
            }
            margins.extend_from_slice(&acc);
        }
        margins.truncate(self.outputs);
        Ok(margins)
    }
}

impl std::fmt::Debug for MultiOutputModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiOutputModel")
            .field("kind", &self.kind.name())
            .field("outputs", &self.models.len())
            .finish()
    }
}

impl MultiOutputModel {
    /// Trains one classifier of `kind` per output (Algorithm 1: `for v in V
    /// do f_v.fit(...)`).
    ///
    /// `labels[v]` is the 0/1 label vector of output `v` over all samples.
    /// `threads` caps the training parallelism (1 = sequential).
    ///
    /// # Errors
    ///
    /// Propagates the first per-output fit error.
    pub fn fit(
        kind: ModelKind,
        x: &Matrix,
        labels: &[Vec<u8>],
        seed: u64,
        threads: usize,
    ) -> Result<Self, MlError> {
        Self::fit_traced(kind, x, labels, seed, threads, TelemetryCtx::none())
    }

    /// [`fit`](Self::fit) with telemetry: wraps training in an `ml.train`
    /// span and records per-output fit time (`ml.train.fit_s` histogram),
    /// output count (`ml.train.outputs`) and — for boosted families —
    /// total boosting rounds (`ml.train.boosting_rounds`). With
    /// [`TelemetryCtx::none`] this *is* `fit`.
    ///
    /// # Errors
    ///
    /// Propagates the first per-output fit error.
    pub fn fit_traced(
        kind: ModelKind,
        x: &Matrix,
        labels: &[Vec<u8>],
        seed: u64,
        threads: usize,
        tel: TelemetryCtx<'_>,
    ) -> Result<Self, MlError> {
        if labels.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        for y in labels {
            if y.len() != x.rows() {
                return Err(MlError::DimensionMismatch {
                    samples: x.rows(),
                    labels: y.len(),
                });
            }
        }
        let span = tel.span("ml.train");
        let tel = span.ctx();
        let threads = threads.max(1).min(labels.len());
        let n_out = labels.len();

        // One shared read-only binned view when the family's trees train
        // on histograms — the quantization pass is paid once per corpus,
        // not once per output.
        let binned: Option<BinnedDataset> = kind.histogram_bins().map(|bins| {
            let bin_span = tel.span("ml.train.bin");
            let b = BinnedDataset::build(x, bins);
            drop(bin_span);
            b
        });
        let binned = binned.as_ref();

        let mut results: Vec<Option<Result<Box<dyn Classifier>, MlError>>> =
            (0..n_out).map(|_| None).collect();

        // Times one fit; pushes seconds into `durs` only when telemetry is
        // live (the disabled path never touches the clock). The per-output
        // event carries only deterministic fields (index, boosting rounds)
        // keyed by the output index, so the flushed JSONL stream is
        // byte-identical for any thread count.
        let fit_one = |v: usize, durs: &mut Vec<f64>| -> Result<Box<dyn Classifier>, MlError> {
            let t0 = tel.now_ns();
            let mut model = kind.build(seed.wrapping_add(v as u64));
            let fitted = match binned {
                Some(b) => model.fit_binned(x, &labels[v], b),
                None => model.fit(x, &labels[v]),
            }
            .map(|()| model);
            if let (Some(t0), Some(t1)) = (t0, tel.now_ns()) {
                durs.push(t1.saturating_sub(t0) as f64 / 1e9);
            }
            if tel.enabled() {
                if let Ok(model) = &fitted {
                    tel.emit(
                        v as u64,
                        "ml.train.output",
                        &[
                            ("output", Value::from(v)),
                            ("rounds", Value::from(model.boosting_rounds().unwrap_or(0))),
                        ],
                    );
                }
            }
            fitted
        };

        if threads == 1 {
            let mut durs = Vec::new();
            for (v, slot) in results.iter_mut().enumerate() {
                *slot = Some(fit_one(v, &mut durs));
            }
            tel.observe_many("ml.train.fit_s", &durs);
        } else {
            // Work queue: each worker claims the next untrained output, so
            // an expensive output never serializes a whole chunk behind it.
            // Every output's result depends only on its index (seed
            // derivation included), and results land in index slots — the
            // trained bank is identical for any claim interleaving.
            type WorkerOut = Vec<(usize, Result<Box<dyn Classifier>, MlError>)>;
            let queue = WorkQueue::new(n_out);
            let queue = &queue;
            let fit_one = &fit_one;
            let worker_results: Vec<WorkerOut> = thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(move |_| {
                            let mut out = Vec::new();
                            // One histogram flush per worker, not per
                            // output.
                            let mut durs = Vec::new();
                            while let Some(v) = queue.claim() {
                                out.push((v, fit_one(v, &mut durs)));
                            }
                            tel.observe_many("ml.train.fit_s", &durs);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // audit: unwrap-ok(worker panics are training bugs; propagate them)
                    .map(|h| h.join().expect("training threads do not panic"))
                    .collect()
            })
            // audit: unwrap-ok(worker panics are training bugs; propagate them)
            .expect("training threads do not panic");
            for (v, res) in worker_results.into_iter().flatten() {
                results[v] = Some(res);
            }
        }

        let mut models = Vec::with_capacity(n_out);
        for slot in results {
            // audit: unwrap-ok(WorkQueue::claim hands out every index exactly once)
            models.push(slot.expect("every output trained")?);
        }
        if tel.enabled() {
            tel.add("ml.train.outputs", n_out as u64);
            let rounds: u64 = models
                .iter()
                .filter_map(|m| m.boosting_rounds())
                .map(|r| r as u64)
                .sum();
            if rounds > 0 {
                tel.add("ml.train.boosting_rounds", rounds);
            }
        }
        Ok(MultiOutputModel::new(kind, models))
    }

    /// The model family used for every output.
    pub fn kind(&self) -> &ModelKind {
        &self.kind
    }

    /// Number of outputs (candidate leak nodes).
    pub fn outputs(&self) -> usize {
        self.models.len()
    }

    /// Per-output positive-class probabilities: `result[v][sample]`
    /// (Algorithm 2's `predict_proba`).
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>, MlError> {
        self.models.iter().map(|m| m.predict_proba(x)).collect()
    }

    /// Per-output hard predictions: `result[v][sample]` (Algorithm 2's
    /// `predict`), computed row by row through the same kernel as
    /// [`predict_proba_one`](Self::predict_proba_one).
    pub fn predict(&self, x: &Matrix) -> Result<Vec<Vec<u8>>, MlError> {
        if x.rows() == 0 {
            // No row to check the width on: let each model check it.
            return self.models.iter().map(|m| m.predict(x)).collect();
        }
        let mut labels = vec![Vec::with_capacity(x.rows()); self.models.len()];
        for row in x.iter_rows() {
            let row_labels = self.per_output(row, |m, margin| m.predict_row(row, margin))?;
            for (column, label) in labels.iter_mut().zip(row_labels) {
                column.push(label);
            }
        }
        Ok(labels)
    }

    /// Probabilities for a single sample across all outputs — the leak
    /// probability vector `P = {p_v(1)}` Algorithm 2 manipulates.
    ///
    /// One pass over the row computes every output's linear margin when
    /// the family has one (see [`Classifier::margin_weights`]); each
    /// output then finishes its probability from the row and its margin
    /// without allocating. The result equals [`predict_proba`] on a
    /// one-row matrix bit for bit.
    ///
    /// # Errors
    ///
    /// [`MlError::FeatureMismatch`] when `features` is not as wide as the
    /// training matrix.
    ///
    /// [`predict_proba`]: Self::predict_proba
    pub fn predict_proba_one(&self, features: &[f64]) -> Result<Vec<f64>, MlError> {
        self.per_output(features, |m, margin| m.predict_proba_row(features, margin))
    }

    /// Runs `step` for every output in output order, handing each the
    /// row's margin under its weights when the margins are stacked.
    fn per_output<T>(
        &self,
        row: &[f64],
        step: impl Fn(&dyn Classifier, Option<f64>) -> Result<T, MlError>,
    ) -> Result<Vec<T>, MlError> {
        match self.stacked_margins() {
            Some(stacked) => {
                let margins = stacked.margins(row)?;
                let outputs = self.models.iter().zip(margins);
                outputs
                    .map(|(m, margin)| step(m.as_ref(), Some(margin)))
                    .collect()
            }
            None => self.models.iter().map(|m| step(m.as_ref(), None)).collect(),
        }
    }

    /// The stacked margins, derived once, on first use. Deriving them
    /// at fit instead put the ~1.5 MiB transposed copy (WSSC) into the
    /// training and artifact-encoding allocation peaks and raised the
    /// peak resident set of a train-encode-decode cycle by ~1 MiB.
    fn stacked_margins(&self) -> Option<&StackedMargins> {
        self.margins
            .get_or_init(|| StackedMargins::derive(&self.models))
            .as_ref()
    }

    fn new(kind: ModelKind, models: Vec<Box<dyn Classifier>>) -> Self {
        MultiOutputModel {
            kind,
            models,
            margins: OnceLock::new(),
        }
    }
}

impl Codec for MultiOutputModel {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        w.len_prefix(self.models.len());
        for model in &self.models {
            // Length-prefix each model so a short state cannot bleed into
            // its neighbour on decode.
            let mut body = Writer::new();
            model.encode_state(&mut body);
            w.len_prefix(body.len());
            w.raw(&body.into_bytes());
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let kind = ModelKind::decode(r)?;
        let count = r.len_prefix(1)?;
        let mut models = Vec::with_capacity(count);
        for _ in 0..count {
            let len = r.len_prefix(1)?;
            let mut body = Reader::new(r.take(len)?);
            models.push(kind.decode_classifier(&mut body)?);
            body.finish()?;
        }
        Ok(MultiOutputModel::new(kind, models))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three outputs keyed to simple feature rules.
    fn data(n: usize) -> (Matrix, Vec<Vec<u8>>) {
        let mut rows = Vec::new();
        let mut y0 = Vec::new();
        let mut y1 = Vec::new();
        let mut y2 = Vec::new();
        for i in 0..n {
            let a = (i as f64 * 0.17).sin();
            let b = (i as f64 * 0.29).cos();
            rows.push(vec![a, b]);
            y0.push(u8::from(a > 0.0));
            y1.push(u8::from(b > 0.0));
            y2.push(u8::from(a + b > 0.0));
        }
        (Matrix::from_vec_rows(rows), vec![y0, y1, y2])
    }

    #[test]
    fn fits_one_model_per_output() {
        let (x, labels) = data(200);
        let model = MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 1).unwrap();
        assert_eq!(model.outputs(), 3);
        let preds = model.predict(&x).unwrap();
        for (v, y) in labels.iter().enumerate() {
            let acc =
                preds[v].iter().zip(y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
            assert!(acc > 0.95, "output {v} accuracy {acc}");
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (x, labels) = data(150);
        let seq = MultiOutputModel::fit(ModelKind::random_forest(), &x, &labels, 7, 1).unwrap();
        let par = MultiOutputModel::fit(ModelKind::random_forest(), &x, &labels, 7, 4).unwrap();
        assert_eq!(
            seq.predict_proba(&x).unwrap(),
            par.predict_proba(&x).unwrap()
        );
    }

    #[test]
    fn predict_proba_one_matches_batch() {
        let (x, labels) = data(100);
        let model = MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 2).unwrap();
        let batch = model.predict_proba(&x).unwrap();
        let single = model.predict_proba_one(x.row(5)).unwrap();
        for v in 0..3 {
            assert!((batch[v][5] - single[v]).abs() < 1e-12);
        }
    }

    #[test]
    fn traced_fit_records_training_metrics() {
        let (x, labels) = data(120);
        let hub = aqua_telemetry::TelemetryHub::new();
        let model = MultiOutputModel::fit_traced(
            ModelKind::gradient_boosting(),
            &x,
            &labels,
            3,
            2,
            hub.ctx(),
        )
        .unwrap();
        let snap = hub.metrics_snapshot();
        assert_eq!(snap.counter("ml.train.outputs"), 3);
        assert_eq!(snap.histogram("ml.train.fit_s").unwrap().count, 3);
        let rounds: u64 = model
            .models
            .iter()
            .filter_map(|m| m.boosting_rounds())
            .map(|r| r as u64)
            .sum();
        assert!(rounds > 0);
        assert_eq!(snap.counter("ml.train.boosting_rounds"), rounds);
        assert_eq!(hub.span_tree()[0].name, "ml.train");
    }

    #[test]
    fn linear_families_stack_their_margins() {
        let (x, labels) = data(60);
        for kind in [
            ModelKind::linear_r(),
            ModelKind::logistic_r(),
            ModelKind::svm(),
            ModelKind::hybrid_rsl(),
        ] {
            let model = MultiOutputModel::fit(kind, &x, &labels, 1, 1).unwrap();
            assert!(model.stacked_margins().is_some(), "{}", model.kind().name());
        }
        let rf = MultiOutputModel::fit(ModelKind::random_forest(), &x, &labels, 1, 1).unwrap();
        assert!(rf.stacked_margins().is_none());
    }

    #[test]
    fn wrong_width_row_is_a_feature_mismatch() {
        let (x, labels) = data(60);
        for kind in [ModelKind::hybrid_rsl(), ModelKind::random_forest()] {
            let model = MultiOutputModel::fit(kind, &x, &labels, 1, 1).unwrap();
            for row in [&[0.5][..], &[0.5, 0.5, 0.5]] {
                assert_eq!(
                    model.predict_proba_one(row),
                    Err(MlError::FeatureMismatch {
                        expected: 2,
                        got: row.len()
                    })
                );
            }
        }
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let (x, mut labels) = data(50);
        labels[1].pop();
        assert!(matches!(
            MultiOutputModel::fit(ModelKind::logistic_r(), &x, &labels, 0, 1),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_outputs_rejected() {
        let (x, _) = data(10);
        assert!(matches!(
            MultiOutputModel::fit(ModelKind::logistic_r(), &x, &[], 0, 1),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn every_model_family_round_trips_bitwise_through_the_codec() {
        let (x, labels) = data(80);
        for kind in [
            ModelKind::linear_r(),
            ModelKind::logistic_r(),
            ModelKind::gradient_boosting(),
            ModelKind::random_forest(),
            ModelKind::svm(),
            ModelKind::DecisionTree {
                config: crate::DecisionTreeConfig::default(),
            },
            ModelKind::hybrid_rsl(),
        ] {
            let name = kind.name();
            let model = MultiOutputModel::fit(kind, &x, &labels, 11, 2).unwrap();
            let mut w = Writer::new();
            model.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = MultiOutputModel::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.kind(), model.kind(), "{name}");
            assert_eq!(back.outputs(), model.outputs(), "{name}");
            let orig = model.predict_proba(&x).unwrap();
            let loaded = back.predict_proba(&x).unwrap();
            for (a, b) in orig.iter().flatten().zip(loaded.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} probabilities drifted");
            }
            // The row kernel (stacked margins, lockstep trees) reproduces
            // the per-output matrix path bit for bit, before and after
            // the round trip, and so do the hard labels.
            for m in [&model, &back] {
                for (r, row) in x.iter_rows().enumerate() {
                    let one = m.predict_proba_one(row).unwrap();
                    for (v, p) in one.iter().enumerate() {
                        assert_eq!(
                            p.to_bits(),
                            orig[v][r].to_bits(),
                            "{name} output {v} row {r}"
                        );
                    }
                }
                let per_output: Vec<Vec<u8>> =
                    m.models.iter().map(|c| c.predict(&x).unwrap()).collect();
                assert_eq!(m.predict(&x).unwrap(), per_output, "{name} labels");
            }
            // Re-encoding the decoded model reproduces the exact bytes:
            // encode is a pure function of model state.
            let mut w2 = Writer::new();
            back.encode(&mut w2);
            assert_eq!(w2.into_bytes(), bytes, "{name} re-encode differs");
        }
    }
}
