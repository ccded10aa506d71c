//! The two-phase AquaSCALE pipeline (Algorithms 1 and 2).

use std::time::Duration;

use aqua_fusion::{tune_events, Clique, TuningConfig, TuningOutcome};
use aqua_hydraulics::SolverOptions;
use aqua_ml::{Matrix, ModelKind, MultiOutputModel, Scaler};
use aqua_net::{Network, NodeId};
use aqua_sensing::{DatasetBuilder, FeatureConfig, LeakDataset, SensorSet};
use aqua_telemetry::{Clock, TelemetryCtx};

use crate::error::AquaError;
use crate::sync::Arc;
use crate::timing::SharedClock;

/// Configuration of an AquaSCALE deployment.
#[derive(Debug, Clone)]
pub struct AquaScaleConfig {
    /// Classifier family for the profile model (paper winner: HybridRSL).
    pub model: ModelKind,
    /// IoT deployment. `None` = full instrumentation.
    pub sensors: Option<SensorSet>,
    /// Phase-I corpus size (paper: 20 000).
    pub train_samples: usize,
    /// Maximum concurrent leak events, `U(1, max)` (paper: 5).
    pub max_events: usize,
    /// Emitter-coefficient range of simulated leaks.
    pub ec_range: (f64, f64),
    /// Elapsed sampling slots `n` between leak start and the live reading.
    pub elapsed_slots: u64,
    /// Feature extraction options.
    pub features: FeatureConfig,
    /// Hydraulic solver options.
    pub solver: SolverOptions,
    /// Warm-start scenario solves from the cached leak-free baseline via
    /// per-thread solver workspaces (default on; see
    /// [`DatasetBuilder::warm_start`]). Disable to reproduce the cold-solve
    /// control arm of the `fig_perf_warmstart` bench.
    pub warm_start: bool,
    /// Fusion knobs (Γ threshold, p(leak|freeze)).
    pub tuning: TuningConfig,
    /// Training/generation parallelism.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for AquaScaleConfig {
    fn default() -> Self {
        AquaScaleConfig {
            model: ModelKind::hybrid_rsl(),
            sensors: None,
            train_samples: 2_000,
            max_events: 5,
            ec_range: (0.002, 0.02),
            elapsed_slots: 1,
            features: FeatureConfig::default(),
            solver: SolverOptions::default(),
            warm_start: true,
            tuning: TuningConfig::default(),
            threads: 4,
            seed: 42,
        }
    }
}

impl AquaScaleConfig {
    /// A demo-sized configuration that trains in seconds (examples, tests).
    pub fn small() -> Self {
        AquaScaleConfig {
            train_samples: 200,
            threads: 4,
            ..Default::default()
        }
    }

    /// The paper-scale configuration: 20 000 training scenarios.
    pub fn paper_scale() -> Self {
        AquaScaleConfig {
            train_samples: 20_000,
            ..Default::default()
        }
    }
}

/// The Phase-I output: the trained profile model `f = {f_v}` plus the
/// feature scaler and deployment metadata needed at inference time.
pub struct ProfileModel {
    pub(crate) model: MultiOutputModel,
    pub(crate) scaler: Scaler,
    /// Candidate leak locations, aligned with probability vectors.
    pub junctions: Vec<NodeId>,
    /// The sensor deployment the profile was trained for.
    pub sensors: SensorSet,
    /// Wall-clock time spent in Phase I (corpus generation + training).
    pub training_time: Duration,
}

impl std::fmt::Debug for ProfileModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileModel")
            .field("model", &self.model)
            .field("junctions", &self.junctions.len())
            .field("sensors", &self.sensors.len())
            .field("training_time", &self.training_time)
            .finish()
    }
}

/// Live external observations supplied to Phase II.
#[derive(Debug, Clone, Default)]
pub struct ExternalObservations {
    /// Per-junction frozen flags (aligned with `ProfileModel::junctions`);
    /// empty = warm weather / no weather feed.
    pub frozen: Vec<bool>,
    /// Subzones implicated by human reports.
    pub cliques: Vec<Clique>,
}

impl ExternalObservations {
    /// No external data: IoT-only inference.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The Phase-II output for one live sample.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Leak probability `p_v(1)` per junction.
    pub p1: Vec<f64>,
    /// The predicted leak set `S` as flags per junction.
    pub predicted: Vec<bool>,
    /// The predicted leak locations as node ids.
    pub leak_nodes: Vec<NodeId>,
    /// Energy before/after event tuning (eq. 9).
    pub energy: (f64, f64),
    /// Wall-clock inference latency (the "minutes not hours" claim is about
    /// this path).
    pub latency: Duration,
}

impl Inference {
    /// Hard label vector (1 = leak) aligned with the profile's junctions.
    pub fn labels(&self) -> Vec<u8> {
        self.predicted.iter().map(|&b| u8::from(b)).collect()
    }
}

/// The AquaSCALE framework bound to one network.
#[derive(Debug, Clone)]
pub struct AquaScale<'a> {
    net: &'a Network,
    config: AquaScaleConfig,
    tel: TelemetryCtx<'a>,
    clock: SharedClock,
}

impl<'a> AquaScale<'a> {
    /// Binds the framework to a network.
    pub fn new(net: &'a Network, config: AquaScaleConfig) -> Self {
        AquaScale {
            net,
            config,
            tel: TelemetryCtx::none(),
            clock: SharedClock::default(),
        }
    }

    /// Replaces the elapsed-time source behind
    /// [`ProfileModel::training_time`] and [`Inference::latency`]; tests
    /// inject a [`ManualClock`](aqua_telemetry::ManualClock) so latency
    /// assertions stay reproducible.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = SharedClock::new(clock);
        self
    }

    /// Attaches a telemetry context: Phase I emits `core.phase1` spans
    /// (with the corpus build and training nested under them) and Phase II
    /// records `core.infer.*` latency metrics. The default
    /// ([`TelemetryCtx::none`]) reduces every hook to one `Option` check.
    pub fn with_telemetry(mut self, tel: TelemetryCtx<'a>) -> Self {
        self.tel = tel;
        self
    }

    /// The attached telemetry context ([`TelemetryCtx::none`] by default).
    pub fn telemetry(&self) -> TelemetryCtx<'a> {
        self.tel
    }

    /// The active configuration.
    pub fn config(&self) -> &AquaScaleConfig {
        &self.config
    }

    /// The network under management.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Resolved sensor deployment.
    pub fn sensors(&self) -> SensorSet {
        self.config
            .sensors
            .clone()
            .unwrap_or_else(|| SensorSet::full(self.net))
    }

    fn dataset_builder(&self, tel: TelemetryCtx<'a>) -> DatasetBuilder<'a> {
        DatasetBuilder::new(self.net, self.sensors())
            .max_events(self.config.max_events)
            .ec_range(self.config.ec_range.0, self.config.ec_range.1)
            .elapsed_slots(self.config.elapsed_slots)
            .feature_config(self.config.features)
            .solver_options(self.config.solver.clone())
            .warm_start(self.config.warm_start)
            .telemetry(tel)
    }

    /// Generates a labeled corpus with this deployment's settings (used for
    /// both training and held-out evaluation; vary `seed`).
    pub fn generate_dataset(&self, samples: usize, seed: u64) -> Result<LeakDataset, AquaError> {
        self.generate_dataset_traced(samples, seed, self.tel)
    }

    fn generate_dataset_traced(
        &self,
        samples: usize,
        seed: u64,
        tel: TelemetryCtx<'a>,
    ) -> Result<LeakDataset, AquaError> {
        if samples == 0 {
            return Err(AquaError::InvalidConfig {
                reason: "dataset size must be positive".into(),
            });
        }
        Ok(self
            .dataset_builder(tel)
            .build(samples, seed, self.config.threads)?)
    }

    /// **Phase I / Algorithm 1** — trains the profile model on a freshly
    /// generated corpus of `train_samples` simulated failure scenarios.
    pub fn train_profile(&self) -> Result<ProfileModel, AquaError> {
        let phase = self.tel.span("core.phase1");
        let tel = phase.ctx();
        let start = self.clock.now_ns();
        let dataset =
            self.generate_dataset_traced(self.config.train_samples, self.config.seed, tel)?;
        let result = self.train_profile_on_traced(&dataset, tel).map(|mut p| {
            p.training_time = self.clock.elapsed_since(start);
            p
        });
        if result.is_ok() {
            tel.observe(
                "core.pipeline.phase1_s",
                self.clock.elapsed_since(start).as_secs_f64(),
            );
        }
        result
    }

    /// Trains the profile on an existing corpus (lets experiments reuse one
    /// expensive corpus across model families).
    pub fn train_profile_on(&self, dataset: &LeakDataset) -> Result<ProfileModel, AquaError> {
        self.train_profile_on_traced(dataset, self.tel)
    }

    fn train_profile_on_traced(
        &self,
        dataset: &LeakDataset,
        tel: TelemetryCtx<'a>,
    ) -> Result<ProfileModel, AquaError> {
        let start = self.clock.now_ns();
        let scaler = Scaler::fit(&dataset.x);
        let x = scaler.transform(&dataset.x);
        let model = MultiOutputModel::fit_traced(
            self.config.model.clone(),
            &x,
            &dataset.labels,
            self.config.seed,
            self.config.threads,
            tel,
        )?;
        Ok(ProfileModel {
            model,
            scaler,
            junctions: dataset.junctions.clone(),
            sensors: self.sensors(),
            training_time: self.clock.elapsed_since(start),
        })
    }

    /// **Phase II / Algorithm 2** — infers leak locations from one live
    /// feature row plus external observations.
    ///
    /// Steps: profile `predict_proba`/`predict` (line 5), Bayes freeze
    /// fusion (lines 6–13), higher-order-potential event tuning with human
    /// cliques (lines 14–26).
    pub fn infer(
        &self,
        profile: &ProfileModel,
        features: &[f64],
        external: &ExternalObservations,
    ) -> Result<Inference, AquaError> {
        let start = self.clock.now_ns();
        let mut row = features.to_vec();
        profile.scaler.transform_row(&mut row)?;
        let p1 = profile.model.predict_proba_one(&row)?;
        let predicted: Vec<bool> = p1.iter().map(|&p| p > 0.5).collect();

        let TuningOutcome {
            p1,
            predicted,
            energy_before,
            energy_after,
            ..
        } = tune_events(
            &p1,
            &predicted,
            &external.frozen,
            &external.cliques,
            &self.config.tuning,
        );

        let leak_nodes: Vec<NodeId> = predicted
            .iter()
            .zip(&profile.junctions)
            .filter(|(&on, _)| on)
            .map(|(_, &j)| j)
            .collect();
        let latency = self.clock.elapsed_since(start);
        if self.tel.enabled() {
            self.tel.add("core.infer.count", 1);
            self.tel
                .observe("core.infer.latency_s", latency.as_secs_f64());
        }
        Ok(Inference {
            p1,
            predicted,
            leak_nodes,
            energy: (energy_before, energy_after),
            latency,
        })
    }

    /// Batch Phase II over a held-out dataset (no external observations) —
    /// returns per-output predictions in [`aqua_ml::metrics`] layout.
    pub fn predict_batch(
        &self,
        profile: &ProfileModel,
        x: &Matrix,
    ) -> Result<Vec<Vec<u8>>, AquaError> {
        let z = profile.scaler.transform(x);
        Ok(profile.model.predict(&z)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_fusion::HumanInputModel;
    use aqua_ml::metrics::hamming_score;
    use aqua_net::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config(model: ModelKind) -> AquaScaleConfig {
        AquaScaleConfig {
            model,
            train_samples: 300,
            max_events: 2,
            threads: 4,
            ..Default::default()
        }
    }

    #[test]
    fn phase1_trains_and_phase2_beats_chance_on_epa_net() {
        let net = synth::epa_net();
        let mut config = quick_config(ModelKind::random_forest());
        config.train_samples = 1_000; // RF needs ~10 positives per node
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().unwrap();
        assert_eq!(profile.junctions.len(), 91);

        let test = aqua.generate_dataset(40, 999).unwrap();
        let pred = aqua.predict_batch(&profile, &test.x).unwrap();
        let score = hamming_score(&pred, &test.labels);
        assert!(score > 0.4, "hamming score {score} too low");
    }

    #[test]
    fn inference_is_fast_and_consistent_with_batch() {
        let net = synth::epa_net();
        let aqua = AquaScale::new(&net, quick_config(ModelKind::logistic_r()));
        let profile = aqua.train_profile().unwrap();
        let test = aqua.generate_dataset(5, 7).unwrap();
        let inf = aqua
            .infer(&profile, test.x.row(0), &ExternalObservations::none())
            .unwrap();
        assert_eq!(inf.p1.len(), 91);
        // Online path agrees with the batch path.
        let batch = aqua.predict_batch(&profile, &test.x).unwrap();
        let batch_row: Vec<u8> = batch.iter().map(|v| v[0]).collect();
        assert_eq!(inf.labels(), batch_row);
        // "Seconds/minutes, not hours": a single inference is sub-second.
        assert!(inf.latency < Duration::from_secs(1), "{:?}", inf.latency);
    }

    #[test]
    fn freeze_evidence_adds_predictions() {
        let net = synth::epa_net();
        let aqua = AquaScale::new(&net, quick_config(ModelKind::logistic_r()));
        let profile = aqua.train_profile().unwrap();
        let test = aqua.generate_dataset(3, 11).unwrap();
        let plain = aqua
            .infer(&profile, test.x.row(0), &ExternalObservations::none())
            .unwrap();
        let frozen = ExternalObservations {
            frozen: vec![true; 91],
            cliques: vec![],
        };
        let fused = aqua.infer(&profile, test.x.row(0), &frozen).unwrap();
        // Odds fusion with p(leak|freeze)=0.9 can only raise probabilities
        // (up to the numerical clamp at p = 1).
        for (a, b) in fused.p1.iter().zip(&plain.p1) {
            assert!(*a >= b - 1e-6, "freeze fusion must not lower belief");
        }
        assert!(fused.leak_nodes.len() >= plain.leak_nodes.len());
    }

    #[test]
    fn human_cliques_force_consistency() {
        let net = synth::epa_net();
        let aqua = AquaScale::new(&net, quick_config(ModelKind::logistic_r()));
        let profile = aqua.train_profile().unwrap();
        let test = aqua.generate_dataset(3, 13).unwrap();

        // Build a clique around a junction that is NOT predicted.
        let plain = aqua
            .infer(&profile, test.x.row(1), &ExternalObservations::none())
            .unwrap();
        let silent = (0..91)
            .find(|&v| !plain.predicted[v])
            .expect("some junction unpredicted");
        let model = HumanInputModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let tweets = model.generate_tweets(&net, &[profile.junctions[silent]], 4, &mut rng);
        let cliques = model.cliques(&net, &profile.junctions, &tweets);
        let external = ExternalObservations {
            frozen: vec![],
            cliques,
        };
        let tuned = aqua.infer(&profile, test.x.row(1), &external).unwrap();
        assert!(
            tuned.leak_nodes.len() > plain.leak_nodes.len(),
            "human report must add at least one predicted node"
        );
        assert!(tuned.energy.1 <= tuned.energy.0);
    }

    #[test]
    fn telemetry_captures_phase1_span_tree_and_metrics() {
        let net = synth::epa_net();
        let hub = aqua_telemetry::TelemetryHub::new();
        let mut config = quick_config(ModelKind::logistic_r());
        config.train_samples = 60;
        let aqua = AquaScale::new(&net, config).with_telemetry(hub.ctx());
        let profile = aqua.train_profile().unwrap();
        let test = aqua.generate_dataset(3, 7).unwrap();
        aqua.infer(&profile, test.x.row(0), &ExternalObservations::none())
            .unwrap();

        // Phase I: corpus build (solve + feature extraction) and training
        // all nest under one `core.phase1` span.
        let tree = hub.span_tree();
        let phase1 = tree.iter().find(|s| s.name == "core.phase1").unwrap();
        assert!(phase1.find("sensing.build").is_some());
        assert!(phase1.find("sensing.solve").is_some());
        assert!(phase1.find("sensing.features").is_some());
        assert!(phase1.find("ml.train").is_some());

        let snap = hub.metrics_snapshot();
        assert!(snap.counter("hydraulics.solver.solves") > 0);
        assert_eq!(snap.counter("ml.train.outputs"), 91);
        assert_eq!(snap.counter("core.infer.count"), 1);
        assert_eq!(snap.histogram("core.infer.latency_s").unwrap().count, 1);
        assert_eq!(snap.histogram("core.pipeline.phase1_s").unwrap().count, 1);
    }

    #[test]
    fn histogram_families_share_one_binning_pass_under_phase1() {
        let net = synth::epa_net();
        let hub = aqua_telemetry::TelemetryHub::new();
        let mut config = quick_config(ModelKind::gradient_boosting());
        config.train_samples = 40;
        let aqua = AquaScale::new(&net, config).with_telemetry(hub.ctx());
        aqua.train_profile().unwrap();

        // The shared corpus quantization runs exactly once, inside the
        // training span of Phase I — never once per output.
        let tree = hub.span_tree();
        let phase1 = tree.iter().find(|s| s.name == "core.phase1").unwrap();
        let train = phase1.find("ml.train").unwrap();
        assert_eq!(
            train
                .children
                .iter()
                .filter(|s| s.name == "ml.train.bin")
                .count(),
            1,
            "one shared ml.train.bin span under ml.train"
        );
        // And every per-output fit is accounted for in the event stream.
        let events = hub.drain_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "ml.train.output")
                .count(),
            91
        );
    }

    #[test]
    fn zero_samples_rejected() {
        let net = synth::epa_net();
        let aqua = AquaScale::new(&net, AquaScaleConfig::small());
        assert!(matches!(
            aqua.generate_dataset(0, 1),
            Err(AquaError::InvalidConfig { .. })
        ));
    }
}
