//! Criterion benches on the AquaSCALE pipeline stages: dataset generation
//! throughput, sensor placement, fusion, and the end-to-end Phase-II
//! inference latency behind the hours-to-minutes claim.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aqua_core::{AquaScale, AquaScaleConfig, ExternalObservations};
use aqua_fusion::{tune_events, Clique, TuningConfig};
use aqua_ml::ModelKind;
use aqua_net::synth;
use aqua_sensing::{k_medoids_placement, DatasetBuilder, PlacementConfig, SensorSet};

fn dataset_generation(c: &mut Criterion) {
    let net = synth::epa_net();
    let builder = DatasetBuilder::new(&net, SensorSet::full(&net)).max_events(5);
    let mut group = c.benchmark_group("dataset_generation");
    group.sample_size(10);
    group.bench_function("epa_net_100_samples_8_threads", |b| {
        b.iter(|| builder.build(black_box(100), 1, 8).unwrap())
    });
    group.bench_function("epa_net_100_samples_1_thread", |b| {
        b.iter(|| builder.build(black_box(100), 1, 1).unwrap())
    });
    group.finish();
}

fn sensor_placement(c: &mut Criterion) {
    let net = synth::epa_net();
    let mut group = c.benchmark_group("k_medoids_placement");
    group.sample_size(10);
    for k in [20usize, 60] {
        group.bench_function(format!("epa_net_k{k}"), |b| {
            b.iter(|| k_medoids_placement(&net, black_box(k), &PlacementConfig::default()))
        });
    }
    group.finish();
}

fn fusion_tuning(c: &mut Criterion) {
    // 298 junctions (WSSC scale), 40% frozen, 5 cliques.
    let n = 298;
    let p1: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
    let predicted: Vec<bool> = p1.iter().map(|&p| p > 0.5).collect();
    let frozen: Vec<bool> = (0..n).map(|i| i % 5 < 2).collect();
    let cliques: Vec<Clique> = (0..5)
        .map(|k| Clique {
            members: (k * 20..k * 20 + 8).collect(),
            reports: 3,
            confidence: 0.973,
        })
        .collect();
    c.bench_function("tune_events_wssc_scale", |b| {
        b.iter(|| {
            tune_events(
                black_box(&p1),
                &predicted,
                &frozen,
                &cliques,
                &TuningConfig::default(),
            )
        })
    });
}

/// Single-row Phase II latency (`AquaScale::infer`) on the default
/// HybridRSL profile, on both evaluation networks: 91 outputs on EPA-NET,
/// 298 on WSSC.
fn phase2_latency(c: &mut Criterion) {
    for (name, net) in [
        ("phase2_inference_epa_net_hybrid", synth::epa_net()),
        ("phase2_inference_wssc_hybrid", synth::wssc_subnet()),
    ] {
        let config = AquaScaleConfig {
            model: ModelKind::hybrid_rsl(),
            train_samples: 600,
            threads: 8,
            ..Default::default()
        };
        let aqua = AquaScale::new(&net, config);
        let profile = aqua.train_profile().expect("phase I");
        let test = aqua.generate_dataset(4, 99).expect("events");
        c.bench_function(name, |b| {
            b.iter(|| {
                aqua.infer(
                    &profile,
                    black_box(test.x.row(0)),
                    &ExternalObservations::none(),
                )
                .unwrap()
            })
        });
    }
}

criterion_group!(
    benches,
    dataset_generation,
    sensor_placement,
    fusion_tuning,
    phase2_latency
);
criterion_main!(benches);
