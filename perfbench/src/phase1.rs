//! `phase1_wssc`: one op is one `AquaScale::train_profile` on the WSSC
//! subnet with the default configuration (HybridRSL, warm start).

use aqua_core::{AquaScale, AquaScaleConfig, ExternalObservations, ProfileArtifact, ProfileModel};
use aqua_ml::metrics::hamming_score;
use aqua_ml::{Matrix, Scaler};
use aqua_net::{synth, Network};
use aqua_sensing::LeakDataset;
use aqua_telemetry::{SpanSnapshot, TelemetryHub};

use crate::common::{
    deadline, mean, mix, nproc, repeated_setup, request_p99_ms, timed, Args, EndToEnd, Layers,
    Report, HOLDOUT_SEED,
};

struct Setup {
    net: Network,
    config: AquaScaleConfig,
    /// Fixed held-out corpus `holdout_jaccard` is scored on.
    holdout: LeakDataset,
    /// Seed-drawn held-out rows: the `p1` check and the request latencies.
    probe_rows: Matrix,
}

fn setup(args: &Args) -> Setup {
    let (train_samples, holdout_samples) = if args.smoke { (60, 12) } else { (600, 200) };
    let net = synth::wssc_subnet();
    // The training corpus keeps the default seed: training cost and the
    // profile's score depend on the corpus, and a pinned corpus makes
    // `holdout_jaccard` guard the model to its last digit.
    let config = AquaScaleConfig {
        train_samples,
        threads: nproc(),
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config.clone());
    let holdout = aqua
        .generate_dataset(holdout_samples, HOLDOUT_SEED)
        .expect("held-out corpus");
    let probe_rows = aqua
        .generate_dataset(holdout_samples, mix(args.seed, 2))
        .expect("probe corpus")
        .x;
    Setup {
        net,
        config,
        holdout,
        probe_rows,
    }
}

/// What the checks read off one trained profile.
struct Probe {
    /// Bit patterns of `p1` on every probe row.
    p1_bits: Vec<Vec<u64>>,
    jaccard: f64,
    /// Per-row `AquaScale::infer` latencies, seconds.
    latencies: Vec<f64>,
}

fn probe(s: &Setup, profile: &ProfileModel) -> Probe {
    let aqua = AquaScale::new(&s.net, s.config.clone());
    let external = ExternalObservations::none();
    let mut p1_bits = Vec::with_capacity(s.probe_rows.rows());
    let mut latencies = Vec::with_capacity(s.probe_rows.rows());
    for row in s.probe_rows.iter_rows() {
        let (inference, dt) = timed(|| aqua.infer(profile, row, &external));
        let inference = inference.expect("phase II inference");
        latencies.push(dt);
        p1_bits.push(inference.p1.iter().map(|p| p.to_bits()).collect());
    }
    let predicted = aqua
        .predict_batch(profile, &s.holdout.x)
        .expect("batch prediction");
    Probe {
        p1_bits,
        jaccard: hamming_score(&predicted, &s.holdout.labels),
        latencies,
    }
}

/// Total seconds of every span named `name` anywhere in the forest.
fn span_seconds(forest: &[SpanSnapshot], name: &str) -> f64 {
    forest
        .iter()
        .map(|s| {
            let own = if s.name == name { s.seconds() } else { 0.0 };
            own + span_seconds(&s.children, name)
        })
        .sum()
}

/// Per-layer parts of one traced op, milliseconds unless named otherwise.
#[derive(Default)]
struct TracedOp {
    op_ms: f64,
    build_ms: f64,
    scale_ms: f64,
    bin_ms: f64,
    train_ms: f64,
    solves: f64,
    newton_iters: f64,
    warm_hit_ratio: f64,
    recoveries: f64,
    solve_us: f64,
    features_ms: f64,
    busy_ratio: f64,
    fit_busy_ratio: f64,
    encode_ms: f64,
    decode_ms: f64,
}

/// The op split into its two public calls, with telemetry attached:
/// `generate_dataset` then `train_profile_on` is exactly what
/// `train_profile` does.
fn traced_op(s: &Setup, check: &dyn Fn(&Probe) -> bool) -> (bool, TracedOp) {
    let hub = TelemetryHub::new();
    let aqua = AquaScale::new(&s.net, s.config.clone()).with_telemetry(hub.ctx());
    let threads = s.config.threads as f64;
    let ((dataset, profile, build_s, train_s), op_s) = timed(|| {
        let (dataset, build_s) = timed(|| {
            aqua.generate_dataset(s.config.train_samples, s.config.seed)
                .expect("corpus")
        });
        let (profile, train_s) = timed(|| aqua.train_profile_on(&dataset).expect("training"));
        (dataset, profile, build_s, train_s)
    });
    let (_, scale_s) = timed(|| {
        let scaler = Scaler::fit(&dataset.x);
        scaler.transform(&dataset.x)
    });
    let spans = hub.span_tree();
    let m = hub.metrics_snapshot();
    let solves = m.counter("hydraulics.solver.solves") as f64;
    let warm = m.counter("hydraulics.workspace.warm_hits") as f64;
    let cold = m.counter("hydraulics.workspace.cold_starts") as f64;
    let hist_sum = |name: &str| m.histogram(name).map_or(0.0, |h| h.sum);
    let bin_s = span_seconds(&spans, "ml.train.bin");
    let mut t = TracedOp {
        op_ms: op_s * 1e3,
        build_ms: build_s * 1e3,
        scale_ms: scale_s * 1e3,
        bin_ms: bin_s * 1e3,
        train_ms: (train_s - scale_s - bin_s) * 1e3,
        solves,
        newton_iters: hist_sum("hydraulics.solver.iterations"),
        warm_hit_ratio: warm / (warm + cold).max(1.0),
        recoveries: m.counter("hydraulics.recovery.recovered_solves") as f64,
        solve_us: span_seconds(&spans, "sensing.solve") * 1e6 / solves.max(1.0),
        features_ms: span_seconds(&spans, "sensing.features") * 1e3,
        busy_ratio: hist_sum("sensing.build.sample_s") / (build_s * threads),
        fit_busy_ratio: hist_sum("ml.train.fit_s") / (train_s * threads),
        ..TracedOp::default()
    };
    let ok = check(&probe(s, &profile));
    let artifact = ProfileArtifact::capture(&aqua, profile);
    let (bytes, encode_s) = timed(|| artifact.to_bytes());
    let (decoded, decode_s) = timed(|| ProfileArtifact::from_bytes(&bytes));
    decoded.expect("artifact decodes");
    t.encode_ms = encode_s * 1e3;
    t.decode_ms = decode_s * 1e3;
    (ok, t)
}

pub fn run(args: &Args, report: &mut Report) {
    let (s, setup_s) = if args.trace {
        timed(|| setup(args))
    } else {
        repeated_setup(|| setup(args))
    };
    let aqua = AquaScale::new(&s.net, s.config.clone());

    // Warm-up op: dropped from the timings; its profile is the reference
    // every later op must reproduce bit for bit.
    let reference = probe(&s, &aqua.train_profile().expect("phase I"));
    let mut expected = reference.p1_bits.clone();
    if args.tamper {
        expected[0][0] ^= 1;
    }
    let check =
        |p: &Probe| p.p1_bits == expected && p.jaccard.to_bits() == reference.jaccard.to_bits();

    let mut op_s = Vec::new();
    let mut requests = Vec::new();
    let mut traced: Vec<TracedOp> = Vec::new();
    let end = deadline(args.seconds);
    loop {
        let (profile, dt) = timed(|| aqua.train_profile().expect("phase I"));
        op_s.push(dt);
        let p = probe(&s, &profile);
        report.op(check(&p));
        requests.extend_from_slice(&p.latencies);
        if args.trace {
            let (ok, t) = traced_op(&s, &check);
            report.op(ok);
            traced.push(t);
        }
        if std::time::Instant::now() >= end {
            break;
        }
    }

    if !args.trace {
        // One input, so a cycle is one op.
        EndToEnd {
            setup_s,
            ops: op_s.len(),
            cycle_s: op_s,
            request_s: requests,
            holdout_jaccard: reference.jaccard,
        }
        .report(report);
        return;
    }

    let avg = |f: fn(&TracedOp) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let mut layers = Layers::default();
    layers.set("sensing.build_ms", avg(|t| t.build_ms));
    layers.set("hydraulics.solves", avg(|t| t.solves));
    layers.set("hydraulics.newton_iters", avg(|t| t.newton_iters));
    layers.set("hydraulics.warm_hit_ratio", avg(|t| t.warm_hit_ratio));
    layers.set("hydraulics.recoveries", avg(|t| t.recoveries));
    layers.set("hydraulics.solve_us", avg(|t| t.solve_us));
    layers.set("sensing.features_ms", avg(|t| t.features_ms));
    layers.set("sensing.busy_ratio", avg(|t| t.busy_ratio));
    layers.set("ml.scale_ms", avg(|t| t.scale_ms));
    layers.set("ml.bin_ms", avg(|t| t.bin_ms));
    layers.set("ml.train_ms", avg(|t| t.train_ms));
    layers.set("ml.fit_busy_ratio", avg(|t| t.fit_busy_ratio));
    let op_ms = avg(|t| t.op_ms);
    let parts = [
        ("sensing.build", layers.get("sensing.build_ms")),
        ("ml.scale", layers.get("ml.scale_ms")),
        ("ml.bin", layers.get("ml.bin_ms")),
        ("ml.train", layers.get("ml.train_ms")),
    ];
    report.set_budget(&parts, op_ms);
    layers.set(
        "phase1.unattributed_ms",
        op_ms - parts.iter().map(|p| p.1).sum::<f64>(),
    );
    layers.set("artifact.encode_ms", avg(|t| t.encode_ms));
    layers.set("artifact.decode_ms", avg(|t| t.decode_ms));
    layers.set("telemetry.overhead_ratio", op_ms / (mean(&op_s) * 1e3));
    layers.set("request_p99_ms", request_p99_ms(&requests));
    report.samples(op_s.len(), requests.len());
    layers.report(report);
}
