//! `campaign_wssc`: one op compiles and renders one 96-slot six-hazard
//! campaign plan on the WSSC subnet, streams the rendered trace through
//! an in-process `HostedSession`, and scores the detections.

use std::sync::Arc;

use aqua_campaign::{
    render, score_detections, BackgroundLeaks, CampaignPlan, CompiledCampaign,
    ContaminationIntrusion, FreezeWave, MainBreakFlood, PumpTrips, RenderOptions, RenderedCampaign,
    SensorSpoof,
};
use aqua_core::{AquaScale, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact};
use aqua_hydraulics::{
    solve_snapshot, solve_snapshot_recovering, solve_snapshot_recovering_traced, SolverOptions,
    SolverWorkspace,
};
use aqua_ml::metrics::hamming_score;
use aqua_net::{synth, Network, NodeId};
use aqua_sensing::SensorSet;
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

use crate::common::{
    deadline, mean, mix, nproc, repeated_setup, request_p99_ms, timed, Args, EndToEnd, Layers,
    Report, HOLDOUT_SEED,
};

const SLOTS: u64 = 96;
const SESSION_SEED: u64 = 7;

/// The plan catalogue. Render cost depends on the plan by up to 10× (it
/// is dominated by the few slots that need the solver's escalation rung,
/// ≈0.15 s each), so seed-drawn plans would make every run measure a
/// different amount of work. These four plans are pinned: together they
/// hold 6 slots that need the recovery ladder. The workload seed sets the
/// cycle order.
const PLAN_SEEDS: [u64; 4] = [11, 87_120, 31_687, 63_363];

/// All six built-in hazards on one timeline.
fn plan(seed: u64) -> CampaignPlan {
    CampaignPlan::new(seed, SLOTS)
        .with(BackgroundLeaks {
            count: 3,
            coefficient: 0.01,
        })
        .with(FreezeWave::new(4, 0.012))
        .with(PumpTrips {
            count: 2,
            duration_slots: 2,
        })
        .with(ContaminationIntrusion {
            sources: 2,
            concentration_mg_l: 5.0,
        })
        .with(MainBreakFlood { coefficient: 0.08 })
        .with(SensorSpoof {
            rate: 0.06,
            bias: 600.0,
            onset_fraction: 0.5,
        })
}

struct Setup {
    net: Network,
    sensors: SensorSet,
    handle: Arc<ModelHandle>,
    /// Plan seeds in cycle order.
    plans: Vec<u64>,
    holdout_jaccard: f64,
    encode_s: f64,
    decode_s: f64,
}

/// Whether some slot of `compiled` fails a plain cold solve, i.e. needs
/// the recovery ladder or a fallback rung.
fn needs_recovery(net: &Network, compiled: &CompiledCampaign) -> bool {
    (0..compiled.slots).any(|slot| {
        solve_snapshot(
            net,
            &compiled.scenario_at(slot),
            compiled.time_of(slot),
            &SolverOptions::default(),
        )
        .is_err()
    })
}

fn setup(args: &Args) -> Setup {
    let (train_samples, holdout_samples) = if args.smoke { (40, 12) } else { (200, 100) };
    let net = synth::wssc_subnet();
    // The hosted profile is a set-up fixture, trained with the default
    // seed: predict cost and `holdout_jaccard` depend on the model, so
    // every workload seed serves the same one.
    let config = AquaScaleConfig {
        train_samples,
        threads: nproc(),
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
    let sensors = aqua.sensors();
    let profile = aqua.train_profile().expect("phase I");
    let holdout = aqua
        .generate_dataset(holdout_samples, HOLDOUT_SEED)
        .expect("held-out corpus");
    let predicted = aqua
        .predict_batch(&profile, &holdout.x)
        .expect("batch prediction");
    let holdout_jaccard = hamming_score(&predicted, &holdout.labels);
    let (bytes, encode_s) = timed(|| ProfileArtifact::capture(&aqua, profile).to_bytes());
    let (artifact, decode_s) = timed(|| ProfileArtifact::from_bytes(&bytes));
    let handle = Arc::new(
        ModelHandle::from_artifact(&net, artifact.expect("artifact decodes"))
            .expect("artifact matches the network"),
    );

    let n = PLAN_SEEDS.len();
    let first = (mix(args.seed, 3) % n as u64) as usize;
    let plans: Vec<u64> = (0..n).map(|k| PLAN_SEEDS[(first + k) % n]).collect();
    // The hard-solve path must be on the measured path.
    assert!(
        PLAN_SEEDS.iter().any(|&seed| {
            let compiled = plan(seed)
                .compile(&net, TelemetryCtx::none())
                .expect("compile");
            needs_recovery(&net, &compiled)
        }),
        "no catalogue slot needs the recovery ladder or a fallback rung"
    );
    Setup {
        net,
        sensors,
        handle,
        plans,
        holdout_jaccard,
        encode_s,
        decode_s,
    }
}

/// What the checks compare between repeats of one plan.
#[derive(Clone, PartialEq)]
struct Outcome {
    readings: Vec<Vec<Option<u64>>>,
    detections: Vec<(u64, Vec<NodeId>)>,
}

/// Timings of one op, seconds.
#[derive(Default)]
struct OpTimes {
    op_s: f64,
    compile_s: f64,
    render_s: f64,
    ingest_s: Vec<f64>,
    score_s: f64,
}

/// One op at `threads` render threads, with telemetry `tel`.
fn op(
    s: &Setup,
    seed: u64,
    threads: usize,
    tel: TelemetryCtx<'_>,
) -> (
    Option<(CompiledCampaign, RenderedCampaign, Outcome)>,
    OpTimes,
) {
    let mut t = OpTimes::default();
    let (result, op_s) = timed(|| {
        let (compiled, dt) = timed(|| plan(seed).compile(&s.net, tel));
        t.compile_s = dt;
        let compiled = compiled.ok()?;
        let opts = RenderOptions {
            threads,
            ..RenderOptions::default()
        };
        let (rendered, dt) = timed(|| render(&s.net, &s.sensors, &compiled, &opts, tel));
        t.render_s = dt;
        let rendered = rendered.ok()?;
        let mut session =
            HostedSession::with_handle(s.net.clone(), Arc::clone(&s.handle), SESSION_SEED);
        for (&time, row) in rendered.times.iter().zip(&rendered.readings) {
            let (r, dt) = timed(|| session.ingest(time, row, tel));
            t.ingest_s.push(dt);
            r.ok()?;
        }
        let detections: Vec<(u64, Vec<NodeId>)> = session
            .detections()
            .iter()
            .map(|d| (d.time, d.leak_nodes.clone()))
            .collect();
        let (_, dt) = timed(|| score_detections(&s.net, &rendered, &detections));
        t.score_s = dt;
        Some((compiled, rendered, detections))
    });
    t.op_s = op_s;
    let result = result.map(|(compiled, rendered, detections)| {
        let readings = rendered
            .readings
            .iter()
            .map(|row| row.iter().map(|r| r.map(f64::to_bits)).collect())
            .collect();
        (
            compiled,
            rendered,
            Outcome {
                readings,
                detections,
            },
        )
    });
    (result, t)
}

/// Layer parts of one traced op (1-thread render), milliseconds unless
/// named otherwise.
#[derive(Default)]
struct TracedOp {
    op_ms: f64,
    untraced_ms: f64,
    compile_ms: f64,
    render_ms: f64,
    render_nproc_ms: f64,
    slot_solve_ms: f64,
    recovery_ms: f64,
    ingest_ms: f64,
    infer_ms: f64,
    slots: f64,
    score_us: f64,
    solves: f64,
    newton_iters: f64,
    recoveries: f64,
    fallbacks: f64,
    spoofed: f64,
    quarantine: f64,
    detections: f64,
}

/// Σ cold `solve_snapshot_recovering` over every slot's full scenario —
/// the per-slot solves `render` makes without telemetry. Returns `(all
/// slots, slots whose first attempt failed)` in seconds.
fn slot_solve_times(net: &Network, compiled: &CompiledCampaign) -> (f64, f64) {
    let (mut total, mut recovering) = (0.0, 0.0);
    for slot in 0..compiled.slots {
        let scenario = compiled.scenario_at(slot);
        let (result, dt) = timed(|| {
            let mut ws = SolverWorkspace::new(net);
            solve_snapshot_recovering(
                net,
                &scenario,
                compiled.time_of(slot),
                &SolverOptions::default(),
                &mut ws,
            )
        });
        total += dt;
        if !matches!(result, Ok((_, ref report)) if report.was_clean()) {
            recovering += dt;
        }
    }
    (total, recovering)
}

/// Exact solver work of the same per-slot solves, from the hydraulics
/// counters: `(solve attempts, Newton iterations, recovered solves)`.
/// Counted in a separate untimed pass; the counts are deterministic.
fn slot_solve_counts(net: &Network, compiled: &CompiledCampaign) -> (f64, f64, f64) {
    let hub = TelemetryHub::new();
    for slot in 0..compiled.slots {
        let mut ws = SolverWorkspace::new(net);
        let _ = solve_snapshot_recovering_traced(
            net,
            &compiled.scenario_at(slot),
            compiled.time_of(slot),
            &SolverOptions::default(),
            &mut ws,
            hub.ctx(),
        );
    }
    let m = hub.metrics_snapshot();
    (
        m.counter("hydraulics.solver.solves") as f64,
        m.histogram("hydraulics.solver.iterations")
            .map_or(0.0, |h| h.sum),
        m.counter("hydraulics.recovery.recovered_solves") as f64,
    )
}

pub fn run(args: &Args, report: &mut Report) {
    let (s, setup_s) = if args.trace {
        timed(|| setup(args))
    } else {
        repeated_setup(|| setup(args))
    };
    let threads = nproc();

    // Warm-up cycle: dropped from the timings; it fixes each plan's
    // reference outcome that every repeat must reproduce bit for bit.
    let mut references: Vec<Outcome> = s
        .plans
        .iter()
        .map(|&seed| {
            op(&s, seed, threads, TelemetryCtx::none())
                .0
                .expect("warm-up op")
                .2
        })
        .collect();
    if args.tamper {
        let row = &mut references[0].readings[SLOTS as usize / 2];
        row[0] = Some(row[0].map_or(0, |b| b ^ 1));
    }

    let mut cycle_means = Vec::new();
    let mut op_s = Vec::new();
    let mut requests = Vec::new();
    let mut traced = Vec::new();
    let mut counts: Vec<Option<(f64, f64, f64)>> = vec![None; s.plans.len()];
    let end = deadline(args.seconds);
    loop {
        let mut cycle = Vec::with_capacity(s.plans.len());
        for (k, &seed) in s.plans.iter().enumerate() {
            let (result, t) = op(&s, seed, threads, TelemetryCtx::none());
            report.op(matches!(&result, Some((_, _, o)) if *o == references[k]));
            cycle.push(t.op_s);
            requests.extend_from_slice(&t.ingest_s);
            if args.trace {
                let (ok, mut tr) = traced_op(&s, seed, &references[k], &mut counts[k]);
                report.op(ok);
                tr.render_nproc_ms = t.render_s * 1e3;
                traced.push(tr);
            }
        }
        cycle_means.push(mean(&cycle));
        op_s.extend(cycle);
        if std::time::Instant::now() >= end {
            break;
        }
    }

    if !args.trace {
        EndToEnd {
            setup_s,
            ops: op_s.len(),
            cycle_s: cycle_means,
            request_s: requests,
            holdout_jaccard: s.holdout_jaccard,
        }
        .report(report);
        return;
    }

    let avg = |f: fn(&TracedOp) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let per_slot = |f: fn(&TracedOp) -> f64| avg(f) * 1e3 / avg(|t| t.slots);
    let mut layers = Layers::default();
    layers.set("artifact.encode_ms", s.encode_s * 1e3);
    layers.set("artifact.decode_ms", s.decode_s * 1e3);
    layers.set("hydraulics.solves", avg(|t| t.solves));
    layers.set("hydraulics.newton_iters", avg(|t| t.newton_iters));
    layers.set("hydraulics.recoveries", avg(|t| t.recoveries));
    layers.set(
        "hydraulics.solve_us",
        avg(|t| t.slot_solve_ms) * 1e3 / avg(|t| t.solves),
    );
    layers.set("core.ingest_us", per_slot(|t| t.ingest_ms));
    layers.set("core.infer_us", per_slot(|t| t.infer_ms));
    layers.set(
        "core.session_other_us",
        per_slot(|t| t.ingest_ms - t.infer_ms),
    );
    layers.set("core.detections", avg(|t| t.detections));
    layers.set("campaign.compile_ms", avg(|t| t.compile_ms));
    layers.set("campaign.render_ms", avg(|t| t.render_ms));
    layers.set("campaign.score_us", avg(|t| t.score_us));
    layers.set("hydraulics.slot_solve_ms", avg(|t| t.slot_solve_ms));
    layers.set("hydraulics.recovery_ms", avg(|t| t.recovery_ms));
    layers.set("campaign.fallbacks", avg(|t| t.fallbacks));
    layers.set(
        "campaign.render_other_ms",
        avg(|t| t.render_ms - t.slot_solve_ms),
    );
    layers.set(
        "campaign.render_busy_ratio",
        avg(|t| t.slot_solve_ms) / (avg(|t| t.render_nproc_ms) * threads as f64),
    );
    layers.set("core.quarantine_transitions", avg(|t| t.quarantine));
    layers.set("campaign.spoofed_readings", avg(|t| t.spoofed));
    let op_ms = avg(|t| t.op_ms);
    layers.set("telemetry.overhead_ratio", op_ms / avg(|t| t.untraced_ms));
    layers.set("request_p99_ms", request_p99_ms(&requests));
    report.samples(op_s.len(), requests.len());
    report.set_budget(
        &[
            ("campaign.compile", avg(|t| t.compile_ms)),
            ("hydraulics.slot_solve", avg(|t| t.slot_solve_ms)),
            (
                "campaign.render_other",
                avg(|t| t.render_ms - t.slot_solve_ms),
            ),
            ("core.infer", avg(|t| t.infer_ms)),
            ("core.session_other", avg(|t| t.ingest_ms - t.infer_ms)),
            ("campaign.score", avg(|t| t.score_us) / 1e3),
        ],
        op_ms,
    );
    layers.report(report);
}

/// The traced op: the same op rendered at one thread (so its parts add
/// up) with a telemetry hub attached, preceded by the same op untraced
/// at one thread (the overhead baseline) and followed by the per-slot
/// solves re-run from outside.
fn traced_op(
    s: &Setup,
    seed: u64,
    reference: &Outcome,
    counts: &mut Option<(f64, f64, f64)>,
) -> (bool, TracedOp) {
    let (untraced, u) = op(s, seed, 1, TelemetryCtx::none());
    let hub = TelemetryHub::new();
    let (result, t) = op(s, seed, 1, hub.ctx());
    let ok = matches!(&result, Some((_, _, o)) if o == reference)
        && matches!(&untraced, Some((_, _, o)) if o == reference);
    let mut tr = TracedOp {
        op_ms: t.op_s * 1e3,
        untraced_ms: u.op_s * 1e3,
        compile_ms: t.compile_s * 1e3,
        render_ms: t.render_s * 1e3,
        ingest_ms: t.ingest_s.iter().sum::<f64>() * 1e3,
        slots: t.ingest_s.len() as f64,
        score_us: t.score_s * 1e6,
        ..TracedOp::default()
    };
    let m = hub.metrics_snapshot();
    tr.infer_ms = m.histogram("core.infer.latency_s").map_or(0.0, |h| h.sum) * 1e3;
    tr.quarantine = m.counter("core.monitor.quarantine_transitions") as f64;
    tr.detections = m.counter("core.monitor.detections") as f64;
    if let Some((compiled, rendered, _)) = result {
        tr.fallbacks = rendered.fallbacks as f64;
        tr.spoofed = rendered.spoofed_readings as f64;
        let (total, recovering) = slot_solve_times(&s.net, &compiled);
        tr.slot_solve_ms = total * 1e3;
        tr.recovery_ms = recovering * 1e3;
        (tr.solves, tr.newton_iters, tr.recoveries) =
            *counts.get_or_insert_with(|| slot_solve_counts(&s.net, &compiled));
    }
    (ok, tr)
}
