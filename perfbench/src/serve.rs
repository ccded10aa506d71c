//! `serve_epa`: one op is one closed-loop "district-day" episode over HTTP
//! against a one-worker `aqua_serve::Server` hosting the default
//! HybridRSL EPA-NET profile: `PUT` a session, 96 single-slot `POST
//! …/ingest`, then `GET …/detections`, checked against an in-process
//! `HostedSession` lockstep reference.

use std::net::SocketAddr;
use std::sync::Arc;

use aqua_core::{
    AquaScale, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact, SessionRegistry,
};
use aqua_fusion::tune_events;
use aqua_hydraulics::{solve_snapshot, LeakEvent, Scenario, SolverOptions};
use aqua_ml::metrics::hamming_score;
use aqua_ml::Matrix;
use aqua_net::{synth, Network};
use aqua_serve::json::Json;
use aqua_serve::{client, ModelVault, ServeConfig, Server};
use aqua_telemetry::{TelemetryCtx, TelemetryHub};

use crate::common::{
    deadline, mean, mix, nproc, repeated_setup, request_p99_ms, timed, Args, EndToEnd, Layers,
    Report, HOLDOUT_SEED,
};

/// Slots per episode: one day of 15-minute readings.
const SLOTS: u64 = 96;
const SLOT_SECONDS: u64 = 900;
/// Leak onset. Onsets early in the day fire the default profile; onsets
/// at midday (t = 43 200 s) mostly do not.
const ONSET_S: u64 = 3_600;
/// Seed of every hosted session (served and reference alike).
const SESSION_SEED: u64 = 7;

/// `(time, leak-node names)` per detection — the parity currency.
type Detections = Vec<(u64, Vec<String>)>;

struct Episode {
    readings: Vec<Vec<Option<f64>>>,
    /// Pre-encoded ingest bodies, one per slot.
    bodies: Vec<String>,
    expected: Detections,
}

struct Setup {
    net: Network,
    handle: Arc<ModelHandle>,
    registry: Arc<SessionRegistry>,
    hub: Arc<TelemetryHub>,
    server: Server,
    episodes: Vec<Episode>,
    holdout_jaccard: f64,
    encode_s: f64,
    decode_s: f64,
}

fn batch_body(t: u64, readings: &[Option<f64>]) -> String {
    let vals: Vec<String> = readings
        .iter()
        .map(|r| r.map_or_else(|| "null".to_string(), |v| format!("{v}")))
        .collect();
    format!(
        "{{\"batches\":[{{\"time\":{t},\"readings\":[{}]}}]}}",
        vals.join(",")
    )
}

fn detections_of(session: &HostedSession) -> Detections {
    let net = session.network();
    session
        .detections()
        .iter()
        .map(|d| {
            let names = d
                .leak_nodes
                .iter()
                .map(|&n| net.node(n).name.clone())
                .collect();
            (d.time, names)
        })
        .collect()
}

fn parse_detections(body: &str) -> Option<Detections> {
    let doc = Json::parse(body).ok()?;
    doc.get("detections")?
        .as_arr()?
        .iter()
        .map(|d| {
            let time = d.get("time")?.as_u64()?;
            let names = d
                .get("leak_nodes")?
                .as_arr()?
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<Vec<String>>>()?;
            Some((time, names))
        })
        .collect()
}

/// Renders one leak episode through the sensor set in channel order.
fn render_episode(net: &Network, handle: &Arc<ModelHandle>, leak: LeakEvent) -> Episode {
    let scenario = Scenario::new().with_leak(leak);
    let sensors = handle.snapshot().profile.sensors.clone();
    let readings: Vec<Vec<Option<f64>>> = (0..SLOTS)
        .map(|slot| {
            let snap = solve_snapshot(
                net,
                &scenario,
                slot * SLOT_SECONDS,
                &SolverOptions::default(),
            )
            .expect("episode snapshot");
            sensors
                .pressure_nodes
                .iter()
                .map(|&n| Some(snap.pressure(n)))
                .chain(sensors.flow_links.iter().map(|&l| Some(snap.flow(l))))
                .collect()
        })
        .collect();
    let bodies = readings
        .iter()
        .enumerate()
        .map(|(slot, r)| batch_body(slot as u64 * SLOT_SECONDS, r))
        .collect();
    let mut reference = HostedSession::with_handle(net.clone(), Arc::clone(handle), SESSION_SEED);
    for (slot, r) in readings.iter().enumerate() {
        reference
            .ingest(slot as u64 * SLOT_SECONDS, r, TelemetryCtx::none())
            .expect("reference ingest");
    }
    Episode {
        readings,
        bodies,
        expected: detections_of(&reference),
    }
}

fn setup(args: &Args) -> Setup {
    let (train_samples, episodes, holdout_samples) = if args.smoke {
        (300, 2, 20)
    } else {
        (1_000, 8, 200)
    };
    let net = synth::epa_net();
    // The hosted profile is a set-up fixture, trained with the default
    // seed: predict cost and `holdout_jaccard` depend on the model, so
    // every workload seed serves the same one.
    let config = AquaScaleConfig {
        train_samples,
        threads: nproc(),
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(&net, config);
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
    let vault = Arc::new(ModelVault::new());
    let handle = vault
        .register_artifact(net.clone(), artifact.expect("artifact decodes"))
        .expect("artifact matches the network");

    // Episodes: seed-chosen leak sites and sizes. Keep the ones whose
    // reference fires, so the parity check compares real detections.
    let junctions = net.junction_ids();
    let mut chosen = Vec::new();
    for k in 0..(episodes as u64 * 4) {
        if chosen.len() == episodes {
            break;
        }
        let h = mix(args.seed, 100 + k);
        let node = junctions[(h % junctions.len() as u64) as usize];
        let coefficient = 0.01 + 0.01 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        let episode = render_episode(&net, &handle, LeakEvent::new(node, coefficient, ONSET_S));
        if !episode.expected.is_empty() {
            chosen.push(episode);
        }
    }
    assert_eq!(
        chosen.len(),
        episodes,
        "too few episodes make the reference detector fire"
    );

    let registry = Arc::new(SessionRegistry::new());
    let hub = Arc::new(TelemetryHub::new());
    let server = Server::start_with_vault(
        Arc::clone(&registry),
        vault,
        Arc::clone(&hub),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    Setup {
        net,
        handle,
        registry,
        hub,
        server,
        episodes: chosen,
        holdout_jaccard,
        encode_s,
        decode_s,
    }
}

/// Client-side timings of one episode, seconds.
struct EpisodeTimes {
    ok: bool,
    failed_requests: u64,
    op_s: f64,
    put_s: f64,
    ingest_s: Vec<f64>,
    get_s: f64,
}

/// One op. Any transport error, non-200 status or detection mismatch
/// fails it.
fn episode(
    addr: SocketAddr,
    network: &str,
    id: &str,
    ep: &Episode,
    expected: &Detections,
) -> EpisodeTimes {
    let mut t = EpisodeTimes {
        ok: false,
        failed_requests: 0,
        op_s: 0.0,
        put_s: 0.0,
        ingest_s: Vec::with_capacity(ep.bodies.len()),
        get_s: 0.0,
    };
    let ingest_path = format!("/v1/sessions/{id}/ingest");
    let (ok, op_s) = timed(|| {
        let create = format!("{{\"network\":\"{network}\",\"seed\":{SESSION_SEED}}}");
        let (resp, dt) = timed(|| client::put_json(addr, &format!("/v1/sessions/{id}"), &create));
        t.put_s = dt;
        if !matches!(resp, Ok(ref r) if r.status == 200) {
            t.failed_requests += 1;
            return false;
        }
        for body in &ep.bodies {
            let (resp, dt) = timed(|| client::post_json(addr, &ingest_path, body));
            t.ingest_s.push(dt);
            if !matches!(resp, Ok(ref r) if r.status == 200) {
                t.failed_requests += 1;
                return false;
            }
        }
        let (served, dt) = timed(|| {
            client::get(addr, &format!("/v1/sessions/{id}/detections"))
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| parse_detections(&r.body))
        });
        t.get_s = dt;
        if served.is_none() {
            t.failed_requests += 1;
        }
        served.as_ref() == Some(expected)
    });
    t.ok = ok;
    t.op_s = op_s;
    t
}

/// Layer parts of one traced episode.
struct TracedEpisode {
    op_ms: f64,
    put_ms: f64,
    get_ms: f64,
    /// Sums over the episode's ingest requests, milliseconds.
    client_ms: f64,
    server_ms: f64,
    parse_ms: f64,
    ingest_ms: f64,
    infer_ms: f64,
    requests: f64,
    failed_requests: f64,
    /// Per-call means, microseconds.
    predict_us: f64,
    tune_us: f64,
    http_requests: f64,
    shed: f64,
    detections: f64,
}

/// Sum of histogram `name` in the hub, or 0.
fn hist_sum(hub: &TelemetryHub, name: &str) -> f64 {
    hub.metrics_snapshot()
        .histogram(name)
        .map_or(0.0, |h| h.sum)
}

/// A traced episode: the same op, with the server's own histograms read
/// around it and the in-process layers re-timed on the same inputs after
/// it.
fn traced_episode(
    s: &Setup,
    id: &str,
    ep: &Episode,
    expected: &Detections,
) -> (bool, TracedEpisode) {
    let addr = s.server.local_addr();
    let counter = |name: &str| s.hub.metrics_snapshot().counter(name) as f64;
    let server0 = hist_sum(&s.hub, "serve.red.latency_s.ingest");
    let (http0, shed0, det0) = (
        counter("serve.http.requests"),
        counter("serve.http.shed"),
        counter("core.monitor.detections"),
    );
    let times = episode(addr, s.net.name(), id, ep, expected);
    let server1 = hist_sum(&s.hub, "serve.red.latency_s.ingest");

    // Wire parse of the same bodies.
    let parse_s: f64 = ep
        .bodies
        .iter()
        .map(|b| timed(|| Json::parse(b).expect("body parses")).1)
        .sum();
    // Session ingest on a lockstep reference with its own hub, as the
    // server runs it, keeping each slot's p1.
    let snapshot = s.handle.snapshot();
    let ref_hub = TelemetryHub::new();
    let mut session =
        HostedSession::with_handle(s.net.clone(), Arc::clone(&s.handle), SESSION_SEED);
    let mut ingest_s = 0.0;
    let mut p1s = Vec::new();
    for (slot, r) in ep.readings.iter().enumerate() {
        let (inference, dt) =
            timed(|| session.ingest(slot as u64 * SLOT_SECONDS, r, ref_hub.ctx()));
        ingest_s += dt;
        if let Some(inference) = inference.expect("reference ingest") {
            p1s.push(inference.p1);
        }
    }
    // Per-node predict on one-row matrices of the episode's feature rows
    // (consecutive-reading deltas; the episodes carry no faults).
    let aqua = AquaScale::new(&s.net, snapshot.config.clone());
    let topology = snapshot
        .config
        .features
        .include_topology
        .then(|| s.net.topology_features());
    let mut predict_s = Vec::new();
    for pair in ep.readings.windows(2) {
        let mut row: Vec<f64> = pair[1]
            .iter()
            .zip(&pair[0])
            .map(|(c, p)| c.unwrap_or(0.0) - p.unwrap_or(0.0))
            .collect();
        if let Some(t) = &topology {
            row.extend_from_slice(t);
        }
        let x = Matrix::from_rows(&[&row]);
        predict_s.push(timed(|| aqua.predict_batch(&snapshot.profile, &x).expect("predict")).1);
    }
    let tune_s: Vec<f64> = p1s
        .iter()
        .map(|p1| {
            let predicted: Vec<bool> = p1.iter().map(|&p| p > 0.5).collect();
            timed(|| tune_events(p1, &predicted, &[], &[], &snapshot.config.tuning)).1
        })
        .collect();

    let t = TracedEpisode {
        op_ms: times.op_s * 1e3,
        put_ms: times.put_s * 1e3,
        get_ms: times.get_s * 1e3,
        client_ms: times.ingest_s.iter().sum::<f64>() * 1e3,
        server_ms: (server1 - server0) * 1e3,
        parse_ms: parse_s * 1e3,
        ingest_ms: ingest_s * 1e3,
        infer_ms: hist_sum(&ref_hub, "core.infer.latency_s") * 1e3,
        requests: times.ingest_s.len() as f64,
        failed_requests: times.failed_requests as f64,
        predict_us: mean(&predict_s) * 1e6,
        tune_us: mean(&tune_s) * 1e6,
        http_requests: counter("serve.http.requests") - http0,
        shed: counter("serve.http.shed") - shed0,
        detections: counter("core.monitor.detections") - det0,
    };
    (times.ok, t)
}

pub fn run(args: &Args, report: &mut Report) {
    let (s, setup_s) = if args.trace {
        timed(|| setup(args))
    } else {
        repeated_setup(|| setup(args))
    };
    let addr = s.server.local_addr();
    let expected: Vec<Detections> = s
        .episodes
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let mut d = ep.expected.clone();
            if args.tamper && i == 0 {
                d[0].1.push("no-such-node".to_string());
            }
            d
        })
        .collect();

    // Every op creates a fresh session and drops it afterwards, outside
    // the op's time, so the registry does not grow over a run.
    let mut ids = (0u64..).map(|n| format!("ep{n}"));
    let run_episode = |id: &str, k: usize| {
        let i = k % s.episodes.len();
        let t = episode(addr, s.net.name(), id, &s.episodes[i], &expected[i]);
        s.registry.remove(id);
        t
    };
    // Warm-up: one pass over every episode, dropped.
    for k in 0..s.episodes.len() {
        run_episode(&ids.next().expect("ids"), k);
    }

    let mut op_s = Vec::new();
    let mut requests = Vec::new();
    let mut traced = Vec::new();
    let end = deadline(args.seconds);
    let mut k = 0usize;
    loop {
        let t = run_episode(&ids.next().expect("ids"), k);
        report.op(t.ok);
        op_s.push(t.op_s);
        requests.extend_from_slice(&t.ingest_s);
        if args.trace {
            let id = ids.next().expect("ids");
            let i = k % s.episodes.len();
            let (ok, t) = traced_episode(&s, &id, &s.episodes[i], &expected[i]);
            s.registry.remove(&id);
            report.op(ok);
            traced.push(t);
        }
        k += 1;
        if std::time::Instant::now() >= end && k.is_multiple_of(s.episodes.len()) {
            break;
        }
    }

    if !args.trace {
        EndToEnd {
            setup_s,
            ops: op_s.len(),
            cycle_s: op_s.chunks(s.episodes.len()).map(mean).collect(),
            request_s: requests,
            holdout_jaccard: s.holdout_jaccard,
        }
        .report(report);
        s.server.shutdown();
        return;
    }

    let avg = |f: fn(&TracedEpisode) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let per_request = |f: fn(&TracedEpisode) -> f64| avg(f) * 1e3 / avg(|t| t.requests);
    let mut layers = Layers::default();
    layers.set("artifact.encode_ms", s.encode_s * 1e3);
    layers.set("artifact.decode_ms", s.decode_s * 1e3);
    layers.set("serve.server_us", per_request(|t| t.server_ms));
    layers.set(
        "serve.transport_us",
        per_request(|t| t.client_ms - t.server_ms),
    );
    layers.set("serve.parse_us", per_request(|t| t.parse_ms));
    layers.set("core.ingest_us", per_request(|t| t.ingest_ms));
    layers.set("core.infer_us", per_request(|t| t.infer_ms));
    layers.set(
        "core.session_other_us",
        per_request(|t| t.ingest_ms - t.infer_ms),
    );
    layers.set("ml.predict_us", avg(|t| t.predict_us));
    layers.set("fusion.tune_us", avg(|t| t.tune_us));
    layers.set("serve.create_session_us", avg(|t| t.put_ms) * 1e3);
    layers.set(
        "serve.unattributed_us",
        per_request(|t| t.server_ms - t.parse_ms - t.ingest_ms),
    );
    layers.set("serve.requests", avg(|t| t.http_requests));
    layers.set("serve.failed", avg(|t| t.failed_requests));
    layers.set("serve.shed", avg(|t| t.shed));
    layers.set("core.detections", avg(|t| t.detections));
    let op_ms = avg(|t| t.op_ms);
    layers.set("telemetry.overhead_ratio", op_ms / (mean(&op_s) * 1e3));
    layers.set("request_p99_ms", request_p99_ms(&requests));
    report.samples(op_s.len(), requests.len());
    report.set_budget(
        &[
            ("serve.create_session", avg(|t| t.put_ms)),
            ("serve.transport", avg(|t| t.client_ms - t.server_ms)),
            ("serve.parse", avg(|t| t.parse_ms)),
            ("core.infer", avg(|t| t.infer_ms)),
            ("core.session_other", avg(|t| t.ingest_ms - t.infer_ms)),
            (
                "serve.unattributed",
                avg(|t| t.server_ms - t.parse_ms - t.ingest_ms),
            ),
            ("serve.detections_get", avg(|t| t.get_ms)),
        ],
        op_ms,
    );
    layers.report(report);
    s.server.shutdown();
}
