//! Shared plumbing: command line, timing statistics, the host fingerprint
//! and the result line.

use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced input sizes for the benchmark's own tests; never compared
    /// with a full run.
    pub smoke: bool,
    /// Corrupts one expected output so the correctness check must count
    /// every op as failed (the benchmark's self-test of its checks).
    pub tamper: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let (mut smoke, mut tamper) = (false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                "--smoke" => smoke = true,
                "--tamper" => tamper = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            tamper,
        })
    }
}

/// Derives independent input seeds from the workload seed: the
/// workspace's splitmix64 mix.
pub use aqua_campaign::plan::mix2 as mix;

/// Seed of the fixed held-out corpus `holdout_jaccard` is scored on. It
/// is the same for every workload seed, so the score moves only with the
/// trained model.
pub const HOLDOUT_SEED: u64 = 0x5EED_0DD5;

/// Worker threads for the parallel layers: every CPU the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last state, and
/// returns it with the median set-up time in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let (s, dt) = timed(&mut setup);
        times.push(dt);
        state = Some(s);
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Escapes a string as a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values print with every digit, others as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Host fingerprint plus run identity, printed as one JSON line.
pub fn host_line(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"tamper\": {}}}",
        nproc(),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        args.smoke,
        args.tamper,
    )
}

/// The commit under test: `GITHUB_SHA`, else `git rev-parse`, else
/// `unknown` (benchmark checkouts need not be git repositories).
fn commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        return sha.chars().take(12).collect();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload run's outcome: op accounting plus named metrics in
/// print order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer budget lines `(part, ms per op)`; the last is the op.
    pub budget: Vec<(String, f64)>,
    /// Sample counts behind the timings: `(timed ops, requests)`.
    pub samples: (usize, usize),
}

impl Report {
    pub fn samples(&mut self, ops: usize, requests: usize) {
        self.samples = (ops, requests);
    }

    /// The sample counts as one JSON line.
    pub fn samples_line(&self) -> String {
        format!(
            "{{\"samples\": {{\"ops\": {}, \"requests\": {}}}}}",
            self.samples.0, self.samples.1
        )
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one op's verdict.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records a budget: named parts plus the `unattributed` remainder,
    /// summing to `op_ms`.
    pub fn set_budget(&mut self, parts: &[(&str, f64)], op_ms: f64) {
        let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
        self.budget = parts
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .chain([
                ("unattributed".to_string(), op_ms - attributed),
                ("op".to_string(), op_ms),
            ])
            .collect();
    }

    /// The budget as one JSON line.
    pub fn budget_line(&self, workload: &str) -> String {
        let parts: Vec<String> = self
            .budget
            .iter()
            .map(|(n, v)| format!("[{}, {}]", json_str(n), json_num(*v)))
            .collect();
        format!(
            "{{\"budget\": {}, \"unit\": \"ms/op\", \"parts\": [{}]}}",
            json_str(workload),
            parts.join(", ")
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// p99 of per-request latencies in ms. It needs at least ten samples
/// beyond it, i.e. 1 000 samples; the count is printed beside it.
pub fn request_p99_ms(latencies_s: &[f64]) -> f64 {
    quantile(latencies_s, 0.99) * 1e3
}

/// Common end-to-end metrics of every workload.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Mean op time of each timed cycle, in seconds. A cycle passes once
    /// over the workload's distinct inputs, so every cycle does the same
    /// work; warm-up is excluded.
    pub cycle_s: Vec<f64>,
    /// Timed ops over all cycles.
    pub ops: usize,
    pub request_s: Vec<f64>,
    pub holdout_jaccard: f64,
}

impl EndToEnd {
    pub fn report(&self, report: &mut Report) {
        report.samples(self.ops, self.request_s.len());
        let ops_per_s: Vec<f64> = self.cycle_s.iter().map(|c| 1.0 / c).collect();
        report.metric("setup_s", self.setup_s, "s");
        report.metric("op_ms", median(&self.cycle_s) * 1e3, "ms");
        report.metric("ops_per_s", median(&ops_per_s), "1/s");
        report.metric("request_p50_ms", median(&self.request_s) * 1e3, "ms");
        report.metric("holdout_jaccard", self.holdout_jaccard, "ratio");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// Every per-layer metric the benchmark defines, with its unit, in print
/// order. A traced run prints all of them; a layer its workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sensing.build_ms", "ms"),
    ("hydraulics.solves", "count"),
    ("hydraulics.newton_iters", "count"),
    ("hydraulics.warm_hit_ratio", "ratio"),
    ("hydraulics.recoveries", "count"),
    ("hydraulics.solve_us", "us"),
    ("sensing.features_ms", "ms"),
    ("sensing.busy_ratio", "ratio"),
    ("ml.scale_ms", "ms"),
    ("ml.bin_ms", "ms"),
    ("ml.train_ms", "ms"),
    ("ml.fit_busy_ratio", "ratio"),
    ("phase1.unattributed_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("serve.server_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.parse_us", "us"),
    ("core.ingest_us", "us"),
    ("core.infer_us", "us"),
    ("core.session_other_us", "us"),
    ("ml.predict_us", "us"),
    ("fusion.tune_us", "us"),
    ("serve.create_session_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("core.detections", "count"),
    ("campaign.compile_ms", "ms"),
    ("campaign.render_ms", "ms"),
    ("campaign.score_us", "us"),
    ("hydraulics.slot_solve_ms", "ms"),
    ("hydraulics.recovery_ms", "ms"),
    ("campaign.fallbacks", "count"),
    ("campaign.render_other_ms", "ms"),
    ("campaign.render_busy_ratio", "ratio"),
    ("core.quarantine_transitions", "count"),
    ("campaign.spoofed_readings", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("request_p99_ms", "ms"),
];

/// Collects per-layer values by name and emits the full [`PER_LAYER`]
/// set in order.
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unregistered per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn report(&self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.get(name), unit);
        }
    }
}
