//! `pfbench`: the repository benchmark.
//!
//! ```text
//! pfbench --workload <fleet_churn|fleet_quiescent|fig6_agree|design_sweep|all>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation measures one workload for `--seconds` seconds in one
//! single-threaded process (`all` runs each workload in a child process
//! of its own, one after another). `--trace 0` measures with tracing off and
//! prints the end-to-end metrics; `--trace 1` alternates untraced and
//! traced evaluations of the same inputs and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See README.md.

#![deny(unsafe_code)]

mod calib;
mod clock;
mod report;
mod sims;
mod span;
mod sweep;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::HostSpeed;
use report::{median, quantile, Metrics, END_TO_END, PER_LAYER};
use span::{Layer, Profile, Recorder};
use workload::{Eval, LayerCounts, Outcome, Workload};

/// Parsed command line.
struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: pfbench --workload <fleet_churn|fleet_quiescent|fig6_agree|design_sweep|all> \
--seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(value.parse::<Workload>()?)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must lie in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Attempted and failed operations (evaluations and checks).
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(reason());
        }
    }

    /// Counts an evaluation (failed if it panicked) and its checks.
    fn evaluation(&mut self, eval: Option<&Eval>, what: &str) {
        self.check(eval.is_some(), || format!("{what} panicked"));
        if let Some(e) = eval {
            self.attempted += e.checks;
            self.failed += e.failures.len() as u64;
            self.reasons.extend(e.failures.iter().cloned());
        }
    }

    fn failed_pct(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64 * 100.0
    }
}

/// Runs `f`, turning a panic into `None`.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The evaluations of one run, grouped by input.
struct Runs {
    seeds: Vec<u64>,
    evals: Vec<Vec<Eval>>,
    /// Host reference times measured between evaluations, s.
    host_reference: Vec<f64>,
}

impl Runs {
    fn new(seeds: Vec<u64>) -> Runs {
        let evals = vec![Vec::new(); seeds.len()];
        Runs {
            seeds,
            evals,
            host_reference: Vec::new(),
        }
    }

    /// Records an evaluation of input `idx` whose host times `scale`
    /// brings to the nominal host speed (see `calib.rs`), checking that it
    /// repeats the input's first outcome bit for bit.
    fn record(&mut self, idx: usize, mut eval: Eval, scale: f64, tally: &mut Tally) {
        if let Some(first) = self.evals[idx].first() {
            tally.check(
                first.outcome.fingerprint == eval.outcome.fingerprint,
                || {
                    format!(
                        "input {} did not repeat its modelled outcome",
                        self.seeds[idx]
                    )
                },
            );
        }
        eval.host_scale = scale;
        self.evals[idx].push(eval);
    }

    fn all(&self) -> impl Iterator<Item = &Eval> {
        self.evals.iter().flatten()
    }

    /// The first evaluation of every input (repetitions repeat its
    /// outcome).
    fn outcomes_evals(&self) -> impl Iterator<Item = &Eval> {
        self.evals.iter().filter_map(|v| v.first())
    }

    /// The outcome of every input.
    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes_evals().map(|e| &e.outcome)
    }

    /// Mean of a modelled number over the run's inputs.
    fn modelled(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        let (sum, n) = self
            .outcomes()
            .fold((0.0, 0usize), |(s, n), o| (s + f(o), n + 1));
        sum / n.max(1) as f64
    }

    /// Elementwise median of `times`, each scaled to the nominal host
    /// speed, over each input's repetitions, flattened over inputs. A
    /// shared host changes speed for minutes at a time (see README.md);
    /// scaling each repetition by the reference timed around it removes
    /// most of that, and the median drops repetitions it missed.
    fn scaled(&self, times: impl Fn(&Eval) -> &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        for evals in &self.evals {
            let Some(first) = evals.first() else { continue };
            for j in 0..times(first).len() {
                let reps: Vec<f64> = evals.iter().map(|e| times(e)[j] * e.host_scale).collect();
                out.push(median(&reps));
            }
        }
        out
    }

    /// Scaled host time of every configuration of every input.
    fn unit_times(&self) -> Vec<f64> {
        self.scaled(|e| &e.unit_s)
    }

    /// The end-to-end metrics of these (untraced) evaluations.
    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set(
            "setup_s",
            median(&self.scaled(|e| std::slice::from_ref(&e.setup_s))),
        );
        let span: f64 = self.outcomes_evals().map(|e| e.sim_span_s).sum();
        let loop_s: f64 = self.scaled(|e| &e.loop_s).iter().sum();
        m.set("sim_s_per_host_s", span / loop_s);
        let units = self.unit_times();
        m.set(
            "candidates_per_s",
            units.len() as f64 / units.iter().sum::<f64>(),
        );
        m.set("candidate_p50_ms", median(&units) * 1e3);
        m.set("peak_rss_mb", report::peak_rss_mb().unwrap_or(0.0));
        m.set(
            "recovered_tflops_per_gpu",
            self.modelled(|o| o.recovered_tflops_per_gpu),
        );
        m.set("fill_goodput_pct", self.modelled(|o| o.fill_goodput_pct));
        m
    }

    /// Modelled numbers that do not apply to every workload.
    fn model_extras(&self, w: Workload, m: &mut Metrics) {
        if w != Workload::DesignSweep {
            m.set(
                "model.main_slowdown_pct",
                self.modelled(|o| o.main_slowdown_pct),
            );
        }
        if w == Workload::Fig6Agree {
            m.set("model.fill_jct_p50_s", self.modelled(|o| o.fill_jct_p50_s));
            m.set("model.fill_jct_p95_s", self.modelled(|o| o.fill_jct_p95_s));
            m.set("model.coarse_err_pct", self.modelled(|o| o.coarse_err_pct));
        }
        if w == Workload::DesignSweep {
            m.set(
                "sweep.candidate_p95_ms",
                quantile(&self.unit_times(), 0.95) * 1e3,
            );
        }
    }
}

/// Checks made once per invocation, after the measured evaluations.
fn invocation_checks(w: Workload, runs: &Runs, tally: &mut Tally) {
    if w != Workload::FleetQuiescent {
        return;
    }
    let Some(on) = runs.outcomes().next() else {
        return;
    };
    let off = guarded(|| sims::evaluate(w, runs.seeds[0], None, false));
    tally.evaluation(off.as_ref(), "fast-forward-off evaluation");
    if let Some(off) = off {
        tally.check(off.outcome.metrics_bits == on.metrics_bits, || {
            format!(
                "fast-forward on/off BackendMetrics differ:\n  on:  {}\n  off: {}",
                on.metrics_bits, off.outcome.metrics_bits
            )
        });
    }
}

/// Tracing off: cycle the inputs until the time is up (each at least
/// once), timing the host reference around every evaluation, and report
/// the end-to-end metrics.
fn plain_run(w: Workload, a: &Args, tally: &mut Tally) -> (Runs, Metrics) {
    let mut runs = Runs::new(w.input_seeds(a.seed));
    let k = runs.seeds.len();
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut host = HostSpeed::start();
    let mut i = 0;
    while i < k || Instant::now() < deadline {
        let idx = i % k;
        let seed = runs.seeds[idx];
        let eval = guarded(|| w.evaluate(seed, None));
        let scale = host.scale_since_last();
        tally.evaluation(eval.as_ref(), "evaluation");
        if let Some(e) = eval {
            runs.record(idx, e, scale, tally);
        }
        i += 1;
    }
    invocation_checks(w, &runs, tally);
    runs.host_reference = host.samples().to_vec();
    let mut m = runs.end_to_end();
    runs.model_extras(w, &mut m);
    (runs, m)
}

/// Writes the spans of a traced evaluation to
/// `target/pfbench/<workload>.spans.tsv`.
fn write_spans(w: Workload, rec: &Recorder) -> std::io::Result<()> {
    let dir = std::path::Path::new("target").join("pfbench");
    std::fs::create_dir_all(&dir)?;
    rec.write_tsv(std::fs::File::create(
        dir.join(format!("{}.spans.tsv", w.name())),
    )?)
}

/// Tracing on: for every input, an untraced then a traced evaluation,
/// in whole cycles while another cycle fits into the time; the traced
/// one must reproduce the untraced one bit for bit.
fn traced_run(w: Workload, a: &Args, tally: &mut Tally) -> (Runs, Metrics) {
    let mut plain = Runs::new(w.input_seeds(a.seed));
    let mut traced = Runs::new(w.input_seeds(a.seed));
    let mut profile = Profile::default();
    let mut layers = LayerCounts::default();
    let mut capacity = vec![1024usize; plain.seeds.len()];
    let mut spans_written = false;
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut host = HostSpeed::start();
    loop {
        let cycle = Instant::now();
        for (idx, capacity) in capacity.iter_mut().enumerate() {
            let seed = plain.seeds[idx];
            let p = guarded(|| w.evaluate(seed, None));
            let scale = host.scale_since_last();
            tally.evaluation(p.as_ref(), "untraced evaluation");
            if let Some(p) = &p {
                *capacity = (*capacity).max(p.outcome.events_dispatched as usize + 1024);
            }
            let mut rec = Recorder::with_capacity(*capacity);
            let t = guarded(|| w.evaluate(seed, Some(&mut rec)));
            // Re-time the reference so that it brackets only the next
            // untraced evaluation; traced host times are not scaled.
            host.scale_since_last();
            tally.evaluation(t.as_ref(), "traced evaluation");
            if let (Some(p), Some(t)) = (&p, &t) {
                tally.check(p.outcome.fingerprint == t.outcome.fingerprint, || {
                    format!("traced evaluation of input {seed} differs from the untraced one")
                });
            }
            if let Some(p) = p {
                plain.record(idx, p, scale, tally);
            }
            if let Some(t) = t {
                profile.add(&rec);
                layers.add(&t.layers);
                traced.record(idx, t, 1.0, tally);
                if !spans_written {
                    spans_written = true;
                    if let Err(e) = write_spans(w, &rec) {
                        eprintln!("warning: spans not written: {e}");
                    }
                }
            }
        }
        if Instant::now() + cycle.elapsed() > deadline {
            break;
        }
    }
    invocation_checks(w, &plain, tally);
    plain.host_reference = host.samples().to_vec();
    let mut m = per_layer(&traced, &profile, &layers);
    let loop_of = |r: &Runs| r.all().flat_map(|e| &e.loop_s).sum::<f64>();
    m.set(
        "trace.overhead_pct",
        (loop_of(&traced) / loop_of(&plain) - 1.0) * 100.0,
    );
    plain.model_extras(w, &mut m);
    (plain, m)
}

/// Per-layer metrics from the traced evaluations, per evaluation.
fn per_layer(traced: &Runs, profile: &Profile, layers: &LayerCounts) -> Metrics {
    let mut m = Metrics::default();
    let n = traced.all().count().max(1) as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let handlers = profile.handler_calls() as f64;
    let dispatched: u64 = traced.all().map(|e| e.outcome.events_dispatched).sum();
    let kernel = profile.get(Layer::Loop);
    m.set("kernel.events", handlers / n);
    m.set("kernel.events_credited", (dispatched as f64 - handlers) / n);
    m.set("kernel.self_s", secs(kernel.self_ns) / n);
    m.set(
        "kernel.ns_per_event",
        ratio(kernel.self_ns as f64, handlers),
    );

    let kinds: [(Layer, [&'static str; 3]); 6] = [
        (
            Layer::StageBubbles,
            [
                "core.stage_bubbles.count",
                "core.stage_bubbles.self_s",
                "core.stage_bubbles.ns_per_event",
            ],
        ),
        (
            Layer::IterationEnd,
            [
                "core.iteration_end.count",
                "core.iteration_end.self_s",
                "core.iteration_end.ns_per_event",
            ],
        ),
        (
            Layer::DeviceFailure,
            [
                "core.device_failure.count",
                "core.device_failure.self_s",
                "core.device_failure.ns_per_event",
            ],
        ),
        (
            Layer::DeviceRecovery,
            [
                "core.device_recovery.count",
                "core.device_recovery.self_s",
                "core.device_recovery.ns_per_event",
            ],
        ),
        (
            Layer::Arrival,
            [
                "core.arrival.count",
                "core.arrival.self_s",
                "core.arrival.ns_per_event",
            ],
        ),
        (
            Layer::Completion,
            [
                "core.completion.count",
                "core.completion.self_s",
                "core.completion.ns_per_event",
            ],
        ),
    ];
    for (layer, [count, self_s, ns]) in kinds {
        let t = profile.get(layer);
        m.set(count, t.count as f64 / n);
        m.set(self_s, secs(t.self_ns) / n);
        m.set(ns, ratio(t.self_ns as f64, t.count as f64));
    }
    m.set("core.new_s", secs(profile.get(Layer::New).total_ns) / n);
    m.set("core.prime_s", secs(profile.get(Layer::Prime).total_ns) / n);
    m.set("core.drain_s", secs(profile.get(Layer::Drain).total_ns) / n);

    let sum = |f: fn(&Outcome) -> u64| traced.all().map(|e| f(&e.outcome)).sum::<u64>() as f64;
    let skipped = sum(|o| o.iterations_skipped);
    m.set("ff.iterations_skipped", skipped / n);
    m.set("ff.skip_share", ratio(skipped, sum(|o| o.main_iterations)));
    m.set("scheduler.evictions", sum(|o| o.evictions) / n);
    m.set(
        "scheduler.cross_job_dispatches",
        sum(|o| o.cross_job_dispatches) / n,
    );
    m.set(
        "scheduler.peak_queue_depth",
        sum(|o| o.peak_queue_depth) / n,
    );
    m.set("scheduler.rejected", sum(|o| o.rejected) / n);

    let convert = profile.get(Layer::Convert);
    m.set(
        "convert.us_per_job",
        ratio(convert.total_ns as f64 / 1e3, layers.converted_jobs as f64),
    );
    m.set(
        "trace.generate_s",
        secs(profile.get(Layer::Generate).total_ns) / n,
    );

    let plan = profile.get(Layer::Plan);
    m.set("planner.calls", plan.count as f64 / n);
    m.set(
        "planner.us_per_call",
        ratio(plan.total_ns as f64 / 1e3, plan.count as f64),
    );
    m.set(
        "planner.feasible_share",
        ratio(layers.plans_feasible as f64, plan.count as f64),
    );

    let engine = profile.get(Layer::Engine);
    m.set("engine.runs", engine.count as f64 / n);
    m.set(
        "engine.us_per_run",
        ratio(engine.total_ns as f64 / 1e3, engine.count as f64),
    );
    m.set(
        "engine.instructions_per_s",
        ratio(layers.engine_instructions as f64, secs(engine.total_ns)),
    );

    let verify = profile.get(Layer::Verify);
    m.set("verify.calls", verify.count as f64 / n);
    m.set(
        "verify.us_per_call",
        ratio(verify.total_ns as f64 / 1e3, verify.count as f64),
    );
    m.set(
        "verify.instructions_per_s",
        ratio(layers.verify_instructions as f64, secs(verify.total_ns)),
    );
    m.set(
        "verify.certified_share",
        ratio(layers.verify_certified as f64, verify.count as f64),
    );
    m
}

/// Human-readable lines printed before the result line.
fn print_summary(w: Workload, a: &Args, runs: &Runs, m: &Metrics, tally: &Tally) {
    println!(
        "pfbench workload={} seed={} seconds={} trace={} inputs={} evaluations={} configurations={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        runs.seeds.len(),
        runs.all().count(),
        runs.unit_times().len()
    );
    let err = match m.get("model.coarse_err_pct") {
        Some(e) => format!("coarse_err_pct={e:.3}%"),
        None => "coarse_err_pct: measured by fig6_agree only".to_string(),
    };
    let host_speed = [
        "sim_s_per_host_s",
        "candidates_per_s",
        "candidate_p50_ms",
        "sweep.candidate_p95_ms",
    ];
    for (name, value) in m.iter() {
        let unit = report::unit_of(name).unwrap_or("");
        if host_speed.contains(&name) {
            println!("  {name:<34} {value:>16.6} {unit:<12} [{err}]");
        } else {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }
    let reference = &runs.host_reference;
    println!(
        "  host reference: median {:.3} ms, fastest {:.3} ms over {} timings; host times \
are CPU time scaled to a {:.1} ms reference (calib.rs)",
        median(reference) * 1e3,
        reference.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        reference.len(),
        calib::NOMINAL_S * 1e3
    );
    println!(
        "  {:<34} {:>16.6} % ({} of {} operations)",
        "failed_pct",
        tally.failed_pct(),
        tally.failed,
        tally.attempted
    );
    for reason in tally.reasons.iter().take(20) {
        println!("  FAILED: {reason}");
    }
    println!(
        "validation: the model is checked only against the repo's physical backend and the \
paper's Fig. 6 figure (<2% error claimed); the repo holds no hardware reference"
    );
}

/// Measures one workload and prints its lines and result line.
fn run_one(w: Workload, a: &Args) {
    pipefill_core::experiments::sweep::set_threads(1);
    let mut tally = Tally::default();
    let (runs, metrics) = if a.trace {
        traced_run(w, a, &mut tally)
    } else {
        plain_run(w, a, &mut tally)
    };
    print_summary(w, a, &runs, &metrics, &tally);
    let table = if a.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        report::result_json(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &metrics.restricted_to(table)
        )
    );
}

/// Runs every workload, each in a child process of its own (so that
/// `peak_rss_mb` is per workload), waiting for each to end.
fn run_all(a: &Args) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status()?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => match run_all(&args) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fig6_agree --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Fig6Agree));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        let a = args("--seconds 10 --trace 0 --seed 4 --workload all").unwrap();
        assert_eq!(a.workload, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload fig6_agree --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fig6_agree --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload fig6_agree --seed 3 --seconds 10").is_err());
        assert!(args("--workload fig6_agree --seed").is_err());
    }
}
