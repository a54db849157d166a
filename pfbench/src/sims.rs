//! The three simulation workloads: fleet churn, quiescent fleet and the
//! Fig. 6 coarse/physical pair.
//!
//! Every backend is driven through [`drive`], which repeats
//! `BackendDriver::run` step for step (prime, kernel loop to the
//! backend's horizon, drain, metrics) with host timers between the
//! steps. A traced evaluation wraps the backend in [`Traced`] and also
//! times, from outside, the engine, schedverify and planner calls on the
//! workload's own main-job shapes, and the trace generation and
//! conversion the coarse backend performs inside its `::new`.

use pipefill_core::{
    trace_job_to_spec, BackendMetrics, ClusterSimConfig, CoarseBackend, FleetBackend,
    FleetJobConfig, FleetSimConfig, PhysicalBackend, PhysicalSimConfig, SimBackend,
};
use pipefill_executor::{plan_best, ExecutorConfig, FillJobSpec};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_schedverify::{verify, StreamSet, VerifyConfig};
use pipefill_sim_core::{SimDuration, Simulation};
use pipefill_trace::{FleetJobPlan, FleetWorkloadConfig, ModelMix, TraceConfig, TraceGenerator};

use crate::clock;
use crate::span::{timed, Layer, Recorder, Traced};
use crate::workload::{Eval, LayerCounts, Outcome, Workload};

/// Main-job iterations every fleet job simulates.
pub const FLEET_ITERATIONS: usize = 2000;
/// Per-device mean time between failures of `fleet_churn`.
pub const FLEET_MTBF: SimDuration = SimDuration::from_secs(1800);
/// Backlog fill-job size of `fleet_quiescent`, GPU-hours.
pub const QUIESCENT_BACKLOG_GPU_HOURS: f64 = 0.002;
/// Simulated span of both Fig. 6 arms.
pub const FIG6_HORIZON: SimDuration = SimDuration::from_secs(86_400);
/// Offered load of the Fig. 6 coarse arm.
pub const FIG6_LOAD: f64 = 8.0;

/// Host timings of one driven backend.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// The backend's metrics.
    pub metrics: BackendMetrics,
    /// `prime` host time, s.
    pub prime_s: f64,
    /// Kernel loop host time, s.
    pub loop_s: f64,
}

/// Drives `backend` exactly as `BackendDriver::run` does, timing the
/// prime and the kernel loop.
pub fn drive<B: SimBackend>(backend: &mut B) -> Drive {
    let mut sim = Simulation::new();
    let t0 = clock::now();
    backend.prime(&mut sim);
    let t1 = clock::now();
    let horizon = backend.horizon();
    sim.run(backend, horizon);
    let t2 = clock::now();
    backend.drain(sim.now());
    Drive {
        metrics: backend.metrics(sim.dispatched()),
        prime_s: t1 - t0,
        loop_s: t2 - t1,
    }
}

/// Drives `backend`, through the [`Traced`] wrapper when `rec` is given.
fn run_backend<B: SimBackend>(mut backend: B, rec: Option<&mut Recorder>) -> (Drive, B) {
    match rec {
        None => {
            let d = drive(&mut backend);
            (d, backend)
        }
        Some(rec) => {
            let mut traced = Traced::new(backend, rec);
            let d = drive(&mut traced);
            (d, traced.into_inner())
        }
    }
}

/// The generated fleet of a fleet workload.
pub fn fleet_workload(input_seed: u64) -> FleetWorkloadConfig {
    let mut w = FleetWorkloadConfig::production_8k(input_seed);
    w.iterations = FLEET_ITERATIONS;
    w
}

/// Lowers generated fleet plans onto the workload's simulation
/// configuration (what `FleetSimConfig::from_workload_scheduled` does,
/// with generation left to the caller so that it can be timed alone).
pub fn fleet_config(
    workload: Workload,
    fleet: &FleetWorkloadConfig,
    plans: &[FleetJobPlan],
    fast_forward: bool,
) -> FleetSimConfig {
    let schedule = match workload {
        Workload::FleetChurn => ScheduleKind::OneFOneB,
        _ => ScheduleKind::GPipe,
    };
    let jobs = plans
        .iter()
        .map(|plan| FleetJobConfig::from_plan(plan, schedule))
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    cfg.seed = fleet.seed;
    cfg.fast_forward = fast_forward;
    if workload == Workload::FleetChurn {
        cfg.mtbf = FLEET_MTBF;
    } else {
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = QUIESCENT_BACKLOG_GPU_HOURS;
    }
    cfg
}

/// The Fig. 6 coarse arm's trace for one input.
pub fn fig6_trace(input_seed: u64) -> TraceConfig {
    let mut trace = TraceConfig::physical(input_seed)
        .with_load(FIG6_LOAD)
        .with_mix(ModelMix::paper_mix());
    trace.horizon = FIG6_HORIZON;
    trace
}

/// The Fig. 6 physical arm for one input: the coarse arm's main job with
/// the deterministic paper mix and default jitter, over the same span.
pub fn fig6_physical(input_seed: u64, main: &MainJobSpec) -> PhysicalSimConfig {
    let period = main.engine_timeline().period.as_secs_f64();
    let mut phys = PhysicalSimConfig::new(main.clone()).with_mix(ModelMix::paper_mix());
    phys.iterations = (FIG6_HORIZON.as_secs_f64() / period).ceil() as usize;
    phys.seed = input_seed;
    phys.deterministic_mix = true;
    phys
}

/// The Fig. 6 main job.
pub fn fig6_main() -> MainJobSpec {
    MainJobSpec::physical_5b(8, ScheduleKind::GPipe)
}

/// Evaluates one input of a simulation workload. `fast_forward` is the
/// fleet knob (the quiescent fleet's on/off check turns it off).
pub fn evaluate(
    workload: Workload,
    input_seed: u64,
    mut rec: Option<&mut Recorder>,
    fast_forward: bool,
) -> Eval {
    if let Some(r) = rec.as_deref_mut() {
        r.enter(Layer::Run);
    }
    let mut eval = match workload {
        Workload::Fig6Agree => fig6(input_seed, &mut rec),
        _ => fleet(workload, input_seed, &mut rec, fast_forward),
    };
    if let Some(r) = rec {
        r.exit();
    }
    let o = &eval.outcome;
    eval.checks += 1;
    let modelled = [
        o.recovered_tflops_per_gpu,
        o.main_slowdown_pct,
        o.fill_goodput_pct,
        o.fill_jct_p50_s,
        o.fill_jct_p95_s,
        o.coarse_err_pct,
    ];
    if !modelled.iter().all(|x| x.is_finite()) {
        eval.failures
            .push(format!("non-finite modelled metric in {modelled:?}"));
    }
    eval
}

fn fleet(
    workload: Workload,
    input_seed: u64,
    rec: &mut Option<&mut Recorder>,
    fast_forward: bool,
) -> Eval {
    let t0 = clock::now();
    let fleet = fleet_workload(input_seed);
    let plans = timed(rec, Layer::Generate, || fleet.generate());
    let cfg = fleet_config(workload, &fleet, &plans, fast_forward);
    // What the traced pass probes; kept out of the untraced set-up time.
    let probes = rec
        .is_some()
        .then(|| (distinct_shapes(&cfg), cfg.mix.clone()));
    let backend = timed(rec, Layer::New, || FleetBackend::new(cfg));
    let built_s = clock::since(t0);
    let (d, backend) = run_backend(backend, rec.as_deref_mut());
    let total_s = clock::since(t0);
    let r = backend.into_result();
    let m = d.metrics;
    let mut eval = Eval {
        setup_s: built_s + d.prime_s,
        loop_s: vec![d.loop_s],
        sim_span_s: m.elapsed.as_secs_f64(),
        unit_s: vec![total_s],
        outcome: Outcome {
            recovered_tflops_per_gpu: m.recovered_tflops_per_gpu,
            main_slowdown_pct: m.main_slowdown * 100.0,
            fill_goodput_pct: m.goodput_fraction * 100.0,
            events_dispatched: m.events_dispatched,
            main_iterations: r.jobs.iter().map(|j| j.iterations as u64).sum(),
            iterations_skipped: r.iterations_fast_forwarded,
            evictions: r.evictions,
            cross_job_dispatches: r.cross_job_dispatches,
            peak_queue_depth: r.peak_queue_depth as u64,
            metrics_bits: format!("{m:?}"),
            fingerprint: format!(
                "{m:?}|{:?}|{}|{}|{}|{}|{}",
                r.jobs,
                r.evictions,
                r.cross_job_dispatches,
                r.peak_queue_depth,
                r.left_in_queue,
                r.iterations_fast_forwarded
            ),
            ..Outcome::default()
        },
        ..Eval::default()
    };
    if let (Some(r), Some((shapes, mix))) = (rec.as_deref_mut(), probes) {
        probe_layers(r, &shapes, &mix, &mut eval);
    }
    eval
}

fn fig6(input_seed: u64, rec: &mut Option<&mut Recorder>) -> Eval {
    let main = fig6_main();
    let trace = fig6_trace(input_seed);
    let mut layers = LayerCounts::default();
    if let Some(r) = rec.as_deref_mut() {
        // The coarse backend generates and converts its trace inside
        // `::new`; repeat both here to time them alone.
        let jobs = r.time(Layer::Generate, || {
            TraceGenerator::new(trace.clone()).generate().0
        });
        let converted = r.time(Layer::Convert, || {
            jobs.iter()
                .filter_map(|t| trace_job_to_spec(t, &main.device))
                .count()
        });
        layers.converted_jobs = converted as u64;
    }

    let t0 = clock::now();
    let coarse = timed(rec, Layer::New, || {
        CoarseBackend::new(ClusterSimConfig::new(main.clone(), trace))
    });
    let coarse_built_s = clock::since(t0);
    let (cd, coarse) = run_backend(coarse, rec.as_deref_mut());
    let coarse_total_s = clock::since(t0);

    let t1 = clock::now();
    let physical = timed(rec, Layer::New, || {
        PhysicalBackend::new(fig6_physical(input_seed, &main))
    });
    let physical_built_s = clock::since(t1);
    let (pd, physical) = run_backend(physical, rec.as_deref_mut());
    let total_s = coarse_total_s + clock::since(t1);

    let cr = coarse.into_result();
    let pr = physical.into_result();
    let (c, p) = (cd.metrics, pd.metrics);
    let err = (c.recovered_tflops_per_gpu - p.recovered_tflops_per_gpu).abs()
        / p.recovered_tflops_per_gpu
        * 100.0;
    let mut eval = Eval {
        setup_s: coarse_built_s + cd.prime_s + physical_built_s + pd.prime_s,
        loop_s: vec![cd.loop_s, pd.loop_s],
        sim_span_s: c.elapsed.as_secs_f64() + p.elapsed.as_secs_f64(),
        unit_s: vec![total_s],
        outcome: Outcome {
            recovered_tflops_per_gpu: c.recovered_tflops_per_gpu,
            main_slowdown_pct: p.main_slowdown * 100.0,
            fill_goodput_pct: c.goodput_fraction * 100.0,
            fill_jct_p50_s: cr.jct.median_secs,
            fill_jct_p95_s: cr.jct.p95_secs,
            coarse_err_pct: err,
            events_dispatched: c.events_dispatched + p.events_dispatched,
            main_iterations: pr.iterations as u64,
            iterations_skipped: pr.iterations_fast_forwarded,
            rejected: cr.rejected as u64,
            metrics_bits: format!("{c:?}|{p:?}"),
            fingerprint: format!("{c:?}|{p:?}|{:?}|{}|{pr:?}", cr.jct, cr.rejected),
            ..Outcome::default()
        },
        layers,
        ..Eval::default()
    };
    if let Some(r) = rec.as_deref_mut() {
        probe_layers(
            r,
            &[(main, ExecutorConfig::default())],
            &ModelMix::paper_mix(),
            &mut eval,
        );
    }
    eval
}

/// Distinct (main job, executor) shapes of a fleet, in first-seen order.
fn distinct_shapes(cfg: &FleetSimConfig) -> Vec<(MainJobSpec, ExecutorConfig)> {
    let mut shapes: Vec<(MainJobSpec, ExecutorConfig)> = Vec::new();
    for job in &cfg.jobs {
        if !shapes
            .iter()
            .any(|(m, e)| *m == job.main_job && *e == job.executor)
        {
            shapes.push((job.main_job.clone(), job.executor));
        }
    }
    shapes
}

/// Fill-job types a mix draws: sub-700M models train or infer, larger
/// ones only infer (§5.3).
pub fn job_types(mix: &ModelMix) -> Vec<(ModelId, JobKind)> {
    let mut types = Vec::new();
    for &(model, weight) in mix.weights() {
        if weight == 0.0 {
            continue;
        }
        if model.trainable_as_fill_job() {
            types.push((model, JobKind::Training));
        }
        types.push((model, JobKind::BatchInference));
    }
    types
}

/// Times the engine, schedverify and planner on each main-job shape a
/// simulation runs: the calls the backends make once and cache.
fn probe_layers(
    rec: &mut Recorder,
    shapes: &[(MainJobSpec, ExecutorConfig)],
    mix: &ModelMix,
    eval: &mut Eval,
) {
    let types = job_types(mix);
    for (main, exec) in shapes {
        let engine = main.engine_config();
        let (p, m) = (engine.num_stages(), engine.microbatches);
        let timeline = rec.time(Layer::Engine, || engine.run());
        eval.layers.engine_instructions += instruction_count(engine.schedule, p, m);

        let mut vcfg = VerifyConfig::new(engine.stage_fwd[0], engine.stage_bwd[0])
            .with_schedule(engine.schedule);
        vcfg.comm = engine.comm;
        let verdict = rec.time(Layer::Verify, || {
            verify(&StreamSet::from_schedule(engine.schedule, p, m), &vcfg)
        });
        eval.layers.verify_instructions += instruction_count(engine.schedule, p, m);
        eval.checks += 1;
        if verdict.certified() {
            eval.layers.verify_certified += 1;
        } else {
            eval.failures.push(format!(
                "{} p={p} m={m} did not certify: {:?}",
                engine.schedule, verdict.findings
            ));
        }

        if exec.fill_fraction == 0.0 {
            continue;
        }
        for stage in &timeline.stages {
            let slots: Vec<_> = stage
                .fillable_windows()
                .iter()
                .map(|w| (w.duration, w.free_memory))
                .collect();
            if slots.is_empty() {
                continue;
            }
            for &(model, kind) in &types {
                let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
                let plan = rec.time(Layer::Plan, || {
                    plan_best(&probe, &slots, &main.device, exec)
                });
                eval.layers.plans_feasible += u64::from(plan.is_ok());
            }
        }
    }
}

/// Instructions per iteration of a schedule on `p` stages and `m`
/// microbatches.
pub fn instruction_count(kind: ScheduleKind, p: usize, m: usize) -> u64 {
    kind.all_stage_instructions(p, m)
        .iter()
        .map(|s| s.len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_core::{BackendConfig, FleetSimConfig};

    fn traced_equals_plain<B: SimBackend>(make: impl Fn() -> B) {
        let (plain, _) = run_backend(make(), None);
        let mut rec = Recorder::with_capacity(1024);
        rec.enter(Layer::Run);
        let (traced, _) = run_backend(make(), Some(&mut rec));
        rec.exit();
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", traced.metrics)
        );
        let handlers = rec.spans().iter().filter(|s| s.layer.is_handler()).count() as u64;
        assert!(handlers > 0);
        assert!(handlers <= traced.metrics.events_dispatched);
        let loops = rec
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::Loop)
            .count();
        assert_eq!(loops, 1);
    }

    fn small_fleet() -> FleetSimConfig {
        let mut w = FleetWorkloadConfig::rack_scale(3);
        w.iterations = 40;
        FleetSimConfig::from_workload_scheduled(&w, ScheduleKind::OneFOneB)
            .with_mtbf(SimDuration::from_secs(600))
    }

    fn small_coarse() -> ClusterSimConfig {
        let mut trace = TraceConfig::physical(3);
        trace.horizon = SimDuration::from_secs(1200);
        ClusterSimConfig::new(fig6_main(), trace)
    }

    fn small_physical() -> PhysicalSimConfig {
        let mut phys = PhysicalSimConfig::new(fig6_main());
        phys.iterations = 50;
        phys.seed = 3;
        phys
    }

    #[test]
    fn wrapper_is_transparent_for_coarse_physical_and_fleet() {
        traced_equals_plain(|| CoarseBackend::new(small_coarse()));
        traced_equals_plain(|| PhysicalBackend::new(small_physical()));
        traced_equals_plain(|| FleetBackend::new(small_fleet()));
    }

    #[test]
    fn drive_matches_backend_driver() {
        let lib = BackendConfig::Fleet(small_fleet()).run().metrics;
        let (ours, _) = run_backend(FleetBackend::new(small_fleet()), None);
        assert_eq!(format!("{lib:?}"), format!("{:?}", ours.metrics));
        let lib = BackendConfig::Coarse(small_coarse()).run().metrics;
        let (ours, _) = run_backend(CoarseBackend::new(small_coarse()), None);
        assert_eq!(format!("{lib:?}"), format!("{:?}", ours.metrics));
    }

    #[test]
    fn fleet_config_matches_the_library_lowering() {
        let mut w = FleetWorkloadConfig::rack_scale(5);
        w.iterations = 10;
        let ours = fleet_config(Workload::FleetChurn, &w, &w.generate(), true);
        let lib = FleetSimConfig::from_workload_scheduled(&w, ScheduleKind::OneFOneB);
        assert_eq!(ours.jobs.len(), lib.jobs.len());
        for (a, b) in ours.jobs.iter().zip(&lib.jobs) {
            assert_eq!(a.main_job, b.main_job);
            assert_eq!(a.executor, b.executor);
            assert_eq!(a.seed, b.seed);
        }
        assert_eq!(ours.seed, lib.seed);
        assert_eq!(ours.mtbf, FLEET_MTBF);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(fleet_workload(11).generate(), fleet_workload(11).generate());
        assert_ne!(fleet_workload(11).generate(), fleet_workload(12).generate());
        let a = TraceGenerator::new(fig6_trace(11)).generate().0;
        let b = TraceGenerator::new(fig6_trace(11)).generate().0;
        assert_eq!(a, b);
        assert_ne!(a, TraceGenerator::new(fig6_trace(12)).generate().0);
    }
}
