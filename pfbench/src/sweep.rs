//! The schedule design-space sweep: for every candidate pipeline
//! schedule, run the engine, certify the schedule's instruction streams
//! with schedverify, and plan the Table-1 fill jobs into every stage's
//! bubbles with the Algorithm-1 planner. No event kernel runs.

use pipefill_device::DeviceSpec;
use pipefill_executor::{plan_best, ExecutorConfig, FillJobSpec};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{EngineConfig, MainJobSpec, ScheduleKind};
use pipefill_schedverify::{verify, StreamSet, VerifyConfig};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::SimDuration;

use crate::clock;
use crate::report::median;
use crate::span::{timed, Layer, Recorder};
use crate::workload::{Eval, Outcome};

/// Schedules of the grid.
pub const SCHEDULES: [ScheduleKind; 5] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved { chunks: 2 },
    ScheduleKind::Interleaved { chunks: 4 },
    ScheduleKind::ZbH1,
];
/// Pipeline depths of the grid.
pub const DEPTHS: [usize; 4] = [4, 8, 16, 32];
/// Microbatch counts of the grid.
pub const MICROBATCHES: [usize; 4] = [8, 16, 32, 64];

/// One point of the design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Pipeline schedule.
    pub kind: ScheduleKind,
    /// Pipeline stages.
    pub p: usize,
    /// Microbatches per iteration.
    pub m: usize,
    /// Forward time of one microbatch on one stage.
    pub t_fwd: SimDuration,
    /// Backward time of one microbatch on one stage.
    pub t_bwd: SimDuration,
    /// Hand-off latency between adjacent stages.
    pub comm: SimDuration,
}

/// The candidates of one grid plus the fill jobs planned into them.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Candidates in grid order.
    pub candidates: Vec<Candidate>,
    /// Table-1 fill jobs (sub-700M models both train and infer).
    pub jobs: Vec<FillJobSpec>,
    /// GPU every stage runs on.
    pub device: DeviceSpec,
    /// Executor tuning.
    pub exec: ExecutorConfig,
}

/// Builds one grid. Stage timings start from the 5B main job split over
/// `p` stages; the seed scales forward and backward time by ±10% and the
/// hand-off latency by ±50% per candidate. Interleaved schedules need
/// `m` to be a multiple of `p` (Megatron's constraint).
pub fn grid(input_seed: u64) -> Grid {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let base = main.engine_config();
    let base_stages = base.num_stages() as f64;
    let mut rng = DeterministicRng::seed_from(input_seed);
    let mut candidates = Vec::new();
    for kind in SCHEDULES {
        for p in DEPTHS {
            for m in MICROBATCHES {
                if kind.chunk_count() > 1 && m % p != 0 {
                    continue;
                }
                let split = base_stages / p as f64;
                candidates.push(Candidate {
                    kind,
                    p,
                    m,
                    t_fwd: base.stage_fwd[0].mul_f64(split * rng.uniform(0.9, 1.1)),
                    t_bwd: base.stage_bwd[0].mul_f64(split * rng.uniform(0.9, 1.1)),
                    comm: base.comm.mul_f64(rng.uniform(0.5, 1.5)),
                });
            }
        }
    }
    let mut jobs = Vec::new();
    for model in ModelId::FILL_JOBS {
        if model.trainable_as_fill_job() {
            jobs.push(FillJobSpec::new(
                u64::MAX,
                model,
                JobKind::Training,
                u64::MAX / 2,
            ));
        }
        jobs.push(FillJobSpec::new(
            u64::MAX,
            model,
            JobKind::BatchInference,
            u64::MAX / 2,
        ));
    }
    Grid {
        candidates,
        jobs,
        device: main.device,
        exec: ExecutorConfig::default(),
    }
}

/// Grid constructions timed per evaluation: one takes tens of
/// microseconds, so its set-up time is the median of several.
const SETUP_REPEATS: usize = 9;

/// Evaluates one grid: every candidate once, in order.
pub fn evaluate(input_seed: u64, mut rec: Option<&mut Recorder>) -> Eval {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut grid = None;
    for _ in 0..SETUP_REPEATS {
        let ts = clock::now();
        grid = Some(std::hint::black_box(self::grid(input_seed)));
        setups.push(clock::since(ts));
    }
    let grid = grid.expect("SETUP_REPEATS > 0");
    let mut eval = Eval {
        setup_s: median(&setups),
        ..Eval::default()
    };
    let mut recovered = Vec::with_capacity(grid.candidates.len());
    let mut periods = Vec::with_capacity(grid.candidates.len());
    for c in &grid.candidates {
        let tc = clock::now();
        if let Some(r) = rec.as_deref_mut() {
            r.enter(Layer::Run);
        }
        let (period, tflops) = candidate(c, &grid, &mut rec, &mut eval);
        if let Some(r) = rec.as_deref_mut() {
            r.exit();
        }
        eval.unit_s.push(clock::since(tc));
        periods.push(period);
        recovered.push(tflops);
    }
    eval.loop_s = eval.unit_s.clone();
    eval.sim_span_s = periods.iter().map(|p| p.as_secs_f64()).sum();
    let mean = recovered.iter().sum::<f64>() / recovered.len() as f64;
    eval.checks += 1;
    if !mean.is_finite() {
        eval.failures
            .push(format!("non-finite recovered TFLOPS {mean}"));
    }
    eval.outcome = Outcome {
        recovered_tflops_per_gpu: mean,
        fill_goodput_pct: 100.0,
        fingerprint: format!("{periods:?}|{recovered:?}"),
        ..Outcome::default()
    };
    eval
}

/// Runs one candidate: engine, verify, then the planner on every stage.
/// Returns the iteration period and the mean recovered TFLOPS per GPU
/// over stages and fill jobs (an infeasible plan recovers nothing).
fn candidate(
    c: &Candidate,
    grid: &Grid,
    rec: &mut Option<&mut Recorder>,
    eval: &mut Eval,
) -> (SimDuration, f64) {
    let mut engine = EngineConfig::uniform(c.kind, c.p, c.m, c.t_fwd, c.t_bwd);
    engine.comm = c.comm;
    let timeline = timed(rec, Layer::Engine, || engine.run());

    let mut vcfg = VerifyConfig::new(c.t_fwd, c.t_bwd).with_schedule(c.kind);
    vcfg.comm = c.comm;
    let (set, verdict) = timed(rec, Layer::Verify, || {
        let set = StreamSet::from_schedule(c.kind, c.p, c.m);
        let verdict = verify(&set, &vcfg);
        (set, verdict)
    });
    let instructions = set.instruction_count() as u64;
    eval.layers.engine_instructions += instructions;
    eval.layers.verify_instructions += instructions;
    eval.checks += 1;
    let period = verdict.stats.as_ref().map(|s| s.period);
    if verdict.certified() && vcfg.engine_config(&set) == engine && period == Some(timeline.period)
    {
        eval.layers.verify_certified += 1;
    } else {
        eval.failures.push(format!(
            "{} p={} m={}: certified={} verified period {:?} vs engine {:?}; findings {:?}",
            c.kind,
            c.p,
            c.m,
            verdict.certified(),
            period,
            timeline.period,
            verdict.findings
        ));
    }

    let period_s = timeline.period.as_secs_f64();
    let mut tflops = 0.0;
    for stage in &timeline.stages {
        let slots: Vec<_> = stage
            .fillable_windows()
            .iter()
            .map(|w| (w.duration, w.free_memory))
            .collect();
        if slots.is_empty() {
            continue;
        }
        for job in &grid.jobs {
            let plan = timed(rec, Layer::Plan, || {
                plan_best(job, &slots, &grid.device, &grid.exec)
            });
            if let Ok(plan) = plan {
                eval.layers.plans_feasible += 1;
                let pass_s = plan.main_iterations_per_pass as f64 * period_s;
                tflops += plan.flops_per_pass / pass_s / 1e12;
            }
        }
    }
    let cells = (timeline.stages.len() * grid.jobs.len()) as f64;
    (timeline.period, tflops / cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_per_seed_and_has_74_candidates() {
        let a = grid(5);
        assert_eq!(a.candidates, grid(5).candidates);
        assert_ne!(a.candidates, grid(6).candidates);
        assert_eq!(a.candidates.len(), 74);
        assert_eq!(a.jobs.len(), 8);
    }
}
