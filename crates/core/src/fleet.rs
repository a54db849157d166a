//! The fine-grained cluster simulator: the one engine behind the
//! physical, fault and fleet backends.
//!
//! Where the coarse simulator replays plans between arrival/completion
//! events, [`FleetBackend`] executes *every bubble of every iteration* of
//! N concurrent pipeline-parallel main jobs on one shared event kernel,
//! with one cluster-wide
//! [`GlobalFillQueue`](pipefill_scheduler::GlobalFillQueue) behind them
//! (the paper's fleet projections, Figs. 9/10 and §6.2, with
//! bubble-filling operated as a cluster service as FreeRide frames it).
//! The physical backend (the paper's 16-GPU testbed, §6.1) and the fault
//! backend are presets of it: one-job fleets built by
//! [`FleetSimConfig::from_physical`] and [`FleetSimConfig::from_fault`].
//!
//! * **Per-bubble fill execution.** Each iteration of a main job unfolds
//!   as one `StageBubbles` event per stage on a *flat* device index
//!   space. Every fillable window runs the stage's fill partition with
//!   multiplicative timing jitter, an explicit context-switch cost and a
//!   usable-span floor; whatever overruns the usable span stalls the
//!   stage. A [`ClusterEvent::JobIterationEnd`] folds the stalls into the
//!   job's critical path and schedules its next iteration at the
//!   *stretched* period, so main-job slowdown is an emergent measurement
//!   — the failure mode the paper's 68% fill-fraction cap avoids (Fig. 5).
//!   Each job owns its workload RNG stream, so its realized workload does
//!   not depend on which other jobs share the fleet.
//! * **Per-stage devices.** A job's stages may run different GPUs. The
//!   slowest stage paces the pipeline and every other stage gains its
//!   slack as fillable span (see [`JobGeometry::profile`]); plans, free
//!   bubble memory and fill throughput come from each stage's own device.
//! * **Memory-jitter OOMs.** When the actual free memory of a bubble
//!   falls below a partition's request, the attempt dies as an OOM
//!   isolated to the Executor (§4.3) and the bubble idles; the main job
//!   never notices.
//! * **Device failures.** Optional, seeded per flat device. A failure
//!   evicts the running fill job; the work since its last checkpoint is
//!   lost, and the job re-enters the *global* queue with its original
//!   arrival. It owes a checkpoint reload once revived. An evicted job's
//!   plan is bound to a bubble geometry, so it is feasible exactly on the
//!   same stage of any identically shaped job that admits foreign work;
//!   cross-job resumes are counted.
//!
//! Construction profiles each distinct job *shape* once (jobs with equal
//! main-job spec, stage devices and executor tuning share bubble
//! geometry) and fans the profiling across cores through the sweep
//! driver — results are byte-stable at any thread count because geometry
//! is a pure function of the spec and all simulation randomness flows
//! through per-job and per-device seeded streams. Fill-job sizing and
//! plans come from one [`FillProfiles`] memo per distinct device, so every
//! stage on the same GPU shares throughputs, and stages with equal
//! bubbles share plans.

use std::collections::HashMap;
use std::sync::Arc;

use pipefill_device::DeviceSpec;
use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{
    ExecutorCheckpoint, ExecutorConfig, FillJobExecutor, FillJobSpec, FillProfiles, GeometryId,
    JobId,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, MainJobSpec, ParallelismConfig, ScheduleKind};
use pipefill_scheduler::{GlobalFillQueue, JobInfo, SystemState};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::{EventHandler, EventQueue, SimDuration, SimTime, Simulation};
use pipefill_trace::{DeviceGeneration, FleetJobPlan, FleetWorkloadConfig, ModelMix};
use serde::{Deserialize, Serialize};

use crate::backend::{BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::cluster::PolicyKind;
use crate::experiments::sweep;
use crate::fault::FaultSimConfig;
use crate::ff::{history_cap, Skip, SteadyCounters, SteadyDetector};
use crate::physical::PhysicalSimConfig;

/// One main job of the fleet.
#[derive(Debug, Clone)]
pub struct FleetJobConfig {
    /// The pipeline-parallel training job (its device is the GPU every
    /// stage of this job runs on).
    pub main_job: MainJobSpec,
    /// Executor tuning; `fill_fraction == 0.0` means this job declines
    /// filling entirely.
    pub executor: ExecutorConfig,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// Workload RNG seed for this job's fill backlog.
    pub seed: u64,
    /// Whether this job's stages accept fill work evicted from other
    /// jobs (per-job admission at the global queue).
    pub admits_foreign: bool,
    /// Per-stage GPUs, paced by the slowest (see
    /// [`JobGeometry::profile`]); an empty list puts every stage on
    /// `main_job.device` through the same arithmetic. `None` keeps the
    /// engine-profiled geometry. Only [`FleetSimConfig::from_fault`] sets
    /// it.
    pub(crate) stage_devices: Option<Vec<DeviceSpec>>,
}

impl FleetJobConfig {
    /// Defaults matching the physical backend's: the paper's 68% fill
    /// fraction and 200 iterations.
    pub fn new(main_job: MainJobSpec) -> Self {
        FleetJobConfig {
            main_job,
            executor: ExecutorConfig::default(),
            iterations: 200,
            seed: 7,
            admits_foreign: true,
            stage_devices: None,
        }
    }

    /// Lowers a trace-crate fleet plan onto a concrete main-job spec.
    pub fn from_plan(plan: &FleetJobPlan, schedule: ScheduleKind) -> Self {
        let mut main_job = MainJobSpec::physical_5b(plan.microbatches, schedule);
        main_job.parallelism = ParallelismConfig::new(
            plan.tensor_parallel,
            plan.pipeline_stages,
            plan.data_parallel,
            2,
            2 * plan.microbatches * plan.data_parallel,
        );
        main_job.device = match plan.device_generation {
            DeviceGeneration::V100 => DeviceSpec::v100(),
            DeviceGeneration::A100 => DeviceSpec::a100_40g(),
            DeviceGeneration::H100 => DeviceSpec::h100(),
        };
        let mut executor = ExecutorConfig::default();
        if plan.fill_fraction == 0.0 {
            executor.fill_fraction = 0.0;
        } else {
            executor = executor.with_fill_fraction(plan.fill_fraction);
        }
        FleetJobConfig {
            executor,
            iterations: plan.iterations,
            seed: plan.seed,
            admits_foreign: plan.admits_foreign,
            ..FleetJobConfig::new(main_job)
        }
    }
}

/// Fleet-simulation parameters. Workload knobs shared with the physical
/// preset keep its defaults.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// The concurrent main jobs.
    pub jobs: Vec<FleetJobConfig>,
    /// Policy of the cluster-wide fill queue.
    pub policy: PolicyKind,
    /// Fill-job model mix (every job draws from an infinite backlog).
    pub mix: ModelMix,
    /// Coefficient of variation of the multiplicative timing jitter.
    pub jitter_cv: f64,
    /// Fraction of each (jittered) bubble actually usable for filling.
    pub usable_fraction: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling (exact mix realization).
    pub deterministic_mix: bool,
    /// Fleet-level seed; failure streams fork from it per flat device,
    /// independent of every job's workload stream.
    pub seed: u64,
    /// Per-device mean time between failures; [`SimDuration::MAX`]
    /// disables fault injection (and with it all global-queue traffic).
    pub mtbf: SimDuration,
    /// Mean outage length once a device fails.
    pub mean_recovery: SimDuration,
    /// Bubble time an evicted fill job burns reloading its checkpoint
    /// before it resumes making progress.
    pub checkpoint_cost: SimDuration,
    /// A fill job checkpoints after this many executed bubble partitions.
    pub checkpoint_every_bubbles: usize,
    /// Steady-state fast-forward (see
    /// [`PhysicalSimConfig::fast_forward`]). Per job: each main job owns
    /// a detector over its private iteration stream. Only armed when
    /// fault injection is off (`mtbf == MAX`), the configuration in which
    /// jobs are provably independent and the global queue stays empty.
    pub fast_forward: bool,
    /// Signature matches required before the first fast-forward skip;
    /// `u32::MAX` pins fast-forward off (see
    /// [`PhysicalSimConfig::steady_confirm`]).
    pub steady_confirm: u32,
    /// Memory-jitter OOM injection (see
    /// [`PhysicalSimConfig::memory_jitter_cv`]). Only
    /// [`FleetSimConfig::from_physical`] sets it.
    pub(crate) memory_jitter_cv: f64,
}

impl FleetSimConfig {
    /// A fleet over the given jobs with physical-backend workload
    /// defaults and faults disabled.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty.
    pub fn new(jobs: Vec<FleetJobConfig>) -> Self {
        assert!(!jobs.is_empty(), "a fleet needs at least one main job");
        FleetSimConfig {
            jobs,
            policy: PolicyKind::Fifo,
            mix: ModelMix::paper_mix(),
            jitter_cv: 0.08,
            usable_fraction: 0.88,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            seed: 7,
            mtbf: SimDuration::MAX,
            mean_recovery: SimDuration::from_secs(120),
            checkpoint_cost: SimDuration::from_secs(2),
            checkpoint_every_bubbles: 8,
            fast_forward: true,
            steady_confirm: 1,
            memory_jitter_cv: 0.0,
        }
    }

    /// The physical preset: one job carrying exactly the given physical
    /// configuration, memory jitter included.
    pub fn from_physical(phys: &PhysicalSimConfig) -> Self {
        let job = FleetJobConfig {
            executor: phys.executor,
            iterations: phys.iterations,
            seed: phys.seed,
            ..FleetJobConfig::new(phys.main_job.clone())
        };
        FleetSimConfig {
            mix: phys.mix.clone(),
            jitter_cv: phys.jitter_cv,
            usable_fraction: phys.usable_fraction,
            backlog_job_gpu_hours: phys.backlog_job_gpu_hours,
            deterministic_mix: phys.deterministic_mix,
            seed: phys.seed,
            fast_forward: phys.fast_forward,
            steady_confirm: phys.steady_confirm,
            memory_jitter_cv: phys.memory_jitter_cv,
            ..FleetSimConfig::new(vec![job])
        }
    }

    /// The fault preset: one job carrying exactly the given
    /// heterogeneous, failure-injecting configuration.
    pub fn from_fault(fault: &FaultSimConfig) -> Self {
        let job = FleetJobConfig {
            executor: fault.executor,
            iterations: fault.iterations,
            seed: fault.seed,
            stage_devices: Some(fault.stage_devices.clone()),
            ..FleetJobConfig::new(fault.main_job.clone())
        };
        FleetSimConfig {
            mix: fault.mix.clone(),
            jitter_cv: fault.jitter_cv,
            usable_fraction: fault.usable_fraction,
            backlog_job_gpu_hours: fault.backlog_job_gpu_hours,
            deterministic_mix: fault.deterministic_mix,
            seed: fault.seed,
            mtbf: fault.mtbf,
            mean_recovery: fault.mean_recovery,
            checkpoint_cost: fault.checkpoint_cost,
            checkpoint_every_bubbles: fault.checkpoint_every_bubbles,
            fast_forward: fault.fast_forward,
            steady_confirm: fault.steady_confirm,
            ..FleetSimConfig::new(vec![job])
        }
    }

    /// Lowers a generated fleet workload (see
    /// [`FleetWorkloadConfig`]) onto a runnable configuration; every
    /// main job runs GPipe.
    pub fn from_workload(workload: &FleetWorkloadConfig) -> Self {
        Self::from_workload_scheduled(workload, ScheduleKind::GPipe)
    }

    /// Like [`FleetSimConfig::from_workload`], with every main job
    /// running the given pipeline schedule — the fleet-level seam of the
    /// `--schedule` flag.
    pub fn from_workload_scheduled(workload: &FleetWorkloadConfig, schedule: ScheduleKind) -> Self {
        let jobs = workload
            .generate()
            .iter()
            .map(|plan| FleetJobConfig::from_plan(plan, schedule))
            .collect();
        let mut cfg = FleetSimConfig::new(jobs);
        cfg.seed = workload.seed;
        cfg
    }

    /// Sets the mean time between failures per device.
    pub fn with_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.mtbf = mtbf;
        self
    }

    /// Sets the global-queue policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// Per-job output of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetJobResult {
    /// Index within the fleet.
    pub job: usize,
    /// Total GPUs this job occupies (the simulator models one
    /// representative device per pipeline stage).
    pub gpus: usize,
    /// Pipeline depth.
    pub stages: usize,
    /// GPU generation name.
    pub device: String,
    /// Fill fraction this job ran at.
    pub fill_fraction: f64,
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-overrun stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown caused by filling.
    pub main_slowdown: f64,
    /// Engine bubble ratio.
    pub bubble_ratio: f64,
    /// Simulated span of this job (`iterations × period + stalls`).
    pub elapsed: SimDuration,
    /// Fill FLOPs that survived on this job's stages.
    pub fill_flops: f64,
    /// Fill FLOPs executed on this job's stages but lost to evictions.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per GPU of this pipeline.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed on this job's stages.
    pub fill_jobs_completed: usize,
    /// Fill attempts on this job's stages killed by an isolated OOM
    /// (only non-zero under memory-jitter injection).
    pub isolated_ooms: u64,
    /// Device failures injected into this job's stages.
    pub failures: u64,
    /// Fill jobs evicted from this job's stages.
    pub evictions: u64,
    /// Bubbles that passed while a stage was down.
    pub bubbles_lost: u64,
    /// Total device downtime across this job's stages, clamped to the
    /// run.
    pub downtime: SimDuration,
}

impl FleetJobResult {
    /// Aggregate TFLOPS per GPU of this pipeline.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// Fleet-simulation output: per-job results plus fleet aggregates and
/// global-queue statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSimResult {
    /// One result per main job, in job order.
    pub jobs: Vec<FleetJobResult>,
    /// Total GPU footprint of the fleet.
    pub total_gpus: usize,
    /// Flat devices simulated (one per pipeline stage per job).
    pub num_devices: usize,
    /// Longest per-job simulated span.
    pub elapsed: SimDuration,
    /// Surviving fill FLOPs fleet-wide.
    pub fill_flops: f64,
    /// Fill FLOPs lost to evictions fleet-wide.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per simulated device, weighted by each
    /// job's device-time.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU, device-weighted across jobs.
    pub main_tflops_per_gpu: f64,
    /// Device-weighted mean main-job slowdown.
    pub mean_slowdown: f64,
    /// Device-weighted mean bubble ratio.
    pub bubble_ratio: f64,
    /// Fill jobs completed fleet-wide.
    pub fill_jobs_completed: usize,
    /// Ids of completed fill jobs in completion order (each appears at
    /// most once, whatever eviction churn it survived).
    pub completed_fill_ids: Vec<JobId>,
    /// Device failures injected fleet-wide.
    pub failures: u64,
    /// Fill-job evictions fleet-wide.
    pub evictions: u64,
    /// Evicted fill jobs resumed on a *different* main job than they
    /// were evicted from — what the global queue buys over per-job
    /// queues.
    pub cross_job_dispatches: u64,
    /// Deepest the global queue ever was.
    pub peak_queue_depth: usize,
    /// Evicted fill jobs still waiting when the run ended.
    pub left_in_queue: usize,
    /// `fill_flops / (fill_flops + lost_fill_flops)`; 1 when nothing ran.
    pub goodput_fraction: f64,
    /// Iterations skipped analytically by steady-state fast-forward,
    /// summed across jobs (always zero while fault injection is on).
    pub iterations_fast_forwarded: u64,
}

impl FleetSimResult {
    /// Aggregate TFLOPS per GPU (main + fill), device-weighted.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// Bubble geometry and steady-state rates of one job *shape*. Jobs with
/// identical main-job spec, stage devices and executor tuning share one
/// geometry, so an 8K-GPU fleet profiles each distinct shape once, not
/// once per job.
struct JobGeometry {
    period: SimDuration,
    main_nominal: f64,
    bubble_ratio: f64,
    stage_windows: Vec<Vec<BubbleWindow>>,
    stage_devices: Vec<DeviceSpec>,
}

impl JobGeometry {
    /// Runs the engine once and extracts each stage's fillable windows.
    ///
    /// With per-stage devices the slowest stage paces the pipeline: the
    /// period stretches to `period × max(slow_s)`, where `slow_s > 1`
    /// means stage `s` is slower than `main_job.device`. Each stage keeps
    /// its own busy time and absorbs the pacing slack as fillable span,
    ///   `W'_s = P' − slow_s × (P − W_s)`,
    /// with free bubble memory scaled to the stage's HBM. The main job's
    /// per-GPU rate scales by `P/P'`, and the bubble-ratio estimate
    /// scales its busy share the same way.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty device list does not cover every stage.
    fn profile(main_job: &MainJobSpec, stage_devices: Option<&[DeviceSpec]>) -> Self {
        let timeline = main_job.engine_timeline();
        let windows: Vec<Vec<BubbleWindow>> = timeline
            .stages
            .iter()
            .map(|s| s.fillable_windows())
            .collect();
        let p = windows.len();
        let base_period = timeline.period;
        let base_nominal = main_job.main_job_tflops_per_gpu(&timeline);
        let base_ratio = timeline.bubble_ratio();
        let baseline = &main_job.device;
        let Some(devices) = stage_devices else {
            return JobGeometry {
                period: base_period,
                main_nominal: base_nominal,
                bubble_ratio: base_ratio,
                stage_windows: windows,
                stage_devices: vec![baseline.clone(); p],
            };
        };
        let stage_devices = if devices.is_empty() {
            vec![baseline.clone(); p]
        } else {
            assert_eq!(
                devices.len(),
                p,
                "stage_devices must cover every pipeline stage ({p})"
            );
            devices.to_vec()
        };
        let slow: Vec<f64> = stage_devices
            .iter()
            .map(|d| 1.0 / d.relative_speed(baseline))
            .collect();
        let max_slow = slow.iter().cloned().fold(f64::MIN, f64::max);
        let period = base_period.mul_f64(max_slow);
        let stage_windows = windows
            .into_iter()
            .enumerate()
            .map(|(s, windows)| {
                let w_total: SimDuration = windows.iter().map(|w| w.duration).sum();
                if w_total.is_zero() {
                    return windows;
                }
                let busy = base_period.saturating_sub(w_total).mul_f64(slow[s]);
                let scale = period.saturating_sub(busy).as_secs_f64() / w_total.as_secs_f64();
                let mem_scale = stage_devices[s].hbm.as_f64() / baseline.hbm.as_f64();
                windows
                    .into_iter()
                    .map(|w| BubbleWindow {
                        duration: w.duration.mul_f64(scale),
                        free_memory: w.free_memory.mul_f64(mem_scale),
                        offset: w.offset.mul_f64(slow[s]),
                        kind: w.kind,
                    })
                    .collect()
            })
            .collect();
        let period_ratio = base_period.as_secs_f64() / period.as_secs_f64();
        let avg_slow = slow.iter().sum::<f64>() / p as f64;
        JobGeometry {
            period,
            main_nominal: base_nominal * period_ratio,
            bubble_ratio: (1.0 - (1.0 - base_ratio) * avg_slow * period_ratio).clamp(0.0, 1.0),
            stage_windows,
            stage_devices,
        }
    }

    fn stages(&self) -> usize {
        self.stage_windows.len()
    }
}

/// Where a stage's fill jobs are sized and planned: its device's memo
/// and its bubbles' planner geometry in that memo.
#[derive(Debug, Clone, Copy)]
struct StagePlanning {
    memo: usize,
    geometry: GeometryId,
}

/// A fill job bound to a stage, with the checkpoint state eviction
/// needs.
struct FillLease {
    exec: FillJobExecutor,
    ckpt: ExecutorCheckpoint,
    /// FLOPs executed since `ckpt` — lost if the device fails now.
    unsaved_flops: f64,
    /// Bubble partitions executed since `ckpt`.
    runs_since_ckpt: usize,
    /// Bubble time still owed to checkpoint reloading after a revival.
    restart_debt: SimDuration,
}

impl FillLease {
    fn fresh(exec: FillJobExecutor) -> Self {
        let ckpt = exec.checkpoint();
        FillLease {
            exec,
            ckpt,
            unsaved_flops: 0.0,
            runs_since_ckpt: 0,
            restart_debt: SimDuration::ZERO,
        }
    }
}

/// Mutable per-job simulation state.
struct JobState {
    rng: DeterministicRng,
    rotation: Option<MixRotation>,
    /// Running fill lease per local stage.
    running: Vec<Option<FillLease>>,
    up: Vec<bool>,
    next_fill_id: u64,
    iterations_done: usize,
    stage_delays: Vec<SimDuration>,
    total_delay: SimDuration,
    downtime: SimDuration,
    /// All fill FLOPs executed on this job's stages, surviving or not.
    executed_flops: f64,
    lost_flops: f64,
    fills_completed: usize,
    isolated_ooms: u64,
    failures: u64,
    evictions: u64,
    bubbles_lost: u64,
    /// Steady-state detector over this job's private iteration stream.
    detector: SteadyDetector,
    fast_forwarded: u64,
}

impl JobState {
    /// Draws the next backlog fill job of job `j` for a stage planned in
    /// `profiles` under `geometry`. Returns `None` (leaving the bubble
    /// idle this round) if several draws in a row are infeasible there.
    fn draw(
        &mut self,
        j: usize,
        profiles: &mut FillProfiles,
        geometry: GeometryId,
        mix: &ModelMix,
        gpu_hours: f64,
    ) -> Option<FillJobExecutor> {
        const MAX_TRIES: usize = 5;
        for _ in 0..MAX_TRIES {
            let (model, kind) = match self.rotation.as_mut() {
                Some(r) => r.next(),
                None => {
                    let model = mix.sample_model(&mut self.rng);
                    (model, mix.sample_kind(model, &mut self.rng))
                }
            };
            // The memo holds `Arc`s, so handing a plan to an executor is
            // a refcount bump, never a deep copy in the per-draw hot path.
            let Some(plan) = profiles.plan(model, kind, geometry).cloned() else {
                continue;
            };
            let Some(samples) = profiles.samples_for(model, kind, gpu_hours) else {
                continue;
            };
            let id = ((j as u64) << 32) | self.next_fill_id;
            self.next_fill_id += 1;
            return Some(FillJobExecutor::new(
                FillJobSpec::new(id, model, kind, samples),
                plan,
            ));
        }
        None
    }

    /// The absolute counters the steady-state detector differences.
    fn counters(&self) -> SteadyCounters {
        SteadyCounters {
            completions: self.fills_completed as u64,
            draws: self.next_fill_id,
            bubbles_lost: self.bubbles_lost,
            isolated_ooms: self.isolated_ooms,
        }
    }

    /// Full behavioral state at an iteration boundary, as exact bit
    /// patterns. Two boundaries with equal signatures (and no randomness
    /// consumed in between — enforced separately by the RNG fingerprint)
    /// evolve identically, which is what licenses a fast-forward skip.
    /// Job ids are deliberately excluded: they are the one monotone,
    /// behavior-neutral component, and the skip advances them in closed
    /// form instead. A running executor's plan `Arc` pointer stands in
    /// for (model, kind, geometry, plan) identity: memoized plans live for
    /// the whole run, so equal pointers mean the same profiled plan.
    fn steady_sig(&self) -> Vec<u64> {
        // Exact worst-case length: the history keeps every signature, so
        // slack capacity is resident memory.
        let rotation_len = self.rotation.as_ref().map_or(0, |r| 2 * r.weights.len());
        let mut sig = Vec::with_capacity(1 + rotation_len + 11 * self.running.len());
        match &self.rotation {
            None => sig.push(0),
            Some(r) => {
                sig.push(1);
                r.sig_into(&mut sig);
            }
        }
        for (up, lease) in self.up.iter().zip(&self.running) {
            sig.push(*up as u64);
            let Some(l) = lease else {
                sig.push(0);
                continue;
            };
            let ex = &l.exec;
            sig.extend([
                1,
                Arc::as_ptr(ex.plan_handle()) as usize as u64,
                ex.cursor() as u64,
                ex.samples_done(),
                ex.flops_done().to_bits(),
                ex.bubble_time_used().as_nanos(),
                ex.job().samples,
                l.unsaved_flops.to_bits(),
                l.runs_since_ckpt as u64,
                l.restart_debt.as_nanos(),
            ]);
        }
        sig
    }

    /// Applies a confirmed skip: replays the cycle's recorded effects
    /// `skip.cycles` times, in event order, so every accumulator lands
    /// on the bits the event loop would have produced. Completed ids
    /// shift by the per-cycle draw stride.
    fn replay(&mut self, skip: &Skip, completed_ids: &mut Vec<JobId>) {
        let stride = skip.counters.draws;
        for m in 1..=skip.cycles {
            for rec in &skip.records {
                for &f in &rec.flops {
                    self.executed_flops += f;
                }
                for &id in &rec.completed {
                    completed_ids.push(JobId(id + m * stride));
                }
            }
        }
        self.total_delay += skip.delay_sum * skip.cycles;
        self.iterations_done += skip.iterations() as usize;
        self.fills_completed += (skip.counters.completions * skip.cycles) as usize;
        self.next_fill_id += stride * skip.cycles;
        self.bubbles_lost += skip.counters.bubbles_lost * skip.cycles;
        self.isolated_ooms += skip.counters.isolated_ooms * skip.cycles;
        self.fast_forwarded += skip.iterations();
        // In-flight fill jobs advance with the skipped draws so post-skip
        // completions continue the event-fidelity id stream.
        for lease in self.running.iter_mut().flatten() {
            lease.exec.advance_job_id(stride * skip.cycles);
        }
    }
}

/// The fine-grained engine: many pipelines on one kernel, one global
/// fill queue. See the module docs for the model.
pub struct FleetBackend {
    cfg: FleetSimConfig,
    /// Shape class per job; geometry and stage planning are per class.
    class_of: Vec<usize>,
    geometry: Vec<JobGeometry>,
    /// One throughput/plan memo per distinct device: stages on the same
    /// GPU share throughputs, and stages with equal bubble geometry and
    /// tuning share plans.
    profiles: Vec<FillProfiles>,
    /// Memo and planner geometry of each class's stages.
    class_stages: Vec<Vec<StagePlanning>>,
    /// First flat device of each job.
    base: Vec<usize>,
    /// Owning job per flat device.
    flat_owner: Vec<usize>,
    queue: GlobalFillQueue,
    /// Reusable all-idle occupancy snapshot for queue picks (occupancy
    /// is not tracked at this fidelity; only the clock changes).
    idle_state: SystemState,
    /// Evicted fill leases waiting in the global queue.
    parked: HashMap<JobId, FillLease>,
    /// Per-flat-device failure processes, independent of workloads.
    fail_rngs: Vec<DeterministicRng>,
    down_until: Vec<SimTime>,
    jobs_state: Vec<JobState>,
    completed_ids: Vec<JobId>,
    result: Option<FleetSimResult>,
}

impl FleetBackend {
    /// Builds the backend: assigns shape classes, profiles each class
    /// once (fanned across cores through the sweep driver), and lays the
    /// jobs out on a flat device index space.
    pub fn new(cfg: FleetSimConfig) -> Self {
        assert!(!cfg.jobs.is_empty(), "a fleet needs at least one main job");

        // Shape classes: identical (main job, stage devices, executor
        // tuning) triples share geometry and stage planning.
        let mut class_of: Vec<usize> = Vec::with_capacity(cfg.jobs.len());
        let mut class_reps: Vec<usize> = Vec::new();
        for (j, job) in cfg.jobs.iter().enumerate() {
            let class = class_reps
                .iter()
                .position(|&r| {
                    let rep = &cfg.jobs[r];
                    rep.main_job == job.main_job
                        && rep.executor == job.executor
                        && rep.stage_devices == job.stage_devices
                })
                .unwrap_or_else(|| {
                    class_reps.push(j);
                    class_reps.len() - 1
                });
            class_of.push(class);
        }
        let geometry: Vec<JobGeometry> = sweep::par_map(class_reps.clone(), |rep| {
            let job = &cfg.jobs[rep];
            JobGeometry::profile(&job.main_job, job.stage_devices.as_deref())
        });
        let mut profiles = Vec::new();
        let class_stages: Vec<Vec<StagePlanning>> = class_reps
            .iter()
            .zip(&geometry)
            .map(|(&rep, g)| {
                g.stage_windows
                    .iter()
                    .zip(&g.stage_devices)
                    .map(|(windows, device)| {
                        let memo = FillProfiles::index_for(&mut profiles, device);
                        let geometry =
                            profiles[memo].geometry(window_slots(windows), &cfg.jobs[rep].executor);
                        StagePlanning { memo, geometry }
                    })
                    .collect()
            })
            .collect();

        let mut base = Vec::with_capacity(cfg.jobs.len());
        let mut flat_owner = Vec::new();
        for (j, &class) in class_of.iter().enumerate() {
            base.push(flat_owner.len());
            flat_owner.extend(std::iter::repeat_n(j, geometry[class].stages()));
        }

        // Failure streams fork from a *separate* root so MTBF sweeps
        // never perturb any workload stream.
        let mut fail_root = DeterministicRng::seed_from(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let fail_rngs: Vec<DeterministicRng> =
            (0..flat_owner.len()).map(|_| fail_root.fork()).collect();

        let queue = GlobalFillQueue::new(
            cfg.policy.build(),
            flat_owner.clone(),
            cfg.jobs.iter().map(|job| job.admits_foreign).collect(),
        );

        let cap = history_cap(cfg.jobs.len());
        let jobs_state: Vec<JobState> = cfg
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let stages = geometry[class_of[j]].stages();
                JobState {
                    rng: DeterministicRng::seed_from(job.seed),
                    rotation: cfg.deterministic_mix.then(|| MixRotation::new(&cfg.mix)),
                    running: (0..stages).map(|_| None).collect(),
                    up: vec![true; stages],
                    next_fill_id: 0,
                    iterations_done: 0,
                    stage_delays: Vec::with_capacity(stages),
                    total_delay: SimDuration::ZERO,
                    downtime: SimDuration::ZERO,
                    executed_flops: 0.0,
                    lost_flops: 0.0,
                    fills_completed: 0,
                    isolated_ooms: 0,
                    failures: 0,
                    evictions: 0,
                    bubbles_lost: 0,
                    // Faults feed the global queue, entangling the jobs;
                    // fast-forward only arms while each job's iteration
                    // stream is provably private (mtbf == MAX).
                    detector: SteadyDetector::new(
                        cfg.fast_forward && cfg.mtbf == SimDuration::MAX,
                        cfg.steady_confirm,
                        cap,
                    ),
                    fast_forwarded: 0,
                }
            })
            .collect();

        let down_until = vec![SimTime::ZERO; flat_owner.len()];

        FleetBackend {
            class_of,
            geometry,
            profiles,
            class_stages,
            base,
            idle_state: SystemState::idle(SimTime::ZERO, flat_owner.len()),
            flat_owner,
            queue,
            parked: HashMap::new(),
            fail_rngs,
            down_until,
            jobs_state,
            completed_ids: Vec::new(),
            result: None,
            cfg,
        }
    }

    /// Decomposes a flat device index into (job, local stage).
    fn locate(&self, flat: usize) -> (usize, usize) {
        let job = self.flat_owner[flat];
        (job, flat - self.base[job])
    }

    /// Pipeline depth of job `j`.
    fn stages_of(&self, j: usize) -> usize {
        self.geometry[self.class_of[j]].stages()
    }

    /// True while job `j` generates fill events.
    fn job_filling(&self, j: usize) -> bool {
        self.cfg.jobs[j].executor.fill_fraction != 0.0 && self.cfg.jobs[j].iterations > 0
    }

    /// Executes the bubble windows of job `j`'s stage `s` — every window,
    /// or only window `only` — and returns the stage stall they caused.
    /// The windows, planning, switch cost and knobs are resolved once per
    /// call, not once per window.
    fn run_bubbles(
        &mut self,
        now: SimTime,
        j: usize,
        s: usize,
        only: Option<usize>,
    ) -> SimDuration {
        let class = self.class_of[j];
        let flat = self.base[j] + s;
        let FleetBackend {
            cfg,
            geometry,
            profiles,
            class_stages,
            queue,
            idle_state,
            parked,
            jobs_state,
            completed_ids,
            ..
        } = self;
        let windows = &geometry[class].stage_windows[s];
        let (first, windows) = match only {
            None => (0, &windows[..]),
            Some(k) => (k, &windows[k..=k]),
        };
        let js = &mut jobs_state[j];
        if !js.up[s] {
            js.bubbles_lost += windows.len() as u64;
            return SimDuration::ZERO;
        }
        let planning = class_stages[class][s];
        let profiles = &mut profiles[planning.memo];
        let switch_overhead = cfg.jobs[j].executor.switch_overhead;
        let (jitter_cv, usable_fraction, memory_jitter_cv) =
            (cfg.jitter_cv, cfg.usable_fraction, cfg.memory_jitter_cv);
        let mut stall = SimDuration::ZERO;
        for (slot, window) in (first..).zip(windows) {
            if js.running[s].is_none() {
                // Evicted fill jobs waiting in the global queue take
                // priority over fresh backlog draws. The all-idle
                // snapshot is reused (only the clock moves) rather than
                // allocating a devices-sized state per pick.
                let resumed = if queue.queue_len() > 0 {
                    idle_state.now = now;
                    queue.pick_for(flat, idle_state).map(|info| {
                        parked
                            .remove(&info.id)
                            .expect("global queue and parked map must stay in sync")
                    })
                } else {
                    None
                };
                js.running[s] = resumed.or_else(|| {
                    js.draw(
                        j,
                        profiles,
                        planning.geometry,
                        &cfg.mix,
                        cfg.backlog_job_gpu_hours,
                    )
                    .map(FillLease::fresh)
                });
            }
            let Some(lease) = js.running[s].as_mut() else {
                continue;
            };
            // A revived fill job reloads its checkpoint before any new
            // work; the reload consumes whole bubbles without stalling
            // the main job.
            if !lease.restart_debt.is_zero() {
                let usable = window.duration.mul_f64(usable_fraction);
                lease.restart_debt = lease.restart_debt.saturating_sub(usable);
                continue;
            }
            // The engine capped the Executor at the profiled free memory,
            // but the *actual* free memory this bubble may be less: a
            // request over it dies as an isolated OOM, the bubble idles
            // and the partition retries next cycle.
            if memory_jitter_cv > 0.0 {
                if let Some(need) = lease.exec.pending_memory(slot) {
                    let actual_free = window.free_memory.mul_f64(js.rng.jitter(memory_jitter_cv));
                    if need > actual_free {
                        js.isolated_ooms += 1;
                        continue;
                    }
                }
            }
            let run = lease.exec.on_bubble(slot);
            if run.time_used.is_zero() && run.samples_completed == 0 && !run.job_finished {
                continue;
            }
            lease.unsaved_flops += run.flops;
            lease.runs_since_ckpt += 1;
            if !run.job_finished && lease.runs_since_ckpt >= cfg.checkpoint_every_bubbles {
                lease.ckpt = lease.exec.checkpoint();
                lease.unsaved_flops = 0.0;
                lease.runs_since_ckpt = 0;
            }
            let finished_id = lease.exec.job().id;
            js.executed_flops += run.flops;
            js.detector.record_flops(run.flops);
            // Jittered reality: the bubble and the partition both
            // deviate from their profiled durations.
            let actual_window = window.duration.mul_f64(js.rng.jitter(jitter_cv));
            let used = switch_overhead + run.time_used.mul_f64(js.rng.jitter(jitter_cv));
            stall += used.saturating_sub(actual_window.mul_f64(usable_fraction));
            if run.job_finished {
                js.fills_completed += 1;
                js.detector.record_completion(finished_id.0);
                js.running[s] = None;
                completed_ids.push(finished_id);
            }
        }
        stall
    }

    /// Evicts the fill job running on job `j`'s stage `s` (device
    /// failed): work since the last checkpoint is lost, the executor
    /// rewinds, and the fill job re-enters the *global* queue — feasible
    /// on every stage of matching bubble geometry whose owner admits it.
    fn evict(&mut self, j: usize, s: usize) {
        let Some(mut lease) = self.jobs_state[j].running[s].take() else {
            return;
        };
        self.jobs_state[j].evictions += 1;
        self.jobs_state[j].lost_flops += lease.unsaved_flops;
        lease.exec.restore(lease.ckpt);
        lease.unsaved_flops = 0.0;
        lease.runs_since_ckpt = 0;
        lease.restart_debt = self.cfg.checkpoint_cost;

        let class = self.class_of[j];
        let remaining = self.geometry[class].period * lease.exec.remaining_main_iterations();
        // Locality: the plan is bound to this bubble geometry, so the
        // job is feasible exactly on stage `s` of every job in the same
        // shape class. Admission masking happens inside the queue.
        let proc_times: Vec<Option<SimDuration>> = (0..self.flat_owner.len())
            .map(|d| {
                let (oj, os) = self.locate(d);
                (self.class_of[oj] == class && os == s).then_some(remaining)
            })
            .collect();
        let info = JobInfo::new(lease.exec.job().id, lease.exec.job().arrival, proc_times);
        self.queue.requeue_from(j, info);
        self.parked.insert(lease.exec.job().id, lease);
    }

    /// The metrics of job 0 alone, reported as `kind` — what the
    /// one-job physical and fault presets report. Built from the job's
    /// own values, not the device-weighted fleet aggregate, whose
    /// multiply-then-divide by the pipeline depth is not bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub(crate) fn preset_metrics(
        &self,
        kind: BackendKind,
        events_dispatched: u64,
    ) -> BackendMetrics {
        let job = &self
            .result
            .as_ref()
            .expect("metrics requested before drain")
            .jobs[0];
        BackendMetrics {
            kind,
            num_devices: job.stages,
            elapsed: job.elapsed,
            events_dispatched,
            fill_flops: job.fill_flops,
            recovered_tflops_per_gpu: job.recovered_tflops_per_gpu,
            main_tflops_per_gpu: job.main_tflops_per_gpu,
            main_slowdown: job.main_slowdown,
            bubble_ratio: job.bubble_ratio,
            jobs_completed: job.fill_jobs_completed,
            evictions: job.evictions,
            lost_fill_flops: job.lost_fill_flops,
            goodput_fraction: BackendMetrics::goodput_of(job.fill_flops, job.lost_fill_flops),
        }
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> FleetSimResult {
        self.result
            .expect("backend not drained; drive it with BackendDriver::run")
    }
}

impl EventHandler for FleetBackend {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        match event {
            ClusterEvent::StageBubbles { stage } => {
                let (j, s) = self.locate(stage);
                let stall = self.run_bubbles(now, j, s, None);
                self.jobs_state[j].stage_delays.push(stall);
                // This job's last stage ran: its stall aggregate is
                // known, and its iteration boundary lands at its own
                // *stretched* period, so the kernel clock carries the
                // emergent slowdown.
                if s + 1 == self.stages_of(j) {
                    let delay = critical_path_delay(&self.jobs_state[j].stage_delays);
                    queue.push(
                        now + self.geometry[self.class_of[j]].period + delay,
                        ClusterEvent::JobIterationEnd { job: j },
                    );
                }
            }
            ClusterEvent::JobIterationEnd { job: j } => {
                let delay = critical_path_delay(&self.jobs_state[j].stage_delays);
                let p = self.stages_of(j);
                let period = self.geometry[self.class_of[j]].period;
                let iterations = self.cfg.jobs[j].iterations;
                let js = &mut self.jobs_state[j];
                js.total_delay += delay;
                js.stage_delays.clear();
                js.iterations_done += 1;
                if js.iterations_done >= iterations {
                    return;
                }
                // Steady-state fast-forward, per job: each main job is an
                // independent iteration stream while faults are off (the
                // detector's arming gate). If this boundary's full state
                // matches an earlier one with the RNG frozen in between,
                // replay the cycle's recorded effects instead of
                // simulating its events, and resume event fidelity at the
                // advanced clock. Bit-for-bit identical by construction.
                let mut next_at = now;
                if js.detector.enabled()
                    && js
                        .detector
                        .observe(js.rng.state_fingerprint(), js.counters())
                {
                    let remaining = (iterations - js.iterations_done) as u64;
                    let sig = js.steady_sig();
                    if let Some(skip) = js.detector.end_iteration(sig, delay, remaining) {
                        js.replay(&skip, &mut self.completed_ids);
                        // Each skipped iteration would have fired one
                        // StageBubbles per stage plus its JobIterationEnd.
                        queue.credit(skip.iterations() * (p as u64 + 1));
                        next_at = now + (period * skip.len + skip.delay_sum) * skip.cycles;
                    }
                }
                for s in 0..p {
                    queue.push(
                        next_at,
                        ClusterEvent::StageBubbles {
                            stage: self.base[j] + s,
                        },
                    );
                }
            }
            ClusterEvent::DeviceFailure { device } => {
                let (j, s) = self.locate(device);
                // A failure landing after this job's last iteration has
                // nothing left to attack; dropping it lets the queue
                // drain.
                if self.jobs_state[j].iterations_done >= self.cfg.jobs[j].iterations {
                    return;
                }
                debug_assert!(
                    self.jobs_state[j].up[s],
                    "failure on an already-down device"
                );
                // Defensive: faults gate the detector off at construction,
                // but a failure is exactly the external transition that
                // voids a cycle hypothesis, so say so explicitly too.
                self.jobs_state[j].detector.reset();
                self.jobs_state[j].failures += 1;
                self.jobs_state[j].up[s] = false;
                self.evict(j, s);
                let outage = self.fail_rngs[device].exponential_duration(self.cfg.mean_recovery);
                self.jobs_state[j].downtime += outage;
                self.down_until[device] = now + outage;
                queue.push(now + outage, ClusterEvent::DeviceRecovery { device });
            }
            ClusterEvent::DeviceRecovery { device } => {
                let (j, s) = self.locate(device);
                self.jobs_state[j].up[s] = true;
                // Keep the failure process alive only while iterations
                // remain; otherwise the chain would outlive the run.
                if self.jobs_state[j].iterations_done < self.cfg.jobs[j].iterations {
                    let gap = self.fail_rngs[device].exponential_duration(self.cfg.mtbf);
                    if let Some(at) = now.checked_add(gap) {
                        queue.push(at, ClusterEvent::DeviceFailure { device });
                    }
                }
            }
            ClusterEvent::JobArrival(_)
            | ClusterEvent::JobCompletion { .. }
            | ClusterEvent::IterationEnd => {
                debug_assert!(false, "fleet backend received a foreign event");
            }
        }
    }
}

impl SimBackend for FleetBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Fleet
    }

    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        // A fill fraction of exactly 0.0 is the no-filling baseline: no
        // bubble events exist for that job, it runs the nominal pipeline.
        for j in 0..self.cfg.jobs.len() {
            if !self.job_filling(j) {
                continue;
            }
            for s in 0..self.stages_of(j) {
                sim.schedule(
                    SimTime::ZERO,
                    ClusterEvent::StageBubbles {
                        stage: self.base[j] + s,
                    },
                );
            }
        }
        if self.cfg.mtbf != SimDuration::MAX {
            for flat in 0..self.flat_owner.len() {
                let (j, _) = self.locate(flat);
                if !self.job_filling(j) {
                    continue;
                }
                let gap = self.fail_rngs[flat].exponential_duration(self.cfg.mtbf);
                if let Some(at) = SimTime::ZERO.checked_add(gap) {
                    sim.schedule(at, ClusterEvent::DeviceFailure { device: flat });
                }
            }
        }
    }

    fn on_bubble(
        &mut self,
        now: SimTime,
        stage: usize,
        slot: usize,
        _queue: &mut EventQueue<ClusterEvent>,
    ) {
        let (j, s) = self.locate(stage);
        let stall = self.run_bubbles(now, j, s, Some(slot));
        // A direct call joins the stall of the stage in flight, opening
        // one if no `StageBubbles` event has.
        match self.jobs_state[j].stage_delays.last_mut() {
            Some(delay) => *delay += stall,
            None => self.jobs_state[j].stage_delays.push(stall),
        }
    }

    fn drain(&mut self, _now: SimTime) {
        let mut jobs = Vec::with_capacity(self.cfg.jobs.len());
        let mut device_time = 0.0f64;
        let mut weighted_main = 0.0f64;
        let mut weighted_slowdown = 0.0f64;
        let mut weighted_bubble = 0.0f64;
        let mut total_stages = 0usize;
        let mut total_surviving = 0.0f64;
        let mut total_lost = 0.0f64;
        let mut fleet_elapsed = SimDuration::ZERO;
        let mut fills_completed = 0usize;
        let mut failures = 0u64;
        let mut evictions = 0u64;
        let mut fast_forwarded = 0u64;

        for (j, job_cfg) in self.cfg.jobs.iter().enumerate() {
            let class = self.class_of[j];
            let geo = &self.geometry[class];
            let p = geo.stages();
            let iterations = job_cfg.iterations;
            let nominal_total = geo.period * iterations as u64;
            let js = &mut self.jobs_state[j];
            let elapsed = nominal_total + js.total_delay;
            // An outage in flight at the end only counts up to this
            // job's final iteration boundary: downtime never exceeds the
            // span the run observed. Only the last outage per device can
            // overhang (later failures are dropped by the post-run guard).
            let run_end = SimTime::ZERO + elapsed;
            for s in 0..p {
                let until = self.down_until[self.base[j] + s];
                js.downtime = js.downtime.saturating_sub(until.saturating_since(run_end));
            }
            let slowdown = if iterations == 0 {
                0.0
            } else {
                js.total_delay.as_secs_f64() / nominal_total.as_secs_f64()
            };
            let surviving = (js.executed_flops - js.lost_flops).max(0.0);
            let main_tflops = geo.main_nominal / (1.0 + slowdown);

            device_time += p as f64 * elapsed.as_secs_f64();
            weighted_main += main_tflops * p as f64;
            weighted_slowdown += slowdown * p as f64;
            weighted_bubble += geo.bubble_ratio * p as f64;
            total_stages += p;
            total_surviving += surviving;
            total_lost += js.lost_flops;
            fleet_elapsed = fleet_elapsed.max(elapsed);
            fills_completed += js.fills_completed;
            failures += js.failures;
            evictions += js.evictions;
            fast_forwarded += js.fast_forwarded;

            jobs.push(FleetJobResult {
                job: j,
                gpus: job_cfg.main_job.parallelism.total_gpus(),
                stages: p,
                device: job_cfg.main_job.device.name.clone(),
                fill_fraction: job_cfg.executor.fill_fraction,
                iterations,
                nominal_period: geo.period,
                mean_period: if iterations == 0 {
                    geo.period
                } else {
                    geo.period + js.total_delay / iterations as u64
                },
                main_slowdown: slowdown,
                bubble_ratio: geo.bubble_ratio,
                elapsed,
                fill_flops: surviving,
                lost_fill_flops: js.lost_flops,
                recovered_tflops_per_gpu: if surviving == 0.0 || elapsed.is_zero() {
                    // The elapsed guard covers degenerate zero-iteration
                    // jobs, where the division would mint a NaN that
                    // flows straight into fleet_scale.csv.
                    0.0
                } else {
                    surviving / (p as f64 * elapsed.as_secs_f64()) / 1e12
                },
                main_tflops_per_gpu: main_tflops,
                fill_jobs_completed: js.fills_completed,
                isolated_ooms: js.isolated_ooms,
                failures: js.failures,
                evictions: js.evictions,
                bubbles_lost: js.bubbles_lost,
                downtime: js.downtime,
            });
        }

        // A degenerate fleet — no stages (empty job list) or a zero
        // horizon (zero iterations everywhere) — must aggregate to zeros,
        // not to the NaNs the unguarded divisions would produce (which
        // then land silently in fleet_scale.csv).
        let per_stage = |weighted: f64| {
            if total_stages == 0 {
                0.0
            } else {
                weighted / total_stages as f64
            }
        };
        self.result = Some(FleetSimResult {
            total_gpus: jobs.iter().map(|r| r.gpus).sum(),
            num_devices: self.flat_owner.len(),
            elapsed: fleet_elapsed,
            fill_flops: total_surviving,
            lost_fill_flops: total_lost,
            recovered_tflops_per_gpu: if total_surviving == 0.0 || device_time == 0.0 {
                0.0
            } else {
                total_surviving / device_time / 1e12
            },
            main_tflops_per_gpu: per_stage(weighted_main),
            mean_slowdown: per_stage(weighted_slowdown),
            bubble_ratio: per_stage(weighted_bubble),
            fill_jobs_completed: fills_completed,
            completed_fill_ids: std::mem::take(&mut self.completed_ids),
            failures,
            evictions,
            cross_job_dispatches: self.queue.cross_job_dispatches(),
            peak_queue_depth: self.queue.peak_depth(),
            left_in_queue: self.queue.queue_len(),
            goodput_fraction: BackendMetrics::goodput_of(total_surviving, total_lost),
            iterations_fast_forwarded: fast_forwarded,
            jobs,
        });
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        let result = self
            .result
            .as_ref()
            .expect("metrics requested before drain");
        BackendMetrics {
            kind: BackendKind::Fleet,
            num_devices: result.num_devices,
            elapsed: result.elapsed,
            events_dispatched,
            fill_flops: result.fill_flops,
            recovered_tflops_per_gpu: result.recovered_tflops_per_gpu,
            main_tflops_per_gpu: result.main_tflops_per_gpu,
            main_slowdown: result.mean_slowdown,
            bubble_ratio: result.bubble_ratio,
            jobs_completed: result.fill_jobs_completed,
            evictions: result.evictions,
            lost_fill_flops: result.lost_fill_flops,
            goodput_fraction: result.goodput_fraction,
        }
    }
}

/// Implements [`EventHandler`] and [`SimBackend`] for a newtype preset
/// over a one-job [`FleetBackend`]: everything delegates to the fleet,
/// and the metrics are its job 0's (see
/// [`FleetBackend::preset_metrics`]), reported as `$kind`.
macro_rules! one_job_preset {
    ($preset:ty, $kind:expr) => {
        impl pipefill_sim_core::EventHandler for $preset {
            type Event = $crate::backend::ClusterEvent;

            fn handle(
                &mut self,
                now: pipefill_sim_core::SimTime,
                event: $crate::backend::ClusterEvent,
                queue: &mut pipefill_sim_core::EventQueue<$crate::backend::ClusterEvent>,
            ) {
                self.0.handle(now, event, queue);
            }
        }

        impl $crate::backend::SimBackend for $preset {
            fn kind(&self) -> $crate::backend::BackendKind {
                $kind
            }

            fn prime(
                &mut self,
                sim: &mut pipefill_sim_core::Simulation<$crate::backend::ClusterEvent>,
            ) {
                self.0.prime(sim);
            }

            fn on_bubble(
                &mut self,
                now: pipefill_sim_core::SimTime,
                stage: usize,
                slot: usize,
                queue: &mut pipefill_sim_core::EventQueue<$crate::backend::ClusterEvent>,
            ) {
                self.0.on_bubble(now, stage, slot, queue);
            }

            fn drain(&mut self, now: pipefill_sim_core::SimTime) {
                self.0.drain(now);
            }

            fn metrics(&self, events_dispatched: u64) -> $crate::backend::BackendMetrics {
                self.0.preset_metrics($kind, events_dispatched)
            }
        }
    };
}
pub(crate) use one_job_preset;

/// A stage's fillable windows as `(duration, free_memory)` planner slots.
pub(crate) fn window_slots(windows: &[BubbleWindow]) -> impl Iterator<Item = BubbleSlot> + '_ {
    windows.iter().map(|w| (w.duration, w.free_memory))
}

/// Critical-path aggregation of one iteration's per-stage stalls: stalls
/// on different stages partially overlap, so the longest is fully paid
/// and the rest half.
fn critical_path_delay(stage_delays: &[SimDuration]) -> SimDuration {
    let max = stage_delays
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    let sum: SimDuration = stage_delays.iter().copied().sum();
    max + (sum - max).mul_f64(0.5)
}

/// Weighted round-robin over a model mix (largest-accumulator rule), with
/// training/inference alternation for the sub-700M models — realizes mix
/// weights exactly, without sampling noise.
#[derive(Debug)]
struct MixRotation {
    weights: Vec<(ModelId, f64)>,
    acc: Vec<f64>,
    kind_flip: HashMap<ModelId, bool>,
}

impl MixRotation {
    /// Validates the mix and builds the rotation. Non-finite, negative or
    /// all-zero weights are reported as an error instead of deferring a
    /// panic into the per-draw selection loop.
    fn try_new(mix: &ModelMix) -> Result<Self, String> {
        Self::try_from_weights(mix.weights())
    }

    fn try_from_weights(raw: &[(ModelId, f64)]) -> Result<Self, String> {
        if raw.is_empty() {
            return Err("model mix has no entries".to_string());
        }
        for &(m, w) in raw {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("model mix weight for {m:?} is not usable: {w}"));
            }
        }
        let total: f64 = raw.iter().map(|&(_, w)| w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(format!("model mix weights sum to {total}, need > 0"));
        }
        let weights: Vec<(ModelId, f64)> = raw.iter().map(|&(m, w)| (m, w / total)).collect();
        Ok(MixRotation {
            acc: vec![0.0; weights.len()],
            weights,
            kind_flip: HashMap::new(),
        })
    }

    /// # Panics
    ///
    /// Panics if the mix fails [`Self::try_new`] validation. Every
    /// in-tree [`ModelMix`] constructor produces valid weights.
    fn new(mix: &ModelMix) -> Self {
        Self::try_new(mix).expect("invalid model mix")
    }

    fn next(&mut self) -> (ModelId, JobKind) {
        for (i, &(_, w)) in self.weights.iter().enumerate() {
            self.acc[i] += w;
        }
        // Manual total-order scan with a fixed index-order tie rule:
        // `>=` keeps the *highest* maximal index, so exact ties (e.g. a
        // 50/50 blend) resolve identically on every run and platform.
        // This replaces `max_by(partial_cmp(..).expect(..))`, which
        // panicked on NaN; the tie direction deliberately matches
        // `max_by`'s last-maximum rule so realized sequences (and the
        // golden experiment outputs derived from them) are unchanged.
        let mut best = 0;
        for i in 1..self.acc.len() {
            if self.acc[i] >= self.acc[best] {
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        let model = self.weights[best].0;
        let kind = if model.trainable_as_fill_job() {
            let flip = self.kind_flip.entry(model).or_insert(false);
            *flip = !*flip;
            if *flip {
                JobKind::Training
            } else {
                JobKind::BatchInference
            }
        } else {
            JobKind::BatchInference
        };
        (model, kind)
    }

    /// Appends the rotation's full state (accumulators and
    /// training/inference flips) to a steady-state signature, iterating
    /// in stable weight order — never over the `HashMap`.
    fn sig_into(&self, out: &mut Vec<u64>) {
        for (i, &(m, _)) in self.weights.iter().enumerate() {
            out.push(self.acc[i].to_bits());
            out.push(self.kind_flip.get(&m).copied().unwrap_or(false) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, BackendDriver};

    fn run(cfg: FleetSimConfig) -> FleetSimResult {
        BackendConfig::Fleet(cfg)
            .run()
            .fleet()
            .expect("fleet detail")
    }

    fn physical_config(seed: u64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main);
        cfg.iterations = 120;
        cfg.seed = seed;
        cfg
    }

    fn twin_fleet(seed: u64) -> FleetSimConfig {
        // Two identical jobs, both admitting foreign fill work.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut a = FleetJobConfig::new(main.clone());
        a.iterations = 120;
        a.seed = seed;
        let mut b = FleetJobConfig::new(main);
        b.iterations = 120;
        b.seed = seed ^ 0xABCD;
        let mut cfg = FleetSimConfig::new(vec![a, b]);
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn degenerate_zero_horizon_fleet_reports_finite_zeros() {
        // A fleet whose every job simulates zero iterations has no
        // elapsed time and no bubbles; the aggregate divisions must not
        // mint NaN (which would flow silently into fleet_scale.csv).
        let mut cfg = twin_fleet(11);
        for job in &mut cfg.jobs {
            job.iterations = 0;
        }
        let result = run(cfg);
        assert_eq!(result.elapsed, SimDuration::ZERO);
        assert_eq!(result.fill_flops, 0.0);
        for (name, v) in [
            ("recovered", result.recovered_tflops_per_gpu),
            ("main", result.main_tflops_per_gpu),
            ("slowdown", result.mean_slowdown),
            ("bubble", result.bubble_ratio),
            ("goodput", result.goodput_fraction),
        ] {
            assert!(v.is_finite(), "{name} = {v}");
        }
        for job in &result.jobs {
            assert!(job.recovered_tflops_per_gpu.is_finite());
            assert!(job.main_tflops_per_gpu.is_finite());
            assert!(job.main_slowdown.is_finite());
            assert_eq!(job.mean_period, job.nominal_period);
        }
        // The per-job main TFLOPS aggregate is still the nominal rate —
        // the guard zeroes only truly stage-less fleets.
        assert!(result.main_tflops_per_gpu > 0.0);
    }

    #[test]
    fn single_job_fleet_matches_physical_bit_for_bit() {
        // The degenerate pin: the physical preset's job-0 view and the
        // fleet aggregate of the same one-job fleet agree bit for bit.
        let phys_cfg = physical_config(7);
        let phys = BackendConfig::Physical(phys_cfg.clone())
            .run()
            .physical()
            .expect("physical detail");
        let fleet = run(FleetSimConfig::from_physical(&phys_cfg));
        assert_eq!(fleet.jobs.len(), 1);
        let job = &fleet.jobs[0];
        assert_eq!(job.fill_flops, phys.fill_flops);
        assert_eq!(job.recovered_tflops_per_gpu, phys.recovered_tflops_per_gpu);
        assert_eq!(job.main_tflops_per_gpu, phys.main_tflops_per_gpu);
        assert_eq!(job.main_slowdown, phys.main_slowdown);
        assert_eq!(job.mean_period, phys.mean_period);
        assert_eq!(job.nominal_period, phys.nominal_period);
        assert_eq!(job.fill_jobs_completed, phys.jobs_completed);
        // The aggregate view of a 1-job fleet is the job itself.
        assert_eq!(fleet.fill_flops, phys.fill_flops);
        assert_eq!(
            fleet.recovered_tflops_per_gpu,
            phys.recovered_tflops_per_gpu
        );
        assert_eq!(fleet.evictions, 0);
        assert_eq!(fleet.cross_job_dispatches, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = twin_fleet(11).with_mtbf(SimDuration::from_secs(400));
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_are_independent_without_faults() {
        // A job's workload stream is its own: adding a second job to the
        // fleet must not perturb the first one's results.
        let solo = run(FleetSimConfig::from_physical(&physical_config(3)));
        let mut duo_cfg = twin_fleet(3);
        duo_cfg.jobs[0].seed = 3;
        let duo = run(duo_cfg);
        assert_eq!(duo.jobs[0].fill_flops, solo.jobs[0].fill_flops);
        assert_eq!(duo.jobs[0].main_slowdown, solo.jobs[0].main_slowdown);
    }

    #[test]
    fn failures_route_evictions_through_the_global_queue() {
        let cfg = twin_fleet(5).with_mtbf(SimDuration::from_secs(200));
        let r = run(cfg);
        assert!(r.failures > 0, "no failures at a 200s MTBF");
        assert!(r.evictions > 0, "failures never evicted a fill job");
        assert!(r.lost_fill_flops > 0.0);
        assert!(r.goodput_fraction < 1.0);
        assert!(r.peak_queue_depth > 0, "evictions never reached the queue");
        // Both jobs share a shape class and admit foreign work, so the
        // global queue resumes evictions across job boundaries.
        assert!(
            r.cross_job_dispatches > 0,
            "global queue never dispatched across jobs"
        );
        // Goodput is consistent with the flops split.
        let expect = r.fill_flops / (r.fill_flops + r.lost_fill_flops);
        assert!((r.goodput_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn admission_gates_cross_job_dispatch() {
        let mut cfg = twin_fleet(5).with_mtbf(SimDuration::from_secs(200));
        for job in &mut cfg.jobs {
            job.admits_foreign = false;
        }
        let r = run(cfg);
        assert!(r.evictions > 0);
        assert_eq!(
            r.cross_job_dispatches, 0,
            "admission off, yet work crossed jobs"
        );
    }

    #[test]
    fn completed_fill_ids_are_unique_under_churn() {
        let cfg = twin_fleet(9).with_mtbf(SimDuration::from_secs(200));
        let r = run(cfg);
        assert!(r.evictions > 0);
        let mut ids = r.completed_fill_ids.clone();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "a fill job completed twice");
        assert_eq!(r.completed_fill_ids.len(), r.fill_jobs_completed);
    }

    #[test]
    fn heterogeneous_fleet_runs_and_aggregates() {
        let workload = FleetWorkloadConfig {
            jobs: 6,
            target_gpus: 6 * 64,
            seed: 13,
            iterations: 30,
        };
        let cfg = FleetSimConfig::from_workload(&workload);
        let r = run(cfg);
        assert_eq!(r.jobs.len(), 6);
        assert!(r.total_gpus > 0);
        assert!(r.num_devices >= 6 * 8);
        // Filling jobs recover throughput; opted-out jobs recover none.
        for job in &r.jobs {
            if job.fill_fraction == 0.0 {
                assert_eq!(job.recovered_tflops_per_gpu, 0.0);
                assert_eq!(job.main_slowdown, 0.0);
            }
            assert!(job.main_tflops_per_gpu > 0.0);
            assert!((0.0..=1.0).contains(&job.bubble_ratio));
        }
        assert!(r.fill_flops > 0.0);
        assert!(r.recovered_tflops_per_gpu > 0.0);
        assert!(r.elapsed >= r.jobs.iter().map(|j| j.elapsed).max().unwrap());
    }

    #[test]
    fn no_fill_fleet_is_inert() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut job = FleetJobConfig::new(main);
        job.executor.fill_fraction = 0.0;
        job.iterations = 50;
        let cfg = FleetSimConfig::new(vec![job]).with_mtbf(SimDuration::from_secs(60));
        let r = run(cfg);
        assert_eq!(r.fill_flops, 0.0);
        assert_eq!(r.failures, 0, "failure chain must not outlive filling");
        assert_eq!(r.mean_slowdown, 0.0);
    }

    fn production_fleet(seed: u64, iterations: usize) -> FleetSimConfig {
        let mut workload = FleetWorkloadConfig::production_8k(seed);
        workload.iterations = iterations;
        FleetSimConfig::from_workload_scheduled(&workload, ScheduleKind::OneFOneB)
    }

    #[test]
    fn geometry_shared_plans_equal_per_stage_plan_best() {
        use pipefill_executor::plan_best;
        use pipefill_model_zoo::{JobKind, ModelId};

        let cfg = production_fleet(1, 1);
        let mut fleet = FleetBackend::new(cfg.clone());
        let class_stages: usize = fleet.geometry.iter().map(JobGeometry::stages).sum();
        let geometries: usize = fleet.profiles.iter().map(|p| p.geometry_count()).sum();
        assert!(
            geometries < class_stages,
            "{geometries} geometries for {class_stages} class-stages: nothing shared"
        );
        // One trainable and one inference-only type keep the direct
        // per-(class, stage) planning affordable in debug builds.
        let types = [
            (ModelId::BertBase, JobKind::Training),
            (ModelId::XlmRobertaXl, JobKind::BatchInference),
        ];
        let mut checked = 0;
        for (class, g) in fleet.geometry.iter().enumerate() {
            let rep = fleet
                .class_of
                .iter()
                .position(|&c| c == class)
                .expect("class has a job");
            let job = &cfg.jobs[rep];
            if job.executor.fill_fraction == 0.0 {
                continue;
            }
            for (stage, windows) in g.stage_windows.iter().enumerate() {
                let slots: Vec<_> = window_slots(windows).collect();
                let StagePlanning { memo, geometry } = fleet.class_stages[class][stage];
                let memo = &mut fleet.profiles[memo];
                assert_eq!(memo.device(), &job.main_job.device);
                for (model, kind) in types {
                    let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
                    let direct = if slots.is_empty() {
                        None
                    } else {
                        plan_best(&probe, &slots, &job.main_job.device, &job.executor).ok()
                    };
                    let shared = memo.plan(model, kind, geometry).map(|p| (**p).clone());
                    assert_eq!(
                        shared, direct,
                        "class {class} stage {stage} {model:?} {kind}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn non_filling_jobs_never_reach_the_planner() {
        // `plan_best` rejects a zero fill fraction in
        // `ExecutorConfig::validate`, so a single planner call for an
        // opted-out job would panic this run.
        let cfg = production_fleet(3, 3).with_mtbf(SimDuration::from_secs(60));
        let opted_out = cfg
            .jobs
            .iter()
            .filter(|j| j.executor.fill_fraction == 0.0)
            .count();
        assert!(opted_out > 0, "the fleet must contain opted-out jobs");
        assert!(opted_out < cfg.jobs.len(), "and filling ones");
        let (_, backend) = BackendDriver::new(FleetBackend::new(cfg.clone())).run();
        let mut planned = 0;
        for (class, stages) in backend.class_stages.iter().enumerate() {
            let rep = backend
                .class_of
                .iter()
                .position(|&c| c == class)
                .expect("class has a job");
            let types: usize = stages
                .iter()
                .map(|sp| backend.profiles[sp.memo].planned_types(sp.geometry))
                .sum();
            if cfg.jobs[rep].executor.fill_fraction == 0.0 {
                assert_eq!(types, 0, "class {class} declines filling but was planned");
            }
            planned += types;
        }
        assert!(planned > 0, "filling jobs plan on first draw");
    }

    fn quiescent_fleet(jobs: usize, iterations: usize) -> FleetSimConfig {
        // No jitter, deterministic single-model mix, small fill jobs:
        // every job's iteration stream cycles quickly, so fast-forward
        // fires (each job still owns a distinct seed, which only matters
        // for sampled mixes — kept distinct to mirror real fleets).
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let jobs = (0..jobs)
            .map(|j| {
                let mut job = FleetJobConfig::new(main.clone());
                job.iterations = iterations;
                job.seed = 7 + j as u64;
                job
            })
            .collect();
        let mut cfg = FleetSimConfig::new(jobs);
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.002;
        cfg
    }

    #[test]
    fn fast_forward_matches_event_fidelity_bit_for_bit() {
        let cfg = quiescent_fleet(1, 400);
        let mut off = cfg.clone();
        off.fast_forward = false;
        let mut r_on = run(cfg);
        let r_off = run(off);
        assert!(
            r_on.iterations_fast_forwarded > 0,
            "steady state never detected"
        );
        assert_eq!(r_off.iterations_fast_forwarded, 0);
        assert_eq!(r_on.fill_flops.to_bits(), r_off.fill_flops.to_bits());
        r_on.iterations_fast_forwarded = 0;
        assert_eq!(r_on, r_off);
    }

    #[test]
    fn multi_job_fast_forward_matches_per_job_results_bit_for_bit() {
        // Each job skips its own cycles independently. The per-job
        // results (and the completed-id *set*) are bit-identical either
        // way; only the global completion interleaving may differ, since
        // a skipping job appends a cycle's completions at once.
        let cfg = quiescent_fleet(3, 400);
        let mut off = cfg.clone();
        off.fast_forward = false;
        let r_on = run(cfg);
        let r_off = run(off);
        assert!(r_on.iterations_fast_forwarded > 0);
        assert_eq!(r_on.jobs, r_off.jobs);
        assert_eq!(r_on.fill_flops.to_bits(), r_off.fill_flops.to_bits());
        assert_eq!(r_on.fill_jobs_completed, r_off.fill_jobs_completed);
        let mut on_ids = r_on.completed_fill_ids.clone();
        let mut off_ids = r_off.completed_fill_ids.clone();
        on_ids.sort_unstable();
        off_ids.sort_unstable();
        assert_eq!(on_ids, off_ids);
    }

    #[test]
    fn jittered_fleets_never_fast_forward() {
        let r = run(twin_fleet(11));
        assert_eq!(r.iterations_fast_forwarded, 0);
    }

    #[test]
    #[should_panic(expected = "at least one main job")]
    fn empty_fleet_rejected() {
        let _ = FleetBackend::new(FleetSimConfig {
            jobs: vec![],
            policy: PolicyKind::Fifo,
            mix: ModelMix::paper_mix(),
            jitter_cv: 0.08,
            usable_fraction: 0.88,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            seed: 7,
            mtbf: SimDuration::MAX,
            mean_recovery: SimDuration::from_secs(120),
            checkpoint_cost: SimDuration::from_secs(2),
            checkpoint_every_bubbles: 8,
            fast_forward: true,
            steady_confirm: 1,
            memory_jitter_cv: 0.0,
        });
    }

    #[test]
    fn rotation_ties_resolve_by_index_deterministically() {
        // A 50/50 blend produces exact accumulator ties every other draw;
        // the fixed index-order rule (last maximal index wins, matching
        // the historical `max_by` behavior) must alternate
        // deterministically instead of depending on float comparison
        // quirks.
        let mix = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, 0.5);
        let mut r = MixRotation::new(&mix);
        let seq: Vec<ModelId> = (0..8).map(|_| r.next().0).collect();
        let expect: Vec<ModelId> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    ModelId::EfficientNet
                } else {
                    ModelId::XlmRobertaXl
                }
            })
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn rotation_rejects_unusable_weights() {
        // Regression: non-finite weights used to panic inside the
        // per-draw `max_by(partial_cmp)` selection; they now surface as a
        // constructor error.
        assert!(MixRotation::try_from_weights(&[]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::NAN)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::INFINITY)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, -1.0)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, 0.0)]).is_err());
        assert!(MixRotation::try_new(&ModelMix::paper_mix()).is_ok());
    }
}
