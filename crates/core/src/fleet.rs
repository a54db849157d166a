//! The fleet-scale multi-job cluster simulator.
//!
//! Every other backend in this crate simulates exactly one
//! pipeline-parallel main job with a private fill queue; the paper's
//! headline projections (Figs. 9/10, §6.2) are about *fleets* — thousands
//! of GPUs running many jobs at once, with bubble-filling operated as a
//! cluster-level service (the framing FreeRide makes explicit).
//! [`FleetBackend`] is that fleet: N concurrent main jobs —
//! heterogeneous pipeline depths, iteration periods, and device
//! generations per job — on one shared event kernel, sharing one
//! cluster-wide [`GlobalFillQueue`](pipefill_scheduler::GlobalFillQueue).
//!
//! * **Per-job mechanics are the physical model's.** Each main job
//!   unfolds exactly like a [`PhysicalBackend`](crate::PhysicalBackend)
//!   run: per-stage `StageBubbles` events on a *flat* device index space,
//!   per-bubble fill execution with jitter and switch costs, and a
//!   [`ClusterEvent::JobIterationEnd`] per job that folds that job's
//!   stalls into its own critical path. Each job owns its workload RNG
//!   stream, so a job's realized workload is independent of which other
//!   jobs share the fleet — and a **1-job homogeneous fleet reproduces
//!   the physical backend bit for bit**, which the conformance suite
//!   pins.
//! * **The fill layer is cluster-wide.** Device failures (optional,
//!   seeded per flat device) evict the running fill job; the work since
//!   its last checkpoint is lost and the job re-enters the *global*
//!   queue with its original arrival. Locality-aware dispatch: an
//!   evicted fill job's execution plan is bound to a bubble geometry, so
//!   it is feasible exactly on stages with matching geometry — its own
//!   pipeline's stage, or the same stage of any *identically shaped* job
//!   that admits foreign work (per-job admission). Cross-job resumes are
//!   counted, making "how much does a global queue buy over per-job
//!   queues" a measurable quantity.
//!
//! Construction profiles each distinct job *shape* once (jobs with
//! identical main-job spec and executor tuning share bubble geometry)
//! and fans the profiling across cores through the sweep driver —
//! results are byte-stable at any thread count because geometry is a
//! pure function of the spec and all simulation randomness flows through
//! per-job seeded streams. Fill-job sizing and plans come from one
//! [`FillProfiles`] memo per distinct device, so every shape on the same
//! GPU shares throughputs, and stages with equal bubbles share plans.

use std::collections::HashMap;

use pipefill_device::DeviceSpec;
use pipefill_executor::{
    ExecutorCheckpoint, ExecutorConfig, FillJobExecutor, FillJobSpec, FillProfiles, GeometryId,
    JobId,
};
use pipefill_pipeline::{BubbleWindow, MainJobSpec, ParallelismConfig, ScheduleKind};
use pipefill_scheduler::{GlobalFillQueue, JobInfo, SystemState};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::{EventHandler, EventQueue, SimDuration, SimTime, Simulation};
use pipefill_trace::{DeviceGeneration, FleetJobPlan, FleetWorkloadConfig, ModelMix};
use serde::{Deserialize, Serialize};

use crate::backend::{BackendDriver, BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::cluster::PolicyKind;
use crate::experiments::sweep;
use crate::ff::{SteadyCounters, SteadyDetector};
use crate::physical::{
    critical_path_delay, sig_executor, sig_rotation, window_slots, MixRotation, PhysicalSimConfig,
};

/// Per-job signature history cap. Smaller than the single-job backends'
/// [`STEADY_HISTORY`](crate::physical::STEADY_HISTORY): a fleet carries
/// one detector per main job, and observed steady cycles are short (a few
/// iterations), so a modest window keeps thousand-job fleets cheap while
/// still detecting every cycle the other backends do.
const FLEET_STEADY_HISTORY: usize = 64;

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
            main_job,
            executor,
            iterations: plan.iterations,
            seed: plan.seed,
            admits_foreign: plan.admits_foreign,
        }
    }
}

/// Fleet-simulation parameters. Workload knobs shared with the physical
/// backend keep its defaults so the degenerate single-job fleet stays an
/// exact physical run.
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
        }
    }

    /// The degenerate fleet: one job carrying exactly the given physical
    /// configuration. This fleet reproduces
    /// [`PhysicalBackend`](crate::PhysicalBackend) bit for bit — the
    /// conformance suite's pin.
    ///
    /// # Panics
    ///
    /// Panics if the physical configuration injects memory jitter, which
    /// the fleet backend does not model.
    pub fn from_physical(phys: &PhysicalSimConfig) -> Self {
        assert_eq!(
            phys.memory_jitter_cv, 0.0,
            "the fleet backend does not model memory jitter"
        );
        let job = FleetJobConfig {
            main_job: phys.main_job.clone(),
            executor: phys.executor,
            iterations: phys.iterations,
            seed: phys.seed,
            admits_foreign: true,
        };
        let mut cfg = FleetSimConfig::new(vec![job]);
        cfg.mix = phys.mix.clone();
        cfg.jitter_cv = phys.jitter_cv;
        cfg.usable_fraction = phys.usable_fraction;
        cfg.backlog_job_gpu_hours = phys.backlog_job_gpu_hours;
        cfg.deterministic_mix = phys.deterministic_mix;
        cfg.seed = phys.seed;
        cfg.fast_forward = phys.fast_forward;
        cfg.steady_confirm = phys.steady_confirm;
        cfg
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

/// Per-job output of a fleet run. The accounting mirrors
/// [`PhysicalSimResult`](crate::PhysicalSimResult) field for field so
/// the degenerate single-job fleet can be diffed bit for bit.
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
/// identical main-job spec and executor tuning share one geometry (and
/// one plan cache), so an 8K-GPU fleet profiles each distinct shape
/// once, not once per job.
struct JobGeometry {
    period: SimDuration,
    main_nominal: f64,
    bubble_ratio: f64,
    stage_windows: Vec<Vec<BubbleWindow>>,
}

impl JobGeometry {
    fn profile(main_job: &MainJobSpec) -> Self {
        let timeline = main_job.engine_timeline();
        let stage_windows: Vec<Vec<BubbleWindow>> = timeline
            .stages
            .iter()
            .map(|s| s.fillable_windows())
            .collect();
        JobGeometry {
            period: timeline.period,
            main_nominal: main_job.main_job_tflops_per_gpu(&timeline),
            bubble_ratio: timeline.bubble_ratio(),
            stage_windows,
        }
    }

    fn stages(&self) -> usize {
        self.stage_windows.len()
    }
}

/// A fill job bound to a stage, with the checkpoint state eviction
/// needs (the fleet-side twin of the fault backend's stage job).
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
    failures: u64,
    evictions: u64,
    bubbles_lost: u64,
    /// Steady-state detector over this job's private iteration stream.
    detector: SteadyDetector,
    fast_forwarded: u64,
}

/// The fleet backend: many physical-model pipelines on one kernel, one
/// global fill queue. See the module docs for the model.
pub struct FleetBackend {
    cfg: FleetSimConfig,
    /// Shape class per job; geometry/caches are indexed by class.
    class_of: Vec<usize>,
    geometry: Vec<JobGeometry>,
    /// One throughput/plan memo per distinct device: shape classes on
    /// the same GPU share throughputs, and stages with equal bubble
    /// geometry and tuning share plans.
    profiles: Vec<FillProfiles>,
    /// Index into `profiles` of each class's device.
    class_memo: Vec<usize>,
    /// Planner geometry of each class's stages, in its device's memo.
    class_stage_geometry: Vec<Vec<GeometryId>>,
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

        // Shape classes: identical (main job, executor tuning) pairs
        // share geometry and plan caches.
        let mut class_of: Vec<usize> = Vec::with_capacity(cfg.jobs.len());
        let mut class_reps: Vec<usize> = Vec::new();
        for (j, job) in cfg.jobs.iter().enumerate() {
            let class = class_reps
                .iter()
                .position(|&r| {
                    cfg.jobs[r].main_job == job.main_job && cfg.jobs[r].executor == job.executor
                })
                .unwrap_or_else(|| {
                    class_reps.push(j);
                    class_reps.len() - 1
                });
            class_of.push(class);
        }
        let geometry: Vec<JobGeometry> = sweep::par_map(class_reps.clone(), |rep| {
            JobGeometry::profile(&cfg.jobs[rep].main_job)
        });
        let mut profiles = Vec::new();
        let class_memo: Vec<usize> = class_reps
            .iter()
            .map(|&rep| FillProfiles::index_for(&mut profiles, &cfg.jobs[rep].main_job.device))
            .collect();
        let class_stage_geometry: Vec<Vec<GeometryId>> = class_reps
            .iter()
            .zip(&geometry)
            .zip(&class_memo)
            .map(|((&rep, g), &m)| {
                g.stage_windows
                    .iter()
                    .map(|ws| profiles[m].geometry(window_slots(ws), &cfg.jobs[rep].executor))
                    .collect()
            })
            .collect();

        let mut base = Vec::with_capacity(cfg.jobs.len());
        let mut flat_owner = Vec::new();
        for (j, &class) in class_of.iter().enumerate() {
            base.push(flat_owner.len());
            flat_owner.extend(std::iter::repeat_n(j, geometry[class].stages()));
        }

        let mut fail_root = DeterministicRng::seed_from(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let fail_rngs: Vec<DeterministicRng> =
            (0..flat_owner.len()).map(|_| fail_root.fork()).collect();

        let queue = GlobalFillQueue::new(
            cfg.policy.build(),
            flat_owner.clone(),
            cfg.jobs.iter().map(|job| job.admits_foreign).collect(),
        );

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
                    failures: 0,
                    evictions: 0,
                    bubbles_lost: 0,
                    // Faults feed the global queue, entangling the jobs;
                    // fast-forward only arms while each job's iteration
                    // stream is provably private (mtbf == MAX).
                    detector: SteadyDetector::new(
                        cfg.fast_forward && cfg.mtbf == SimDuration::MAX,
                        cfg.steady_confirm,
                        FLEET_STEADY_HISTORY,
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
            class_memo,
            class_stage_geometry,
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

    /// Draws the next backlog fill job for job `j`'s stage `s`.
    ///
    /// PARITY: mirrors `PhysicalBackend::draw_job` — same RNG draw order,
    /// same retry budget — so the 1-job homogeneous fleet stays
    /// bit-identical to the physical backend (the conformance suite pins
    /// this). Keep the two in sync when touching either.
    fn draw_job(&mut self, j: usize, stage: usize) -> Option<FillJobExecutor> {
        const MAX_TRIES: usize = 5;
        let class = self.class_of[j];
        let profiles = &mut self.profiles[self.class_memo[class]];
        let geometry = self.class_stage_geometry[class][stage];
        let backlog_gpu_hours = self.cfg.backlog_job_gpu_hours;
        for _ in 0..MAX_TRIES {
            let (model, kind) = {
                let mix = &self.cfg.mix;
                let js = &mut self.jobs_state[j];
                match js.rotation.as_mut() {
                    Some(r) => r.next(),
                    None => {
                        let model = mix.sample_model(&mut js.rng);
                        (model, mix.sample_kind(model, &mut js.rng))
                    }
                }
            };
            // Refcount bump, not a deep plan copy (hot path).
            let Some(plan) = profiles.plan(model, kind, geometry).cloned() else {
                continue;
            };
            let Some(samples) = profiles.samples_for(model, kind, backlog_gpu_hours) else {
                continue;
            };
            let js = &mut self.jobs_state[j];
            let id = ((j as u64) << 32) | js.next_fill_id;
            js.next_fill_id += 1;
            let job = FillJobSpec::new(id, model, kind, samples);
            return Some(FillJobExecutor::new(job, plan));
        }
        None
    }

    /// Finds work for an idle stage: evicted fill jobs in the global
    /// queue take priority over fresh backlog draws.
    fn acquire(&mut self, j: usize, s: usize, now: SimTime) -> Option<FillLease> {
        if self.queue.queue_len() > 0 {
            let flat = self.base[j] + s;
            // Reuse the all-idle snapshot (only the clock moves) rather
            // than allocating a devices-sized state per pick — this is
            // the hot path of every refill in a large fleet.
            self.idle_state.now = now;
            if let Some(info) = self.queue.pick_for(flat, &self.idle_state) {
                let lease = self
                    .parked
                    .remove(&info.id)
                    .expect("global queue and parked map must stay in sync");
                return Some(lease);
            }
        }
        self.draw_job(j, s).map(FillLease::fresh)
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
                self.jobs_state[j].stage_delays.push(SimDuration::ZERO);
                for slot in 0..self.geometry[self.class_of[j]].stage_windows[s].len() {
                    self.on_bubble(now, stage, slot, queue);
                }
                // This job's last stage ran: its stall aggregate is
                // known, and its iteration boundary lands at its own
                // stretched period.
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
                if js.iterations_done < iterations {
                    // Steady-state fast-forward, per job: each main job
                    // is an independent iteration stream while faults are
                    // off (the detector's arming gate), so a job can skip
                    // its own cycles regardless of what the rest of the
                    // fleet is doing. Mechanics as in the physical
                    // backend; the fill-id stream is replayed with the
                    // per-cycle draw stride like the fault backend's.
                    let mut next_at = now;
                    if js.detector.enabled() {
                        let counters = SteadyCounters {
                            completions: js.fills_completed as u64,
                            draws: js.next_fill_id,
                            aux: js.bubbles_lost,
                        };
                        if js.detector.observe(js.rng.state_fingerprint(), counters) {
                            let mut sig = Vec::with_capacity(2 + 10 * p);
                            sig_rotation(&js.rotation, &mut sig);
                            for (s, lease) in js.running.iter().enumerate() {
                                sig.push(js.up[s] as u64);
                                match lease {
                                    None => sig_executor(None, &mut sig),
                                    Some(l) => {
                                        sig_executor(Some(&l.exec), &mut sig);
                                        sig.push(l.unsaved_flops.to_bits());
                                        sig.push(l.runs_since_ckpt as u64);
                                        sig.push(l.restart_debt.as_nanos());
                                    }
                                }
                            }
                            let remaining = (iterations - js.iterations_done) as u64;
                            if let Some(skip) = js.detector.end_iteration(sig, delay, remaining) {
                                let stride = skip.counters.draws;
                                for m in 1..=skip.cycles {
                                    for rec in &skip.records {
                                        for &f in &rec.flops {
                                            js.executed_flops += f;
                                        }
                                        for &id in &rec.completed {
                                            self.completed_ids.push(JobId(id + m * stride));
                                        }
                                    }
                                }
                                js.total_delay += skip.delay_sum * skip.cycles;
                                js.iterations_done += skip.iterations() as usize;
                                js.fills_completed +=
                                    (skip.counters.completions * skip.cycles) as usize;
                                js.next_fill_id += skip.counters.draws * skip.cycles;
                                js.bubbles_lost += skip.counters.aux * skip.cycles;
                                js.fast_forwarded += skip.iterations();
                                // In-flight fill jobs advance with the
                                // skipped draws so post-skip completions
                                // continue the event-fidelity id stream.
                                for lease in js.running.iter_mut().flatten() {
                                    lease.exec.advance_job_id(stride * skip.cycles);
                                }
                                // Each skipped iteration would have fired
                                // one StageBubbles per stage of this job
                                // plus its JobIterationEnd.
                                queue.credit(skip.iterations() * (p as u64 + 1));
                                next_at = now + (period * skip.len + skip.delay_sum) * skip.cycles;
                            }
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
        if !self.jobs_state[j].up[s] {
            self.jobs_state[j].bubbles_lost += 1;
            return;
        }
        let window = self.geometry[self.class_of[j]].stage_windows[s][slot];
        if self.jobs_state[j].running[s].is_none() {
            let lease = self.acquire(j, s, now);
            self.jobs_state[j].running[s] = lease;
        }
        let jitter_cv = self.cfg.jitter_cv;
        let usable_fraction = self.cfg.usable_fraction;
        let switch_overhead = self.cfg.jobs[j].executor.switch_overhead;
        let ckpt_every = self.cfg.checkpoint_every_bubbles;
        let js = &mut self.jobs_state[j];
        let Some(lease) = js.running[s].as_mut() else {
            return;
        };
        // A revived fill job reloads its checkpoint before any new work;
        // the reload consumes whole bubbles without stalling the main
        // job.
        if !lease.restart_debt.is_zero() {
            let usable = window.duration.mul_f64(usable_fraction);
            lease.restart_debt = lease.restart_debt.saturating_sub(usable);
            return;
        }
        let run = lease.exec.on_bubble(slot);
        if run.time_used.is_zero() && run.samples_completed == 0 && !run.job_finished {
            return;
        }
        lease.unsaved_flops += run.flops;
        lease.runs_since_ckpt += 1;
        let finished = run.job_finished;
        let finished_id = lease.exec.job().id;
        if !finished && lease.runs_since_ckpt >= ckpt_every {
            lease.ckpt = lease.exec.checkpoint();
            lease.unsaved_flops = 0.0;
            lease.runs_since_ckpt = 0;
        }
        js.executed_flops += run.flops;
        js.detector.record_flops(run.flops);
        // Jittered reality, identical to the physical backend: bubble
        // and partition both deviate from their profiled durations.
        let actual_window = window.duration.mul_f64(js.rng.jitter(jitter_cv));
        let used = switch_overhead + run.time_used.mul_f64(js.rng.jitter(jitter_cv));
        let usable = actual_window.mul_f64(usable_fraction);
        let delay = used.saturating_sub(usable);
        if js.stage_delays.is_empty() {
            js.stage_delays.push(SimDuration::ZERO);
        }
        *js.stage_delays.last_mut().expect("just ensured non-empty") += delay;
        if finished {
            js.fills_completed += 1;
            js.detector.record_completion(finished_id.0);
            js.running[s] = None;
            self.completed_ids.push(finished_id);
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
            // Outages in flight at the end only count up to this job's
            // final iteration boundary.
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

/// The fleet simulator: the convenience entry point wrapping
/// [`FleetBackend`] in a [`BackendDriver`]. See module docs.
#[derive(Debug)]
pub struct FleetSim {
    config: FleetSimConfig,
}

impl FleetSim {
    /// Creates a simulator.
    pub fn new(config: FleetSimConfig) -> Self {
        FleetSim { config }
    }

    /// Runs the simulation on the shared event kernel.
    pub fn run(&self) -> FleetSimResult {
        let (_, backend) = BackendDriver::new(FleetBackend::new(self.config.clone())).run();
        backend.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysicalSim;

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
        let result = FleetSim::new(cfg).run();
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
        // The degenerate pin: one homogeneous job, no faults — every
        // randomness-consuming code path is the physical backend's.
        let phys_cfg = physical_config(7);
        let phys = PhysicalSim::new(phys_cfg.clone()).run();
        let fleet = FleetSim::new(FleetSimConfig::from_physical(&phys_cfg)).run();
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
        let a = FleetSim::new(cfg.clone()).run();
        let b = FleetSim::new(cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_are_independent_without_faults() {
        // A job's workload stream is its own: adding a second job to the
        // fleet must not perturb the first one's results.
        let solo = FleetSim::new(FleetSimConfig::from_physical(&physical_config(3))).run();
        let mut duo_cfg = twin_fleet(3);
        duo_cfg.jobs[0].seed = 3;
        let duo = FleetSim::new(duo_cfg).run();
        assert_eq!(duo.jobs[0].fill_flops, solo.jobs[0].fill_flops);
        assert_eq!(duo.jobs[0].main_slowdown, solo.jobs[0].main_slowdown);
    }

    #[test]
    fn failures_route_evictions_through_the_global_queue() {
        let cfg = twin_fleet(5).with_mtbf(SimDuration::from_secs(200));
        let r = FleetSim::new(cfg).run();
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
        let r = FleetSim::new(cfg).run();
        assert!(r.evictions > 0);
        assert_eq!(
            r.cross_job_dispatches, 0,
            "admission off, yet work crossed jobs"
        );
    }

    #[test]
    fn completed_fill_ids_are_unique_under_churn() {
        let cfg = twin_fleet(9).with_mtbf(SimDuration::from_secs(200));
        let r = FleetSim::new(cfg).run();
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
        let r = FleetSim::new(cfg).run();
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
        let r = FleetSim::new(cfg).run();
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
            let memo = &mut fleet.profiles[fleet.class_memo[class]];
            assert_eq!(memo.device(), &job.main_job.device);
            for (stage, windows) in g.stage_windows.iter().enumerate() {
                let slots: Vec<_> = window_slots(windows).collect();
                let geometry = fleet.class_stage_geometry[class][stage];
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
        for (class, geometries) in backend.class_stage_geometry.iter().enumerate() {
            let rep = backend
                .class_of
                .iter()
                .position(|&c| c == class)
                .expect("class has a job");
            let memo = &backend.profiles[backend.class_memo[class]];
            let types: usize = geometries.iter().map(|&g| memo.planned_types(g)).sum();
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
        let mut r_on = FleetSim::new(cfg).run();
        let r_off = FleetSim::new(off).run();
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
        let r_on = FleetSim::new(cfg).run();
        let r_off = FleetSim::new(off).run();
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
        let r = FleetSim::new(twin_fleet(11)).run();
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
        });
    }
}
