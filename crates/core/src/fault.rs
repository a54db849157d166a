//! The heterogeneous, failure-injecting cluster simulator.
//!
//! The third fidelity level behind the [`SimBackend`](crate::SimBackend)
//! seam. It extends the fine-grained physical model along the two axes the
//! paper's testbed cannot express:
//!
//! * **Heterogeneous stages** — each pipeline stage may run a different
//!   GPU generation ([`FaultSimConfig::stage_devices`]). The slowest
//!   stage paces the pipeline, so the iteration period stretches to
//!   `period × max(slowdown)` and every *other* stage gains idle time:
//!   its fillable windows grow by exactly the slack the pacing stage
//!   creates (Zero-Bubble-style bubble-geometry shifts under hardware
//!   variation). Execution plans, free bubble memory and fill throughput
//!   are all derived from the stage's own device spec.
//! * **Fault injection** — each device fails as a Poisson process with a
//!   configurable MTBF ([`FaultSimConfig::mtbf`]). A failure evicts the
//!   fill job running on that stage: work since the job's last checkpoint
//!   is charged to `lost_fill_flops`, the executor rewinds to the
//!   checkpoint, and the job re-enters the
//!   [`FillJobScheduler`](pipefill_scheduler::FillJobScheduler) with its
//!   original arrival time (FreeRide-style preemption accounting: side
//!   jobs survive eviction but pay for it). When the stage recovers, the
//!   revived job must burn [`FaultSimConfig::checkpoint_cost`] of bubble
//!   time reloading state before it makes progress. Bubbles that pass
//!   while a stage is down are lost to filling. The *main* job's own
//!   fault tolerance (elastic redundancy, hot spares) is out of scope:
//!   failures here attack the fill layer, which is exactly the part
//!   FreeRide shows must survive preemption — so `main_slowdown` keeps
//!   the physical backend's meaning (fill-overrun stalls only).
//!
//! With an infinite MTBF and a homogeneous device list, every code path
//! that consumes randomness is identical to
//! [`PhysicalBackend`](crate::PhysicalBackend)'s, so the no-fault fault
//! backend reproduces the physical backend *bit for bit* — which is what
//! makes the cross-backend conformance suite
//! (`tests/backend_conformance.rs`) an exact regression gate rather than
//! a statistical one.
//!
//! Determinism is structural, as everywhere else: workload randomness
//! comes from one seeded [`DeterministicRng`] stream shared with the
//! physical backend's draw order, failure processes own per-stage forked
//! streams (so sweeping the MTBF never perturbs the workload), and all
//! event ordering goes through the kernel queue.

use std::collections::HashMap;

use pipefill_device::DeviceSpec;
use pipefill_executor::{
    ExecutorConfig, FillJobExecutor, FillJobSpec, FillProfiles, GeometryId, JobId,
};
use pipefill_pipeline::{BubbleWindow, MainJobSpec};
use pipefill_scheduler::{Fifo, FillJobScheduler, JobInfo, SystemState};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::{EventHandler, EventQueue, SimDuration, SimTime, Simulation};
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendDriver, BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::ff::{SteadyCounters, SteadyDetector};
use crate::physical::{
    critical_path_delay, sig_executor, sig_rotation, window_slots, MixRotation, STEADY_HISTORY,
};

/// Heterogeneous + fault-injecting simulation parameters.
#[derive(Debug, Clone)]
pub struct FaultSimConfig {
    /// The main job; its device is the *baseline* GPU that heterogeneous
    /// stages are expressed relative to.
    pub main_job: MainJobSpec,
    /// Executor tuning; `fill_fraction == 0.0` disables filling.
    pub executor: ExecutorConfig,
    /// Fill-job model mix (devices draw from an infinite backlog).
    pub mix: ModelMix,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// RNG seed (workload stream; failure streams are forked per stage).
    pub seed: u64,
    /// Coefficient of variation of the multiplicative timing jitter.
    pub jitter_cv: f64,
    /// Fraction of each (jittered) bubble actually usable for filling.
    pub usable_fraction: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling (exact mix realization, as in the Fig. 6 runs).
    pub deterministic_mix: bool,
    /// Per-stage GPU specs. Empty means homogeneous: every stage runs
    /// `main_job.device`. When non-empty the length must equal the
    /// pipeline depth.
    pub stage_devices: Vec<DeviceSpec>,
    /// Per-device mean time between failures. [`SimDuration::MAX`]
    /// disables fault injection entirely.
    pub mtbf: SimDuration,
    /// Mean outage length once a device fails.
    pub mean_recovery: SimDuration,
    /// Bubble time an evicted job must burn reloading its checkpoint
    /// before it resumes making progress after recovery.
    pub checkpoint_cost: SimDuration,
    /// A job checkpoints automatically after this many executed bubble
    /// partitions; work since the last checkpoint is lost on eviction.
    pub checkpoint_every_bubbles: usize,
    /// Steady-state fast-forward (see
    /// [`PhysicalSimConfig::fast_forward`](crate::PhysicalSimConfig)).
    /// Only armed when fault injection is off (`mtbf == MAX`): failure
    /// events are external transitions that void any cycle hypothesis.
    pub fast_forward: bool,
    /// Signature matches required before the first fast-forward skip;
    /// `u32::MAX` pins fast-forward off (see
    /// [`PhysicalSimConfig::steady_confirm`](crate::PhysicalSimConfig)).
    pub steady_confirm: u32,
}

impl FaultSimConfig {
    /// Defaults matching [`crate::PhysicalSimConfig::new`] with faults
    /// disabled and a homogeneous cluster — the configuration under which
    /// this backend reproduces the physical backend exactly.
    pub fn new(main_job: MainJobSpec) -> Self {
        FaultSimConfig {
            main_job,
            executor: ExecutorConfig::default(),
            mix: ModelMix::paper_mix(),
            iterations: 200,
            seed: 7,
            jitter_cv: 0.08,
            usable_fraction: 0.88,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            stage_devices: Vec::new(),
            mtbf: SimDuration::MAX,
            mean_recovery: SimDuration::from_secs(120),
            checkpoint_cost: SimDuration::from_secs(2),
            checkpoint_every_bubbles: 8,
            fast_forward: true,
            steady_confirm: 1,
        }
    }

    /// A heterogeneous pipeline: one device spec per stage.
    pub fn heterogeneous(main_job: MainJobSpec, stage_devices: Vec<DeviceSpec>) -> Self {
        let mut cfg = FaultSimConfig::new(main_job);
        cfg.stage_devices = stage_devices;
        cfg
    }

    /// Sets the fill fraction (0.0 = no-filling baseline).
    pub fn with_fill_fraction(mut self, f: f64) -> Self {
        if f == 0.0 {
            self.executor.fill_fraction = 0.0;
        } else {
            self.executor = self.executor.with_fill_fraction(f);
        }
        self
    }

    /// Sets the model mix.
    pub fn with_mix(mut self, mix: ModelMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the mean time between failures per device.
    pub fn with_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.mtbf = mtbf;
        self
    }

    /// Sets the checkpoint-restart cost charged to each eviction.
    pub fn with_checkpoint_cost(mut self, cost: SimDuration) -> Self {
        self.checkpoint_cost = cost;
        self
    }
}

/// Heterogeneous + fault simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSimResult {
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period of the (possibly heterogeneous)
    /// pipeline — already stretched to the pacing stage.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-overrun stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown from fill-overrun stalls (outages attack the
    /// fill layer, not the main job — see the module docs).
    pub main_slowdown: f64,
    /// Fill FLOPs that survived (executed minus lost to evictions).
    pub fill_flops: f64,
    /// Fill FLOPs executed but lost to evictions.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per GPU over the stretched run.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (heterogeneity- and slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed.
    pub jobs_completed: usize,
    /// Ids of completed jobs, in completion order. A job evicted and
    /// revived appears at most once — the double-completion invariant the
    /// property suite checks.
    pub completed_job_ids: Vec<JobId>,
    /// Device failures injected.
    pub failures: u64,
    /// Fill jobs evicted by failures.
    pub evictions: u64,
    /// Bubbles that passed while their stage was down.
    pub bubbles_lost: u64,
    /// Total device downtime across the run (outages in flight at the
    /// end are clamped to the run's span).
    pub downtime: SimDuration,
    /// `fill_flops / (fill_flops + lost_fill_flops)`; 1 when nothing ran.
    pub goodput_fraction: f64,
    /// Iterations skipped analytically by steady-state fast-forward
    /// (always zero while fault injection is on).
    pub iterations_fast_forwarded: u64,
}

impl FaultSimResult {
    /// Aggregate TFLOPS per GPU.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// A fill job bound to a stage, with the checkpoint state eviction needs.
#[derive(Debug)]
struct StageJob {
    exec: FillJobExecutor,
    ckpt: pipefill_executor::ExecutorCheckpoint,
    /// FLOPs executed since `ckpt` — lost if the device fails now.
    unsaved_flops: f64,
    /// Bubble partitions executed since `ckpt`.
    runs_since_ckpt: usize,
    /// Bubble time still owed to checkpoint reloading after a revival.
    restart_debt: SimDuration,
}

impl StageJob {
    fn fresh(exec: FillJobExecutor) -> Self {
        let ckpt = exec.checkpoint();
        StageJob {
            exec,
            ckpt,
            unsaved_flops: 0.0,
            runs_since_ckpt: 0,
            restart_debt: SimDuration::ZERO,
        }
    }
}

/// The heterogeneous, failure-injecting backend. See the module docs for
/// the model; see [`PhysicalBackend`](crate::PhysicalBackend) for the
/// bubble-execution mechanics the two fidelities share.
pub struct FaultBackend {
    cfg: FaultSimConfig,
    /// Stretched iteration period (pacing-stage adjusted).
    period: SimDuration,
    /// Main-job TFLOPS per GPU at the stretched period, before slowdown.
    main_nominal: f64,
    /// Estimated bubble ratio of the heterogeneous pipeline.
    bubble_ratio: f64,
    stage_windows: Vec<Vec<BubbleWindow>>,
    /// One throughput/plan memo per distinct stage device, so a
    /// homogeneous cluster profiles each (model, kind) once, not once
    /// per stage.
    profiles: Vec<FillProfiles>,
    /// Index into `profiles` of each stage's device.
    stage_memo: Vec<usize>,
    /// Each stage's windows as a planner geometry in its device's memo.
    stage_geometry: Vec<GeometryId>,
    /// Workload stream — draw order mirrors the physical backend.
    rng: DeterministicRng,
    /// Per-stage failure processes, independent of the workload stream.
    fail_rngs: Vec<DeterministicRng>,
    rotation: Option<MixRotation>,
    /// Evicted jobs wait here; `evicted` parks their executor state.
    scheduler: FillJobScheduler,
    evicted: HashMap<JobId, StageJob>,
    stage_jobs: Vec<Option<StageJob>>,
    up: Vec<bool>,
    /// End of each stage's outage in flight, for clamping the last
    /// outage's downtime to the run.
    down_until: Vec<SimTime>,
    next_job_id: u64,
    iterations_done: usize,
    stage_delays: Vec<SimDuration>,
    total_delay: SimDuration,
    downtime: SimDuration,
    /// All fill FLOPs executed, surviving or not.
    executed_flops: f64,
    lost_flops: f64,
    jobs_completed: usize,
    completed_ids: Vec<JobId>,
    failures: u64,
    evictions: u64,
    bubbles_lost: u64,
    detector: SteadyDetector,
    fast_forwarded: u64,
    result: Option<FaultSimResult>,
}

impl FaultBackend {
    /// Builds the backend: profiles the baseline pipeline once, then
    /// re-derives per-stage bubble geometry from the stage devices.
    ///
    /// # Panics
    ///
    /// Panics if `stage_devices` is non-empty with a length different
    /// from the pipeline depth.
    pub fn new(cfg: FaultSimConfig) -> Self {
        let timeline = cfg.main_job.engine_timeline();
        let base_period = timeline.period;
        let base_nominal = cfg.main_job.main_job_tflops_per_gpu(&timeline);
        let base_ratio = timeline.bubble_ratio();
        let p = timeline.stages.len();
        let baseline = &cfg.main_job.device;

        let stage_devices: Vec<DeviceSpec> = if cfg.stage_devices.is_empty() {
            vec![baseline.clone(); p]
        } else {
            assert_eq!(
                cfg.stage_devices.len(),
                p,
                "stage_devices must cover every pipeline stage ({p})"
            );
            cfg.stage_devices.clone()
        };
        // slow_s > 1 ⇒ stage s is slower than the baseline; the slowest
        // stage paces the pipeline.
        let slow: Vec<f64> = stage_devices
            .iter()
            .map(|d| 1.0 / d.relative_speed(baseline))
            .collect();
        let max_slow = slow.iter().cloned().fold(f64::MIN, f64::max);
        let period = base_period.mul_f64(max_slow);

        // Stage s keeps its busy time (scaled by its own slowness) and
        // absorbs the pacing slack as extra fillable span:
        //   W'_s = P' − slow_s × (P − W_s)
        // which reduces to W_s when the cluster is homogeneous.
        let stage_windows: Vec<Vec<BubbleWindow>> = timeline
            .stages
            .iter()
            .enumerate()
            .map(|(s, stage)| {
                let windows = stage.fillable_windows();
                let w_total: SimDuration = windows.iter().map(|w| w.duration).sum();
                if w_total.is_zero() {
                    return windows;
                }
                let busy = base_period.saturating_sub(w_total).mul_f64(slow[s]);
                let w_new = period.saturating_sub(busy);
                let scale = w_new.as_secs_f64() / w_total.as_secs_f64();
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
        let mut profiles = Vec::new();
        let stage_memo: Vec<usize> = stage_devices
            .iter()
            .map(|d| FillProfiles::index_for(&mut profiles, d))
            .collect();
        let stage_geometry: Vec<GeometryId> = stage_windows
            .iter()
            .zip(&stage_memo)
            .map(|(ws, &m)| profiles[m].geometry(window_slots(ws), &cfg.executor))
            .collect();

        // The main job's FLOPs per iteration are unchanged; only the
        // period stretched, so the per-GPU rate scales by P/P'. The
        // bubble-ratio estimate scales the busy share the same way.
        let period_ratio = base_period.as_secs_f64() / period.as_secs_f64();
        let avg_slow = slow.iter().sum::<f64>() / p as f64;
        let main_nominal = base_nominal * period_ratio;
        let bubble_ratio = (1.0 - (1.0 - base_ratio) * avg_slow * period_ratio).clamp(0.0, 1.0);

        let rng = DeterministicRng::seed_from(cfg.seed);
        // Failure streams are forked from a *separate* root so MTBF
        // sweeps never perturb the workload stream.
        let mut fail_root = DeterministicRng::seed_from(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let fail_rngs: Vec<DeterministicRng> = (0..p).map(|_| fail_root.fork()).collect();
        let rotation = cfg.deterministic_mix.then(|| MixRotation::new(&cfg.mix));
        // Failure events are external transitions that would invalidate
        // any detected cycle, so fast-forward only arms with faults off —
        // the configuration where this backend is a (possibly
        // heterogeneous) pure iteration loop like the physical one.
        let detector = SteadyDetector::new(
            cfg.fast_forward && cfg.mtbf == SimDuration::MAX,
            cfg.steady_confirm,
            STEADY_HISTORY,
        );

        FaultBackend {
            period,
            main_nominal,
            bubble_ratio,
            stage_windows,
            profiles,
            stage_memo,
            stage_geometry,
            rng,
            fail_rngs,
            rotation,
            scheduler: FillJobScheduler::new(Box::new(Fifo)),
            evicted: HashMap::new(),
            stage_jobs: (0..p).map(|_| None).collect(),
            up: vec![true; p],
            down_until: vec![SimTime::ZERO; p],
            next_job_id: 0,
            iterations_done: 0,
            stage_delays: Vec::with_capacity(p),
            total_delay: SimDuration::ZERO,
            downtime: SimDuration::ZERO,
            executed_flops: 0.0,
            lost_flops: 0.0,
            jobs_completed: 0,
            completed_ids: Vec::new(),
            failures: 0,
            evictions: 0,
            bubbles_lost: 0,
            detector,
            fast_forwarded: 0,
            result: None,
            cfg,
        }
    }

    /// Pipeline depth.
    fn stages(&self) -> usize {
        self.stage_windows.len()
    }

    /// True while fill events exist (mirrors the physical prime guard;
    /// failure processes are pointless without them).
    fn filling(&self) -> bool {
        self.cfg.executor.fill_fraction != 0.0 && self.cfg.iterations > 0
    }

    /// Draws the next backlog job for a stage against that stage's device
    /// and bubble geometry.
    ///
    /// PARITY: this mirrors `PhysicalBackend::draw_job` — same RNG draw
    /// order, same retry budget — so the no-fault homogeneous run stays
    /// bit-identical to the physical backend (the conformance suite pins
    /// this). Keep the two in sync when touching either.
    fn draw_job(&mut self, stage: usize) -> Option<FillJobExecutor> {
        const MAX_TRIES: usize = 5;
        let cfg = &self.cfg;
        let profiles = &mut self.profiles[self.stage_memo[stage]];
        let geometry = self.stage_geometry[stage];
        for _ in 0..MAX_TRIES {
            let (model, kind) = match self.rotation.as_mut() {
                Some(r) => r.next(),
                None => {
                    let model = cfg.mix.sample_model(&mut self.rng);
                    (model, cfg.mix.sample_kind(model, &mut self.rng))
                }
            };
            // Refcount bump, not a deep plan copy (hot path).
            let Some(plan) = profiles.plan(model, kind, geometry).cloned() else {
                continue;
            };
            let Some(samples) = profiles.samples_for(model, kind, cfg.backlog_job_gpu_hours) else {
                continue;
            };
            let id = self.next_job_id;
            self.next_job_id += 1;
            let job = FillJobSpec::new(id, model, kind, samples);
            return Some(FillJobExecutor::new(job, plan));
        }
        None
    }

    /// Finds work for an idle stage: evicted jobs waiting in the
    /// scheduler take priority over fresh backlog draws.
    fn acquire_job(&mut self, stage: usize, now: SimTime) -> Option<StageJob> {
        let state = SystemState::idle(now, self.stages());
        if let Some(info) = self.scheduler.pick_for(stage, &state) {
            let job = self
                .evicted
                .remove(&info.id)
                .expect("scheduler queue and evicted map must stay in sync");
            return Some(job);
        }
        self.draw_job(stage).map(StageJob::fresh)
    }

    /// Evicts the fill job running on `stage` (device failed): work since
    /// the last checkpoint is lost, the executor rewinds, and the job
    /// re-enters the scheduler owing the restart cost.
    fn evict(&mut self, stage: usize) {
        let Some(mut job) = self.stage_jobs[stage].take() else {
            return;
        };
        self.evictions += 1;
        self.lost_flops += job.unsaved_flops;
        job.exec.restore(job.ckpt);
        job.unsaved_flops = 0.0;
        job.runs_since_ckpt = 0;
        job.restart_debt = self.cfg.checkpoint_cost;

        // Plans are stage-specific (bubble geometry and device differ),
        // so the job is only feasible back on its origin stage.
        let remaining = self.period * job.exec.remaining_main_iterations();
        let mut proc_times = vec![None; self.stages()];
        proc_times[stage] = Some(remaining);
        let info = JobInfo::new(job.exec.job().id, job.exec.job().arrival, proc_times);
        self.scheduler.requeue(info);
        self.evicted.insert(job.exec.job().id, job);
    }

    /// Critical-path aggregation of the in-flight iteration's fill
    /// stalls (shared with the physical backend).
    fn aggregate_delay(&self) -> SimDuration {
        critical_path_delay(&self.stage_delays)
    }

    /// Full behavioral state at an iteration boundary (see
    /// `PhysicalBackend::steady_sig` for the contract). On top of the
    /// shared rotation + executor state this fidelity adds its fault
    /// layer: device up flags, checkpoint-window progress and restart
    /// debt — everything that could make two boundaries diverge later.
    fn steady_sig(&self) -> Vec<u64> {
        let mut sig = Vec::with_capacity(3 + 11 * self.stages());
        sig_rotation(&self.rotation, &mut sig);
        sig.push(self.evicted.len() as u64);
        for (s, job) in self.stage_jobs.iter().enumerate() {
            sig.push(self.up[s] as u64);
            match job {
                None => sig_executor(None, &mut sig),
                Some(j) => {
                    sig_executor(Some(&j.exec), &mut sig);
                    sig.push(j.unsaved_flops.to_bits());
                    sig.push(j.runs_since_ckpt as u64);
                    sig.push(j.restart_debt.as_nanos());
                }
            }
        }
        sig
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> FaultSimResult {
        self.result
            .expect("backend not drained; drive it with BackendDriver::run")
    }
}

impl EventHandler for FaultBackend {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        match event {
            ClusterEvent::StageBubbles { stage } => {
                self.stage_delays.push(SimDuration::ZERO);
                for slot in 0..self.stage_windows[stage].len() {
                    self.on_bubble(now, stage, slot, queue);
                }
                if stage + 1 == self.stages() {
                    queue.push(
                        now + self.period + self.aggregate_delay(),
                        ClusterEvent::IterationEnd,
                    );
                }
            }
            ClusterEvent::IterationEnd => {
                let delay = self.aggregate_delay();
                self.total_delay += delay;
                self.stage_delays.clear();
                self.iterations_done += 1;
                if self.iterations_done < self.cfg.iterations {
                    // Steady-state fast-forward, exactly as in the
                    // physical backend — only armed with faults off, so
                    // the completed-id stream is the one extra accumulator
                    // to replay (ids advance by `draws` per cycle).
                    let mut next_at = now;
                    if self.detector.enabled() {
                        let counters = SteadyCounters {
                            completions: self.jobs_completed as u64,
                            draws: self.next_job_id,
                            aux: self.bubbles_lost,
                        };
                        if self
                            .detector
                            .observe(self.rng.state_fingerprint(), counters)
                        {
                            let sig = self.steady_sig();
                            let remaining = (self.cfg.iterations - self.iterations_done) as u64;
                            if let Some(skip) = self.detector.end_iteration(sig, delay, remaining) {
                                let stride = skip.counters.draws;
                                for m in 1..=skip.cycles {
                                    for rec in &skip.records {
                                        for &f in &rec.flops {
                                            self.executed_flops += f;
                                        }
                                        for &id in &rec.completed {
                                            self.completed_ids.push(JobId(id + m * stride));
                                        }
                                    }
                                }
                                self.total_delay += skip.delay_sum * skip.cycles;
                                self.iterations_done += skip.iterations() as usize;
                                self.jobs_completed +=
                                    (skip.counters.completions * skip.cycles) as usize;
                                self.next_job_id += skip.counters.draws * skip.cycles;
                                self.bubbles_lost += skip.counters.aux * skip.cycles;
                                // In-flight jobs were drawn a fixed number
                                // of cycles before they complete; their
                                // ids advance with the skipped draws so
                                // post-skip completions continue the
                                // event-fidelity id stream exactly.
                                for job in self.stage_jobs.iter_mut().flatten() {
                                    job.exec.advance_job_id(stride * skip.cycles);
                                }
                                self.fast_forwarded += skip.iterations();
                                queue.credit(skip.iterations() * (self.stages() as u64 + 1));
                                next_at =
                                    now + (self.period * skip.len + skip.delay_sum) * skip.cycles;
                            }
                        }
                    }
                    for stage in 0..self.stages() {
                        queue.push(next_at, ClusterEvent::StageBubbles { stage });
                    }
                }
            }
            ClusterEvent::DeviceFailure { device } => {
                // A failure landing after the last iteration has nothing
                // left to attack; dropping it (and its recovery) lets the
                // queue drain.
                if self.iterations_done >= self.cfg.iterations {
                    return;
                }
                debug_assert!(self.up[device], "failure on an already-down device");
                // Defensive: faults gate the detector off at construction,
                // but a failure is exactly the external transition that
                // voids a cycle hypothesis, so say so explicitly too.
                self.detector.reset();
                self.failures += 1;
                self.up[device] = false;
                self.evict(device);
                let outage = self.fail_rngs[device].exponential_duration(self.cfg.mean_recovery);
                self.downtime += outage;
                self.down_until[device] = now + outage;
                queue.push(now + outage, ClusterEvent::DeviceRecovery { device });
            }
            ClusterEvent::DeviceRecovery { device } => {
                self.up[device] = true;
                // Keep the failure process alive only while iterations
                // remain; otherwise the chain would outlive the run.
                if self.iterations_done < self.cfg.iterations {
                    let gap = self.fail_rngs[device].exponential_duration(self.cfg.mtbf);
                    if let Some(at) = now.checked_add(gap) {
                        queue.push(at, ClusterEvent::DeviceFailure { device });
                    }
                }
            }
            ClusterEvent::JobArrival(_)
            | ClusterEvent::JobCompletion { .. }
            | ClusterEvent::JobIterationEnd { .. } => {
                debug_assert!(false, "fault backend received a foreign event");
            }
        }
    }
}

impl SimBackend for FaultBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Fault
    }

    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        if !self.filling() {
            return;
        }
        for stage in 0..self.stages() {
            sim.schedule(SimTime::ZERO, ClusterEvent::StageBubbles { stage });
        }
        if self.cfg.mtbf != SimDuration::MAX {
            for stage in 0..self.stages() {
                let gap = self.fail_rngs[stage].exponential_duration(self.cfg.mtbf);
                if let Some(at) = SimTime::ZERO.checked_add(gap) {
                    sim.schedule(at, ClusterEvent::DeviceFailure { device: stage });
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
        if !self.up[stage] {
            self.bubbles_lost += 1;
            return;
        }
        let window = self.stage_windows[stage][slot];
        if self.stage_jobs[stage].is_none() {
            self.stage_jobs[stage] = self.acquire_job(stage, now);
        }
        let cfg_jitter = self.cfg.jitter_cv;
        let usable_fraction = self.cfg.usable_fraction;
        let switch_overhead = self.cfg.executor.switch_overhead;
        let ckpt_every = self.cfg.checkpoint_every_bubbles;
        let Some(job) = self.stage_jobs[stage].as_mut() else {
            return;
        };
        // A revived job reloads its checkpoint before any new work: the
        // restart debt consumes whole bubbles (no stall — the reload fits
        // inside the usable span it displaces).
        if !job.restart_debt.is_zero() {
            let usable = window.duration.mul_f64(usable_fraction);
            job.restart_debt = job.restart_debt.saturating_sub(usable);
            return;
        }
        let run = job.exec.on_bubble(slot);
        if run.time_used.is_zero() && run.samples_completed == 0 && !run.job_finished {
            return;
        }
        job.unsaved_flops += run.flops;
        job.runs_since_ckpt += 1;
        let finished = run.job_finished;
        let finished_id = job.exec.job().id;
        if !finished && job.runs_since_ckpt >= ckpt_every {
            job.ckpt = job.exec.checkpoint();
            job.unsaved_flops = 0.0;
            job.runs_since_ckpt = 0;
        }
        self.executed_flops += run.flops;
        self.detector.record_flops(run.flops);
        // Jittered reality, identical to the physical backend: bubble and
        // partition both deviate from their profiled durations.
        let actual_window = window.duration.mul_f64(self.rng.jitter(cfg_jitter));
        let used = switch_overhead + run.time_used.mul_f64(self.rng.jitter(cfg_jitter));
        let usable = actual_window.mul_f64(usable_fraction);
        let delay = used.saturating_sub(usable);
        if self.stage_delays.is_empty() {
            self.stage_delays.push(SimDuration::ZERO);
        }
        *self
            .stage_delays
            .last_mut()
            .expect("just ensured non-empty") += delay;
        if finished {
            self.jobs_completed += 1;
            self.completed_ids.push(finished_id);
            self.detector.record_completion(finished_id.0);
            self.stage_jobs[stage] = None;
        }
    }

    fn drain(&mut self, _now: SimTime) {
        let p = self.stages();
        let iterations = self.cfg.iterations;
        let nominal_total = self.period * iterations as u64;
        let elapsed = nominal_total + self.total_delay;
        // An outage in flight when the run ends only counts up to the
        // final iteration boundary: downtime must never exceed the span
        // the run actually observed. Only the last outage per device can
        // overhang (later failures are dropped by the post-run guard).
        let run_end = SimTime::ZERO + elapsed;
        for &until in &self.down_until {
            self.downtime = self
                .downtime
                .saturating_sub(until.saturating_since(run_end));
        }
        let slowdown = if iterations == 0 {
            0.0
        } else {
            self.total_delay.as_secs_f64() / nominal_total.as_secs_f64()
        };
        let surviving = (self.executed_flops - self.lost_flops).max(0.0);
        self.result = Some(FaultSimResult {
            iterations,
            nominal_period: self.period,
            mean_period: if iterations == 0 {
                self.period
            } else {
                self.period + self.total_delay / iterations as u64
            },
            main_slowdown: slowdown,
            fill_flops: surviving,
            lost_fill_flops: self.lost_flops,
            recovered_tflops_per_gpu: if surviving == 0.0 {
                0.0
            } else {
                surviving / (p as f64 * elapsed.as_secs_f64()) / 1e12
            },
            main_tflops_per_gpu: self.main_nominal / (1.0 + slowdown),
            jobs_completed: self.jobs_completed,
            completed_job_ids: std::mem::take(&mut self.completed_ids),
            failures: self.failures,
            evictions: self.evictions,
            bubbles_lost: self.bubbles_lost,
            downtime: self.downtime,
            goodput_fraction: BackendMetrics::goodput_of(surviving, self.lost_flops),
            iterations_fast_forwarded: self.fast_forwarded,
        });
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        let result = self
            .result
            .as_ref()
            .expect("metrics requested before drain");
        let elapsed = self.period * result.iterations as u64 + self.total_delay;
        BackendMetrics {
            kind: BackendKind::Fault,
            num_devices: self.stages(),
            elapsed,
            events_dispatched,
            fill_flops: result.fill_flops,
            recovered_tflops_per_gpu: result.recovered_tflops_per_gpu,
            main_tflops_per_gpu: result.main_tflops_per_gpu,
            main_slowdown: result.main_slowdown,
            bubble_ratio: self.bubble_ratio,
            jobs_completed: result.jobs_completed,
            evictions: result.evictions,
            lost_fill_flops: result.lost_fill_flops,
            goodput_fraction: result.goodput_fraction,
        }
    }
}

/// The heterogeneous + fault simulator: the convenience entry point
/// wrapping [`FaultBackend`] in a [`BackendDriver`]. See module docs.
#[derive(Debug)]
pub struct FaultSim {
    config: FaultSimConfig,
}

impl FaultSim {
    /// Creates a simulator.
    pub fn new(config: FaultSimConfig) -> Self {
        FaultSim { config }
    }

    /// Runs the simulation on the shared event kernel.
    pub fn run(&self) -> FaultSimResult {
        let (_, backend) = BackendDriver::new(FaultBackend::new(self.config.clone())).run();
        backend.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{PhysicalSim, PhysicalSimConfig};
    use pipefill_pipeline::ScheduleKind;

    fn config(fill: f64) -> FaultSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = FaultSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    fn physical_config(fill: f64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    #[test]
    fn no_faults_homogeneous_matches_physical_exactly() {
        // The headline conformance property: with faults off and a
        // homogeneous device list, every randomness-consuming code path
        // is identical to the physical backend's.
        let fault = FaultSim::new(config(0.68)).run();
        let phys = PhysicalSim::new(physical_config(0.68)).run();
        assert_eq!(fault.fill_flops, phys.fill_flops);
        assert_eq!(
            fault.recovered_tflops_per_gpu,
            phys.recovered_tflops_per_gpu
        );
        assert_eq!(fault.main_slowdown, phys.main_slowdown);
        assert_eq!(fault.jobs_completed, phys.jobs_completed);
        assert_eq!(fault.evictions, 0);
        assert_eq!(fault.failures, 0);
        assert_eq!(fault.lost_fill_flops, 0.0);
        assert_eq!(fault.goodput_fraction, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut cfg = config(0.68).with_mtbf(SimDuration::from_secs(600));
        cfg.seed = 11;
        let a = FaultSim::new(cfg.clone()).run();
        let b = FaultSim::new(cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn failures_cause_evictions_and_lost_work() {
        let cfg = config(0.68).with_mtbf(SimDuration::from_secs(300));
        let r = FaultSim::new(cfg).run();
        assert!(r.failures > 0, "no failures at a 5-minute MTBF");
        assert!(r.evictions > 0, "failures never evicted a job");
        assert!(r.lost_fill_flops > 0.0);
        assert!(r.goodput_fraction < 1.0);
        assert!(r.downtime > SimDuration::ZERO);
        assert!(r.bubbles_lost > 0, "down stages must lose bubbles");
        // Goodput is consistent with the flops split.
        let expect = r.fill_flops / (r.fill_flops + r.lost_fill_flops);
        assert!((r.goodput_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn faults_reduce_recovered_throughput() {
        let clean = FaultSim::new(config(0.68)).run();
        let faulty = FaultSim::new(config(0.68).with_mtbf(SimDuration::from_secs(300))).run();
        assert!(
            faulty.recovered_tflops_per_gpu < clean.recovered_tflops_per_gpu,
            "faulty {} vs clean {}",
            faulty.recovered_tflops_per_gpu,
            clean.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn evicted_jobs_complete_at_most_once() {
        let cfg = config(0.68).with_mtbf(SimDuration::from_secs(200));
        let r = FaultSim::new(cfg).run();
        assert!(r.evictions > 0);
        let mut ids = r.completed_job_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            r.completed_job_ids.len(),
            "a job completed twice"
        );
        assert_eq!(r.completed_job_ids.len(), r.jobs_completed);
    }

    #[test]
    fn heterogeneous_pipeline_stretches_to_the_pacing_stage() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        // One stage on a slower "GPU" (half the baseline peak): the
        // period must stretch by 2×.
        let mut slowpoke = main.device.clone();
        slowpoke.peak_tflops /= 2.0;
        slowpoke.name = "V50".into();
        let mut devices = vec![main.device.clone(); p];
        devices[p / 2] = slowpoke;
        let mut cfg = FaultSimConfig::heterogeneous(main.clone(), devices);
        cfg.iterations = 60;
        let het = FaultSim::new(cfg).run();

        let mut homo_cfg = FaultSimConfig::new(main);
        homo_cfg.iterations = 60;
        let homo = FaultSim::new(homo_cfg).run();

        let ratio = het.nominal_period.as_secs_f64() / homo.nominal_period.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "period ratio {ratio}");
        // The pacing stage halves the main job's per-GPU rate…
        assert!(het.main_tflops_per_gpu < homo.main_tflops_per_gpu * 0.6);
        // …while every non-pacing stage gains bubble span, so recovered
        // fill throughput per iteration-second goes *up*.
        assert!(
            het.recovered_tflops_per_gpu > homo.recovered_tflops_per_gpu,
            "het {} vs homo {}",
            het.recovered_tflops_per_gpu,
            homo.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn faster_heterogeneous_devices_recover_more() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        // Half the stages upgraded to A100s: same pacing (V100 stages
        // remain), faster fill execution on the upgraded stages.
        let mut devices = vec![main.device.clone(); p];
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
        let mut cfg = FaultSimConfig::heterogeneous(main.clone(), devices);
        cfg.iterations = 60;
        let upgraded = FaultSim::new(cfg).run();

        let mut homo_cfg = FaultSimConfig::new(main);
        homo_cfg.iterations = 60;
        let homo = FaultSim::new(homo_cfg).run();

        assert_eq!(upgraded.nominal_period, homo.nominal_period);
        assert!(
            upgraded.recovered_tflops_per_gpu > homo.recovered_tflops_per_gpu,
            "upgraded {} vs homo {}",
            upgraded.recovered_tflops_per_gpu,
            homo.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn no_fill_baseline_is_inert() {
        let r = FaultSim::new(config(0.0).with_mtbf(SimDuration::from_secs(60))).run();
        assert_eq!(r.main_slowdown, 0.0);
        assert_eq!(r.recovered_tflops_per_gpu, 0.0);
        assert_eq!(r.failures, 0, "failure chain must not outlive filling");
    }

    #[test]
    fn fast_forward_matches_event_fidelity_bit_for_bit() {
        // Quiescent config (no jitter draws, deterministic mix, small
        // jobs so the executor cycle recurs quickly): fast-forward must
        // fire, and the results must match the event-by-event run down
        // to the last bit — including the completed-id stream, whose
        // replay shifts ids by the per-cycle draw stride.
        let mut on = config(0.68);
        on.jitter_cv = 0.0;
        on.deterministic_mix = true;
        on.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        on.backlog_job_gpu_hours = 0.002;
        on.iterations = 400;
        let mut off = on.clone();
        off.fast_forward = false;
        let mut r_on = FaultSim::new(on).run();
        let r_off = FaultSim::new(off).run();
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
    fn heterogeneous_quiescent_runs_fast_forward_too() {
        // Heterogeneity reshapes bubble geometry but consumes no extra
        // randomness, so a quiescent heterogeneous pipeline cycles and
        // fast-forwards just like a homogeneous one.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        let mut devices = vec![main.device.clone(); p];
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
        let mut cfg = FaultSimConfig::heterogeneous(main, devices).with_fill_fraction(0.68);
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.001;
        cfg.iterations = 800;
        let mut off = cfg.clone();
        off.fast_forward = false;
        let mut r_on = FaultSim::new(cfg).run();
        let r_off = FaultSim::new(off).run();
        assert!(r_on.iterations_fast_forwarded > 0);
        r_on.iterations_fast_forwarded = 0;
        assert_eq!(r_on, r_off);
    }

    #[test]
    fn faulty_runs_never_fast_forward() {
        let mut cfg = config(0.68).with_mtbf(SimDuration::from_secs(300));
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        let r = FaultSim::new(cfg).run();
        assert_eq!(
            r.iterations_fast_forwarded, 0,
            "fault injection must gate fast-forward off"
        );
    }

    #[test]
    #[should_panic(expected = "stage_devices must cover every pipeline stage")]
    fn wrong_device_count_is_rejected() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let cfg = FaultSimConfig::heterogeneous(main, vec![DeviceSpec::v100(); 3]);
        let _ = FaultBackend::new(cfg);
    }
}
