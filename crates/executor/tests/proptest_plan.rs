//! Property tests for Algorithm 1: the plan must respect every bubble's
//! duration and memory constraints for arbitrary graphs and cycles, pack
//! all nodes in order, and drive the executor to completion; and
//! `plan_best` must return exactly what planning every configuration in
//! full and keeping the first maximum would.

use proptest::prelude::*;

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_executor::{
    build_profile, plan_best, plan_for_config, ExecConfig, ExecTechnique, ExecutionPlan,
    ExecutorConfig, FillJobExecutor, FillJobSpec, JobProfile, NodeProfile, PlanError,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{EngineConfig, MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;

fn profile_from(nodes: Vec<(u64, u64)>) -> JobProfile {
    JobProfile {
        config: ExecConfig {
            batch_size: 2,
            technique: ExecTechnique::Plain,
        },
        nodes: nodes
            .into_iter()
            .map(|(ms, mib)| NodeProfile {
                duration: SimDuration::from_millis(ms),
                memory: Bytes::from_mib(mib),
                flops: ms as f64 * 1e9,
            })
            .collect(),
        samples_per_iteration: 2,
    }
}

/// The planner as specified, without any of `plan_best`'s shortcuts:
/// profile and plan every configuration in full, in menu order (batch
/// sizes as listed, then techniques), and keep the first maximum of
/// (samples, FLOPs) per main-job iteration.
fn reference_plan_best(
    job: &FillJobSpec,
    bubbles: &[(SimDuration, Bytes)],
    device: &DeviceSpec,
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    let key = |p: &ExecutionPlan| {
        (
            p.samples_per_main_iteration(),
            p.flops_per_pass / p.main_iterations_per_pass as f64,
        )
    };
    let model = job.model_graph();
    let mut best: Option<ExecutionPlan> = None;
    for &batch_size in &job.valid_batch_sizes {
        for &technique in ExecTechnique::applicable(job.kind) {
            let config = ExecConfig {
                batch_size,
                technique,
            };
            let profile = build_profile(&model, job.kind, config, device);
            let Ok(plan) = plan_for_config(&profile, bubbles, exec) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| key(&plan) > key(b)) {
                best = Some(plan);
            }
        }
    }
    best.ok_or(PlanError::NoFeasibleConfig)
}

/// The eight Table-1 fill jobs: sub-700M models train and infer, larger
/// ones infer.
fn table1_jobs() -> Vec<FillJobSpec> {
    let mut jobs = Vec::new();
    for model in ModelId::FILL_JOBS {
        if model.trainable_as_fill_job() {
            jobs.push(FillJobSpec::new(1, model, JobKind::Training, 1_000));
        }
        jobs.push(FillJobSpec::new(1, model, JobKind::BatchInference, 1_000));
    }
    assert_eq!(jobs.len(), 8);
    jobs
}

fn devices() -> [DeviceSpec; 3] {
    [
        DeviceSpec::v100(),
        DeviceSpec::a100_40g(),
        DeviceSpec::h100(),
    ]
}

/// `plan_best` equals the reference for every Table-1 job on the
/// fillable windows of every stage of the uniform engine runs over five
/// schedules × p ∈ {4, 8, 16, 32} × m ∈ {8, 16, 32, 64}.
#[test]
fn plan_best_matches_reference_on_every_engine_stage() {
    let base = MainJobSpec::physical_5b(8, ScheduleKind::GPipe).engine_config();
    let schedules = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved { chunks: 2 },
        ScheduleKind::Interleaved { chunks: 4 },
        ScheduleKind::ZbH1,
    ];
    let mut geometries: Vec<Vec<(SimDuration, Bytes)>> = Vec::new();
    for kind in schedules {
        for p in [4usize, 8, 16, 32] {
            for m in [8usize, 16, 32, 64] {
                // Interleaving needs m to be a multiple of p.
                if kind.chunk_count() > 1 && m % p != 0 {
                    continue;
                }
                let split = base.num_stages() as f64 / p as f64;
                let engine = EngineConfig::uniform(
                    kind,
                    p,
                    m,
                    base.stage_fwd[0].mul_f64(split),
                    base.stage_bwd[0].mul_f64(split),
                );
                for stage in &engine.run().stages {
                    let slots: Vec<_> = stage
                        .fillable_windows()
                        .iter()
                        .map(|w| (w.duration, w.free_memory))
                        .collect();
                    if !slots.is_empty() && !geometries.contains(&slots) {
                        geometries.push(slots);
                    }
                }
            }
        }
    }
    assert!(geometries.len() > 100, "{} geometries", geometries.len());
    let device = DeviceSpec::v100();
    let exec = ExecutorConfig::default();
    let mut feasible = 0;
    for slots in &geometries {
        for job in &table1_jobs() {
            let fast = plan_best(job, slots, &device, &exec);
            assert_eq!(
                fast,
                reference_plan_best(job, slots, &device, &exec),
                "{:?} {:?} on {slots:?}",
                job.model,
                job.kind
            );
            feasible += usize::from(fast.is_ok());
        }
    }
    assert!(
        feasible > 0,
        "no stage fits any job: the test checks nothing"
    );
}

fn exact_exec() -> ExecutorConfig {
    ExecutorConfig {
        fill_fraction: 1.0,
        cold_start_factor: 1.0,
        switch_overhead: SimDuration::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `plan_best` returns exactly the reference's result (plan or
    /// error) for random cycles, tunings, devices and batch menus. Custom
    /// menus are unsorted, repeat values and are mostly not powers of
    /// two, so the batch-size skip must key on the value, not the
    /// position.
    #[test]
    fn plan_best_matches_reference(
        bubbles in prop::collection::vec((1u64..3_000, 0.25f64..16.0), 1..41),
        job_index in 0usize..8,
        device_index in 0usize..3,
        tuning in (0.05f64..1.0, 0.3f64..1.0, 0u64..30),
        menu in prop::option::of(prop::collection::vec(1usize..64, 1..10)),
    ) {
        let slots: Vec<(SimDuration, Bytes)> = bubbles
            .iter()
            .map(|&(ms, gib)| (SimDuration::from_millis(ms), Bytes::from_gib_f64(gib)))
            .collect();
        let mut job = table1_jobs().swap_remove(job_index);
        if let Some(menu) = menu {
            job = job.with_batch_sizes(menu.iter().map(|&x| 9 * x - 8).collect());
        }
        let device = &devices()[device_index];
        let (fill_fraction, cold_start_factor, switch_ms) = tuning;
        let exec = ExecutorConfig {
            fill_fraction,
            cold_start_factor,
            switch_overhead: SimDuration::from_millis(switch_ms),
        };
        prop_assert_eq!(
            plan_best(&job, &slots, device, &exec),
            reference_plan_best(&job, &slots, device, &exec)
        );
    }

    /// Every partition honours its bubble slot's duration and memory
    /// limits; all replicated nodes are packed exactly once, in order.
    #[test]
    fn partitions_respect_all_constraints(
        nodes in prop::collection::vec((1u64..50, 1u64..512), 1..30),
        bubbles in prop::collection::vec((60u64..500, 256u64..2048), 1..6),
    ) {
        let profile = profile_from(nodes.clone());
        let slots: Vec<(SimDuration, Bytes)> = bubbles
            .iter()
            .map(|&(ms, mib)| (SimDuration::from_millis(ms), Bytes::from_mib(mib)))
            .collect();
        match plan_for_config(&profile, &slots, &exact_exec()) {
            Err(PlanError::NodeDoesNotFit) => {
                // Legitimate only if some node really fits no bubble.
                let unfit = profile.nodes.iter().any(|n| {
                    !slots.iter().any(|&(d, m)| n.duration <= d && n.memory <= m)
                });
                prop_assert!(unfit, "planner gave up although every node fits somewhere");
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            Ok(plan) => {
                for part in &plan.partitions {
                    let (cap_d, cap_m) = slots[part.bubble_index];
                    prop_assert!(part.duration <= cap_d, "duration violated");
                    prop_assert!(part.memory <= cap_m, "memory violated");
                    prop_assert!(part.node_count > 0);
                }
                let packed: usize = plan.partitions.iter().map(|p| p.node_count).sum();
                prop_assert_eq!(
                    packed,
                    profile.nodes.len() * plan.iterations_per_pass as usize,
                    "not every node packed exactly once"
                );
                let iters: u64 = plan.partitions.iter().map(|p| p.iterations_completed).sum();
                prop_assert_eq!(iters, plan.iterations_per_pass);
                // Replication is bounded by Algorithm 1 line 4.
                let graph: SimDuration = profile.nodes.iter().map(|n| n.duration).sum();
                let total: SimDuration = slots.iter().map(|&(d, _)| d).sum();
                if plan.iterations_per_pass > 1 {
                    prop_assert!(graph * plan.iterations_per_pass < total + graph);
                }
            }
        }
    }

    /// Fill-fraction scaling: a smaller fraction never packs more work
    /// per pass-iteration.
    #[test]
    fn fill_fraction_monotonicity(
        nodes in prop::collection::vec((1u64..30, 1u64..256), 1..15),
        frac_pct in 30u64..100,
    ) {
        let profile = profile_from(nodes);
        let slots = vec![(SimDuration::from_millis(600), Bytes::from_mib(2048))];
        let full = plan_for_config(&profile, &slots, &exact_exec());
        let partial = plan_for_config(
            &profile,
            &slots,
            &ExecutorConfig {
                fill_fraction: frac_pct as f64 / 100.0,
                cold_start_factor: 1.0,
                switch_overhead: SimDuration::ZERO,
            },
        );
        if let (Ok(f), Ok(p)) = (full, partial) {
            prop_assert!(
                p.samples_per_main_iteration() <= f.samples_per_main_iteration() + 1e-9
            );
        }
    }

    /// The executor driven slot-by-slot completes any finite job, and
    /// its FLOPs/time accounting matches the partitions it executed.
    #[test]
    fn executor_completes_and_accounts(samples in 1u64..5_000, seed in 0u64..8) {
        // Vary the job type with the seed for coverage.
        let (model, kind) = match seed % 4 {
            0 => (ModelId::BertBase, JobKind::BatchInference),
            1 => (ModelId::BertBase, JobKind::Training),
            2 => (ModelId::BertLarge, JobKind::BatchInference),
            _ => (ModelId::EfficientNet, JobKind::BatchInference),
        };
        let job = FillJobSpec::new(seed, model, kind, samples);
        let slots = vec![
            (SimDuration::from_millis(1900), Bytes::from_gib_f64(4.5)),
            (SimDuration::from_millis(1000), Bytes::from_gib_f64(4.5)),
        ];
        let plan = pipefill_executor::plan_best(
            &job,
            &slots,
            &pipefill_device::DeviceSpec::v100(),
            &ExecutorConfig::default(),
        ).unwrap();
        let mut ex = FillJobExecutor::new(job, plan);
        let mut flops = 0.0;
        let mut time = SimDuration::ZERO;
        let mut slot = 0usize;
        let mut guard = 0u64;
        while !ex.is_complete() {
            let r = ex.on_bubble(slot);
            flops += r.flops;
            time += r.time_used;
            slot = (slot + 1) % 2;
            guard += 1;
            prop_assert!(guard < 10_000_000, "did not terminate");
        }
        prop_assert_eq!(ex.samples_done(), samples);
        prop_assert!((ex.flops_done() - flops).abs() < 1.0);
        prop_assert_eq!(ex.bubble_time_used(), time);
    }
}
