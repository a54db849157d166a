//! Byte pin of the physical and fault presets over the configurations the
//! golden experiments do not reach: memory-jitter OOM injection,
//! heterogeneous stage devices with and without faults, and the
//! quiescent fast-forward regimes. Each entry is the `{:?}` of the run's
//! `BackendMetrics` followed by its detailed result, so every float is
//! compared at full round-trip precision.
//!
//! To refresh the reference after an *intentional* model change:
//!
//! ```sh
//! UPDATE_REFERENCE=1 cargo test --test fine_backends_reference
//! ```
//!
//! and commit the diff.

use std::fmt::Write as _;

use pipefill::core::{BackendConfig, FaultSimConfig, PhysicalSimConfig};
use pipefill::device::DeviceSpec;
use pipefill::models::ModelId;
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;
use pipefill::trace::ModelMix;

const SCHEDULES: [ScheduleKind; 4] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved { chunks: 2 },
    ScheduleKind::ZbH1,
];

const SEEDS: [u64; 3] = [1, 5, 9];

/// Iterations of the jittered grid runs.
const ITERS: usize = 60;

/// Backlog job size of the jittered grid: small enough that fill jobs
/// complete (and get evicted mid-flight) within [`ITERS`].
const GRID_GPU_HOURS: f64 = 0.002;

fn reference_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/reference/fine_backends.txt")
}

/// Appends one run: a label line, the shared metrics, the detail.
fn entry(out: &mut String, label: &str, cfg: BackendConfig) {
    let run = cfg.run();
    let detail = match (run.as_physical(), run.as_fault()) {
        (Some(p), _) => format!("{p:?}"),
        (_, Some(f)) => format!("{f:?}"),
        _ => unreachable!("only physical and fault runs are pinned"),
    };
    writeln!(out, "== {label}\n{:?}\n{detail}", run.metrics).expect("writing to a String");
}

/// Per-stage devices: one half-speed stage, or the first half on A100s.
fn hetero_devices(main: &MainJobSpec, half_speed: bool) -> Vec<DeviceSpec> {
    let p = main.engine_timeline().stages.len();
    let mut devices = vec![main.device.clone(); p];
    if half_speed {
        let mut slowpoke = main.device.clone();
        slowpoke.peak_tflops /= 2.0;
        slowpoke.name = "V50".into();
        devices[p / 2] = slowpoke;
    } else {
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
    }
    devices
}

/// The jitter-free single-model regime in which fast-forward fires.
macro_rules! quiesce {
    ($cfg:expr, $gpu_hours:expr, $iterations:expr) => {{
        let mut cfg = $cfg;
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = $gpu_hours;
        cfg.iterations = $iterations;
        cfg
    }};
}

fn generate() -> String {
    let mut out = String::new();
    for schedule in SCHEDULES {
        let main = MainJobSpec::physical_5b(8, schedule);
        for memory_jitter_cv in [0.0, 0.35] {
            for seed in SEEDS {
                let mut cfg = PhysicalSimConfig::new(main.clone());
                cfg.iterations = ITERS;
                cfg.seed = seed;
                cfg.backlog_job_gpu_hours = GRID_GPU_HOURS;
                cfg.memory_jitter_cv = memory_jitter_cv;
                let label = format!("physical {schedule} mem_cv={memory_jitter_cv} seed={seed}");
                entry(&mut out, &label, BackendConfig::Physical(cfg));
            }
        }
        for half_speed in [true, false] {
            let shape = if half_speed {
                "half-speed"
            } else {
                "a100-half"
            };
            for mtbf in [SimDuration::MAX, SimDuration::from_secs(400)] {
                for seed in SEEDS {
                    let devices = hetero_devices(&main, half_speed);
                    let mut cfg = FaultSimConfig::heterogeneous(main.clone(), devices);
                    cfg.iterations = ITERS;
                    cfg.seed = seed;
                    cfg.backlog_job_gpu_hours = GRID_GPU_HOURS;
                    cfg.mtbf = mtbf;
                    let label = format!("fault {schedule} {shape} mtbf={mtbf:?} seed={seed}");
                    entry(&mut out, &label, BackendConfig::Fault(cfg));
                }
            }
        }
        // The fast-forward property suite's quiescent regime.
        for fast_forward in [true, false] {
            let mut phys = quiesce!(
                PhysicalSimConfig::new(main.clone()).with_fill_fraction(0.68),
                0.0005,
                400
            );
            phys.fast_forward = fast_forward;
            let label = format!("physical {schedule} quiescent ff={fast_forward}");
            entry(&mut out, &label, BackendConfig::Physical(phys));
            let mut fault = quiesce!(
                FaultSimConfig::new(main.clone()).with_fill_fraction(0.68),
                0.0005,
                400
            );
            fault.fast_forward = fast_forward;
            let label = format!("fault {schedule} quiescent ff={fast_forward}");
            entry(&mut out, &label, BackendConfig::Fault(fault));
        }
    }
    // The backends' own fast-forward unit-test configurations.
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    for fast_forward in [true, false] {
        let mut phys = quiesce!(
            PhysicalSimConfig::new(main.clone()).with_fill_fraction(0.68),
            0.002,
            400
        );
        phys.fast_forward = fast_forward;
        let label = format!("physical unit quiescent ff={fast_forward}");
        entry(&mut out, &label, BackendConfig::Physical(phys));
        let mut fault = quiesce!(
            FaultSimConfig::new(main.clone()).with_fill_fraction(0.68),
            0.002,
            400
        );
        fault.fast_forward = fast_forward;
        let label = format!("fault unit quiescent ff={fast_forward}");
        entry(&mut out, &label, BackendConfig::Fault(fault));
        let devices = hetero_devices(&main, false);
        let mut hetero = quiesce!(
            FaultSimConfig::heterogeneous(main.clone(), devices).with_fill_fraction(0.68),
            0.001,
            800
        );
        hetero.fast_forward = fast_forward;
        let label = format!("fault unit a100-half quiescent ff={fast_forward}");
        entry(&mut out, &label, BackendConfig::Fault(hetero));
    }
    out
}

#[test]
fn fine_backends_match_reference() {
    let fresh = generate();
    let path = reference_path();
    if std::env::var_os("UPDATE_REFERENCE").is_some() {
        std::fs::create_dir_all(path.parent().expect("reference file has a parent"))
            .expect("creating tests/reference");
        std::fs::write(&path, &fresh).expect("writing the reference");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing reference {}: {e}", path.display()));
    // Compare entry by entry first so a drift names its configuration.
    for (got, want) in fresh.split("== ").zip(committed.split("== ")) {
        assert_eq!(got, want, "tests/reference/fine_backends.txt drifted");
    }
    assert_eq!(
        fresh, committed,
        "tests/reference/fine_backends.txt drifted"
    );
}
