//! Failure injection: demonstrate §4.3's memory-cap isolation — when the
//! actual free memory during a bubble falls below what the engine
//! profiled, the fill job's allocation dies against its per-process cap,
//! the bubble goes idle, and the main training job never notices.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use pipefill::core::{BackendConfig, PhysicalSimConfig};
use pipefill::pipeline::{MainJobSpec, ScheduleKind};

fn main() {
    println!(
        "{:>14} {:>14} {:>13} {:>14} {:>12}",
        "memory noise", "isolated OOMs", "fill TFLOPS", "main slowdown", "jobs done"
    );
    for cv in [0.0, 0.1, 0.2, 0.4] {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main);
        cfg.iterations = 300;
        cfg.memory_jitter_cv = cv;
        let r = BackendConfig::Physical(cfg)
            .run()
            .physical()
            .expect("physical detail");
        println!(
            "{:>13.0}% {:>14} {:>13.2} {:>13.2}% {:>12}",
            100.0 * cv,
            r.isolated_ooms,
            r.recovered_tflops_per_gpu,
            100.0 * r.main_slowdown,
            r.jobs_completed,
        );
    }
    println!(
        "\nGrowing memory noise kills more fill attempts (isolated OOMs) and costs \
         recovered utilization — but the main job's slowdown stays flat: the \
         per-process memory cap keeps every failure inside the Executor."
    );
}
