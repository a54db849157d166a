//! Fleet-scale simulation: many pipeline-parallel main jobs, one
//! cluster-wide fill queue.
//!
//! Part 1 generates a rack-scale fleet (4 heterogeneous jobs, 512 GPUs)
//! with fault injection and shows the per-job view: each job keeps its
//! own workload stream, depth, period and device generation, while
//! evicted fill jobs ride the *global* queue — and can resume on a
//! different main job with matching bubble geometry (cross-job resumes).
//!
//! Part 2 is the degenerate pin the conformance suite enforces: a fleet
//! of exactly one homogeneous job reproduces the single-job physical
//! backend bit for bit.
//!
//! ```sh
//! cargo run --release --example fleet_simulation
//! ```

use pipefill::core::{BackendConfig, FleetSimConfig, PhysicalSimConfig};
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;
use pipefill::trace::FleetWorkloadConfig;

fn main() {
    println!("Part 1 — a rack-scale fleet (4 jobs, 512 GPUs, MTBF 30 min):\n");
    let mut workload = FleetWorkloadConfig::rack_scale(7);
    workload.iterations = 150;
    let cfg = FleetSimConfig::from_workload(&workload).with_mtbf(SimDuration::from_secs(1800));
    let fleet = BackendConfig::Fleet(cfg)
        .run()
        .fleet()
        .expect("fleet detail");
    println!(
        "{:>4} {:>6} {:>7} {:>9} {:>6} {:>12} {:>12} {:>9}",
        "job", "GPUs", "stages", "device", "fill%", "fill TFLOPS", "main TFLOPS", "slowdown"
    );
    for job in &fleet.jobs {
        println!(
            "{:>4} {:>6} {:>7} {:>9} {:>5.0}% {:>12.2} {:>12.2} {:>8.2}%",
            job.job,
            job.gpus,
            job.stages,
            job.device,
            100.0 * job.fill_fraction,
            job.recovered_tflops_per_gpu,
            job.main_tflops_per_gpu,
            100.0 * job.main_slowdown,
        );
    }
    println!(
        "\nfleet: {} GPUs, {:.2} fill TFLOPS/GPU recovered, {} fill jobs done, \
         {} evictions ({} resumed cross-job, peak queue depth {})",
        fleet.total_gpus,
        fleet.recovered_tflops_per_gpu,
        fleet.fill_jobs_completed,
        fleet.evictions,
        fleet.cross_job_dispatches,
        fleet.peak_queue_depth,
    );

    println!("\nPart 2 — the degenerate pin: a 1-job fleet IS the physical backend:\n");
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut phys_cfg = PhysicalSimConfig::new(main);
    phys_cfg.iterations = 120;
    let phys = BackendConfig::Physical(phys_cfg.clone())
        .run()
        .physical()
        .expect("physical detail");
    let solo = BackendConfig::Fleet(FleetSimConfig::from_physical(&phys_cfg))
        .run()
        .fleet()
        .expect("fleet detail");
    let job = &solo.jobs[0];
    println!(
        "physical: {:>10.4} fill TFLOPS/GPU, slowdown {:.4}%",
        phys.recovered_tflops_per_gpu,
        100.0 * phys.main_slowdown
    );
    println!(
        "fleet[0]: {:>10.4} fill TFLOPS/GPU, slowdown {:.4}%",
        job.recovered_tflops_per_gpu,
        100.0 * job.main_slowdown
    );
    assert_eq!(job.recovered_tflops_per_gpu, phys.recovered_tflops_per_gpu);
    assert_eq!(job.main_slowdown, phys.main_slowdown);
    assert_eq!(job.fill_flops, phys.fill_flops);
    println!("\nbit-for-bit equal — the fleet layer adds scale, not drift.");
}
