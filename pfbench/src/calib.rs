//! Host-speed reference: a fixed piece of work timed before and after
//! every evaluation, so that host times can be scaled to one host speed.
//!
//! A shared host runs at different speeds for minutes at a time, and CPU
//! time (`clock.rs`) does not hide that: a busy neighbour on the same
//! core or memory slows every instruction. An evaluation's host times are
//! therefore multiplied by [`NOMINAL_S`] ÷ the mean of the reference
//! times measured just before and just after it, which makes them read
//! as CPU time on a host that runs the reference in [`NOMINAL_S`].
//!
//! The reference is a fixed floating-point loop written here (`ln`,
//! `sqrt` and `exp` over a 128 KiB array) that shares no code with the
//! repository's crates, so a change to them cannot move it. Of the
//! references tried — this loop, a binary-heap event loop and an
//! allocation-heavy ordered-map event loop — it followed the host's
//! slowdowns of every workload most closely (see README.md).

use crate::clock;
use crate::workload::splitmix64;

/// Array elements (128 KiB of `f64`): small beside every workload's own
/// memory, so that the reference leaves `peak_rss_mb` alone.
const ELEMENTS: u64 = 16_384;
/// Passes over the array.
const PASSES: usize = 24;

/// Reference time the scaled host times are expressed at: about the
/// fastest the reference ran on the 2-vCPU shared VM the benchmark was
/// tuned on. Changing it rescales every host-time metric.
pub const NOMINAL_S: f64 = 0.004;

/// Runs the reference work once and returns a digest of it.
pub fn reference() -> u64 {
    let mut xs: Vec<f64> = (0..ELEMENTS)
        .map(|i| 0.5 + (splitmix64(i) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    for _ in 0..PASSES {
        for x in xs.iter_mut() {
            *x = (x.ln().abs() + 1.0).sqrt() * 1.1 + (*x * 0.3).exp() * 0.01;
        }
    }
    xs.iter().sum::<f64>().to_bits()
}

/// CPU seconds one run of [`reference`] takes now.
fn time_reference() -> f64 {
    let t0 = clock::now();
    std::hint::black_box(reference());
    clock::since(t0)
}

/// Reference times of one invocation, taken between evaluations.
#[derive(Debug)]
pub struct HostSpeed {
    /// Every reference time measured, s, in order.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference once, before the first evaluation.
    pub fn start() -> HostSpeed {
        HostSpeed {
            samples: vec![time_reference()],
        }
    }

    /// Times the reference again and returns the factor that scales host
    /// times measured since the previous call to [`NOMINAL_S`].
    pub fn scale_since_last(&mut self) -> f64 {
        let before = *self.samples.last().expect("start() measured one");
        let after = time_reference();
        self.samples.push(after);
        NOMINAL_S / ((before + after) / 2.0)
    }

    /// The reference times measured so far, s.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference(), reference());
    }

    #[test]
    fn scales_are_positive_and_finite() {
        let mut host = HostSpeed::start();
        for _ in 0..3 {
            let s = host.scale_since_last();
            assert!(s.is_finite() && s > 0.0, "scale {s}");
        }
        assert_eq!(host.samples().len(), 4);
    }
}
