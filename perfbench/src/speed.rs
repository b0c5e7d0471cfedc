//! The host's speed during a run, measured with a reference kernel.
//!
//! On a shared virtual machine the same code runs up to twice as slowly
//! from one minute to the next, as other guests take the host's cores,
//! caches and clock headroom. A run therefore times a fixed kernel of
//! its own — a Cholesky factorisation of a small RBF matrix, the kind
//! of dense floating-point work the tuner's GP does — beside the
//! program, and reports each compute-bound timing at reference speed:
//! the raw time divided by the host's [`slowness`] over the stretch of
//! the run it comes from. The kernel is this package's own code, so no
//! change to the program changes it.

use std::time::Instant;

use crate::probes::ms;

/// Median time of one [`Speed::sample`] on an idle 2-vCPU Xeon virtual
/// machine (measured 0.045–0.06 ms there). Only the ratio of a run's
/// median to this constant matters; it keeps reported times close to
/// the raw times of an idle host.
pub const REFERENCE_MS: f64 = 0.05;

/// How far a tuning session's time follows the reference kernel timed
/// inside it (by [`crate::probes::TimedObjective`]): its times are
/// divided by the session's slowness to this power. Timed after every
/// simulator call, in the middle of the session's compute, the kernel
/// swings two to three times as far as the session around it: over 50
/// pairs of identical sessions (the plain and traced twins of two traced
/// runs on a 2-vCPU Xeon VM), the log ratio of the twins' wall times
/// followed the log ratio of their slowness with slope 0.29 and 0.46
/// (correlation 0.71 pooled). Dividing by slowness^0.5 cut the spread
/// of that log ratio from 0.104 to 0.083; dividing by the slowness
/// itself widened it to 0.169.
pub const SESSION_EXPONENT: f64 = 0.5;

/// How far a model-chosen ask's time follows the slowness of its
/// session. An ask is GP refit and acquisition: dense floating point
/// like the kernel, on scoped threads. Over 25 `cold-tune` runs in three
/// sets on a 2-vCPU Xeon VM, three of them in a spell of 4–8% host
/// steal, the log of a run's raw median ask followed the log of its
/// slowness with slope 1.11 (0.74 over the quiet runs alone).
/// Recomputed from each run's medians, dividing by the slowness itself
/// rather than its square root narrowed the spread of the set with the
/// spell from 0.24 to 0.12 and left the quiet sets within 0.08–0.10.
pub const ASK_EXPONENT: f64 = 1.0;

/// Order of the reference matrix: 8 KiB of `f64`, held in L1 cache.
const N: usize = 32;

/// Factors an `N`×`N` RBF kernel matrix of lengthscale `scale` and
/// returns its log-determinant.
fn kernel(scale: f64) -> f64 {
    let mut a = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            let d = (i as f64 - j as f64) * scale;
            *x = (-d * d).exp();
        }
        row[i] += 1e-2;
    }
    for j in 0..N {
        let mut d = a[j][j];
        for k in 0..j {
            d -= a[j][k] * a[j][k];
        }
        let d = d.max(1e-12).sqrt();
        a[j][j] = d;
        for i in j + 1..N {
            let mut s = a[i][j];
            for k in 0..j {
                s -= a[i][k] * a[j][k];
            }
            a[i][j] = s / d;
        }
    }
    (0..N).map(|i| 2.0 * a[i][i].ln()).sum()
}

/// Timings of the reference kernel taken during one stretch of a run.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    /// Milliseconds of each sample.
    pub samples_ms: Vec<f64>,
}

impl Speed {
    /// Runs and times the reference kernel once (four factorisations,
    /// about 0.05 ms on an idle host); returns the milliseconds taken.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for r in 0..4 {
            acc += kernel(std::hint::black_box(0.1 + r as f64 * 1e-3));
        }
        std::hint::black_box(acc);
        let took = ms(t, Instant::now());
        self.samples_ms.push(took);
        took
    }

    /// Adds another stretch's samples.
    pub fn extend(&mut self, other: &Speed) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
    }

    /// How much slower than the reference host this stretch ran; see
    /// [`slowness`]. `None` without samples.
    pub fn slowness(&self) -> Option<f64> {
        slowness(&self.samples_ms)
    }
}

/// Consecutive samples summarised by one median.
const BLOCK: usize = 100;

/// How much slower than the reference host `samples_ms` (in the order
/// taken) ran: the geometric mean, over blocks of [`BLOCK`] consecutive
/// samples, of the block's median ÷ [`REFERENCE_MS`]. A block's median
/// ignores the few samples the host descheduled part-way; the mean over
/// blocks follows the host as it moves between faster and slower states
/// (a core's sibling busy or idle), where a median over the whole
/// stretch would jump between them. `None` when empty.
pub fn slowness(samples_ms: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = samples_ms
        .chunks(BLOCK)
        .filter_map(|b| crate::stats::percentile(b, 50.0))
        .map(|p| (p.value / REFERENCE_MS).ln())
        .collect();
    crate::stats::mean(&logs).map(f64::exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_geometric_mean_of_block_medians() {
        assert_eq!(slowness(&[]), None);
        // One short block: its median, over the reference.
        let s = slowness(&[REFERENCE_MS, 2.0 * REFERENCE_MS, 50.0]).unwrap();
        assert!((s - 2.0).abs() < 1e-12, "{s}");
        // A block at the reference speed and one at four times it, each
        // with a descheduled outlier: geometric mean 2.
        let mut xs = vec![REFERENCE_MS; BLOCK];
        xs[7] = 100.0;
        xs.extend(vec![4.0 * REFERENCE_MS; BLOCK]);
        xs[BLOCK + 3] = 100.0;
        let s = slowness(&xs).unwrap();
        assert!((s - 2.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn the_kernel_is_deterministic_and_finite() {
        let a = kernel(0.1);
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), kernel(0.1).to_bits());
        let mut speed = Speed::default();
        assert!(speed.sample() > 0.0);
        assert_eq!(speed.samples_ms.len(), 1);
    }
}
