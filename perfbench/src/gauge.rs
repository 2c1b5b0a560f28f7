//! Host-speed gauge: a fixed reference computation, sharing no code
//! with the simulator, timed in the gaps between measured calls.
//!
//! On a shared host the speed a process gets drifts by tens of percent
//! over minutes as neighbours come and go; on the two-vCPU host this
//! benchmark was defined on, the median sessions/s of ten identical
//! 30-second runs moved by 30 % between two sets taken twenty minutes
//! apart. Sampling this gauge around every set-up and run measures how
//! fast the host ran during the measurement, and the host-time metrics
//! are scaled to a fixed nominal host speed by it. A change to the
//! simulator moves the scaled figures in full, since the gauge does not
//! run its code.
//!
//! The gauge is the arithmetic the simulator spends its training and
//! serving time in: small dense f32 matrix products that stay in the L1
//! cache. Being pure core arithmetic, it reacts more strongly to a busy
//! core sibling than the simulator's mix of arithmetic and cache-missing
//! loads does. Over 16 interleaved 30-second runs of `scrooge-bulk` and
//! `adainf-steady` on that host, scaling by the square root of the
//! gauge's slowdown cut the spread (interquartile range over median) of
//! sessions/s from 0.17 and 0.16 to 0.07 and 0.13, and of set-up time
//! from 0.20 and 0.18 to 0.10 and 0.07; scaling by the full slowdown
//! over-corrected the two-threaded `adainf-steady` (0.23).

use adainf_simcore::walltime::WallTimer;
use std::hint::black_box;

/// Gauge milliseconds per call at the nominal host speed: about the
/// reading on the host the benchmark was defined on (2 vCPUs of an
/// Intel Xeon under KVM) in its fast phases.
pub const NOMINAL_MS: f64 = 1.0;

/// Calls per sample; the median of them is the sample.
const CALLS: usize = 9;

/// The gauge's operands, built once per process.
pub struct Gauge {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    samples: Vec<f64>,
}

impl Gauge {
    /// Fills the operands with a fixed pattern.
    pub fn new() -> Self {
        let fill = |n: usize, k: usize| (0..n).map(|i| ((i * k) % 97) as f32 / 97.0).collect();
        Gauge {
            a: fill(32 * 32, 31),
            b: fill(32 * 24, 17),
            c: vec![0.0; 32 * 24],
            samples: Vec::new(),
        }
    }

    /// One call: 100 products of a 32×32 by a 32×24 matrix, ms.
    fn call(&mut self) -> f64 {
        let t = WallTimer::start();
        for _ in 0..100 {
            self.c.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..32 {
                for k in 0..32 {
                    let aik = self.a[i * 32 + k];
                    let row = &self.b[k * 24..(k + 1) * 24];
                    for (cv, bv) in self.c[i * 24..(i + 1) * 24].iter_mut().zip(row) {
                        *cv += aik * bv;
                    }
                }
            }
            black_box(&mut self.c);
        }
        t.elapsed_secs() * 1e3
    }

    /// Takes one sample (the median of a few calls) and keeps it.
    pub fn sample(&mut self) {
        let mut calls: Vec<f64> = (0..CALLS).map(|_| self.call()).collect();
        calls.sort_by(|a, b| a.total_cmp(b));
        self.samples.push(calls[CALLS / 2]);
    }

    /// Median of the samples taken so far, ms (NaN before any).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(f64::NAN)
    }

    /// How much slower than nominal the host ran the simulator over the
    /// samples: the square root of the gauge's own slowdown (see the
    /// module notes). Measured times divided by this are times at
    /// nominal speed.
    pub fn slowdown(&self) -> f64 {
        (self.median_ms() / NOMINAL_MS).sqrt()
    }
}
