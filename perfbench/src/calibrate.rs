//! Host-speed calibration.
//!
//! Measured on a shared host, the same job can take half as long again a
//! quarter of an hour later. The measured run therefore times a fixed
//! kernel between its jobs — sort, hash and allocate on every worker
//! thread, using the standard library only, so no change to the program
//! under test can speed it up. `run.py` scales the run's timings by the
//! kernel's median: `reported = wall × REFERENCE_S / kernel median`. A slow
//! spell of the host slows the kernel and the jobs alike and cancels out.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median on the 2-core host the benchmark was tuned on, so
/// scaled timings read as seconds on that host.
pub const REFERENCE_S: f64 = 0.030;

/// Minimum wall time between two calibration samples of the job loop.
const EVERY_S: f64 = 0.25;

/// Keys each thread sorts and hashes: a few MiB, so the kernel does not
/// raise the peak RSS the benchmark reports.
const KERNEL_KEYS: usize = 1 << 17;

fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut keys: Vec<u64> = (0..KERNEL_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        keys.sort_unstable();
        let mut set = HashSet::with_capacity(KERNEL_KEYS / 4);
        for &k in keys.iter().step_by(2) {
            set.insert(k >> 3);
        }
        // Short-lived small allocations, like a state expansion's.
        for chunk in keys.chunks(24) {
            acc ^= black_box(chunk.to_vec())[0];
        }
        acc ^= keys[KERNEL_KEYS / 2] ^ set.len() as u64;
    }
    acc
}

/// Calibration samples of one run.
#[derive(Debug)]
pub struct Calibration {
    threads: usize,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    pub fn new(threads: usize) -> Self {
        Calibration {
            threads,
            samples: Vec::new(),
            last: None,
        }
    }

    /// Times the kernel once on every worker thread.
    pub fn sample(&mut self) {
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads as u64)
                .map(|t| scope.spawn(move || kernel(t + 1)))
                .collect();
            for h in handles {
                black_box(h.join().expect("calibration kernel panicked"));
            }
        });
        self.samples.push(started.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// Samples if the last sample is at least `EVERY_S` old.
    pub fn sample_due(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.sample();
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
