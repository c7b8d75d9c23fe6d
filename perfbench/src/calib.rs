//! Host-speed calibration.
//!
//! On a shared VM the same code runs up to twice as fast from one minute
//! to the next (neighbouring VMs on the same cores and caches, clock
//! frequency), whatever the reported steal share. A fixed unit of
//! benchmark-owned integer work — varint-encode a pseudo-random code
//! stream, decode it and tally it into 96 cells — is timed in thread CPU
//! time between the program's operations, and every end-to-end metric is
//! scaled by `REFERENCE_S / mean kernel time`, i.e. stated at the speed
//! the host has when the kernel takes [`REFERENCE_S`]. The kernel is the
//! benchmark's own code, so no change to the program moves it.

use crate::sys;
use std::hint::black_box;

/// Values per kernel run.
const VALUES: u32 = 1 << 15;
/// The speed the metrics are stated at: about the kernel's CPU time on
/// an unloaded host of the kind the benchmark was tuned on.
pub const REFERENCE_S: f64 = 200e-6;

fn kernel(buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    let mut x: u32 = 0x2545_f491;
    for _ in 0..VALUES {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let mut v = x % 4096;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                break;
            }
            buf.push(byte | 0x80);
        }
    }
    let mut cells = [0u64; 96];
    let (mut acc, mut shift) = (0u32, 0u32);
    for &byte in buf.iter() {
        acc |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            cells[(acc % 96) as usize] += 1;
            acc = 0;
            shift = 0;
        } else {
            shift += 7;
        }
    }
    cells.iter().zip(1u64..).map(|(c, i)| c * i).sum()
}

/// Kernel timings taken through one measured stretch.
#[derive(Default)]
pub struct Calibration {
    buf: Vec<u8>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Runs the kernel once on the calling thread and records its CPU time.
    pub fn sample(&mut self) {
        let t0 = sys::thread_cpu_s();
        black_box(kernel(black_box(&mut self.buf)));
        if let Some(s) = sys::thread_cpu_s().zip(t0).map(|(b, a)| b - a) {
            self.samples.push(s);
        }
    }

    /// Mean kernel CPU time, in seconds.
    pub fn kernel_s(&self) -> f64 {
        crate::trace::mean(&self.samples)
    }

    /// How much faster than the reference the host ran: scale times by
    /// it, divide rates by it.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / self.kernel_s()
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}
