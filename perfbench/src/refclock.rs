//! A reference clock for work that runs only once per measurement.
//!
//! The host is shared: its speed for the same code drifts by a quarter
//! or more over tens of seconds, with no steal time to show for it. Work
//! that repeats is timed as its best repetition, but the drift is slower
//! than a run, so that alone does not remove it. Every timed unit of
//! about 20 ms or more is therefore bracketed by *ticks* of this fixed
//! kernel, and its time is scaled by how much slower than nominal the
//! ticks around it ran. The kernel is part of the benchmark, not of the
//! code under test, so a change to the code moves the corrected time and
//! a change in the host's state moves it less.
//!
//! The kernel is a small dispatch loop over a 32 KiB table: it stays in
//! the first-level caches, so what the timed work did before a tick
//! hardly changes the tick's time. It tracks the host's clock speed and
//! the contention of a busy sibling core; it does not track contention
//! for the shared caches or memory, so the correction removes part of
//! the host's drift, not all of it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one tick takes on an uncontended 2-vCPU Xeon host at
/// 2.1 GHz; corrected times are expressed against it.
pub const NOMINAL_TICK_S: f64 = 0.001;

const TABLE_WORDS: usize = 1 << 12;
const TICK_ITERS: u32 = 180_000;

/// The reference kernel and its table.
#[derive(Debug)]
pub struct RefClock {
    table: Vec<u64>,
    state: u64,
    last: f64,
}

impl Default for RefClock {
    fn default() -> Self {
        RefClock::new()
    }
}

impl RefClock {
    /// A clock with its table allocated and touched.
    pub fn new() -> RefClock {
        let mut clock = RefClock {
            table: vec![1; TABLE_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
            last: 0.0,
        };
        clock.last = clock.tick();
        clock
    }

    /// Runs the kernel once and returns its host seconds.
    fn tick(&mut self) -> f64 {
        const OPS: [u8; 16] = [0, 1, 2, 3, 1, 0, 2, 3, 3, 2, 1, 0, 0, 3, 2, 1];
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut acc = black_box(self.state);
        let mut pc = 0usize;
        for i in 0..TICK_ITERS {
            let op = OPS[pc & 15];
            pc = pc.wrapping_add(1 + (acc as usize & 1));
            match op {
                0 => {
                    acc = acc
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407)
                }
                1 => {
                    let k = (acc >> 20) as usize & mask;
                    self.table[k] = self.table[k].wrapping_add(acc);
                    acc ^= self.table[(k * 7) & mask];
                }
                2 => acc = acc.rotate_left(13) ^ u64::from(i),
                _ if acc & 8 == 0 => acc = acc.wrapping_add(self.table[(acc as usize >> 7) & mask]),
                _ => acc = acc.wrapping_sub(3),
            }
        }
        self.state = black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Ticks, and returns the factor that scales host time measured
    /// since the previous tick to nominal host speed: nominal tick time
    /// over the faster of the two ticks around it. The faster one, so
    /// that one tick delayed by an interrupt does not shrink a whole
    /// chunk of work.
    pub fn factor(&mut self) -> f64 {
        let now = self.tick();
        let f = NOMINAL_TICK_S / self.last.min(now);
        self.last = now;
        f
    }
}

/// Scales `ns` by `factor`.
pub fn scale(ns: u64, factor: f64) -> u64 {
    (ns as f64 * factor) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_near_one_on_a_quiet_host() {
        let mut clock = RefClock::new();
        let f = clock.factor();
        assert!(f > 0.0 && f.is_finite());
        assert_eq!(scale(1_000, 0.5), 500);
    }
}
