//! The host-speed reference: a fixed integer loop, timed next to the
//! workload, so a run's times can be read in units of it.
//!
//! On a shared host the same deterministic work runs up to 1.9 times
//! slower from one minute to the next (other tenants on the sibling
//! hyperthreads, frequency changes), and no statistic taken inside one run
//! removes that. A loop that depends on no crate of the repository slows
//! down with the host but not with the code under test, so the work's
//! time over the loop's time measured at the same moment keeps the code's
//! cost and drops most of the host's. The loop keeps four independent
//! dependency chains and two data-dependent branches in flight, because
//! an interpreter and a compiler lose speed to a busy sibling thread
//! about as such code does, and much more than a single dependent chain.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one reference run: about 5 ms on a 2-vCPU Xeon guest.
const ITERS: u64 = 1_000_000;

/// The reference loop's time on the host the benchmark was tuned on (a
/// 2-vCPU Xeon guest), in ms: `setup_s` is read at this speed.
pub const NOMINAL_REF_MS: f64 = 4.0;

/// Seconds at the nominal reference speed, from a time in reference units.
pub fn nominal_s(refs: f64) -> f64 {
    refs * NOMINAL_REF_MS / 1e3
}

/// Runs the reference loop once and returns its wall time in ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut acc = [0u64; 4];
    for i in 0..black_box(ITERS) {
        a ^= a << 13;
        a ^= a >> 7;
        a ^= a << 17;
        b = b
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        c = c.rotate_left(7) ^ i;
        d = d.wrapping_add(a >> 5);
        if (a ^ b) & 1 == 0 {
            acc[0] = acc[0].wrapping_add(c);
        } else {
            acc[1] ^= d;
        }
        if (b >> 3) & 1 == 0 {
            acc[2] = acc[2].wrapping_add(a);
        } else {
            acc[3] ^= b;
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the reference loop on `threads` threads at once and returns the
/// mean of their wall times in ms: the host's speed when that many of its
/// CPUs are busy, as they are under a server with that many workers.
pub fn reference_on_ms(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(reference_ms)).collect();
        let mine = reference_ms();
        let theirs: f64 = others
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum();
        (mine + theirs) / threads.max(1) as f64
    })
}

/// Times operations between runs of the reference loop: one before the
/// first operation and one after each.
pub struct Paced {
    last_ref_ms: f64,
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall time of the operation.
    pub ms: f64,
    /// Mean of the reference runs just before and just after it.
    pub ref_ms: f64,
}

impl Timed {
    /// The operation's time in reference units.
    pub fn refs(&self) -> f64 {
        self.ms / self.ref_ms
    }
}

impl Paced {
    pub fn new() -> Self {
        Paced {
            last_ref_ms: reference_ms(),
        }
    }

    /// Runs `op`, then the reference loop.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = reference_ms();
        let timed = Timed {
            ms,
            ref_ms: (self.last_ref_ms + after) / 2.0,
        };
        self.last_ref_ms = after;
        (out, timed)
    }

    /// Re-times the reference before the next operation, after work that
    /// is not to be paired with it.
    pub fn resync(&mut self) {
        self.last_ref_ms = reference_ms();
    }
}

/// CPU time (user plus system, all threads) process `pid` has used so
/// far, in ms, from `/proc/<pid>/stat`. The kernel reports it in ticks of
/// USER_HZ, which is 100 on Linux.
pub fn process_cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |x| x.1);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) * 10.0),
        _ => Err(format!("{path}: no utime/stime")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_takes_milliseconds() {
        let ms = reference_ms();
        assert!(ms > 0.1 && ms < 500.0, "{ms} ms");
    }

    #[test]
    fn paced_pairs_each_operation_with_the_references_around_it() {
        let mut paced = Paced::new();
        let (v, t) = paced.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.ref_ms > 0.0 && t.ms >= 0.0);
        assert!(t.refs() < 1.0, "an empty operation took {} refs", t.refs());
    }

    #[test]
    fn reference_on_two_threads_is_a_mean_time() {
        let ms = reference_on_ms(2);
        assert!(ms > 0.1 && ms < 500.0, "{ms} ms");
    }

    #[test]
    fn own_cpu_time_grows_with_work() {
        let pid = std::process::id();
        let before = process_cpu_ms(pid).unwrap();
        for _ in 0..100 {
            reference_ms();
        }
        let after = process_cpu_ms(pid).unwrap();
        assert!(after >= before + 20.0, "{before} -> {after}");
    }
}
