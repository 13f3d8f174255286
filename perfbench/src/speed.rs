//! A reference for the host's current speed. The host shares its caches,
//! memory bandwidth and power budget with other tenants, and the
//! program's speed follows their load: the same fleet batch takes up to
//! twice as long from one minute to the next. A probe owned by the
//! benchmark, timed right before and right after a phase, sees the same
//! slowdown, so the phase's wall time divided by the probe's time moves
//! much less with the host and still moves with the program.
//!
//! Only the phases that keep every CPU busy are scaled. Single-threaded
//! phases spread less unscaled than scaled, so they stay wall time.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Words in each probe thread's buffer: 2 MiB, past the per-core caches.
const PROBE_WORDS: usize = 1 << 18;
/// Arithmetic steps per probe.
const PROBE_STEPS: u64 = 2_000_000;
/// Random read-modify-writes of the buffer per probe.
const PROBE_TOUCHES: u64 = 2_000_000;
/// Seconds one probe takes on the reference host (a 2-vCPU "Intel(R)
/// Xeon(R) Processor" guest at its usual speed). Scaled wall times are
/// in seconds of that host.
const NOMINAL_PROBE_S: f64 = 0.016;

/// Probe buffers, one per thread, allocated and written once so that no
/// probe pays for page faults.
static BUFFERS: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// One probe: a dependent multiply-xorshift chain, then random
/// read-modify-writes of `buffer`. Its inputs are fixed, and no code of
/// the program runs in it.
fn probe_once(buffer: &mut [u64]) -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..black_box(PROBE_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
    }
    let mask = buffer.len() - 1;
    for _ in 0..black_box(PROBE_TOUCHES) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buffer[x as usize & mask];
        *slot = slot.wrapping_add(x);
    }
    black_box(x);
    started.elapsed().as_secs_f64()
}

/// The probe on `threads` threads at once, as loaded as the phase it
/// brackets: the mean per-thread time, seconds.
fn probe(threads: usize) -> f64 {
    let mut buffers = BUFFERS.lock().unwrap_or_else(|e| e.into_inner());
    while buffers.len() < threads {
        buffers.push(vec![1; PROBE_WORDS]);
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = buffers
            .iter_mut()
            .take(threads)
            .map(|buffer| s.spawn(move || probe_once(buffer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the probe does not panic"))
            .collect()
    });
    crate::mean(&times)
}

/// Runs `phase`, which keeps `threads` CPUs busy, between two probes.
/// Returns its result and the factor that turns its wall time into
/// seconds at the reference host's speed (below 1 while the host runs
/// slow).
pub fn scaled<T>(threads: usize, phase: impl FnOnce() -> T) -> (T, f64) {
    let before = probe(threads);
    let result = phase();
    let after = probe(threads);
    (result, 2.0 * NOMINAL_PROBE_S / (before + after))
}
