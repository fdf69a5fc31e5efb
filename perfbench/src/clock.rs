//! Clocks. Every time the end-to-end run reports is CPU time, scaled to a
//! nominal host speed.
//!
//! On a shared virtual machine the wall time of a millisecond call swings
//! with the host: a stolen vCPU, or the wake-up of an idle vCPU when the
//! session's pool spawns its second worker, adds to wall time but not to
//! the process's CPU time (Linux leaves steal time out of task run time).
//! CPU time counts the serving work itself, on every thread the call ran.
//!
//! CPU time still swings with what other tenants run on the same cores
//! and caches: a fixed loop's CPU time can move by half within seconds.
//! So the run reads the host's speed between windows of calls with a
//! fixed [`kernel`] that runs no library code, and scales the CPU time of
//! each window's calls by `NOMINAL_S / reading` (the mean of the readings
//! at the window's two ends): a time is the CPU time the call would take
//! on a host where the kernel takes [`NOMINAL_S`]. A change to the library
//! moves the calls but never the kernel.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, including
/// threads that have exited (the pool's scoped workers).
pub fn process() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds one [`kernel`] run takes by definition of the nominal host
/// speed: about its time on a quiet 2-vCPU Xeon guest.
pub const NOMINAL_S: f64 = 0.0005;

/// A fixed CPU load of about half a millisecond that uses no library code:
/// ordered-map inserts and lookups (allocation and pointer chasing, as
/// circuit and cache work do) and multi-word multiply-accumulates (as
/// bignum arithmetic does), on SplitMix64 inputs fixed at compile time.
pub fn kernel() -> u64 {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..MAP_KEYS {
        map.insert(next() % (2 * MAP_KEYS), next());
    }
    let mut acc = 0u64;
    for _ in 0..MAP_KEYS {
        if let Some(v) = map.get(&(next() % (2 * MAP_KEYS))) {
            acc ^= v;
        }
    }
    let mut a: Vec<u64> = (0..WORDS).map(|_| next()).collect();
    let b: Vec<u64> = (0..WORDS).map(|_| next()).collect();
    for _ in 0..PRODUCTS {
        let mut product = vec![0u64; 2 * WORDS];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = product[i + j] as u128 + x as u128 * y as u128 + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + WORDS] = carry as u64;
        }
        a.copy_from_slice(&product[WORDS / 2..WORDS / 2 + WORDS]);
        a[0] |= 1;
    }
    std::hint::black_box(acc ^ a[0])
}

const MAP_KEYS: u64 = 2048;
const WORDS: usize = 16;
const PRODUCTS: usize = 300;

/// One reading of the host's speed: the median CPU seconds of three
/// [`kernel`] runs on the calling thread.
pub fn reading() -> f64 {
    let mut runs = [0.0; 3];
    for run in &mut runs {
        let started = thread();
        std::hint::black_box(kernel());
        *run = thread() - started;
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The factor that turns CPU time spent between two readings into nominal
/// CPU time.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process(), thread());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (p1, t1) = (process(), thread());
        assert!(t1 > t0 && p1 > p0);
        assert!(p1 - p0 >= t1 - t0 - 1e-6);
    }

    #[test]
    fn kernel_is_fixed_and_scale_is_nominal_at_nominal_speed() {
        assert_eq!(kernel(), kernel());
        assert!((scale(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) < 1.0);
    }
}
