//! Order statistics and process measurements.

/// Quantile `q` (0..=1) of `values` by linear interpolation between
/// closest ranks (the `inclusive` method of Python's
/// `statistics.quantiles`). `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Number of samples strictly above `threshold`.
pub fn count_above(values: &[f64], threshold: f64) -> usize {
    values.iter().filter(|&&v| v > threshold).count()
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process, as of the first call (before
/// the benchmark pins any thread).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `cpu_set_t`: room for 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes glibc's mmap threshold at its default of 128 KiB. Left adaptive,
/// the threshold rises to the largest block freed so far and the heap then
/// keeps up to twice that, so the peak resident set would depend on the
/// order the seed gives the jobs rather than on the memory they use. Big
/// blocks stay mmapped and go back to the system when freed.
pub fn fix_mmap_threshold() {
    // SAFETY: `mallopt` takes two plain integers and touches no memory of
    // ours; glibc serializes it against concurrent allocation.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Pins the calling thread, and the threads it spawns from now on, to
/// `cpu`. Returns `false` (and changes nothing) where that is not
/// possible.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is an initialized buffer of exactly the size passed,
    // it outlives the call, and glibc only reads it; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}
