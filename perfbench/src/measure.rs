//! Measurement primitives: latency summaries, process CPU time, peak RSS,
//! the seeded generator and the metric record the result line is built from.

use std::time::Instant;

/// Candidate tail percentiles, highest first. A run reports the first one
/// that leaves at least [`TAIL_MIN_BEYOND`] samples above it.
const TAIL_LADDER: [f64; 10] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 87.5, 85.0, 80.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample reduced to its median and its tail.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples in the summary.
    pub count: usize,
    /// Median, in the sample's unit.
    pub p50: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Which percentile `tail` is (percent).
    pub tail_pct: f64,
    /// Samples strictly above the tail rank.
    pub beyond: usize,
}

impl Latency {
    /// Summarizes `values`; the tail is the highest ladder percentile with
    /// at least [`TAIL_MIN_BEYOND`] samples beyond it (the median when the
    /// sample is too small for any of them).
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
        let tail_pct =
            TAIL_LADDER.into_iter().find(|&p| beyond(p) >= TAIL_MIN_BEYOND).unwrap_or(50.0);
        Self {
            count: n,
            p50: percentile(&v, 50.0),
            tail: percentile(&v, tail_pct),
            tail_pct,
            beyond: beyond(tail_pct),
        }
    }

    /// `p99.5 (n=4500, 22 beyond)`: the label printed next to the tail.
    pub fn tail_label(&self) -> String {
        format!("p{} (n={}, {} beyond)", self.tail_pct, self.count, self.beyond)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (every thread, including threads that
/// already exited), in nanoseconds. `/proc/self/stat` ticks would quantize
/// to 10 ms at `CLK_TCK = 100`.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Caps glibc's malloc arenas at `nproc`. Uncapped, glibc opens a new
/// arena whenever a thread meets a locked one, so the arena count, and
/// with it the peak RSS, depends on thread timing. Call before spawning
/// threads.
pub fn cap_malloc_arenas() {
    let arenas = i32::try_from(nproc()).unwrap_or(i32::MAX);
    // SAFETY: `mallopt` takes two plain integers and only adjusts
    // allocator parameters; no other thread is allocating yet.
    let ok = unsafe { mallopt(M_ARENA_MAX, arenas) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX) failed");
}

/// Peak resident set (`VmHWM`) of this process, MiB. Workloads read it
/// when their measured phase ends, before the correctness checks.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the stream named by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (non-200, shed, oracle error, mismatch).
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Run facts printed above the result (thread counts, tail labels…).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.to_owned(), unit, value });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    /// The latency pair every workload reports, over consecutive segments
    /// of about `segment_len` samples (one segment when there are fewer):
    /// the median of the segments' medians and the median of their tails.
    /// A host stall then moves one segment, not the reported value.
    pub fn latency(&mut self, samples_ms: &[f64], segment_len: usize) {
        let segments = (samples_ms.len() / segment_len).max(1);
        let len = samples_ms.len() / segments;
        let lats: Vec<Latency> =
            samples_ms.chunks_exact(len).take(segments).map(Latency::of).collect();
        let p50: Vec<f64> = lats.iter().map(|l| l.p50).collect();
        let tail: Vec<f64> = lats.iter().map(|l| l.tail).collect();
        self.metric("latency_p50_ms", "ms", median(&p50));
        self.metric("latency_tail_ms", "ms", median(&tail));
        self.notes.push(format!(
            "latency_tail_ms = median over {segments} segment(s) of each segment's {}",
            lats[0].tail_label()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=4500).map(f64::from).collect();
        let lat = Latency::of(&v);
        assert_eq!(lat.tail_pct, 99.5);
        assert_eq!(lat.beyond, 22);
        assert_eq!(lat.tail, 4478.0);
        let small: Vec<f64> = (1..=80).map(f64::from).collect();
        assert_eq!(Latency::of(&small).tail_pct, 87.5);
    }

    #[test]
    fn a_stall_in_one_segment_moves_nothing() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        v[..200].iter_mut().for_each(|x| *x = 1e3);
        let mut out = Outcome::default();
        out.latency(&v, 1000);
        assert_eq!(out.metrics[0].value, 49.0);
        assert_eq!(out.metrics[1].value, 98.0);
    }

    #[test]
    fn process_cpu_advances() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
    }
}
