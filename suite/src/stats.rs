//! Order statistics, slice medians, run-to-run spread and the `/proc`
//! readers behind the cost metrics.

/// Length of one slice of a measured phase, on the run's clock. Throughput
/// and CPU cost are reported as the median slice, so a burst from a noisy
/// neighbour that spoils fewer than half of a run's seconds cannot move
/// them. One second, because that is the period of the `everysec` flush:
/// every slice then carries exactly one, and the median still pays for it.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`. Exact:
/// the returned value is one of the samples. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples (sorts a copy).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// Median of floats (mean of the two middle values for an even count). 0 for
/// an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples_ns: &[u64]) -> f64 {
    percentile(samples_ns, 0.5) as f64 / 1_000.0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let median = median_f64(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// `after - before` for monotone counters, as a float; 0 if the counter went
/// backwards (a store reopened in between).
pub fn delta(before: u64, after: u64) -> f64 {
    after.saturating_sub(before) as f64
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time every thread of this process has consumed so far,
/// in nanoseconds (the scheduler's own accounting, not the 100 Hz tick of
/// `/proc/self/stat`). 0 if the kernel refuses the clock.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout 64-bit Linux
    // uses; the kernel writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile(&[9, 1, 5], 0.5), 5);
        assert_eq!(percentile(&[], 0.5), 0);
        // Ten samples: the median is the fifth, p99 the tenth.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile_sorted(&ten, 0.5), 14);
        assert_eq!(percentile_sorted(&ten, 0.99), 19);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(median_us(&[1_000, 9_000, 2_000]), 2.0);
    }

    #[test]
    fn slice_median_ignores_one_burst() {
        // 20 slices at 100 ops/s, nine of them slowed by a neighbour.
        let mut per_slice = vec![100.0; 20];
        for slow in &mut per_slice[3..12] {
            *slow = 60.0;
        }
        assert_eq!(median_f64(&per_slice), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), [4.5, 6.0, 7.5]);
        assert_eq!(relative_spread(&[1.0, 2.0, 4.0, 8.0, 16.0]), 10.5 / 4.0);
    }

    #[test]
    fn deltas_and_ratios() {
        assert_eq!(delta(10, 25), 15.0);
        assert_eq!(delta(25, 10), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(
            process_cpu_ns() > before,
            "the CPU clock advances with work"
        );
    }
}
