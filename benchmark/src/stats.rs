//! Order statistics and the process CPU clock.

/// Sorts samples ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of sorted samples; the mean of the middle two for an even count.
/// `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// because that is what the acceptance driver compares. Needs two samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: the clamp can push j·4 past i·m, and Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the outer quartiles as a share of the median.
pub fn iqr_ratio(sorted: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(sorted)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) the whole process has used so far: every
/// thread, joined ones included. Read from `CLOCK_PROCESS_CPUTIME_ID`
/// because `/proc/self/stat` only counts 10 ms ticks, too coarse for a
/// one-second run.
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(
        status, 0,
        "the process CPU clock is always readable on Linux"
    );
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    /// Expected values are `statistics.quantiles(v, n=4)` from CPython.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_ratio(&ten), Some(1.0));
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > before, "{x}");
    }
}
