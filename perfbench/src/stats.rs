//! Order statistics over repeated measurements, and the process's
//! CPU time and peak resident set.

use std::time::Instant;

/// The `q` quantile, interpolating linearly between the closest ranks;
/// `NaN` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The statistic every gated host time is reported as: the upper
/// decile over repetitions. On a shared two-vCPU Xeon VM, spells of a
/// less loaded physical core speed single passes up by as much as 1.5x.
/// Over sets of ten 30 s runs per workload they spread run medians by
/// 5-15% of their value and upper deciles by 3-9%.
pub fn upper_decile(xs: &[f64]) -> f64 {
    quantile(xs, 0.9)
}

/// The highest whole percentile with at least ten samples above it,
/// and its value (nearest-rank), if there are more than ten samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank k = ceil(p * n / 100) leaves n - k samples above.
    let p = (1..100u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)?;
    let k = (p as usize * n).div_ceil(100).max(1);
    Some((p, v[k - 1]))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process's threads have run, live and exited, in
/// nanoseconds. Unlike wall-clock time it leaves out time the
/// hypervisor stole from the machine's virtual CPUs, which on a shared
/// two-vCPU host moves wall-clock medians by a quarter from one minute
/// to the next.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to
    // a live, writable local, and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Wall-clock and process CPU time since [`Clock::start`].
pub struct Clock {
    wall: Instant,
    cpu_ns: u64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        (process_cpu_ns() - self.cpu_ns) as f64 * 1e-9
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.75), 4.0);
        assert!((upper_decile(&[4.0, 1.0, 2.0, 3.0, 5.0]) - 4.6).abs() < 1e-12);
        assert_eq!(upper_decile(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("40 samples have a tail");
        assert_eq!(p, 75);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..10]).is_none());
    }
}
