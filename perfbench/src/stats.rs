//! Statistics helpers: percentiles with a sample-count guard, medians
//! of repeated trials, open-loop latency and goodput accounting.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; otherwise the next lower percentile that has them is.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for a tail report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A tail latency: which percentile it is and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
}

/// The highest percentile of `sorted`, at most `max_pct`, that has at
/// least [`MIN_BEYOND`] samples beyond it. `None` when even the median
/// lacks them.
pub fn tail(sorted: &[f64], max_pct: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_pct)
        .find(|&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .map(|pct| Tail {
            pct,
            value: percentile(sorted, pct),
        })
}

/// Sorts a copy of `v` ascending (all values finite).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    s
}

/// Median of repeated trials (mean of the middle two for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One open-loop request, timed in seconds from the start of its pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its reply was read.
    pub done: f64,
    /// Answered 200 with a reply that decoded and passed its checks.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from the due time, so a stall also
    /// charges the wait it imposes on every request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Requests answered OK within `limit_ms` of their due time, per
/// second of `duration_s`. Failed and refused requests are misses.
pub fn goodput(samples: &[Sample], limit_ms: f64, duration_s: f64) -> f64 {
    let good = samples
        .iter()
        .filter(|s| s.ok && s.latency_ms() <= limit_ms)
        .count();
    good as f64 / duration_s
}

/// Operations attempted and failed (errored, refused, or failed an
/// output check).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed share of attempted operations (0 when none attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s = ramp(1000);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(
            tail(&s, 99.0),
            Some(Tail {
                pct: 99.0,
                value: 990.0
            })
        );
        // One sample short: p99 would have 9 beyond, so p95 is reported.
        let s = ramp(999);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail(&s, 99.0).map(|t| t.pct), Some(95.0));
        // The ladder is capped by the caller's maximum.
        let s = ramp(20_000);
        assert_eq!(tail(&s, 99.0).map(|t| t.pct), Some(99.0));
        assert_eq!(tail(&s, 100.0).map(|t| t.pct), Some(99.9));
    }

    #[test]
    fn no_tail_without_ten_beyond_the_median() {
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&ramp(20), 99.0).map(|t| t.pct), Some(50.0));
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // Sent 4 ms late, answered 2 ms after sending: the user waited
        // 6 ms, and the generator ran 4 ms behind.
        let s = Sample {
            due: 1.0,
            sent: 1.004,
            done: 1.006,
            ok: true,
        };
        assert!((s.latency_ms() - 6.0).abs() < 1e-9);
        assert!((s.late_ms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_counts_refused_and_failed_requests_as_misses() {
        let fast = |ok| Sample {
            due: 0.0,
            sent: 0.0,
            done: 0.001,
            ok,
        };
        let slow = Sample {
            due: 0.0,
            sent: 0.0,
            done: 0.011,
            ok: true,
        };
        // 2 fast OK, 1 fast refused (429), 1 fast failed check, 1 slow OK.
        let samples = [fast(true), fast(true), fast(false), fast(false), slow];
        assert_eq!(goodput(&samples, 10.0, 2.0), 1.0);
        assert_eq!(goodput(&samples, 11.0, 1.0), 3.0);
    }

    #[test]
    fn failed_frac_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
    }
}
