//! Fixed-memory log-linear latency histogram.
//!
//! Values (nanoseconds or plain counts) below `SUB` land in exact unit
//! buckets; above that, every power of two `[2^e, 2^(e+1))` is split into
//! `SUB` equal-width sub-buckets, so a bucket is never wider than `1/SUB`
//! of its lower bound. A reported quantile is interpolated within its
//! bucket and clamped to the observed `[min, max]`, which bounds its
//! relative error by `1/SUB` (≈3% at `SUB = 32`; log₂ buckets are off by
//! up to 2×) and guarantees no quantile ever exceeds the recorded maximum.
//! Memory is one fixed array per histogram, allocated up front, whatever
//! the sample count.

/// Sub-buckets per power of two (a power of two itself).
pub const SUB: u64 = 32;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Highest representable exponent: values up to `2^MAX_EXP` (≈18 minutes
/// in ns) are bucketed; larger ones clamp into the top bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear histogram with `SUB` sub-buckets per power of two.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }
}

/// Bucket index of `v`.
fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()).min(MAX_EXP);
    if e == MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Inclusive lower bound and width of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (e - SUB_BITS);
    ((1u64 << e) + (i % SUB) * width, width)
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest value recorded (0 when empty).
    #[cfg(test)]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all values recorded.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of rank `⌈q·count⌉`: the samples of
    /// the bucket holding that rank are taken as evenly spread over it, so
    /// the estimate moves smoothly with the data instead of snapping to
    /// bucket midpoints; it is clamped to the observed `[min, max]`. `0.0`
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, width) = bucket_bounds(i);
                let within = (rank - below) as f64 - 0.5;
                let v = lo as f64 + (width as f64 - 1.0) * within / c as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// Fold `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// The interquartile mean of `values`: the mean of what is left after
/// the lowest and the highest `⌊n/4⌋` are dropped. It discards outliers
/// like a median, but averages the rest, so when the host alternates
/// between a fast and a slow speed for seconds at a time it follows the
/// share of each instead of jumping to whichever holds the majority. 0
/// when empty.
pub fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let mid = &values[cut..values.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The mean of the best quarter of `values` (at least one): the lowest
/// when `lower_is_better`, else the highest. For queueing figures, whose
/// windows jump several-fold while a stalled host lets a backlog build and
/// drain, this is the figure of the windows that ran at the host's full
/// speed. 0 when empty.
pub fn best_quarter_mean(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    let best = &values[..values.len().div_ceil(4)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// Samples split into consecutive windows of a run, so that a run-level
/// figure can leave out the seconds in which the host stalled.
pub struct Windowed {
    pub windows: Vec<Histogram>,
}

impl Windowed {
    /// `n` empty windows (at least one).
    pub fn new(n: usize) -> Self {
        Self {
            windows: (0..n.max(1)).map(|_| Histogram::default()).collect(),
        }
    }

    /// Each non-empty window's `q`-quantile.
    fn quantiles(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q))
            .collect()
    }

    /// Interquartile mean of the windows' `q`-quantiles; 0 when all are
    /// empty.
    pub fn central_quantile(&self, q: f64) -> f64 {
        interquartile_mean(self.quantiles(q))
    }

    /// Mean of the lowest quarter of the windows' `q`-quantiles; 0 when
    /// all are empty.
    pub fn best_quantile(&self, q: f64) -> f64 {
        best_quarter_mean(self.quantiles(q), true)
    }

    /// Every window's samples in one histogram.
    pub fn pooled(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.windows {
            all.merge(h);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), (SUB - 1) as f64);
        // rank ⌈0.5·32⌉ = 16 → value 15.
        assert_eq!(h.quantile(0.5), 15.0);
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        let mut v = 1u64;
        while v < (1u64 << MAX_EXP) {
            for probe in [v, v + v / 3, v * 2 - 1].map(|p| p.min((1 << MAX_EXP) - 1)) {
                let (lo, width) = bucket_bounds(index_of(probe));
                assert!(
                    lo <= probe && probe < lo + width,
                    "{probe} outside [{lo}, {})",
                    lo + width
                );
                assert!(
                    width == 1 || width * SUB <= lo,
                    "bucket wider than 1/SUB of its bound"
                );
            }
            v = v * 3 / 2 + 1;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_indices_are_monotone_and_contiguous() {
        let mut prev = 0usize;
        for i in 1..BUCKETS {
            let (lo, width) = bucket_bounds(i);
            let (plo, pwidth) = bucket_bounds(prev);
            assert_eq!(plo + pwidth, lo, "gap before bucket {i}");
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(lo + width - 1), i);
            prev = i;
        }
    }

    #[test]
    fn quantiles_resolve_a_ten_percent_change() {
        // Two spread-out distributions 10% apart must report medians 10%
        // apart (within two bucket half-widths), which log2 buckets whose
        // quantiles snap to one value per power of two cannot do.
        let median = |base: u64| {
            let mut h = Histogram::default();
            for k in 0..1000 {
                h.record(base + k * (base / 1000));
            }
            h.quantile(0.5)
        };
        let a = median(1_000_000);
        let b = median(1_100_000);
        assert!(
            (a / 1_500_000.0 - 1.0).abs() <= 1.0 / (2 * SUB) as f64,
            "median {a}"
        );
        let ratio = b / a;
        assert!((ratio - 1.1).abs() < 1.0 / SUB as f64, "ratio {ratio}");
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        let mut h = Histogram::default();
        h.record(70_800);
        // A lone sample: every quantile is that sample, not a bucket edge.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 70_800.0);
        }
        h.record(92_700);
        assert!(h.quantile(1.0) <= 92_700.0);
        assert!(h.quantile(0.0) >= 70_800.0);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [33u64, 1_000, 123_456, 9_876_543_210] {
            let mut h = Histogram::default();
            h.record(v);
            h.record(v.saturating_mul(4));
            let q = h.quantile(0.5);
            assert!(
                ((q - v as f64) / v as f64).abs() <= 1.0 / (2 * SUB) as f64 + 1e-12,
                "{v} -> {q}"
            );
        }
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(Vec::new()), 0.0);
        assert_eq!(interquartile_mean(vec![7.0]), 7.0);
        // Fewer than four values: nothing is dropped.
        assert_eq!(interquartile_mean(vec![1.0, 2.0, 6.0]), 3.0);
        // Eight values: the lowest and highest two go, whatever the order.
        let v = vec![100.0, 4.0, 3.0, 5.0, 6.0, 0.0, 1.0, -50.0];
        assert_eq!(interquartile_mean(v), (1.0 + 3.0 + 4.0 + 5.0) / 4.0);
    }

    #[test]
    fn interquartile_mean_follows_the_share_of_a_slow_phase() {
        // Windows at speed 10 or 13: a median jumps from 10 to 13 when the
        // slow windows become the majority; the interquartile mean moves
        // in steps.
        let runs = |slow: usize| {
            let v: Vec<f64> = (0..12)
                .map(|i| if i < slow { 13.0 } else { 10.0 })
                .collect();
            interquartile_mean(v)
        };
        assert_eq!(runs(0), 10.0);
        assert_eq!(runs(12), 13.0);
        assert!(runs(5) > runs(4) && runs(7) > runs(6) && runs(7) < 13.0);
    }

    #[test]
    fn best_quarter_mean_takes_the_best_quarter_rounded_up() {
        assert_eq!(best_quarter_mean(Vec::new(), true), 0.0);
        assert_eq!(best_quarter_mean(vec![9.0, 3.0], true), 3.0);
        let v = vec![5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 100.0];
        // Nine values: the best three.
        assert_eq!(best_quarter_mean(v.clone(), true), 2.0);
        assert_eq!(best_quarter_mean(v, false), (100.0 + 8.0 + 7.0) / 3.0);
    }

    #[test]
    fn windows_report_the_typical_window_and_pool_for_the_tail() {
        let mut w = Windowed::new(5);
        for (k, h) in w.windows.iter_mut().enumerate() {
            // Windows 0..4 hold 1..=100 shifted by 0, 0, 0, 0, 10_000.
            let shift = if k == 4 { 10_000 } else { 0 };
            for v in 1..=100 {
                h.record(v + shift);
            }
        }
        // One stalled window of five does not move the figure...
        assert_eq!(w.central_quantile(0.5), 50.0);
        assert_eq!(w.best_quantile(0.5), 50.0);
        // ...but the pooled tail still sees it.
        let all = w.pooled();
        assert_eq!(all.count(), 500);
        assert!(all.quantile(0.99) > 10_000.0);
        assert_eq!(Windowed::new(3).central_quantile(0.9), 0.0);
    }

    #[test]
    fn merge_keeps_counts_and_extremes() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        a.record(5);
        b.record(1_000);
        b.record(2);
        a.merge(&b);
        assert_eq!((a.count(), a.max(), a.sum()), (3, 1_000, 1_007));
        assert_eq!(a.quantile(0.0), 2.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0.0);
    }
}
