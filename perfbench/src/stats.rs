//! Sample summaries: nearest-rank percentiles that refuse to report a tail
//! they have too few samples for, means, and an order-sensitive digest.

use std::sync::OnceLock;
use std::time::Instant;

/// Samples a percentile must have strictly above its rank before it is
/// reported: with fewer, the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Most consecutive time slices a window's percentile is taken over.
const MAX_SLICES: usize = 5;

/// Nanoseconds since the first call: one clock for every thread's samples.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Latency samples in nanoseconds, each stamped with when it was taken. A
/// failed or refused operation is kept as [`Latencies::FAILED`], so it
/// sorts above every real sample and counts as missing any latency limit
/// instead of vanishing from the percentiles.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// `(taken at, latency)`.
    samples: Vec<(u64, u64)>,
}

impl Latencies {
    /// The sample recorded for a failed operation.
    pub const FAILED: u64 = u64::MAX;

    pub fn push_ns(&mut self, ns: u64) {
        self.samples.push((now_ns(), ns.min(Self::FAILED - 1)));
    }

    pub fn push_failed(&mut self) {
        self.samples.push((now_ns(), Self::FAILED));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        let mut sorted: Vec<u64> = self.samples.iter().map(|s| s.1).collect();
        sorted.sort_unstable();
        nearest_rank(&sorted, p)
    }

    /// Percentile `p` of a measurement window, robust to a burst of
    /// interference from the host: the samples are cut by time into the
    /// largest odd number of equal slices (at most [`MAX_SLICES`]) that
    /// still leaves [`MIN_BEYOND`] samples beyond `p` in each, and the
    /// median of the slices' nearest-rank percentiles is returned. With
    /// too few samples for more than one slice this is
    /// [`Latencies::percentile_ns`].
    pub fn sliced_percentile_ns(&self, p: f64) -> Option<u64> {
        let mut by_time = self.samples.clone();
        by_time.sort_unstable_by_key(|s| s.0);
        let n = by_time.len();
        for slices in (1..=MAX_SLICES).rev().step_by(2) {
            let size = n / slices;
            let mut values = Vec::with_capacity(slices);
            for chunk in by_time.chunks(size.max(1)).take(slices) {
                let mut sorted: Vec<u64> = chunk.iter().map(|s| s.1).collect();
                sorted.sort_unstable();
                match nearest_rank(&sorted, p) {
                    Some(v) => values.push(v),
                    None => break,
                }
            }
            if values.len() == slices {
                values.sort_unstable();
                return Some(values[slices / 2]);
            }
        }
        None
    }

    /// Successful samples per second, robust like
    /// [`Latencies::sliced_percentile_ns`]: the time the samples span is cut
    /// into [`MAX_SLICES`] equal slices and the median slice rate returned.
    pub fn sliced_rate(&self) -> f64 {
        let mut at: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.1 != Self::FAILED)
            .map(|s| s.0)
            .collect();
        at.sort_unstable();
        let (Some(&first), Some(&last)) = (at.first(), at.last()) else {
            return 0.0;
        };
        let width = (last - first) as f64 / MAX_SLICES as f64;
        if width <= 0.0 {
            return 0.0;
        }
        let mut counts = [0u64; MAX_SLICES];
        for t in at {
            let i = (((t - first) as f64 / width) as usize).min(MAX_SLICES - 1);
            counts[i] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / (width / 1e9)).collect();
        median(&rates)
    }

    /// Mean of the successful samples, in nanoseconds (0 when none).
    pub fn mean_ok_ns(&self) -> f64 {
        let ok: Vec<u64> = self
            .samples
            .iter()
            .map(|s| s.1)
            .filter(|&s| s != Self::FAILED)
            .collect();
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().map(|&s| s as f64).sum::<f64>() / ok.len() as f64
        }
    }
}

/// Nearest-rank percentile over an ascending slice: the sample at rank
/// `ceil(p/100 · n)`. `None` unless at least [`MIN_BEYOND`] samples rank
/// above it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a non-empty set of floats (mean of the middle pair for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// FNV-1a over a stream of words: identical inputs in identical order give
/// identical digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one ranking: topic ids and exact score bits.
    pub fn ranking(&mut self, ranked: &[(u32, f64)]) {
        self.word(ranked.len() as u64);
        for &(t, s) in ranked {
            self.word(u64::from(t));
            self.word(s.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 90.0), Some(90));
        assert_eq!(nearest_rank(&v, 50.5), Some(51));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_is_not_reported() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100 leaves exactly ten above it; p91 leaves nine.
        assert_eq!(nearest_rank(&v, 90.0), Some(90));
        assert_eq!(nearest_rank(&v, 91.0), None);
        assert_eq!(nearest_rank(&v, 99.0), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(990));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(nearest_rank(&v, 50.0), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(10));
    }

    #[test]
    fn failed_operations_sit_in_the_tail() {
        let mut l = Latencies::default();
        for i in 0..95 {
            l.push_ns(1_000 + i);
        }
        for _ in 0..105 {
            l.push_failed();
        }
        // More than half failed: the median itself misses every limit.
        assert_eq!(l.percentile_ns(50.0), Some(Latencies::FAILED));
        assert_eq!(l.len(), 200);
        assert!((l.mean_ok_ns() - 1_047.0).abs() < 1e-9);
    }

    #[test]
    fn sliced_percentile_is_the_median_of_slice_percentiles() {
        let mut l = Latencies::default();
        // Five time slices of 100 samples; the middle one is a burst of
        // interference ten times slower.
        for slice in 0..5u64 {
            let scale = if slice == 2 { 10 } else { 1 };
            for i in 1..=100u64 {
                l.samples
                    .push((slice * 1_000 + i, (100 + i + slice) * scale));
            }
        }
        // Slice p50s are 150, 151, 1520, 153, 154: the burst is voted out.
        assert_eq!(l.sliced_percentile_ns(50.0), Some(153));
        // p90 leaves ten beyond in a slice of 100: still five slices.
        assert_eq!(l.sliced_percentile_ns(90.0), Some(193));
        // p99 needs 1000 samples per slice; 500 allow no slice at all.
        assert_eq!(l.sliced_percentile_ns(99.0), None);
        let mut small = Latencies::default();
        for i in 0..30u64 {
            small.samples.push((i, i));
        }
        // Thirty samples: one slice, the plain nearest-rank median.
        assert_eq!(small.sliced_percentile_ns(50.0), small.percentile_ns(50.0));
    }

    #[test]
    fn sliced_rate_is_the_median_slice_rate() {
        let mut l = Latencies::default();
        // 1000 samples/s for 5 s, except a stalled second with 100.
        for sec in 0..5u64 {
            let n = if sec == 3 { 100 } else { 1_000 };
            for i in 0..n {
                l.samples
                    .push((sec * 1_000_000_000 + i * (1_000_000_000 / n), 1));
            }
        }
        let r = l.sliced_rate();
        assert!((r - 1_000.0).abs() < 10.0, "{r}");
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::default();
        a.ranking(&[(1, 0.5), (2, 0.25)]);
        let mut b = Digest::default();
        b.ranking(&[(2, 0.25), (1, 0.5)]);
        let mut c = Digest::default();
        c.ranking(&[(1, 0.5), (2, f64::from_bits(0.25f64.to_bits() + 1))]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut a2 = Digest::default();
        a2.ranking(&[(1, 0.5), (2, 0.25)]);
        assert_eq!(a, a2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
