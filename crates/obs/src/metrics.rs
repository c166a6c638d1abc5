//! Atomic metric primitives: counters, gauges and log2-bucketed
//! histograms.
//!
//! Everything here is const-constructible, records with relaxed
//! atomics only, and allocates nothing on the recording path. Snapshots
//! are plain arrays/integers: cheap to copy, mergeable bucket-wise, and
//! safe to serialize.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count. Recording is one relaxed
/// `fetch_add` — safe on any hot path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const: usable in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the count.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (connections open, cache residency,
/// validation progress). Same cost model as [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (const: usable in statics).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments the gauge by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements the gauge by `n`. Callers pair this with a prior
    /// [`Gauge::add`]; an unpaired decrement wraps (the gauge is a raw
    /// `u64`, not a checked quantity).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per possible bit length of a `u64`
/// sample (plus the zero bucket), so bucketing is a `leading_zeros`
/// and never a search.
pub const BUCKETS: usize = 64;

/// A lock-free log2-bucketed histogram.
///
/// Bucket `b` holds samples whose bit length is `b`: bucket 0 holds
/// exactly the value 0, bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`, and
/// the last bucket additionally absorbs everything from `2^62` up to
/// `u64::MAX`. [`Histogram::record`] is a single relaxed `fetch_add`
/// on the computed bucket — the entire hot-path cost.
///
/// Quantiles are *estimates* read off a [`HistogramSnapshot`]: the
/// midpoint of the bucket containing the requested rank, so any
/// estimate is within its bucket's bounds (a factor-of-2 relative
/// error ceiling, exact for the zero bucket).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The index of the bucket a sample lands in.
#[inline]
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The inclusive `[low, high]` value range of bucket `b`.
///
/// # Panics
///
/// Panics if `b >= BUCKETS`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    assert!(b < BUCKETS, "bucket index out of range");
    match b {
        0 => (0, 0),
        _ if b == BUCKETS - 1 => (1 << (b - 1), u64::MAX),
        _ => (1 << (b - 1), (1 << b) - 1),
    }
}

/// The midpoint estimate reported for bucket `b`.
fn bucket_midpoint(b: usize) -> u64 {
    let (low, high) = bucket_bounds(b);
    low + (high - low) / 2
}

impl Histogram {
    /// A zeroed histogram (const: usable in statics).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram { buckets: [ZERO; BUCKETS] }
    }

    /// Records one sample: a `leading_zeros` and one relaxed
    /// `fetch_add`, zero allocations.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Concurrent recording
    /// keeps running; the snapshot is internally consistent enough for
    /// monitoring (each bucket is read once, relaxed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// A plain-array copy of a [`Histogram`]'s bucket counts: mergeable,
/// serializable, and the surface quantile estimates are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; see [`Histogram`] for the bucket →
    /// value-range mapping.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with every bucket zero.
    pub const fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS] }
    }

    /// Total recorded samples (saturating: merged snapshots of
    /// pathological counts cannot wrap into a lying total).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Adds another snapshot's counts bucket-wise (saturating) —
    /// shard-local histograms fold into one distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the midpoint of the
    /// bucket containing the sample of that rank, hence always within
    /// that bucket's bounds. Returns 0 for an empty snapshot; `q`
    /// outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested sample, 1-based, at least 1 so q=0 is
        // the smallest recorded sample's bucket.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_midpoint(b);
            }
        }
        bucket_midpoint(BUCKETS - 1)
    }

    /// The estimated maximum: the upper bound of the highest non-empty
    /// bucket (0 when empty).
    pub fn max_estimate(&self) -> u64 {
        self.buckets.iter().rposition(|&n| n > 0).map(|b| bucket_bounds(b).1).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range_exactly_once() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
        // Adjacent buckets tile the range with no gap or overlap.
        for b in 1..BUCKETS {
            assert_eq!(bucket_bounds(b).0, bucket_bounds(b - 1).1 + 1, "bucket {b}");
        }
        // Every sample lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            let b = bucket_index(v);
            let (low, high) = bucket_bounds(b);
            assert!(low <= v && v <= high, "value {v} escaped bucket {b} [{low}, {high}]");
        }
    }

    #[test]
    fn quantiles_sit_inside_their_buckets() {
        let h = Histogram::new();
        for v in [3u64, 3, 3, 3, 100, 100, 100, 5000, 5000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10);
        // p50 rank is sample 5 (value 100, bucket bounds [64, 127]).
        let p50 = snap.quantile(0.5);
        assert!((64..=127).contains(&p50), "p50 estimate {p50}");
        // p99 rank is sample 10 (value 1_000_000).
        let p99 = snap.quantile(0.99);
        let (low, high) = bucket_bounds(bucket_index(1_000_000));
        assert!((low..=high).contains(&p99), "p99 estimate {p99}");
        // max estimate is an upper bound on every recorded sample.
        assert!(snap.max_estimate() >= 1_000_000);
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::empty().max_estimate(), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 200);
        for k in 0..BUCKETS {
            assert_eq!(merged.buckets[k], a.snapshot().buckets[k] + b.snapshot().buckets[k]);
        }
    }

    #[test]
    fn counters_and_gauges_move_as_told() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(7);
        assert_eq!(g.get(), 7);
    }
}
