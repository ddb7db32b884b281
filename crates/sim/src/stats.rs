//! Measurement primitives: online moments, time-weighted levels, and
//! power-of-two histograms.
//!
//! These feed the per-run metrics reported by the figure harnesses
//! (observed latency distributions for Fig. 9, outstanding-request counts
//! for Fig. 10, throughput timelines for Fig. 4/11).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Welford online mean/variance with min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (Chan et al.'s pairwise
    /// update). The result is a pure function of the two accumulators'
    /// field values, but it is not exactly associative in floating point,
    /// so callers merge in a fixed order (the engine folds each batch
    /// into its run totals in batch order).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant level (queue depth,
/// outstanding requests, cache occupancy).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeWeighted {
    level: f64,
    weighted: f64,
    last: SimTime,
    max_level: f64,
}

impl TimeWeighted {
    /// Accumulator starting at level 0 at t = 0.
    pub fn new() -> Self {
        TimeWeighted {
            level: 0.0,
            weighted: 0.0,
            last: SimTime::ZERO,
            max_level: 0.0,
        }
    }

    /// Record that the level changed to `level` at `now`.
    #[inline]
    pub fn set(&mut self, now: SimTime, level: f64) {
        let dt = now.saturating_since(self.last).as_ps() as f64;
        self.weighted += self.level * dt;
        self.level = level;
        self.last = self.last.max(now);
        self.max_level = self.max_level.max(level);
    }

    /// Add `delta` to the current level at `now`.
    #[inline]
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Maximum level ever set.
    pub fn max_level(&self) -> f64 {
        self.max_level
    }

    /// Time-weighted mean level over `[0, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last).as_ps() as f64;
        let total = self.weighted + self.level * dt;
        let span = now.as_ps() as f64;
        if span == 0.0 {
            0.0
        } else {
            total / span
        }
    }
}

/// Power-of-two bucketed histogram for u64 values (latencies in ps,
/// transfer sizes in bytes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// `buckets[i]` counts values with `floor(log2(v)) == i` (v = 0 goes to
    /// bucket 0).
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram covering the full u64 range (64 buckets + zero).
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Record a [`SimDuration`] (in ps).
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_ps());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: returns the upper bound of the bucket
    /// containing quantile `q` in [0, 1].
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return if i >= 64 { u64::MAX } else { (1u64 << i).saturating_sub(0) };
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(bucket_upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i >= 64 { u64::MAX } else { 1u64 << i }, c))
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..400].iter().for_each(|&x| left.push(x));
        xs[400..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn time_weighted_level() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime(0), 2.0); // level 2 over [0, 10)
        tw.set(SimTime(10), 4.0); // level 4 over [10, 20)
        let mean = tw.mean(SimTime(20));
        assert!((mean - 3.0).abs() < 1e-12, "{mean}");
        assert_eq!(tw.max_level(), 4.0);
        assert_eq!(tw.level(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new();
        tw.add(SimTime(0), 1.0);
        tw.add(SimTime(5), 1.0);
        tw.add(SimTime(10), -2.0);
        // level: 1 over [0,5), 2 over [5,10), 0 after.
        let mean = tw.mean(SimTime(10));
        assert!((mean - 1.5).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - (0 + 1 + 2 + 3 + 1024) as f64 / 5.0).abs() < 1e-12);
        let nz = h.nonzero_buckets();
        // 0 and 1 share bucket 0? No: 0 -> bucket 0, 1 -> bucket 1 (64-63).
        assert!(nz.iter().map(|&(_, c)| c).sum::<u64>() == 5);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let q50 = h.quantile_upper_bound(0.5);
        let q99 = h.quantile_upper_bound(0.99);
        assert!(q50 <= q99);
        assert!(q99 >= 512);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 20.0).abs() < 1e-12);
    }
}
