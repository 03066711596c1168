//! Sparse degree histograms `n_t(d)`.
//!
//! Section II of the paper turns every network quantity computed from a
//! traffic matrix `A_t` into a histogram `n_t(d)` with probability
//! `p_t(d) = n_t(d) / Σ_d n_t(d)` and cumulative `P_t(d)`. Degrees in
//! Internet traffic span six orders of magnitude with most mass at
//! `d = 1`, so the histogram is stored sparsely (degree → count).

use crate::rng::Rng;
use std::collections::BTreeMap;

/// Sparse histogram over positive integer degrees (counts).
///
/// Degree 0 entries are permitted (the model reasons about invisible
/// isolated nodes) but all probability accessors treat the histogram's
/// recorded support as-is — callers that exclude degree 0 simply never
/// insert it.
///
/// # Examples
///
/// ```
/// use palu_stats::histogram::DegreeHistogram;
/// let h = DegreeHistogram::from_degrees([1, 1, 1, 2, 5]);
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.count(1), 3);
/// assert_eq!(h.d_max(), Some(5));
/// // The paper's D(d = 1): fraction of single-connection nodes.
/// assert!((h.fraction_degree_one() - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl DegreeHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a histogram from an iterator of observed degrees.
    pub fn from_degrees<I: IntoIterator<Item = u64>>(degrees: I) -> Self {
        let mut h = Self::new();
        for d in degrees {
            h.increment(d, 1);
        }
        h
    }

    /// Build a histogram from a **non-decreasing** slice of degrees.
    ///
    /// Fast path for callers that already hold sorted degrees (the
    /// window pipeline produces them as a by-product of sort-based
    /// degree accumulation): equal degrees are run-length collapsed and
    /// the runs bulk-built by [`DegreeHistogram::from_sorted_counts`].
    /// Produces a histogram identical to
    /// [`DegreeHistogram::from_degrees`] on the same multiset.
    ///
    /// Ordering is the caller's contract; it is checked with a debug
    /// assertion only.
    pub fn from_sorted_degrees(degrees: &[u64]) -> Self {
        debug_assert!(
            degrees
                .iter()
                .zip(degrees.iter().skip(1))
                .all(|(a, b)| a <= b),
            "from_sorted_degrees requires non-decreasing input"
        );
        Self::from_sorted_counts(sorted_runs(degrees))
    }

    /// Build from explicit `(degree, count)` pairs, accumulating
    /// duplicates.
    pub fn from_counts<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        let mut h = Self::new();
        for (d, c) in pairs {
            h.increment(d, c);
        }
        h
    }

    /// Build from `(degree, count)` pairs in **strictly increasing**
    /// degree order, in one bulk B-tree build rather than one insert per
    /// degree. Zero counts are skipped, as [`DegreeHistogram::increment`]
    /// skips them, so the result equals [`DegreeHistogram::from_counts`]
    /// on the same pairs.
    ///
    /// Ordering is the caller's contract; it is checked with a debug
    /// assertion only.
    pub fn from_sorted_counts<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        let mut total = 0u64;
        let mut last: Option<u64> = None;
        let counts = pairs
            .into_iter()
            .inspect(|&(d, _)| {
                debug_assert!(
                    last.is_none_or(|prev| prev < d),
                    "from_sorted_counts requires strictly increasing degrees"
                );
                last = Some(d);
            })
            .filter(|&(_, c)| c > 0)
            .inspect(|&(_, c)| total += c)
            .collect();
        Self { counts, total }
    }

    /// Add `count` observations of degree `d`.
    pub fn increment(&mut self, d: u64, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(d).or_insert(0) += count;
        self.total += count;
    }

    /// Number of observations of exactly degree `d` — the paper's
    /// `n_t(d)`.
    pub fn count(&self, d: u64) -> u64 {
        self.counts.get(&d).copied().unwrap_or(0)
    }

    /// Total number of observations `Σ_d n_t(d)`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct degrees with nonzero count.
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Approximate resident size in bytes, modelling each B-tree entry
    /// at 48 bytes (key + value + amortized node overhead). Used by the
    /// pipeline's resource budget to account retained histograms; an
    /// estimate, not an exact allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        const BTREE_ENTRY_BYTES: u64 = 48;
        size_of::<DegreeHistogram>() as u64 + self.counts.len() as u64 * BTREE_ENTRY_BYTES
    }

    /// Largest degree with a nonzero count — the paper's supernode
    /// degree `d_max = argmax(D(d) > 0)` (Equation 1). `None` if empty.
    pub fn d_max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Smallest observed degree. `None` if empty.
    pub fn d_min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Empirical probability `p_t(d) = n_t(d) / total`; 0 for an empty
    /// histogram.
    pub fn probability(&self, d: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(d) as f64 / self.total as f64
        }
    }

    /// Empirical cumulative probability `P_t(d) = Σ_{i≤d} p_t(i)`.
    pub fn cumulative(&self, d: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let acc: u64 = self.counts.range(..=d).map(|(_, &c)| c).sum();
        acc as f64 / self.total as f64
    }

    /// Iterate `(degree, count)` pairs in increasing degree order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&d, &c)| (d, c))
    }

    /// Iterate `(degree, empirical probability)` pairs.
    pub fn probabilities(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let total = self.total as f64;
        self.counts
            .iter()
            .map(move |(&d, &c)| (d, c as f64 / total))
    }

    /// Merge another histogram into this one (bin-wise count addition).
    pub fn merge(&mut self, other: &DegreeHistogram) {
        for (&d, &c) in &other.counts {
            self.increment(d, c);
        }
    }

    /// Mean degree `Σ d·n(d) / Σ n(d)`; 0 for an empty histogram.
    pub fn mean_degree(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: f64 = self.counts.iter().map(|(&d, &c)| d as f64 * c as f64).sum();
        weighted / self.total as f64
    }

    /// Sum of `d·n(d)` — for degree histograms of a graph this is twice
    /// the edge count (or the packet count for weighted quantities).
    pub fn degree_sum(&self) -> u64 {
        self.counts.iter().map(|(&d, &c)| d * c).sum()
    }

    /// Fraction of observations at degree exactly 1 — the paper's
    /// `D(d=1)`, "the fraction of nodes with only one connection".
    pub fn fraction_degree_one(&self) -> f64 {
        self.probability(1)
    }

    /// One multinomial bootstrap resample: draw `total()` observations
    /// with replacement from this histogram's empirical distribution.
    /// The standard resampling step behind every bootstrap confidence
    /// interval in the workspace.
    pub fn resample<R: Rng + ?Sized>(&self, rng: &mut R) -> DegreeHistogram {
        if self.total() == 0 {
            return DegreeHistogram::new();
        }
        let support: Vec<(u64, u64)> = self.iter().collect();
        let mut cum = Vec::with_capacity(support.len());
        let mut acc = 0u64;
        for &(_, c) in &support {
            acc += c;
            cum.push(acc);
        }
        let mut out = DegreeHistogram::new();
        for _ in 0..self.total() {
            let x = rng.gen_range(0..self.total());
            let idx = cum.partition_point(|&c| c <= x);
            out.increment(support[idx].0, 1);
        }
        out
    }
}

/// The `(degree, run length)` pairs of a non-decreasing slice of
/// degrees, in increasing degree order.
pub fn sorted_runs(degrees: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    degrees
        .chunk_by(|a, b| a == b)
        .filter_map(|run| Some((*run.first()?, run.len() as u64)))
}

impl FromIterator<u64> for DegreeHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_degrees(iter)
    }
}

impl<'a> IntoIterator for &'a DegreeHistogram {
    type Item = (u64, u64);
    type IntoIter = Box<dyn Iterator<Item = (u64, u64)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DegreeHistogram {
        // degrees: 1,1,1,2,2,3,10
        DegreeHistogram::from_degrees([1, 1, 1, 2, 2, 3, 10])
    }

    #[test]
    fn counts_and_total() {
        let h = sample();
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(10), 1);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.total(), 7);
        assert_eq!(h.support_size(), 4);
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = DegreeHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.d_max(), None);
        assert_eq!(h.d_min(), None);
        assert_eq!(h.probability(1), 0.0);
        assert_eq!(h.cumulative(100), 0.0);
        assert_eq!(h.mean_degree(), 0.0);
    }

    #[test]
    fn zero_count_increment_is_noop() {
        let mut h = DegreeHistogram::new();
        h.increment(5, 0);
        assert!(h.is_empty());
        assert_eq!(h.support_size(), 0);
    }

    #[test]
    fn extrema() {
        let h = sample();
        assert_eq!(h.d_max(), Some(10));
        assert_eq!(h.d_min(), Some(1));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let h = sample();
        let total: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((h.probability(1) - 3.0 / 7.0).abs() < 1e-12);
        assert!((h.fraction_degree_one() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone_and_correct() {
        let h = sample();
        assert!((h.cumulative(1) - 3.0 / 7.0).abs() < 1e-12);
        assert!((h.cumulative(2) - 5.0 / 7.0).abs() < 1e-12);
        assert!((h.cumulative(3) - 6.0 / 7.0).abs() < 1e-12);
        assert!((h.cumulative(9) - 6.0 / 7.0).abs() < 1e-12);
        assert!((h.cumulative(10) - 1.0).abs() < 1e-12);
        assert!((h.cumulative(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DegreeHistogram::from_degrees([1, 2]);
        let b = DegreeHistogram::from_degrees([2, 3]);
        a.merge(&b);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn from_counts_accumulates_duplicates() {
        let h = DegreeHistogram::from_counts([(1, 2), (1, 3), (7, 1)]);
        assert_eq!(h.count(1), 5);
        assert_eq!(h.count(7), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn mean_and_degree_sum() {
        let h = sample();
        assert_eq!(h.degree_sum(), 3 + 4 + 3 + 10);
        assert!((h.mean_degree() - 20.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn iter_is_sorted() {
        let h = DegreeHistogram::from_degrees([10, 1, 5, 5, 2]);
        let degrees: Vec<u64> = h.iter().map(|(d, _)| d).collect();
        assert_eq!(degrees, vec![1, 2, 5, 10]);
    }

    #[test]
    fn resample_preserves_total_and_support() {
        use crate::rng::Xoshiro256pp;
        let h = DegreeHistogram::from_counts([(1, 500), (2, 300), (7, 200)]);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let b = h.resample(&mut rng);
        assert_eq!(b.total(), h.total());
        // Resampled degrees come from the original support.
        for (d, _) in b.iter() {
            assert!(h.count(d) > 0, "alien degree {d}");
        }
        // Counts concentrate near the originals (SE ≈ √(n·p·q) ≈ 15).
        assert!((b.count(1) as i64 - 500).unsigned_abs() < 80);
        // Resampling an empty histogram is a no-op.
        let e = DegreeHistogram::new().resample(&mut rng);
        assert!(e.is_empty());
    }

    #[test]
    fn from_sorted_degrees_matches_from_degrees() {
        let sorted = [0u64, 1, 1, 1, 2, 2, 3, 10, 10, 10, 10];
        let fast = DegreeHistogram::from_sorted_degrees(&sorted);
        let slow = DegreeHistogram::from_degrees(sorted);
        assert_eq!(fast, slow);
        assert_eq!(fast.total(), 11);
        assert_eq!(fast.count(10), 4);
        assert_eq!(fast.count(0), 1);
        assert!(DegreeHistogram::from_sorted_degrees(&[]).is_empty());
        let single = DegreeHistogram::from_sorted_degrees(&[7]);
        assert_eq!(single.count(7), 1);
        assert_eq!(single.total(), 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    #[cfg(debug_assertions)]
    fn from_sorted_degrees_asserts_ordering_in_debug() {
        let _ = DegreeHistogram::from_sorted_degrees(&[3, 1, 2]);
    }

    #[test]
    fn from_sorted_counts_matches_from_counts() {
        use crate::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for case in 0..200 {
            // Strictly increasing degrees from 0 up, gaps of 1–4 with
            // an occasional jump past any by-value table; a quarter of
            // the counts zero.
            let mut d = rng.gen_range(0..3u64);
            let pairs: Vec<(u64, u64)> = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    let c = if rng.gen_range(0..4u32) == 0 {
                        0
                    } else {
                        rng.gen_range(1..1_000u64)
                    };
                    let pair = (d, c);
                    d += if rng.gen_range(0..8u32) == 0 {
                        rng.gen_range(1..1u64 << 40)
                    } else {
                        rng.gen_range(1..5u64)
                    };
                    pair
                })
                .collect();
            let bulk = DegreeHistogram::from_sorted_counts(pairs.iter().copied());
            let reference = DegreeHistogram::from_counts(pairs.iter().copied());
            assert_eq!(bulk, reference, "case {case}: {pairs:?}");
            assert_eq!(bulk.total(), reference.total(), "case {case}");
        }
        assert!(DegreeHistogram::from_sorted_counts([]).is_empty());
        assert!(DegreeHistogram::from_sorted_counts([(0, 0), (3, 0)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn from_sorted_counts_asserts_ordering_in_debug() {
        let _ = DegreeHistogram::from_sorted_counts([(3, 1), (3, 2)]);
    }

    #[test]
    fn collect_from_iterator() {
        let h: DegreeHistogram = [1u64, 1, 4].into_iter().collect();
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(4), 1);
    }
}
