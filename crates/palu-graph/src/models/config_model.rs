//! Erased configuration model with a power-law degree sequence.
//!
//! The paper's Section V assumption is distributional, not procedural:
//! "the number of core nodes of the underlying network having degree d
//! follows a power-law distribution of the form `d^{-α}/ζ(α)`". The
//! configuration model realizes exactly that for *any* `α > 1` —
//! including the `1.5 ≤ α < 2` regime that no linear-kernel growth
//! process can reach — by sampling i.i.d. zeta degrees, wiring stubs
//! uniformly at random, and erasing self-loops and duplicate edges.

use crate::graph::Graph;
use crate::NodeId;
use palu_stats::distributions::{DiscreteDistribution, TruncatedZeta};
use palu_stats::error::StatsError;
use palu_stats::rng::Rng;
use palu_stats::rng::SliceRandom;

/// Power-law configuration-model generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfigModel {
    n_nodes: NodeId,
    alpha: f64,
    d_max: u64,
    erased: bool,
}

impl PowerLawConfigModel {
    /// Create a generator for `n_nodes` nodes with exponent `α > 1` and
    /// the natural degree cutoff `d_max = n^{1/(α−1)}` (the structural
    /// cutoff beyond which a simple graph can't realize the sequence).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] if `α ≤ 1` or `n_nodes < 2`.
    pub fn new(n_nodes: NodeId, alpha: f64) -> Result<Self, StatsError> {
        let d_max = (n_nodes as f64).powf(1.0 / (alpha - 1.0)).ceil().max(2.0) as u64;
        Self::with_cutoff(n_nodes, alpha, d_max)
    }

    /// Create with an explicit degree cutoff `d_max`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] if `α ≤ 1`, `n_nodes < 2`, or
    /// `d_max == 0`.
    pub fn with_cutoff(n_nodes: NodeId, alpha: f64, d_max: u64) -> Result<Self, StatsError> {
        if n_nodes < 2 {
            return Err(StatsError::domain(
                "PowerLawConfigModel",
                "need at least 2 nodes",
            ));
        }
        // Validate alpha/d_max by constructing the distribution once.
        TruncatedZeta::new(alpha, d_max)?;
        Ok(PowerLawConfigModel {
            n_nodes,
            alpha,
            d_max,
            erased: true,
        })
    }

    /// Keep parallel edges instead of erasing them (self-loops are
    /// always dropped). The *erased* model yields a simple graph but
    /// biases the realized exponent upward when `α < 2` (heavy stub
    /// collisions around the hubs); the multigraph variant preserves
    /// the sampled degree sequence almost exactly at the cost of
    /// parallel edges — which traffic networks represent naturally as
    /// link weights.
    pub fn multigraph(mut self) -> Self {
        self.erased = false;
        self
    }

    /// The exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The degree cutoff.
    pub fn d_max(&self) -> u64 {
        self.d_max
    }

    /// Sample the degree sequence: i.i.d. truncated-zeta draws, with
    /// one degree bumped by 1 if the stub total is odd.
    pub fn sample_degrees<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        let dist = TruncatedZeta::new(self.alpha, self.d_max).expect("validated params");
        let mut degrees: Vec<u64> = (0..self.n_nodes).map(|_| dist.sample(rng)).collect();
        if degrees.iter().sum::<u64>() % 2 == 1 {
            // Parity fix on a uniformly chosen node keeps the
            // distributional perturbation O(1/n).
            let idx = rng.gen_range(0..degrees.len());
            degrees[idx] += 1;
        }
        degrees
    }

    /// Generate the graph: wire stubs uniformly, erase self-loops and
    /// duplicate edges (erased configuration model). The realized
    /// degree of a node may therefore fall slightly below its sampled
    /// degree; for `α > 1.5` and the natural cutoff the erased fraction
    /// is o(1).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let degrees = self.sample_degrees(rng);
        self.generate_with_degrees(rng, &degrees)
    }

    /// Wire a *given* degree sequence (must have even sum).
    pub fn generate_with_degrees<R: Rng + ?Sized>(&self, rng: &mut R, degrees: &[u64]) -> Graph {
        let total: u64 = degrees.iter().sum();
        assert!(
            total.is_multiple_of(2),
            "degree sequence must have even sum"
        );
        let mut stubs = stub_pool(degrees);
        stubs.shuffle(rng);

        let mut g = Graph::with_capacity(degrees.len() as NodeId, stubs.len() / 2);
        // Membership-only dedup, never iterated; edge order follows the
        // shuffled stub order. lint:allow(R2)
        let mut seen = std::collections::HashSet::with_capacity(stubs.len() / 2);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue; // self-loops always dropped
            }
            if self.erased {
                let key = (u.min(v), u.max(v));
                if seen.insert(key) {
                    g.add_edge(u, v);
                } // else: erase duplicate
            } else {
                g.add_edge(u, v);
            }
        }
        g
    }
}

/// The stub pool of a degree sequence: node `i` repeated `degrees[i]`
/// times, in node order.
pub(crate) fn stub_pool(degrees: &[u64]) -> Vec<NodeId> {
    let mut stubs = Vec::with_capacity(degrees.iter().sum::<u64>() as usize);
    for (node, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(node as NodeId, d as usize));
    }
    stubs
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_stats::mle::fit_alpha_discrete;
    use palu_stats::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(PowerLawConfigModel::new(1, 2.0).is_err());
        assert!(PowerLawConfigModel::new(100, 1.0).is_err());
        assert!(PowerLawConfigModel::with_cutoff(100, 2.0, 0).is_err());
        assert!(PowerLawConfigModel::new(100, 2.0).is_ok());
    }

    #[test]
    fn natural_cutoff_scales_with_n() {
        let m1 = PowerLawConfigModel::new(10_000, 2.0).unwrap();
        // n^{1/(α-1)} = 10^4 for α = 2.
        assert_eq!(m1.d_max(), 10_000);
        let m2 = PowerLawConfigModel::new(10_000, 3.0).unwrap();
        // n^{1/2} = 100.
        assert_eq!(m2.d_max(), 100);
    }

    #[test]
    fn degree_sequence_has_even_sum() {
        let m = PowerLawConfigModel::new(10_001, 2.2).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..10 {
            let d = m.sample_degrees(&mut rng);
            assert_eq!(d.len(), 10_001);
            assert_eq!(d.iter().sum::<u64>() % 2, 0);
            assert!(d.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn generated_graph_is_simple() {
        let m = PowerLawConfigModel::new(5_000, 2.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let g = m.generate(&mut rng);
        // No self-loops.
        assert!(g.edges().iter().all(|&(u, v)| u != v));
        // No duplicate undirected edges.
        let mut keys: Vec<_> = g
            .edges()
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn realized_exponent_matches_target() {
        // Erased model: tight for α ≥ 2, looser below 2 where stub
        // collisions around the hubs bias the realization upward.
        for &(alpha, tol) in &[(1.7, 0.2), (2.0, 0.1), (2.5, 0.1)] {
            let m = PowerLawConfigModel::new(60_000, alpha).unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(100 + (alpha * 10.0) as u64);
            let g = m.generate(&mut rng);
            let h = g.degree_histogram();
            let fit = fit_alpha_discrete(&h, 1).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < tol,
                "alpha {alpha}: fitted {}",
                fit.alpha
            );
        }
    }

    #[test]
    fn multigraph_mode_is_unbiased_at_low_alpha() {
        let alpha = 1.7;
        let m = PowerLawConfigModel::new(60_000, alpha)
            .unwrap()
            .multigraph();
        let mut rng = Xoshiro256pp::seed_from_u64(117);
        let g = m.generate(&mut rng);
        let fit = fit_alpha_discrete(&g.degree_histogram(), 1).unwrap();
        assert!(
            (fit.alpha - alpha).abs() < 0.05,
            "multigraph fitted {}",
            fit.alpha
        );
    }

    #[test]
    fn erasure_is_small_for_moderate_alpha() {
        let m = PowerLawConfigModel::new(20_000, 2.5).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let degrees = m.sample_degrees(&mut rng);
        let stub_edges: u64 = degrees.iter().sum::<u64>() / 2;
        let g = m.generate_with_degrees(&mut rng, &degrees);
        let kept = g.n_edges() as u64;
        let erased_frac = 1.0 - kept as f64 / stub_edges as f64;
        assert!(
            erased_frac < 0.05,
            "erased fraction {erased_frac} too large"
        );
    }

    #[test]
    fn given_degree_sequence_is_respected() {
        // A regular sequence: every node degree 2 → realized degrees ≤ 2
        // and mostly exactly 2.
        let m = PowerLawConfigModel::new(1000, 2.0).unwrap();
        let degrees = vec![2u64; 1000];
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let g = m.generate_with_degrees(&mut rng, &degrees);
        let realized = g.degrees();
        assert!(realized.iter().all(|&d| d <= 2));
        let exact = realized.iter().filter(|&&d| d == 2).count();
        assert!(exact > 900, "only {exact} nodes kept full degree");
    }

    #[test]
    #[should_panic(expected = "even sum")]
    fn odd_degree_sum_panics() {
        let m = PowerLawConfigModel::new(3, 2.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        m.generate_with_degrees(&mut rng, &[1, 1, 1]);
    }

    #[test]
    fn determinism_per_seed() {
        let m = PowerLawConfigModel::new(2000, 2.2).unwrap();
        let g1 = m.generate(&mut Xoshiro256pp::seed_from_u64(77));
        let g2 = m.generate(&mut Xoshiro256pp::seed_from_u64(77));
        assert_eq!(g1, g2);
    }
}
