//! Discrete power law (zeta distribution) for the PA core.
//!
//! The paper assumes "the number of core nodes of the underlying network
//! having degree d follows a power-law distribution of the form
//! `d^{-α}/ζ(α)`" (Section V). That is exactly the zeta distribution,
//! implemented here with Devroye's exact rejection sampler, together
//! with a truncated variant for finite networks (where `d_max` caps the
//! supernode degree).

use super::DiscreteDistribution;
use crate::error::StatsError;
use crate::rng::Rng;
use crate::special::{harmonic_partial, riemann_zeta};
use crate::Result;

/// Zeta (discrete power-law) distribution: `pmf(d) = d^{-α}/ζ(α)`,
/// support `{1, 2, 3, …}`, exponent `α > 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zeta {
    alpha: f64,
    zeta_alpha: f64,
    devroye: Devroye,
}

/// Draws below this value read their acceptance term from a table.
const TABLED: usize = 64;

/// The loop invariants of Devroye's zeta draw, each computed once by
/// the same expression the draw would otherwise evaluate, so every
/// draw computes the same `f64`s and makes the same decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Devroye {
    /// `α − 1`.
    am1: f64,
    /// The inversion exponent `−1/(α − 1)`.
    inv_exp: f64,
    /// `b = 2^(α−1)`.
    b: f64,
    /// The acceptance term `t(x) = (1 + 1/x)^(α−1)` for `x < TABLED`
    /// (index 0 unused).
    t: [f64; TABLED],
}

impl Devroye {
    fn new(alpha: f64) -> Self {
        let am1 = alpha - 1.0;
        let mut t = [0.0; TABLED];
        for (x, t) in t.iter_mut().enumerate().skip(1) {
            *t = (1.0 + 1.0 / x as f64).powf(am1);
        }
        Devroye {
            am1,
            inv_exp: -1.0 / am1,
            b: 2f64.powf(am1),
            t,
        }
    }

    /// Devroye (1986), Non-Uniform Random Variate Generation, X.6.1:
    /// exact rejection for the zeta distribution, conditioned on
    /// `x ≤ d_max` by rejecting larger draws and drawing afresh. Each
    /// iteration reads `u` then `v`, so a draw above `d_max` skips only
    /// arithmetic: the acceptance test it skips could only have led to
    /// the same fresh `(u, v)`.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, d_max: u64) -> u64 {
        loop {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let v: f64 = rng.gen();
            let x = u.powf(self.inv_exp).floor();
            if x < 1.0 || !x.is_finite() {
                // x < 1 cannot occur mathematically (u ≤ 1 ⇒ x ≥ 1) but
                // guard FP edge cases; non-finite x means u was at the
                // smallest subnormal — resample.
                continue;
            }
            let k = x as u64;
            if k > d_max {
                continue;
            }
            let t = match self.t.get(k as usize) {
                Some(&t) => t,
                None => (1.0 + 1.0 / x).powf(self.am1),
            };
            if v * x * (t - 1.0) / (self.b - 1.0) <= t / self.b {
                return k;
            }
        }
    }
}

impl Zeta {
    /// Create a zeta distribution with exponent `α > 1`.
    ///
    /// The paper works with `α ∈ [1.5, 3]` but any `α > 1` is valid.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] if `α ≤ 1`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !alpha.is_finite() || alpha <= 1.0 {
            return Err(StatsError::domain(
                "Zeta::new",
                format!("exponent must be finite and > 1, got {alpha}"),
            ));
        }
        Ok(Zeta {
            alpha,
            zeta_alpha: riemann_zeta(alpha)?,
            devroye: Devroye::new(alpha),
        })
    }

    /// The power-law exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The normalization constant `ζ(α)`.
    pub fn zeta_alpha(&self) -> f64 {
        self.zeta_alpha
    }
}

impl DiscreteDistribution for Zeta {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        (k as f64).powf(-self.alpha) / self.zeta_alpha
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        harmonic_partial(k, self.alpha) / self.zeta_alpha
    }

    fn mean(&self) -> f64 {
        // Finite only for α > 2: ζ(α-1)/ζ(α).
        if self.alpha > 2.0 {
            riemann_zeta(self.alpha - 1.0).expect("alpha - 1 > 1") / self.zeta_alpha
        } else {
            f64::INFINITY
        }
    }

    fn variance(&self) -> f64 {
        // Finite only for α > 3.
        if self.alpha > 3.0 {
            let z = self.zeta_alpha;
            let m2 = riemann_zeta(self.alpha - 2.0).expect("alpha - 2 > 1") / z;
            let m1 = riemann_zeta(self.alpha - 1.0).expect("alpha - 1 > 1") / z;
            m2 - m1 * m1
        } else {
            f64::INFINITY
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.devroye.draw(rng, u64::MAX)
    }
}

/// Zeta distribution truncated to `{1, …, d_max}`:
/// `pmf(d) = d^{-α} / H(d_max, α)`.
///
/// Finite networks cannot host arbitrarily large degrees; the paper's
/// `d_max` (Equation 1) is the supernode degree, and all of its
/// normalized model probabilities are truncated sums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedZeta {
    /// The untruncated law, whose sampler the truncated draw rejects
    /// from.
    zeta: Zeta,
    d_max: u64,
    normalizer: f64,
    /// Probability mass the truncation removed from the untruncated law.
    tail_mass: f64,
}

impl TruncatedZeta {
    /// Create a truncated zeta distribution with exponent `α > 1` and
    /// maximum degree `d_max ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Domain`] if `α ≤ 1` or `d_max == 0`.
    pub fn new(alpha: f64, d_max: u64) -> Result<Self> {
        if !alpha.is_finite() || alpha <= 1.0 {
            return Err(StatsError::domain(
                "TruncatedZeta::new",
                format!("exponent must be finite and > 1, got {alpha}"),
            ));
        }
        if d_max == 0 {
            return Err(StatsError::domain(
                "TruncatedZeta::new",
                "d_max must be >= 1",
            ));
        }
        let normalizer = harmonic_partial(d_max, alpha);
        let zeta = Zeta::new(alpha)?;
        let total = zeta.zeta_alpha;
        Ok(TruncatedZeta {
            zeta,
            d_max,
            normalizer,
            tail_mass: (total - normalizer) / total,
        })
    }

    /// The power-law exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.zeta.alpha
    }

    /// The truncation point `d_max`.
    pub fn d_max(&self) -> u64 {
        self.d_max
    }

    /// Fraction of untruncated zeta mass that lies beyond `d_max`
    /// (i.e. the rejection rate of [`DiscreteDistribution::sample`]).
    pub fn tail_mass(&self) -> f64 {
        self.tail_mass
    }

    /// Expected value `Σ d·pmf(d)`, always finite under truncation.
    pub fn mean_truncated(&self) -> f64 {
        harmonic_partial(self.d_max, self.zeta.alpha - 1.0) / self.normalizer
    }
}

impl DiscreteDistribution for TruncatedZeta {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.d_max {
            return 0.0;
        }
        (k as f64).powf(-self.zeta.alpha) / self.normalizer
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k >= self.d_max {
            return 1.0;
        }
        harmonic_partial(k, self.zeta.alpha) / self.normalizer
    }

    fn mean(&self) -> f64 {
        self.mean_truncated()
    }

    fn variance(&self) -> f64 {
        let m1 = self.mean_truncated();
        let m2 = harmonic_partial(self.d_max, self.zeta.alpha - 2.0) / self.normalizer;
        m2 - m1 * m1
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Rejection from the untruncated zeta sampler; acceptance
        // probability is 1 − tail_mass, which is ≈ 1 for any realistic
        // d_max (the zeta tail above d_max carries d_max^{1-α} mass).
        self.zeta.devroye.draw(rng, self.d_max)
    }
}

#[cfg(test)]
mod tests {
    use super::super::DiscreteDistribution;
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(Zeta::new(1.0).is_err());
        assert!(Zeta::new(0.5).is_err());
        assert!(Zeta::new(f64::NAN).is_err());
        assert!(Zeta::new(1.5).is_ok());
        assert!(TruncatedZeta::new(2.0, 0).is_err());
        assert!(TruncatedZeta::new(1.0, 10).is_err());
    }

    #[test]
    fn pmf_is_power_law_over_zeta() {
        let d = Zeta::new(2.0).unwrap();
        let z2 = std::f64::consts::PI.powi(2) / 6.0;
        assert!((d.pmf(1) - 1.0 / z2).abs() < 1e-12);
        assert!((d.pmf(2) - 0.25 / z2).abs() < 1e-12);
        assert!((d.pmf(10) - 0.01 / z2).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
    }

    #[test]
    fn pmf_sums_to_one_numerically() {
        // α = 3 converges fast enough to check directly.
        let d = Zeta::new(3.0).unwrap();
        let head: f64 = (1..100_000u64).map(|k| d.pmf(k)).sum();
        assert!((head - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moments_match_zeta_ratios() {
        let d = Zeta::new(3.5).unwrap();
        let expected_mean = riemann_zeta(2.5).unwrap() / riemann_zeta(3.5).unwrap();
        assert!((d.mean() - expected_mean).abs() < 1e-12);
        assert!(Zeta::new(1.8).unwrap().mean().is_infinite());
        assert!(Zeta::new(2.5).unwrap().variance().is_infinite());
        assert!(Zeta::new(3.5).unwrap().variance().is_finite());
    }

    #[test]
    fn devroye_sampler_matches_pmf() {
        // Frequency check for small d where mass concentrates.
        let d = Zeta::new(2.5).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let n = 400_000usize;
        let mut counts = [0u64; 11];
        for _ in 0..n {
            let x = d.sample(&mut rng);
            if x <= 10 {
                counts[x as usize] += 1;
            }
        }
        for k in 1..=10u64 {
            let p = d.pmf(k);
            let expected = p * n as f64;
            let se = (n as f64 * p * (1.0 - p)).sqrt();
            let obs = counts[k as usize] as f64;
            assert!(
                (obs - expected).abs() < 5.0 * se,
                "k={k}: obs {obs}, expected {expected}"
            );
        }
    }

    #[test]
    fn sampler_tail_exponent_via_log_regression() {
        // The empirical log-log survival curve should have slope ≈ 1-α.
        let alpha = 2.2;
        let d = Zeta::new(alpha).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(78);
        let n = 500_000usize;
        let mut samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        // Survival at thresholds 2^1..2^7.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 1..=7u32 {
            let t = 2u64.pow(i);
            let surv = samples.iter().filter(|&&s| s >= t).count() as f64 / n as f64;
            xs.push((t as f64).ln());
            ys.push(surv.ln());
        }
        // Simple slope fit.
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let slope = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>();
        // Survival of a zeta(α) decays like d^{1-α}.
        assert!(
            (slope - (1.0 - alpha)).abs() < 0.1,
            "slope {slope} vs {}",
            1.0 - alpha
        );
    }

    #[test]
    fn truncated_pmf_normalizes_and_caps() {
        let t = TruncatedZeta::new(2.0, 100).unwrap();
        let total: f64 = (1..=100u64).map(|k| t.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(t.pmf(101), 0.0);
        assert_eq!(t.cdf(100), 1.0);
        assert_eq!(t.cdf(5000), 1.0);
    }

    #[test]
    fn truncated_sampler_respects_cap() {
        let t = TruncatedZeta::new(1.6, 50).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(79);
        for _ in 0..20_000 {
            let x = t.sample(&mut rng);
            assert!((1..=50).contains(&x));
        }
    }

    #[test]
    fn truncated_mean_matches_brute_force() {
        let t = TruncatedZeta::new(2.3, 1000).unwrap();
        let brute: f64 = (1..=1000u64).map(|k| k as f64 * t.pmf(k)).sum();
        assert!((t.mean() - brute).abs() < 1e-10);
        let brute_var: f64 = (1..=1000u64)
            .map(|k| (k as f64 - brute).powi(2) * t.pmf(k))
            .sum();
        assert!((t.variance() - brute_var).abs() < 1e-8);
    }

    #[test]
    fn tail_mass_decreases_with_d_max() {
        let t1 = TruncatedZeta::new(2.0, 10).unwrap();
        let t2 = TruncatedZeta::new(2.0, 1000).unwrap();
        assert!(t1.tail_mass() > t2.tail_mass());
        assert!(t2.tail_mass() > 0.0);
        assert!(t2.tail_mass() < 0.01);
    }
}
