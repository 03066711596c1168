//! The modified Zipf–Mandelbrot model (Section II-B).
//!
//! The classical Zipf–Mandelbrot law ranks items; the paper's
//! modification treats `d` as a *measured network quantity* instead of
//! a rank:
//!
//! ```text
//! ρ(d; α, δ) = 1/(d + δ)^α            (unnormalized)
//! p(d; α, δ) = ρ(d)/Σ_{d=1}^{d_max} ρ(d)
//! ```
//!
//! The offset `δ` lets the model bend at small `d` — "in particular at
//! d = 1, which has the highest observed probability in these streaming
//! data" — while `α` still controls the tail.

use palu_stats::error::StatsError;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::rng::Rng;
use palu_stats::special::{zm_normalizer, DIRECT_SUM_CUTOFF};
use std::collections::BTreeMap;

/// A fully specified modified Zipf–Mandelbrot distribution over
/// `{1, …, d_max}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfMandelbrot {
    alpha: f64,
    delta: f64,
    d_max: u64,
    normalizer: f64,
}

impl ZipfMandelbrot {
    /// Create with exponent `α > 0`, offset `δ > −1`, and support
    /// bound `d_max ≥ 1`.
    ///
    /// `δ` may be negative (the PALU connection of Section VI produces
    /// negative offsets for leaf-heavy traffic) as long as `1 + δ > 0`
    /// keeps every term finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use palu::zm::ZipfMandelbrot;
    /// // A leaf-heavy traffic fit: α = 2, δ = −0.3.
    /// let zm = ZipfMandelbrot::new(2.0, -0.3, 4096).unwrap();
    /// // Negative δ sharpens the head: p(1)/p(2) exceeds the pure
    /// // power law's 4×.
    /// assert!(zm.pmf(1) / zm.pmf(2) > 4.0);
    /// // The pmf is a proper distribution over 1..=d_max.
    /// let total: f64 = (1..=4096).map(|d| zm.pmf(d)).sum();
    /// assert!((total - 1.0).abs() < 1e-9);
    /// ```
    ///
    /// # Errors
    ///
    /// [`StatsError::Domain`] on violated ranges.
    pub fn new(alpha: f64, delta: f64, d_max: u64) -> Result<Self, StatsError> {
        Self::validate(alpha, delta, d_max)?;
        Ok(ZipfMandelbrot {
            alpha,
            delta,
            d_max,
            normalizer: zm_normalizer(d_max, alpha, delta),
        })
    }

    /// The parameter checks of [`ZipfMandelbrot::new`].
    fn validate(alpha: f64, delta: f64, d_max: u64) -> Result<(), StatsError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(StatsError::domain(
                "ZipfMandelbrot::new",
                format!("alpha must be positive, got {alpha}"),
            ));
        }
        if !delta.is_finite() || delta <= -1.0 {
            return Err(StatsError::domain(
                "ZipfMandelbrot::new",
                format!("delta must exceed -1, got {delta}"),
            ));
        }
        if d_max == 0 {
            return Err(StatsError::domain(
                "ZipfMandelbrot::new",
                "d_max must be >= 1",
            ));
        }
        Ok(())
    }

    /// Model exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Model offset `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Support bound `d_max`.
    pub fn d_max(&self) -> u64 {
        self.d_max
    }

    /// Unnormalized density `ρ(d; α, δ) = (d + δ)^{−α}`.
    pub fn rho(&self, d: u64) -> f64 {
        (d as f64 + self.delta).powf(-self.alpha)
    }

    /// The paper's gradient identity:
    /// `∂_δ ρ(d; α, δ) = −α·ρ(d; α+1, δ)`.
    pub fn rho_gradient_delta(&self, d: u64) -> f64 {
        -self.alpha * (d as f64 + self.delta).powf(-(self.alpha + 1.0))
    }

    /// Normalized pmf `p(d; α, δ)`; 0 off support.
    pub fn pmf(&self, d: u64) -> f64 {
        if d == 0 || d > self.d_max {
            return 0.0;
        }
        self.rho(d) / self.normalizer
    }

    /// Cumulative model probability `P(d; α, δ)`.
    pub fn cdf(&self, d: u64) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let d = d.min(self.d_max);
        zm_normalizer(d, self.alpha, self.delta) / self.normalizer
    }

    /// The pooled differential cumulative model distribution
    /// `D(d_i; α, δ)` over binary-log bins.
    pub fn pooled(&self) -> DifferentialCumulative {
        DifferentialCumulative::from_pmf(|d| self.pmf(d), self.d_max)
    }

    /// Draw one sample by inverse-CDF bisection over the support.
    ///
    /// Each of the `O(log d_max)` bisection steps evaluates the partial
    /// normalizer at its midpoint, a direct sum of `mid` terms up to
    /// [`DIRECT_SUM_CUTOFF`], so one draw costs `O(d_max)` `powf` calls
    /// there. [`sample_many`](Self::sample_many) draws the same values
    /// without repeating those sums.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.bisect(rng, |mid| zm_normalizer(mid, self.alpha, self.delta))
    }

    /// Draw `n` samples: exactly the values `n` calls of
    /// [`sample`](Self::sample) draw from the same generator.
    ///
    /// A bisection step's partial normalizer is a fixed function of its
    /// midpoint, so each one is computed once per call and looked up by
    /// every later draw that passes through it.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        let mut partial = BTreeMap::new();
        (0..n)
            .map(|_| {
                self.bisect(rng, |mid| {
                    *partial
                        .entry(mid)
                        .or_insert_with(|| zm_normalizer(mid, self.alpha, self.delta))
                })
            })
            .collect()
    }

    /// Smallest `d` with `partial(d) >= u · normalizer`, `u` one uniform
    /// draw, where `partial(d)` is `zm_normalizer(d, α, δ)`.
    fn bisect<R: Rng + ?Sized>(&self, rng: &mut R, mut partial: impl FnMut(u64) -> f64) -> u64 {
        let target = rng.gen::<f64>() * self.normalizer;
        let (mut lo, mut hi) = (1u64, self.d_max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if partial(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Pooled forms of many Zipf–Mandelbrot models over one support, with
/// one `powf` per term.
///
/// `ZipfMandelbrot::new(α, δ, d_max)?.pooled()` evaluates every `ρ(d)`
/// twice: in the normalizer's direct sum and again in the pmf. A fit
/// pools thousands of `(α, δ)` at one `d_max`, so it holds one of these
/// for the whole fit. Up to [`DIRECT_SUM_CUTOFF`] terms (32 KB) go into
/// a reused buffer, are summed smallest first as [`zm_normalizer`]
/// sums them, and are pooled from the same buffer by
/// [`DifferentialCumulative::from_pmf`], the loop `pooled` uses. Above
/// the cutoff the normalizer is `zm_normalizer`'s own (the Hurwitz-zeta
/// difference for `α > 1`) and each term is pooled as it is evaluated.
/// The `powf` calls, their arguments and every summation order are
/// those of the two-pass route, so the result is bit-identical to it.
#[derive(Debug, Default)]
pub(crate) struct PooledModels {
    terms: Vec<f64>,
}

impl PooledModels {
    /// `ZipfMandelbrot::new(alpha, delta, d_max)?.pooled()`, bit for bit.
    ///
    /// # Errors
    ///
    /// [`StatsError::Domain`] exactly where [`ZipfMandelbrot::new`]
    /// refuses.
    // lint:hot
    pub(crate) fn pooled(
        &mut self,
        alpha: f64,
        delta: f64,
        d_max: u64,
    ) -> Result<DifferentialCumulative, StatsError> {
        ZipfMandelbrot::validate(alpha, delta, d_max)?;
        let rho = |d: u64| (d as f64 + delta).powf(-alpha);
        if d_max > DIRECT_SUM_CUTOFF {
            let normalizer = zm_normalizer(d_max, alpha, delta);
            return Ok(DifferentialCumulative::from_pmf(
                |d| rho(d) / normalizer,
                d_max,
            ));
        }
        self.terms.clear();
        self.terms.extend((1..=d_max).map(rho));
        let mut normalizer = 0.0f64;
        for &term in self.terms.iter().rev() {
            normalizer += term;
        }
        // `terms[d - 1]` is ρ(d): `d_max` terms, `d` in `1..=d_max`.
        let terms = &self.terms;
        Ok(DifferentialCumulative::from_pmf(
            |d| terms[(d - 1) as usize] / normalizer,
            d_max,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_stats::rng::Xoshiro256pp;

    #[test]
    fn construction_validates() {
        assert!(ZipfMandelbrot::new(0.0, 1.0, 100).is_err());
        assert!(ZipfMandelbrot::new(-1.0, 1.0, 100).is_err());
        assert!(ZipfMandelbrot::new(2.0, -1.0, 100).is_err());
        assert!(ZipfMandelbrot::new(2.0, -1.5, 100).is_err());
        assert!(ZipfMandelbrot::new(2.0, 1.0, 0).is_err());
        assert!(ZipfMandelbrot::new(2.0, f64::NAN, 100).is_err());
        assert!(ZipfMandelbrot::new(2.0, -0.5, 100).is_ok());
    }

    #[test]
    fn pmf_normalizes() {
        for &(alpha, delta, d_max) in &[(2.0, 0.0, 100u64), (1.8, 5.0, 10_000), (2.6, -0.7, 1_000)]
        {
            let zm = ZipfMandelbrot::new(alpha, delta, d_max).unwrap();
            let total: f64 = (1..=d_max).map(|d| zm.pmf(d)).sum();
            assert!((total - 1.0).abs() < 1e-10, "α={alpha}, δ={delta}");
            assert_eq!(zm.pmf(0), 0.0);
            assert_eq!(zm.pmf(d_max + 1), 0.0);
        }
    }

    #[test]
    fn delta_zero_is_pure_power_law() {
        let zm = ZipfMandelbrot::new(2.0, 0.0, 1000).unwrap();
        // pmf(d)/pmf(1) = d^{-2}.
        for d in [2u64, 5, 10, 100] {
            let ratio = zm.pmf(d) / zm.pmf(1);
            assert!((ratio - (d as f64).powf(-2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_delta_flattens_head_negative_sharpens() {
        // Relative mass at d=1 vs d=2: (2+δ)^α/(1+δ)^α grows as δ
        // decreases toward −1.
        let flat = ZipfMandelbrot::new(2.0, 5.0, 1000).unwrap();
        let base = ZipfMandelbrot::new(2.0, 0.0, 1000).unwrap();
        let sharp = ZipfMandelbrot::new(2.0, -0.8, 1000).unwrap();
        let head_ratio = |zm: &ZipfMandelbrot| zm.pmf(1) / zm.pmf(2);
        assert!(head_ratio(&flat) < head_ratio(&base));
        assert!(head_ratio(&base) < head_ratio(&sharp));
        // The sharpened head is what streaming data shows at d = 1.
        assert!(head_ratio(&sharp) > 20.0);
    }

    #[test]
    fn cdf_is_a_distribution() {
        let zm = ZipfMandelbrot::new(2.2, 1.5, 500).unwrap();
        assert_eq!(zm.cdf(0), 0.0);
        let mut prev = 0.0;
        for d in 1..=500 {
            let c = zm.cdf(d);
            assert!(c >= prev - 1e-15);
            prev = c;
        }
        assert!((zm.cdf(500) - 1.0).abs() < 1e-12);
        assert!((zm.cdf(9999) - 1.0).abs() < 1e-12);
        // CDF equals pmf partial sums.
        let direct: f64 = (1..=37u64).map(|d| zm.pmf(d)).sum();
        assert!((zm.cdf(37) - direct).abs() < 1e-12);
    }

    #[test]
    fn gradient_identity_matches_finite_difference() {
        let alpha = 2.3;
        let delta = 1.1;
        let zm = ZipfMandelbrot::new(alpha, delta, 100).unwrap();
        let eps = 1e-6;
        for d in [1u64, 3, 10, 50] {
            let up = ZipfMandelbrot::new(alpha, delta + eps, 100).unwrap().rho(d);
            let dn = ZipfMandelbrot::new(alpha, delta - eps, 100).unwrap().rho(d);
            let fd = (up - dn) / (2.0 * eps);
            let analytic = zm.rho_gradient_delta(d);
            assert!(
                ((fd - analytic) / analytic).abs() < 1e-6,
                "d={d}: fd {fd}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn pooled_mass_is_one() {
        let zm = ZipfMandelbrot::new(2.0, 0.5, 1 << 12).unwrap();
        let pooled = zm.pooled();
        assert!((pooled.total_mass() - 1.0).abs() < 1e-10);
        assert!((pooled.value(0) - zm.pmf(1)).abs() < 1e-12);
    }

    /// Grid for the exactness checks, invalid points included.
    const ALPHAS: [f64; 8] = [-1.0, 0.0, 0.5, 1.0, 1.05, 2.2, 6.0, f64::NAN];
    const DELTAS: [f64; 7] = [-1.5, -1.0, -0.95, 0.0, 0.5, 20.0, f64::INFINITY];
    const D_MAXES: [u64; 6] = [0, 1, 256, 1024, 4096, 8192];

    #[test]
    fn pooled_models_match_the_two_pass_route_bit_for_bit() {
        let mut models = PooledModels::default();
        for &d_max in &D_MAXES {
            for &alpha in &ALPHAS {
                for &delta in &DELTAS {
                    let fused = models.pooled(alpha, delta, d_max);
                    let reference = ZipfMandelbrot::new(alpha, delta, d_max).map(|m| m.pooled());
                    match (fused, reference) {
                        (Ok(f), Ok(r)) => {
                            let bits = |p: &DifferentialCumulative| -> Vec<u64> {
                                p.values().iter().map(|v| v.to_bits()).collect()
                            };
                            assert_eq!(bits(&f), bits(&r), "α={alpha} δ={delta} d_max={d_max}");
                        }
                        (Err(_), Err(_)) => {}
                        (f, r) => panic!("α={alpha} δ={delta} d_max={d_max}: {f:?} vs {r:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn sample_many_draws_what_sample_draws() {
        // 8192 is past the direct-sum cutoff: the zeta-difference path.
        for &d_max in &[256u64, 4096, 8192] {
            let zm = ZipfMandelbrot::new(2.0, 0.5, d_max).unwrap();
            let mut a = Xoshiro256pp::seed_from_u64(d_max);
            let mut b = Xoshiro256pp::seed_from_u64(d_max);
            let many = zm.sample_many(&mut a, 2_000);
            let one_by_one: Vec<u64> = (0..2_000).map(|_| zm.sample(&mut b)).collect();
            assert_eq!(many, one_by_one, "d_max={d_max}");
            // Both generators end in the same state.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn sampler_matches_pmf() {
        let zm = ZipfMandelbrot::new(2.0, 1.0, 1 << 10).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let x = zm.sample(&mut rng);
            assert!((1..=(1 << 10)).contains(&x));
            *counts.entry(x).or_insert(0u64) += 1;
        }
        for d in 1..=8u64 {
            let p = zm.pmf(d);
            let expected = p * n as f64;
            let se = (n as f64 * p * (1.0 - p)).sqrt();
            let obs = *counts.get(&d).unwrap_or(&0) as f64;
            assert!(
                (obs - expected).abs() < 5.0 * se,
                "d={d}: obs {obs}, expected {expected}"
            );
        }
    }
}
