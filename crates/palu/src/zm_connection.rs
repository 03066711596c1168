//! The Section VI Zipf–Mandelbrot connection (Equation 5).
//!
//! Approximating the Poisson star term by a geometric tail
//! `(Λ/d)^d ≈ r^{1−d}` turns the simplified PALU law into the
//! one-parameter family
//!
//! ```text
//! PALU(d) ∝ d^{−α} + r^{1−d}·((1 + δ)^{−α} − 1)        (Eq. 5)
//! ```
//!
//! whose amplitude is aligned with the modified Zipf–Mandelbrot model
//! through `u/c = (1 + δ)^{−α} − 1`. Varying `r` sweeps a family of
//! curves that approaches the ZM distribution — Figure 4 of the paper,
//! regenerated by experiment E-F4.

use crate::zm::ZipfMandelbrot;
use palu_stats::error::StatsError;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::optimize::golden_section;

/// One member of the Equation 5 curve family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaluCurve {
    alpha: f64,
    delta: f64,
    r: f64,
    d_max: u64,
    /// `Σ_{d=1}^{d_max} PALU(d)`, summed once at construction.
    normalizer: f64,
}

impl PaluCurve {
    /// Create a curve. Requires `α > 0`, `δ > −1`, `r > 1`,
    /// `d_max ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`StatsError::Domain`] on violated ranges.
    pub fn new(alpha: f64, delta: f64, r: f64, d_max: u64) -> Result<Self, StatsError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(StatsError::domain(
                "PaluCurve::new",
                "alpha must be positive",
            ));
        }
        if !delta.is_finite() || delta <= -1.0 {
            return Err(StatsError::domain("PaluCurve::new", "delta must exceed -1"));
        }
        if !r.is_finite() || r <= 1.0 {
            return Err(StatsError::domain("PaluCurve::new", "r must exceed 1"));
        }
        if d_max == 0 {
            return Err(StatsError::domain("PaluCurve::new", "d_max must be >= 1"));
        }
        let mut curve = PaluCurve {
            alpha,
            delta,
            r,
            d_max,
            normalizer: 0.0,
        };
        let amplitude = curve.amplitude();
        curve.normalizer = (1..=d_max).map(|d| curve.term(d, amplitude)).sum();
        Ok(curve)
    }

    /// Power-law exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Zipf–Mandelbrot offset `δ` the amplitude is aligned to.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Geometric decay base `r > 1`.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// Support bound for normalized comparisons.
    pub fn d_max(&self) -> u64 {
        self.d_max
    }

    /// The Equation 5 amplitude `u/c = (1 + δ)^{−α} − 1`.
    ///
    /// Positive exactly when `δ < 0` — leaf/unattached-heavy traffic
    /// maps to negative ZM offsets.
    pub fn amplitude(&self) -> f64 {
        (1.0 + self.delta).powf(-self.alpha) - 1.0
    }

    /// Unnormalized `PALU(d) = d^{−α} + r^{1−d}·((1+δ)^{−α} − 1)`.
    pub fn value(&self, d: u64) -> f64 {
        self.term(d, self.amplitude())
    }

    /// [`value`](Self::value) with its amplitude already evaluated.
    fn term(&self, d: u64, amplitude: f64) -> f64 {
        debug_assert!(d >= 1);
        (d as f64).powf(-self.alpha) + self.r.powf(1.0 - d as f64) * amplitude
    }

    /// Normalized pmf over `1..=d_max`: `O(1)`, over the normalizer
    /// the curve summed at construction.
    pub fn pmf(&self, d: u64) -> f64 {
        if d == 0 || d > self.d_max {
            return 0.0;
        }
        self.value(d) / self.normalizer
    }

    /// Pooled differential cumulative form, for Figure 4 comparisons.
    ///
    /// Each `PALU(d)` is evaluated once, with the amplitude evaluated
    /// once for all of them, and divided by the normalizer, as in
    /// [`pmf`](Self::pmf).
    pub fn pooled(&self) -> DifferentialCumulative {
        let amplitude = self.amplitude();
        let z = self.normalizer;
        DifferentialCumulative::from_pmf(|d| self.term(d, amplitude) / z, self.d_max)
    }

    /// Pooled L2 distance to a target Zipf–Mandelbrot model.
    pub fn distance_to_zm(&self, zm: &ZipfMandelbrot) -> f64 {
        self.pooled().l2_distance_sq(&zm.pooled()).sqrt()
    }

    /// For a given `(α, δ)` target, fit the decay `r` minimizing the
    /// pooled distance to the ZM distribution — the paper's claim that
    /// "for any given power law exponent α and offset parameter δ, the
    /// Zipf–Mandelbrot distribution can be well-approximated by
    /// Equation (5) by varying r".
    ///
    /// # Examples
    ///
    /// ```
    /// use palu::zm::ZipfMandelbrot;
    /// use palu::zm_connection::PaluCurve;
    /// let best = PaluCurve::fit_r_to_zm(2.0, -0.5, 1 << 10).unwrap();
    /// let target = ZipfMandelbrot::new(2.0, -0.5, 1 << 10).unwrap();
    /// // The fitted family member sits close to its ZM target (Fig. 4).
    /// assert!(best.distance_to_zm(&target) < 0.02);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates construction/search errors.
    pub fn fit_r_to_zm(alpha: f64, delta: f64, d_max: u64) -> Result<PaluCurve, StatsError> {
        let zm = ZipfMandelbrot::new(alpha, delta, d_max)?;
        let target = zm.pooled();
        let objective = |ln_r: f64| -> f64 {
            let r = ln_r.exp();
            match PaluCurve::new(alpha, delta, r, d_max) {
                Ok(c) => c.pooled().l2_distance_sq(&target),
                Err(_) => f64::INFINITY,
            }
        };
        // Search ln r ∈ (ln 1.0001, ln 1e6): geometric decays from
        // nearly flat to instant.
        let m = golden_section(objective, 1.0001f64.ln(), 1e6f64.ln(), 1e-9, 300)?;
        PaluCurve::new(alpha, delta, m.x.exp(), d_max)
    }

    /// The Section VI parameter correspondence: given underlying
    /// `(U/C, λ, p, α)`, the implied ZM offset `δ` from
    /// `(1 + δ)^{−α} = (U/C)·e^{−λp}·ζ(α)·p^{−α} + 1`.
    ///
    /// # Errors
    ///
    /// [`StatsError::Domain`] if `p ≤ 0` or `α ≤ 1`.
    pub fn delta_from_model(
        u_over_c: f64,
        lambda: f64,
        p: f64,
        alpha: f64,
    ) -> Result<f64, StatsError> {
        if p <= 0.0 {
            return Err(StatsError::domain(
                "PaluCurve::delta_from_model",
                "p must be positive",
            ));
        }
        let zeta_alpha = palu_stats::special::riemann_zeta(alpha)?;
        let rhs = u_over_c * (-(lambda * p)).exp() * zeta_alpha * p.powf(-alpha) + 1.0;
        // (1+δ)^{−α} = rhs  ⇒  δ = rhs^{−1/α} − 1.
        Ok(rhs.powf(-1.0 / alpha) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(PaluCurve::new(0.0, -0.5, 2.0, 100).is_err());
        assert!(PaluCurve::new(2.0, -1.0, 2.0, 100).is_err());
        assert!(PaluCurve::new(2.0, -0.5, 1.0, 100).is_err());
        assert!(PaluCurve::new(2.0, -0.5, 2.0, 0).is_err());
        assert!(PaluCurve::new(2.0, -0.5, 2.0, 100).is_ok());
    }

    #[test]
    fn amplitude_sign_tracks_delta() {
        // δ < 0 ⇒ positive unattached amplitude; δ > 0 ⇒ negative.
        let neg = PaluCurve::new(2.0, -0.5, 2.0, 100).unwrap();
        assert!(neg.amplitude() > 0.0);
        let pos = PaluCurve::new(2.0, 1.0, 2.0, 100).unwrap();
        assert!(pos.amplitude() < 0.0);
        let zero = PaluCurve::new(2.0, 0.0, 2.0, 100).unwrap();
        assert!(zero.amplitude().abs() < 1e-15);
    }

    #[test]
    fn delta_zero_reduces_to_pure_power_law() {
        let c = PaluCurve::new(2.5, 0.0, 3.0, 1000).unwrap();
        for d in [1u64, 2, 10, 100] {
            assert!((c.value(d) - (d as f64).powf(-2.5)).abs() < 1e-15);
        }
    }

    #[test]
    fn geometric_term_dies_off() {
        // For d well past the geometric scale, PALU(d) → d^{−α}.
        let c = PaluCurve::new(2.0, -0.5, 2.0, 10_000).unwrap();
        let d = 60u64;
        let pure = (d as f64).powf(-2.0);
        assert!(((c.value(d) - pure) / pure).abs() < 1e-9);
        // At d = 1 the geometric term contributes its full amplitude.
        assert!((c.value(1) - (1.0 + c.amplitude())).abs() < 1e-15);
    }

    #[test]
    fn pmf_normalizes_and_pools() {
        let c = PaluCurve::new(2.0, -0.5, 1.8, 4096).unwrap();
        let total: f64 = (1..=4096u64).map(|d| c.pmf(d)).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!((c.pooled().total_mass() - 1.0).abs() < 1e-10);
        assert_eq!(c.pmf(0), 0.0);
        assert_eq!(c.pmf(5000), 0.0);
    }

    #[test]
    fn pooled_matches_the_two_pass_route_bit_for_bit() {
        for &(alpha, delta, r, d_max) in &[
            (2.0, -0.5, 1.8, 1u64),
            (2.0, -0.5, 13.0, 4096),
            (2.5, 0.7, 1.0001, 1000),
            (3.0, -0.9, 1e6, 8192),
        ] {
            let c = PaluCurve::new(alpha, delta, r, d_max).unwrap();
            // The reference normalizer: every `value(d)`, amplitude
            // included, summed forward.
            let z: f64 = (1..=d_max).map(|d| c.value(d)).sum();
            for d in 1..=d_max {
                assert_eq!(c.pmf(d).to_bits(), (c.value(d) / z).to_bits(), "d={d}");
            }
            let reference = DifferentialCumulative::from_pmf(|d| c.value(d) / z, d_max);
            let bits = |p: &DifferentialCumulative| -> Vec<u64> {
                p.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(&c.pooled()),
                bits(&reference),
                "α={alpha} δ={delta} r={r}"
            );
        }
    }

    #[test]
    fn fitted_r_approximates_zm_families() {
        // The paper's Figure 4 claim, quantified: for α ∈ {2, 2.5, 3}
        // and a leaf-heavy δ, the best-r PALU curve is pooled-close to
        // the ZM distribution.
        for &alpha in &[2.0, 2.5, 3.0] {
            let delta = -0.5;
            let fit = PaluCurve::fit_r_to_zm(alpha, delta, 1 << 12).unwrap();
            let zm = ZipfMandelbrot::new(alpha, delta, 1 << 12).unwrap();
            let dist = fit.distance_to_zm(&zm);
            assert!(
                dist < 0.02,
                "α={alpha}: pooled distance {dist} (r = {})",
                fit.r()
            );
        }
    }

    #[test]
    fn varying_r_sweeps_towards_and_away() {
        // Distance to the ZM target should be minimized near the
        // fitted r and grow for r far from it.
        let alpha = 2.0;
        let delta = -0.6;
        let d_max = 1 << 10;
        let zm = ZipfMandelbrot::new(alpha, delta, d_max).unwrap();
        let best = PaluCurve::fit_r_to_zm(alpha, delta, d_max).unwrap();
        let best_dist = best.distance_to_zm(&zm);
        for &factor in &[0.3f64, 3.0] {
            let r = (best.r().ln() * factor).exp().max(1.0001);
            let other = PaluCurve::new(alpha, delta, r, d_max).unwrap();
            assert!(
                other.distance_to_zm(&zm) >= best_dist - 1e-12,
                "r = {r} beats the fitted r"
            );
        }
    }

    #[test]
    fn delta_correspondence_round_trips() {
        // Compute δ from model parameters, then invert the formula.
        let (u_over_c, lambda, p, alpha) = (0.4, 2.0, 0.5, 2.0);
        let delta = PaluCurve::delta_from_model(u_over_c, lambda, p, alpha).unwrap();
        assert!(
            delta < 0.0,
            "leaf-heavy traffic must give δ < 0, got {delta}"
        );
        // Invert: (1+δ)^{−α} − 1 = (U/C)e^{−λp}ζ(α)p^{−α}.
        let lhs = (1.0 + delta).powf(-alpha) - 1.0;
        let zeta_alpha = palu_stats::special::riemann_zeta(alpha).unwrap();
        let rhs = u_over_c * (-(lambda * p)).exp() * zeta_alpha * p.powf(-alpha);
        assert!((lhs - rhs).abs() < 1e-12);
        // No unattached mass ⇒ δ = 0.
        let d0 = PaluCurve::delta_from_model(0.0, 2.0, 0.5, 2.0).unwrap();
        assert!(d0.abs() < 1e-12);
        // Validation.
        assert!(PaluCurve::delta_from_model(0.4, 2.0, 0.0, 2.0).is_err());
    }
}
