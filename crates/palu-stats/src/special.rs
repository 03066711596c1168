//! Special functions: log-gamma, log-factorial, Riemann and Hurwitz zeta.
//!
//! The PALU analysis (Section IV of the paper) normalizes the
//! preferential-attachment core's degree distribution by the Riemann zeta
//! function `ζ(α)` and evaluates Poisson probabilities `(λp)^d / d!`.
//! The modified Zipf–Mandelbrot model of Section II-B is normalized by a
//! *truncated* Hurwitz zeta sum `Σ_{d=1}^{d_max} (d+δ)^{-α}`. This module
//! provides all of those pieces with double-precision accuracy,
//! replacing the MATLAB built-in `zeta(x)` the authors used.

use crate::error::StatsError;
use crate::Result;

/// Lanczos coefficients (g = 7, n = 9) for [`ln_gamma`].
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 terms), accurate to roughly
/// 15 significant digits over the positive real axis.
///
/// # Examples
///
/// ```
/// use palu_stats::special::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Exact `ln(n!)` for integer `n`.
///
/// Values up to `n = 255` come from a lazily built table of cumulative
/// logs (exact summation); larger arguments fall back to
/// `ln_gamma(n + 1)`.
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_LEN: usize = 256;
    // A static table of ln(k!) for k < 256, built on first use.
    static TABLE: std::sync::OnceLock<[f64; TABLE_LEN]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_LEN];
        let mut acc = 0.0f64;
        for (k, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (k as f64).ln();
            *slot = acc;
        }
        t
    });
    if (n as usize) < TABLE_LEN {
        table[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Bernoulli numbers `B_2, B_4, …, B_14` for the Euler–Maclaurin tail.
const BERNOULLI_2K: [f64; 7] = [
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
];

/// Hurwitz zeta function `ζ(s, q) = Σ_{n=0}^∞ (n + q)^{-s}`.
///
/// Requires `s > 1` (absolute convergence) and `q > 0`. Computed by
/// direct summation of the first `N` terms followed by an
/// Euler–Maclaurin correction, giving full double precision for all
/// arguments used in this workspace (`1 < s ≤ 5`, `q ≥ 0.01`).
///
/// # Errors
///
/// Returns [`StatsError::Domain`] if `s ≤ 1` or `q ≤ 0`.
pub fn hurwitz_zeta(s: f64, q: f64) -> Result<f64> {
    // NaN-safe domain guard: `!(s > 1)` also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(s > 1.0) {
        return Err(StatsError::domain(
            "hurwitz_zeta",
            format!("s must be > 1 for convergence, got {s}"),
        ));
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(q > 0.0) {
        return Err(StatsError::domain(
            "hurwitz_zeta",
            format!("q must be > 0, got {q}"),
        ));
    }
    // Direct sum of the head: Σ_{n=0}^{N-1} (n+q)^{-s}.
    // N is chosen so N + q ≥ 16, which keeps the Euler–Maclaurin
    // remainder below double-precision noise for s ≤ ~50.
    let n_head = if q >= 16.0 {
        0
    } else {
        (16.0 - q).ceil() as usize
    };
    let mut head = 0.0f64;
    for n in 0..n_head {
        head += (n as f64 + q).powf(-s);
    }
    let a = n_head as f64 + q;
    // Euler–Maclaurin tail:
    //   a^{1-s}/(s-1) + a^{-s}/2 + Σ_k B_{2k}/(2k)! · (s)_{2k-1} · a^{-s-2k+1}
    let mut tail = a.powf(1.0 - s) / (s - 1.0) + 0.5 * a.powf(-s);
    let mut pochhammer = s; // (s)_1
    let mut fact = 1.0f64; // (2k)! accumulator
    let mut a_pow = a.powf(-s - 1.0);
    for (k, &b2k) in BERNOULLI_2K.iter().enumerate() {
        let two_k = 2 * (k + 1);
        fact *= (two_k - 1) as f64 * two_k as f64; // builds (2k)!
        if k > 0 {
            // extend rising factorial (s)_{2k-1} by two more terms
            pochhammer *= (s + (two_k - 3) as f64) * (s + (two_k - 2) as f64);
            a_pow /= a * a;
        }
        let term = b2k / fact * pochhammer * a_pow;
        tail += term;
        if term.abs() < f64::EPSILON * tail.abs() {
            break;
        }
    }
    Ok(head + tail)
}

/// Riemann zeta function `ζ(s) = Σ_{n=1}^∞ n^{-s}` for `s > 1`.
///
/// The paper evaluates this for the PA exponent range `1.5 ≤ α ≤ 3`,
/// noting `1.202 ≤ ζ(α) ≤ 2.612` over that interval.
///
/// # Errors
///
/// Returns [`StatsError::Domain`] if `s ≤ 1`.
///
/// # Examples
///
/// ```
/// use palu_stats::special::riemann_zeta;
/// let z2 = riemann_zeta(2.0).unwrap();
/// assert!((z2 - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-12);
/// ```
pub fn riemann_zeta(s: f64) -> Result<f64> {
    hurwitz_zeta(s, 1.0)
}

/// Tail of the zeta series: `Σ_{d=n}^∞ d^{-s} = ζ(s, n)`.
///
/// Used when converting between truncated and infinite power-law
/// normalizations (e.g. the `x_min`-conditioned CSN likelihood).
///
/// # Errors
///
/// Returns [`StatsError::Domain`] if `s ≤ 1` or `n == 0`.
pub fn zeta_tail(s: f64, n: u64) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::domain("zeta_tail", "n must be >= 1"));
    }
    hurwitz_zeta(s, n as f64)
}

/// Largest `n` for which [`harmonic_partial`] and [`zm_normalizer`]
/// always sum their `n` terms directly, smallest first; above it they
/// take the zeta difference whenever `s > 1`. Callers that already hold
/// the terms (the Zipf–Mandelbrot fit) reproduce the direct sum bit for
/// bit by summing them in the same order up to this bound.
pub const DIRECT_SUM_CUTOFF: u64 = 4096;

/// Partial generalized harmonic number `H(n, s) = Σ_{d=1}^n d^{-s}`.
///
/// For small `n` this is a direct sum; for large `n` it is computed as
/// `ζ(s) − ζ(s, n+1)` to avoid an O(n) loop. Requires `s > 1` when the
/// fast path is taken; for `s ≤ 1` the direct sum is always used (it is
/// finite for any finite `n`).
pub fn harmonic_partial(n: u64, s: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= DIRECT_SUM_CUTOFF || s <= 1.0 {
        // Sum smallest-to-largest terms for accuracy: d^{-s} decreases in
        // d when s > 0, so iterate downward.
        let mut acc = 0.0f64;
        let mut d = n;
        while d >= 1 {
            acc += (d as f64).powf(-s);
            d -= 1;
        }
        acc
    } else {
        // ζ(s) − Σ_{d=n+1}^∞ d^{-s}; both pieces are full precision.
        // `s > 1` is guaranteed on this branch so the domain error is
        // unreachable — but if it ever fires, fall back to the exact
        // direct sum rather than panicking.
        match (hurwitz_zeta(s, 1.0), hurwitz_zeta(s, n as f64 + 1.0)) {
            (Ok(total), Ok(tail)) => total - tail,
            _ => (1..=n).rev().map(|d| (d as f64).powf(-s)).sum(),
        }
    }
}

/// Truncated Hurwitz sum `Σ_{d=1}^{n} (d + q)^{-s}`.
///
/// This is exactly the normalization constant of the *modified
/// Zipf–Mandelbrot* model of Section II-B, with `q = δ` and
/// `n = d_max`. Accepts any `s > 0` (the sum is finite), using the
/// zeta-difference fast path only when `s > 1`.
pub fn zm_normalizer(n: u64, s: f64, q: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= DIRECT_SUM_CUTOFF || s <= 1.0 {
        let mut acc = 0.0f64;
        let mut d = n;
        while d >= 1 {
            acc += (d as f64 + q).powf(-s);
            d -= 1;
        }
        acc
    } else {
        // As in `harmonic_partial`: `s > 1` here, so the zeta domain
        // error is unreachable; the direct sum is the safe fallback.
        match (
            hurwitz_zeta(s, 1.0 + q),
            hurwitz_zeta(s, n as f64 + 1.0 + q),
        ) {
            (Ok(total), Ok(tail)) => total - tail,
            _ => (1..=n).rev().map(|d| (d as f64 + q).powf(-s)).sum(),
        }
    }
}

/// Polylogarithm `Li_s(z) = Σ_{k=1}^∞ z^k / k^s` for real `s` and
/// `0 ≤ z < 1` (direct series).
///
/// Used by the exact Binomial-thinning analysis of the PA core: the
/// probability that a thinned zeta(α) node has observed degree 1
/// involves `Li_{α−1}(1 − p)`. The series converges geometrically for
/// `z < 1`; near `z = 1` with `s ≤ 1` the value grows without bound
/// (heavier and heavier degree-1 mass as `p → 0`), which the iteration
/// cap guards against.
///
/// # Errors
///
/// Returns [`StatsError::Domain`] for `z` outside `[0, 1)`, and
/// [`StatsError::NoConvergence`] if the series needs more than 10⁶
/// terms (only possible for `z` within ~1e-6 of 1).
pub fn polylog(s: f64, z: f64) -> Result<f64> {
    if !(0.0..1.0).contains(&z) {
        return Err(StatsError::domain(
            "polylog",
            format!("z must be in [0, 1), got {z}"),
        ));
    }
    if z == 0.0 {
        return Ok(0.0);
    }
    const MAX_TERMS: usize = 1_000_000;
    let mut acc = 0.0f64;
    let mut z_pow = 1.0f64;
    for k in 1..=MAX_TERMS {
        z_pow *= z;
        let term = z_pow / (k as f64).powf(s);
        acc += term;
        if term < acc.abs() * 1e-16 {
            return Ok(acc);
        }
    }
    Err(StatsError::NoConvergence {
        routine: "polylog",
        iterations: MAX_TERMS,
        residual: z_pow,
    })
}

/// Complementary error function `erfc(x)`, Numerical-Recipes rational
/// approximation (fractional error < 1.2e-7 everywhere) — plenty for
/// p-values.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal CDF `Φ(x) = erfc(−x/√2)/2`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < TOL);
        // Γ(3/2) = √π / 2
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expected).abs() < TOL);
    }

    #[test]
    fn ln_factorial_table_and_fallback_agree() {
        for n in [0u64, 1, 2, 10, 100, 255, 256, 1000] {
            let via_gamma = ln_gamma(n as f64 + 1.0);
            assert!(
                (ln_factorial(n) - via_gamma).abs() < 1e-9 * (1.0 + via_gamma.abs()),
                "n = {n}"
            );
        }
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120.0f64.ln()).abs() < TOL);
    }

    #[test]
    fn riemann_zeta_known_values() {
        let pi = std::f64::consts::PI;
        assert!((riemann_zeta(2.0).unwrap() - pi * pi / 6.0).abs() < TOL);
        assert!((riemann_zeta(4.0).unwrap() - pi.powi(4) / 90.0).abs() < TOL);
        // Apéry's constant
        assert!((riemann_zeta(3.0).unwrap() - 1.202_056_903_159_594_2).abs() < TOL);
        // ζ(1.5), the other endpoint the paper quotes (≈ 2.612)
        assert!((riemann_zeta(1.5).unwrap() - 2.612_375_348_685_488).abs() < 1e-11);
    }

    #[test]
    fn paper_quoted_zeta_range() {
        // Paper: "1.202 ≤ ζ(α) ≤ 2.612" for 1.5 ≤ α ≤ 3.
        let lo = riemann_zeta(3.0).unwrap();
        let hi = riemann_zeta(1.5).unwrap();
        assert!((lo - 1.202).abs() < 5e-4);
        assert!((hi - 2.612).abs() < 5e-4);
        // Monotone decreasing in between.
        let mut prev = f64::INFINITY;
        let mut a = 1.5;
        while a <= 3.0 + 1e-9 {
            let z = riemann_zeta(a).unwrap();
            assert!(z < prev);
            prev = z;
            a += 0.1;
        }
    }

    #[test]
    fn hurwitz_reduces_to_riemann() {
        for s in [1.5, 2.0, 2.5, 3.0] {
            let h = hurwitz_zeta(s, 1.0).unwrap();
            let r = riemann_zeta(s).unwrap();
            assert_eq!(h, r);
        }
    }

    #[test]
    fn hurwitz_shift_identity() {
        // ζ(s, q) = q^{-s} + ζ(s, q+1)
        for &(s, q) in &[(2.0, 0.5), (1.7, 2.3), (3.0, 10.0), (2.2, 0.01)] {
            let lhs = hurwitz_zeta(s, q).unwrap();
            let rhs = q.powf(-s) + hurwitz_zeta(s, q + 1.0).unwrap();
            assert!((lhs - rhs).abs() < 1e-12 * lhs.abs(), "s={s}, q={q}");
        }
    }

    #[test]
    fn hurwitz_domain_errors() {
        assert!(hurwitz_zeta(1.0, 1.0).is_err());
        assert!(hurwitz_zeta(0.5, 1.0).is_err());
        assert!(hurwitz_zeta(2.0, 0.0).is_err());
        assert!(hurwitz_zeta(2.0, -1.0).is_err());
    }

    #[test]
    fn zeta_tail_consistency() {
        // ζ(s) = H(n, s) + tail(s, n+1)
        for &(s, n) in &[(2.0, 10u64), (1.6, 100), (3.0, 5000)] {
            let whole = riemann_zeta(s).unwrap();
            let head = harmonic_partial(n, s);
            let tail = zeta_tail(s, n + 1).unwrap();
            assert!(
                (whole - head - tail).abs() < 1e-11,
                "s={s}, n={n}: {} vs {}",
                whole,
                head + tail
            );
        }
        assert!(zeta_tail(2.0, 0).is_err());
    }

    #[test]
    fn harmonic_partial_direct_vs_fast_path() {
        // Straddle the cutoff and compare against brute force.
        for &n in &[4096u64, 4097, 10_000] {
            let brute: f64 = (1..=n).map(|d| (d as f64).powf(-2.0)).sum();
            let fast = harmonic_partial(n, 2.0);
            assert!((brute - fast).abs() < 1e-11, "n={n}");
        }
        // s <= 1 still works via direct summation.
        let h1 = harmonic_partial(100, 1.0);
        let brute: f64 = (1..=100u64).map(|d| 1.0 / d as f64).sum();
        assert!((h1 - brute).abs() < 1e-12);
        assert_eq!(harmonic_partial(0, 2.0), 0.0);
    }

    #[test]
    fn erfc_and_normal_cdf_reference_values() {
        // erfc(0) = 1, erfc(∞) → 0, symmetry erfc(−x) = 2 − erfc(x).
        assert!((erfc(0.0) - 1.0).abs() < 2e-7);
        assert!(erfc(5.0) < 2e-11);
        for &x in &[0.3, 1.0, 2.2] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
        // erfc(1) = 0.157299207050285…
        assert!((erfc(1.0) - 0.157_299_207_050_285).abs() < 3e-7);
        // Φ reference points.
        assert!((normal_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((normal_cdf(1.959_963_985) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.959_963_985) - 0.025).abs() < 1e-5);
        assert!(normal_cdf(8.0) > 0.999_999);
        // Monotone.
        let mut prev = 0.0;
        let mut x = -4.0;
        while x <= 4.0 {
            let v = normal_cdf(x);
            assert!(v >= prev);
            prev = v;
            x += 0.25;
        }
    }

    #[test]
    fn polylog_known_values() {
        // Li_1(z) = −ln(1 − z).
        for &z in &[0.1, 0.5, 0.9] {
            let expected = -(1.0f64 - z).ln();
            assert!((polylog(1.0, z).unwrap() - expected).abs() < 1e-12, "z={z}");
        }
        // Li_2(1/2) = π²/12 − ln²2 / 2.
        let pi = std::f64::consts::PI;
        let expected = pi * pi / 12.0 - 0.5 * (2f64.ln()).powi(2);
        assert!((polylog(2.0, 0.5).unwrap() - expected).abs() < 1e-12);
        // Li_0(z) = z/(1−z).
        assert!((polylog(0.0, 0.3).unwrap() - 0.3 / 0.7).abs() < 1e-12);
        // Edge cases.
        assert_eq!(polylog(2.0, 0.0).unwrap(), 0.0);
        assert!(polylog(2.0, 1.0).is_err());
        assert!(polylog(2.0, -0.1).is_err());
    }

    #[test]
    fn zm_normalizer_matches_brute_force() {
        for &(n, s, q) in &[
            (100u64, 2.0, 0.5),
            (5000, 1.8, 3.0),
            (10_000, 2.5, 0.0001),
            (50, 0.9, 1.0), // s ≤ 1 direct path
        ] {
            let brute: f64 = (1..=n).map(|d| (d as f64 + q).powf(-s)).sum();
            let fast = zm_normalizer(n, s, q);
            assert!(
                (brute - fast).abs() < 1e-10 * brute.max(1.0),
                "n={n} s={s} q={q}: {brute} vs {fast}"
            );
        }
        assert_eq!(zm_normalizer(0, 2.0, 1.0), 0.0);
    }
}
