//! E-F4 — Figure 4: PALU model curve families.
//!
//! For α ∈ {2, 2.5, 3} (the paper varies α from 2 to 3 top-to-bottom)
//! and a per-α Zipf–Mandelbrot offset δ, sweeps the Equation-5 decay
//! parameter r to produce a family of PALU(d) differential cumulative
//! curves, shows the family bracketing the ZM target, and reports the
//! best-r approximation error — the paper's claim that "the PALU model
//! can be made to fit a Zipf-Mandelbrot distribution".

use palu::zm::ZipfMandelbrot;
use palu::zm_connection::PaluCurve;
use palu_bench::{fmt_p, record_json, rule};
use palu_cli::json::JsonValue;

const D_MAX: u64 = 1 << 12;

struct Family {
    alpha: f64,
    delta: f64,
    zm_pooled: Vec<(u64, f64)>,
    curves: Vec<CurveOut>,
    best_r: f64,
    best_distance: f64,
}

struct CurveOut {
    r: f64,
    distance_to_zm: f64,
    pooled: Vec<(u64, f64)>,
}

fn main() {
    println!("FIGURE 4 — PALU model curve families vs Zipf–Mandelbrot");
    println!("(pooled D(d_i); per α, the δ offset is fixed and r sweeps the family)");
    println!();

    let mut families = Vec::new();
    for &(alpha, delta) in &[(2.0, -0.5), (2.5, -0.6), (3.0, -0.7)] {
        let zm = ZipfMandelbrot::new(alpha, delta, D_MAX).unwrap();
        let zm_pooled = zm.pooled();

        // The r sweep (family members like the paper's grey curves).
        let rs = [1.2f64, 1.5, 2.0, 3.0, 5.0, 10.0];
        let mut curves = Vec::new();
        for &r in &rs {
            let c = PaluCurve::new(alpha, delta, r, D_MAX).unwrap();
            curves.push(CurveOut {
                r,
                distance_to_zm: c.distance_to_zm(&zm),
                pooled: c.pooled().iter().collect(),
            });
        }
        // Best-r member.
        let best = PaluCurve::fit_r_to_zm(alpha, delta, D_MAX).unwrap();
        let best_distance = best.distance_to_zm(&zm);

        println!("family α = {alpha}, δ = {delta}  (ZM target, then PALU(d) members)");
        println!("{}", rule(76));
        print!("{:>8} {:>10}", "d_i", "ZM");
        for &r in &rs {
            print!(" {:>9}", format!("r={r}"));
        }
        println!();
        let n_show = zm_pooled.n_bins().min(10);
        for i in 0..n_show {
            let d_i = 1u64 << i;
            print!("{:>8} {:>10}", d_i, fmt_p(zm_pooled.value(i)));
            for c in &curves {
                print!(" {:>9}", fmt_p(c.pooled[i].1));
            }
            println!();
        }
        println!(
            "best-fit member: r = {:.3}, pooled L2 distance {:.5}",
            best.r(),
            best_distance
        );
        println!();

        // Paper-shape assertions: the family converges to ZM at the
        // best r, and the sweep brackets it (distance varies).
        assert!(
            best_distance < 0.02,
            "α={alpha}: best PALU member too far from ZM ({best_distance})"
        );
        let dists: Vec<f64> = curves.iter().map(|c| c.distance_to_zm).collect();
        let spread = dists.iter().cloned().fold(0.0f64, f64::max)
            - dists.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 0.001,
            "α={alpha}: the r sweep should actually move the curve"
        );

        families.push(Family {
            alpha,
            delta,
            zm_pooled: zm_pooled.iter().collect(),
            curves,
            best_r: best.r(),
            best_distance,
        });
    }

    println!("shape checks: each family sweeps with r and converges to its ZM target — OK");
    let snapshot = JsonValue::array(families.iter().map(|f| {
        JsonValue::obj([
            ("alpha", f.alpha.into()),
            ("delta", f.delta.into()),
            ("zm_pooled", JsonValue::array(f.zm_pooled.iter().copied())),
            (
                "curves",
                JsonValue::array(f.curves.iter().map(|c| {
                    JsonValue::obj([
                        ("r", c.r.into()),
                        ("distance_to_zm", c.distance_to_zm.into()),
                        ("pooled", JsonValue::array(c.pooled.iter().copied())),
                    ])
                })),
            ),
            ("best_r", f.best_r.into()),
            ("best_distance", f.best_distance.into()),
        ])
    }));
    record_json("fig4", &snapshot);
}
