//! E-EXT2 — Future work: "determining if there is a better fitting
//! model than the Zipf-Mandelbrot distribution" (Section VII).
//!
//! For each Figure 3 scenario, fits three full-support models to the
//! merged multi-window degree histogram — the modified Zipf–Mandelbrot
//! (2 parameters), a discretized lognormal (2), and the PALU simplified
//! law (5) — and compares them by AIC. A Vuong likelihood-ratio test
//! additionally adjudicates power law vs lognormal on the tail.

use palu::estimate::PaluEstimator;
use palu::zm_fit::ZmFitter;
use palu_bench::{record_json, rule};
use palu_cli::json::JsonValue;
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::fit_alpha_discrete;
use palu_stats::model_select::{fit_lognormal_tail, vuong_test, ModelVerdict};
use palu_traffic::pipeline::Measurement;

#[derive(Debug)]
struct Row {
    scenario: String,
    aic_zm: f64,
    aic_lognormal: f64,
    aic_palu: f64,
    best: String,
    vuong_z: f64,
    vuong_verdict: String,
}

/// Full-support log-likelihood of a pmf closure against a histogram.
fn ln_likelihood<F: Fn(u64) -> f64>(h: &DegreeHistogram, pmf: F) -> f64 {
    h.iter()
        .map(|(d, c)| {
            let p = pmf(d);
            if p > 0.0 {
                c as f64 * p.ln()
            } else {
                // Off-support observation: heavily penalized, finite.
                c as f64 * -700.0
            }
        })
        .sum()
}

fn main() {
    println!("E-EXT2 — model selection on the Figure 3 scenarios");
    println!("(AIC = 2k − 2 ln L over the full support; lower is better)");
    println!();
    println!(
        "{:<56} {:>12} {:>12} {:>12} {:>12} {:>8} {:>14}",
        "scenario", "AIC(ZM)", "AIC(logn)", "AIC(PALU)", "best", "Vuong z", "PL-vs-logn"
    );
    println!("{}", rule(132));

    let mut rows = Vec::new();
    for (i, s) in palu_bench::fig3_scenarios().iter().enumerate() {
        let mut obs = s.observatory(20260706 + i as u64);
        let windows = obs.windows(s.windows.min(8));
        let mut merged = DegreeHistogram::new();
        for w in &windows {
            merged.merge(&Measurement::UndirectedDegree.histogram(w));
        }
        let d_cap = merged.d_max().expect("non-empty");

        // Modified Zipf–Mandelbrot (2 parameters).
        let pooled = DifferentialCumulative::from_histogram(&merged);
        let zm_fit = ZmFitter::default().fit(&pooled, None).expect("zm fit");
        let zm = zm_fit.model().expect("valid model");
        let ll_zm = ln_likelihood(&merged, |d| zm.pmf(d.min(zm.d_max())));
        let aic_zm = 2.0 * 2.0 - 2.0 * ll_zm;

        // Discretized lognormal (2 parameters), full support.
        let logn = fit_lognormal_tail(&merged, 1).expect("lognormal fit");
        let aic_logn = 2.0 * 2.0 - 2.0 * logn.ln_likelihood;

        // PALU simplified law (5 parameters).
        let est = PaluEstimator::default()
            .estimate(&merged)
            .expect("palu fit");
        let sp = est.simplified;
        let raw = |d: u64| {
            if d == 1 {
                sp.degree_one_fraction()
            } else {
                sp.degree_fraction_poisson(d)
            }
        };
        let z: f64 = (1..=d_cap).map(raw).sum();
        let ll_palu = ln_likelihood(&merged, |d| raw(d) / z);
        let aic_palu = 2.0 * 5.0 - 2.0 * ll_palu;

        // Tail Vuong: power law vs lognormal past the head.
        let x_min = 4u64;
        let vuong = match (
            fit_alpha_discrete(&merged, x_min),
            fit_lognormal_tail(&merged, x_min),
        ) {
            (Ok(pl), Ok(ln)) => vuong_test(&merged, &pl, &ln, 0.05).ok(),
            _ => None,
        };
        let (vz, verdict) = vuong
            .map(|v| {
                (
                    v.z,
                    match v.verdict {
                        ModelVerdict::PowerLaw => "power-law",
                        ModelVerdict::LogNormal => "lognormal",
                        ModelVerdict::Inconclusive => "tie",
                    },
                )
            })
            .unwrap_or((f64::NAN, "n/a"));

        let best = if aic_zm <= aic_logn && aic_zm <= aic_palu {
            "ZM"
        } else if aic_logn <= aic_palu {
            "lognormal"
        } else {
            "PALU"
        };
        println!(
            "{:<56} {:>12.0} {:>12.0} {:>12.0} {:>12} {:>8.2} {:>14}",
            s.name, aic_zm, aic_logn, aic_palu, best, vz, verdict
        );
        rows.push(Row {
            scenario: s.name.to_string(),
            aic_zm,
            aic_lognormal: aic_logn,
            aic_palu,
            best: best.to_string(),
            vuong_z: vz,
            vuong_verdict: verdict.to_string(),
        });
    }

    println!();
    // Shape gate: on the botnet-heavy scenario the 5-parameter PALU
    // law must beat the 2-parameter families even after the AIC
    // complexity penalty.
    let botnet = rows
        .iter()
        .find(|r| r.scenario.contains("botnet"))
        .expect("botnet scenario present");
    assert!(
        botnet.aic_palu < botnet.aic_zm && botnet.aic_palu < botnet.aic_lognormal,
        "PALU must win the botnet scenario: {botnet:?}"
    );
    println!("gate passed: PALU wins the botnet-heavy scenario on AIC despite its 5 parameters");
    let snapshot = JsonValue::array(rows.iter().map(|r| {
        JsonValue::obj([
            ("scenario", r.scenario.as_str().into()),
            ("aic_zm", r.aic_zm.into()),
            ("aic_lognormal", r.aic_lognormal.into()),
            ("aic_palu", r.aic_palu.into()),
            ("best", r.best.as_str().into()),
            ("vuong_z", r.vuong_z.into()),
            ("vuong_verdict", r.vuong_verdict.as_str().into()),
        ])
    }));
    record_json("model_selection", &snapshot);
}
