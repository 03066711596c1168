//! Shared support for the reproduction harness.
//!
//! Each paper table/figure has a binary in `src/bin/` that prints the
//! regenerated rows/series and records a JSON snapshot under
//! `results/`. This library holds what they share: the six synthetic
//! observatory scenarios standing in for the paper's
//! locations/dates/window sizes (Figure 3), plus small formatting and
//! result-recording helpers.

use palu::params::PaluParams;
use palu_cli::json::JsonValue;
use palu_traffic::observatory::{Observatory, ObservatoryConfig};
use palu_traffic::packets::EdgeIntensity;
use std::io::Write;
use std::path::PathBuf;

/// Median and quartiles of repeated samples (wall times, speedups),
/// for figures taken from alternating runs rather than one shot.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples` (sorted in place; at least one).
    pub fn of(samples: &mut [f64]) -> Spread {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// `median<unit> (q1 …, q3 …)`.
    pub fn show(&self, unit: &str) -> String {
        format!(
            "{:.3}{unit} (q1 {:.3}, q3 {:.3})",
            self.median, self.q1, self.q3
        )
    }

    /// The spread as a `{median, q1, q3}` JSON object.
    pub fn json(&self) -> JsonValue {
        JsonValue::obj([
            ("median", self.median.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
        ])
    }
}

/// One synthetic vantage point standing in for a Figure 3 panel.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Panel label ("location, date" in the paper's figure).
    pub name: &'static str,
    /// Underlying-network parameters (window `p` is nominal; the
    /// packet budget below determines the realized `p`).
    pub params: PaluParams,
    /// Visible-node budget for the underlying network.
    pub n_nodes: u64,
    /// Packets per window `N_V`.
    pub n_v: u64,
    /// Number of consecutive windows pooled.
    pub windows: usize,
    /// Per-link traffic intensity model.
    pub intensity: EdgeIntensity,
    /// Whether this panel is the paper's "upper right": botnet-heavy
    /// traffic where the plain ZM fit visibly degrades.
    pub botnet_heavy: bool,
}

/// The six Figure 3 panels. Parameters vary location-to-location the
/// way the paper's panels vary across sites/dates/window sizes; panel
/// index 1 is the deviant botnet-heavy one.
pub fn fig3_scenarios() -> Vec<Scenario> {
    let mk = |c: f64, l: f64, lam: f64, alpha: f64| {
        PaluParams::from_core_leaf_fractions(c, l, lam, alpha, 0.5)
            .expect("scenario parameters are valid")
    };
    vec![
        Scenario {
            name: "Synthetic-Tokyo 2026-03-12 (N_V=1e5)",
            params: mk(0.55, 0.20, 2.0, 2.0),
            n_nodes: 120_000,
            n_v: 100_000,
            windows: 16,
            intensity: EdgeIntensity::Uniform,
            botnet_heavy: false,
        },
        Scenario {
            name: "Synthetic-Chicago 2026-04-02 (botnet-heavy, N_V=1e5)",
            // Tiny core, huge unattached population with larger stars:
            // the ZM misfit panel (paper's upper right).
            params: mk(0.10, 0.05, 6.0, 2.5),
            n_nodes: 150_000,
            n_v: 100_000,
            windows: 16,
            intensity: EdgeIntensity::Uniform,
            botnet_heavy: true,
        },
        Scenario {
            name: "Synthetic-Amsterdam 2026-02-27 (N_V=3e5)",
            params: mk(0.65, 0.15, 1.0, 1.8),
            n_nodes: 200_000,
            n_v: 300_000,
            windows: 12,
            intensity: EdgeIntensity::Uniform,
            botnet_heavy: false,
        },
        Scenario {
            name: "Synthetic-SanJose 2026-05-19 (N_V=3e5)",
            params: mk(0.45, 0.30, 3.0, 2.2),
            n_nodes: 150_000,
            n_v: 300_000,
            windows: 12,
            intensity: EdgeIntensity::Pareto { shape: 1.5 },
            botnet_heavy: false,
        },
        Scenario {
            name: "Synthetic-Singapore 2026-01-08 (N_V=1e6)",
            params: mk(0.60, 0.10, 4.0, 2.6),
            n_nodes: 300_000,
            n_v: 1_000_000,
            windows: 8,
            intensity: EdgeIntensity::Uniform,
            botnet_heavy: false,
        },
        Scenario {
            name: "Synthetic-Frankfurt 2026-06-30 (N_V=1e6)",
            params: mk(0.50, 0.25, 1.5, 3.0),
            n_nodes: 250_000,
            n_v: 1_000_000,
            windows: 8,
            intensity: EdgeIntensity::Uniform,
            botnet_heavy: false,
        },
    ]
}

impl Scenario {
    /// Stand up this scenario's observatory (deterministic for a given
    /// master seed).
    pub fn observatory(&self, seed: u64) -> Observatory {
        let gen = self
            .params
            .generator(self.n_nodes)
            .expect("scenario generator is valid");
        Observatory::new(
            ObservatoryConfig {
                name: self.name.to_string(),
                date: String::new(),
                n_v: self.n_v,
            },
            &gen,
            self.intensity,
            seed,
        )
    }
}

/// Format a probability for table output: fixed-point for large
/// values, scientific for small.
pub fn fmt_p(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

/// Print a separator line sized to a header.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Record an experiment's machine-readable snapshot under
/// `results/<id>.json` (repo root), creating the directory on demand.
/// Failures to write are reported but non-fatal — the printed output
/// is the primary artifact. The JSON is produced by the workspace's
/// own writer ([`palu_cli::json`]); no serde in the dependency graph.
pub fn record_json(experiment_id: &str, value: &JsonValue) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment_id}.json"));
    if let Err(e) =
        std::fs::File::create(&path).and_then(|mut f| f.write_all(value.pretty().as_bytes()))
    {
        eprintln!("note: could not write {}: {e}", path.display());
    } else {
        eprintln!("[recorded {}]", path.display());
    }
}

/// Render one or more pooled `D(d_i)` series as an ASCII log-log
/// chart (degrees across, log-probability down), the terminal
/// equivalent of the paper's figures. Series beyond the first are
/// drawn with distinct glyphs; bins where a series is zero are left
/// blank.
pub fn ascii_loglog(series: &[(&str, &palu_stats::logbin::DifferentialCumulative)]) -> String {
    const GLYPHS: [char; 6] = ['o', '*', '+', 'x', '#', '@'];
    const HEIGHT: usize = 16;
    let n_bins = series.iter().map(|(_, s)| s.n_bins()).max().unwrap_or(0);
    if n_bins == 0 {
        return String::from("(empty series)\n");
    }
    // Log-probability range across all series.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, s) in series {
        for i in 0..s.n_bins() {
            let v = s.value(i);
            if v > 0.0 {
                lo = lo.min(v.log10());
                hi = hi.max(v.log10());
            }
        }
    }
    if !lo.is_finite() {
        return String::from("(all-zero series)\n");
    }
    let span = (hi - lo).max(1e-9);
    let col_width = 3usize;
    let mut grid = vec![vec![' '; n_bins * col_width]; HEIGHT];
    for (si, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for i in 0..s.n_bins() {
            let v = s.value(i);
            if v <= 0.0 {
                continue;
            }
            let row = ((hi - v.log10()) / span * (HEIGHT - 1) as f64).round() as usize;
            grid[row.min(HEIGHT - 1)][i * col_width + 1] = glyph;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("1e{hi:>6.1} |")
        } else if r == HEIGHT - 1 {
            format!("1e{lo:>6.1} |")
        } else {
            "         |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("         +");
    out.push_str(&"-".repeat(n_bins * col_width));
    out.push('\n');
    out.push_str("          ");
    for i in 0..n_bins {
        let tick = if i % 4 == 0 {
            format!("{:<width$}", format!("2^{i}"), width = col_width * 4)
        } else {
            String::new()
        };
        if i % 4 == 0 {
            out.push_str(&tick);
        }
    }
    out.push('\n');
    if series.len() > 1 {
        out.push_str("          legend: ");
        for (si, (name, _)) in series.iter().enumerate() {
            out.push_str(&format!("{} = {}  ", GLYPHS[si % GLYPHS.len()], name));
        }
        out.push('\n');
    }
    out
}

/// The `results/` directory at the workspace root (falls back to the
/// current directory when the workspace root cannot be located).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/palu-bench → ../../results.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_valid_and_distinct() {
        let scenarios = fig3_scenarios();
        assert_eq!(scenarios.len(), 6);
        let names: std::collections::HashSet<_> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(scenarios.iter().filter(|s| s.botnet_heavy).count(), 1);
        for s in &scenarios {
            // Constraint holds for every panel.
            let cv = PaluParams::constraint_value(
                s.params.core,
                s.params.leaves,
                s.params.unattached,
                s.params.lambda,
            );
            assert!((cv - 1.0).abs() < 1e-9, "{}", s.name);
            assert!(s.windows >= 8);
        }
    }

    #[test]
    fn observatories_stand_up() {
        let s = &fig3_scenarios()[0];
        let mut obs = s.observatory(42);
        let w = obs.next_window();
        assert_eq!(w.n_v(), s.n_v);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_p(0.0), "0");
        assert_eq!(fmt_p(0.5), "0.5000");
        assert!(fmt_p(1e-6).contains('e'));
        assert_eq!(rule(3), "---");
    }

    #[test]
    fn ascii_loglog_renders_series() {
        use palu_stats::logbin::DifferentialCumulative;
        let a = DifferentialCumulative::from_values(vec![0.5, 0.25, 0.125, 0.125]);
        let b = DifferentialCumulative::from_values(vec![0.6, 0.3, 0.1]);
        let chart = ascii_loglog(&[("measured", &a), ("model", &b)]);
        assert!(chart.contains('o'));
        assert!(chart.contains('*'));
        assert!(chart.contains("legend"));
        assert!(chart.contains("2^0"));
        // Empty / all-zero inputs degrade gracefully.
        assert!(ascii_loglog(&[]).contains("empty"));
        let z = DifferentialCumulative::from_values(vec![0.0, 0.0]);
        assert!(ascii_loglog(&[("z", &z)]).contains("all-zero"));
    }

    #[test]
    fn results_dir_points_at_workspace_root() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }
}
