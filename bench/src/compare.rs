//! `--compare PARENT CHANGE`: the noise-aware regression check.
//!
//! Each file holds the records `--out` appended, one run per line.
//! Runs are paired in file order. For every end-to-end metric of
//! `BENCHMARK.json` and every workload the check prints one row: each
//! side's median and quartiles over its runs, the change, the pairs
//! the change won, and a verdict:
//!
//! * `improved` — at least ten pairs ran, the change wins at least nine
//!   tenths of them (ties count for neither), and its median differs
//!   from the parent's by more than the parent's quartile spread;
//! * `unresolved` — either side's quartile spread is wider than the
//!   metric's bound, and not every change run beats every parent run;
//! * `regressed` — the change's median is worse than the parent's by
//!   more than the bound;
//! * `unchanged` — otherwise.
//!
//! With one run on a side, that run's own sample quartiles stand in
//! for the run-to-run spread.

use crate::harness::{quartiles, Json};
use std::fmt::Write as _;

/// Pairs of runs a gain must rest on.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One side of a comparison: the metric's value in each run, and the
/// sample quartiles of the first run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    pub values: Vec<f64>,
    pub run_quartiles: Option<(f64, f64)>,
}

impl Side {
    /// Median and quartiles across runs (or within the only run).
    pub fn stats(&self) -> Option<(f64, f64, f64)> {
        let (q1, median, q3) = quartiles(&self.values)?;
        match (self.values.len(), self.run_quartiles) {
            (1, Some((rq1, rq3))) => Some((median, rq1, rq3)),
            _ => Some((median, q1, q3)),
        }
    }
}

/// A row's verdict and the number of pairs the change won.
pub fn verdict(parent: &Side, change: &Side, bound: &Bound) -> Option<(Verdict, usize, usize)> {
    let (pm, pq1, pq3) = parent.stats()?;
    let (cm, cq1, cq3) = change.stats()?;
    let better = |a: f64, b: f64| {
        if bound.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.values.len().min(change.values.len());
    let won = parent
        .values
        .iter()
        .zip(&change.values)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let worse = if bound.higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    let spread = |q1: f64, q3: f64, m: f64| (q3 - q1) / m.abs();
    let worst_change = change
        .values
        .iter()
        .copied()
        .reduce(|a, b| if better(a, b) { b } else { a });
    let best_parent = parent
        .values
        .iter()
        .copied()
        .reduce(|a, b| if better(a, b) { a } else { b });
    let every_run_better =
        matches!((worst_change, best_parent), (Some(c), Some(p)) if better(c, p));
    let v = if pairs >= MIN_PAIRS
        && won * 10 >= pairs * 9
        && better(cm, pm)
        && (cm - pm).abs() > pq3 - pq1
    {
        Verdict::Improved
    } else if (spread(pq1, pq3, pm) > bound.bound || spread(cq1, cq3, cm) > bound.bound)
        && !every_run_better
    {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some((v, won, pairs))
}

/// Run records from a file of `--out` lines, trace runs excluded.
pub fn records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .filter(|r| match r {
            Ok(rec) => rec.get("trace").and_then(Json::as_f64) == Some(0.0),
            Err(_) => true,
        })
        .collect()
}

fn side(records: &[Json], workload: &str, metric: &str) -> Side {
    let mut side = Side::default();
    for rec in records {
        if rec.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let Some(m) = rec.get("metrics").and_then(|m| m.get(metric)) else {
            continue;
        };
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            if side.values.is_empty() {
                let q = |k| m.get(k).and_then(Json::as_f64);
                side.run_quartiles = q("q1").zip(q("q3"));
            }
            side.values.push(v);
        }
    }
    side
}

/// Failed ÷ attempted over all runs of `workload`, and whether every
/// run's checks passed.
fn failures(records: &[Json], workload: &str) -> (f64, bool) {
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for rec in records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
    {
        attempted += rec.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        correct &= rec.get("correct") == Some(&Json::Bool(true));
    }
    (
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        },
        correct,
    )
}

/// Compare two record sets; returns the printed table and whether any
/// row regressed or stayed unresolved.
pub fn compare(bounds: &[Bound], parent: &[Json], change: &[Json]) -> (String, bool) {
    let mut workloads: Vec<&str> = Vec::new();
    for rec in parent.iter().chain(change) {
        if let Some(w) = rec.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<9} {:>28} {:>28} {:>8} {:>5} verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "change", "won",
    );
    let mut failing = false;
    for b in bounds {
        for w in &workloads {
            let (p, c) = (side(parent, w, &b.name), side(change, w, &b.name));
            let Some((verdict, won, pairs)) = verdict(&p, &c, b) else {
                continue;
            };
            let (pm, pq1, pq3) = p.stats().unwrap_or_default();
            let (cm, cq1, cq3) = c.stats().unwrap_or_default();
            failing |= matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
            let _ = writeln!(
                out,
                "{:<14} {:<9} {:>28} {:>28} {:>+7.2}% {:>2}/{:<2} {} (bound {}%)",
                b.name,
                w,
                format!("{pm:.4e} [{pq1:.4e}, {pq3:.4e}]"),
                format!("{cm:.4e} [{cq1:.4e}, {cq3:.4e}]"),
                100.0 * (cm - pm) / pm.abs(),
                won,
                pairs,
                verdict.name(),
                100.0 * b.bound
            );
        }
    }
    for w in &workloads {
        let (pf, pc) = failures(parent, w);
        let (cf, cc) = failures(change, w);
        let bad = !cc || cf > pf;
        failing |= bad;
        let _ = writeln!(
            out,
            "{:<14} {:<9} {:>28} {:>28} {:>8} {:>5} {}",
            "fail_ratio",
            w,
            format!("{pf} (checks {})", if pc { "pass" } else { "FAIL" }),
            format!("{cf} (checks {})", if cc { "pass" } else { "FAIL" }),
            "",
            "",
            if bad { "regressed" } else { "unchanged" }
        );
    }
    (out, failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "t".to_string(),
            higher_is_better: false,
            bound,
        }
    }

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            run_quartiles: None,
        }
    }

    #[test]
    fn a_consistent_faster_change_is_improved() {
        let p = side(&[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]);
        let c = side(&[9.0, 9.1, 8.9, 9.0, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0]);
        assert_eq!(
            verdict(&p, &c, &lower(0.1)),
            Some((Verdict::Improved, 10, 10))
        );
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let p = side(&[10.0, 10.1, 9.9]);
        let c = side(&[9.0, 9.1, 8.9]);
        assert_eq!(
            verdict(&p, &c, &lower(0.1)),
            Some((Verdict::Unchanged, 3, 3))
        );
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses_and_within_it_is_unchanged() {
        let p = side(&[10.0, 10.1, 9.9, 10.0]);
        let slower = side(&[11.5, 11.6, 11.4, 11.5]);
        assert_eq!(
            verdict(&p, &slower, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Regressed)
        );
        let same = side(&[10.05, 9.95, 10.1, 10.0]);
        assert_eq!(
            verdict(&p, &same, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Unchanged)
        );
        // Higher-is-better metrics regress downwards.
        let mut b = lower(0.1);
        b.higher_is_better = true;
        assert_eq!(
            verdict(&p, &side(&[8.5, 8.6, 8.4, 8.5]), &b).map(|v| v.0),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let p = side(&[5.0, 10.0, 15.0, 10.0]);
        let c = side(&[9.0, 14.0, 6.0, 10.0]);
        assert_eq!(
            verdict(&p, &c, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Unresolved)
        );
        let all_better = side(&[4.0, 4.5, 4.9, 4.2]);
        assert_ne!(
            verdict(&p, &all_better, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn a_single_run_uses_its_own_sample_quartiles() {
        let mut p = side(&[10.0]);
        p.run_quartiles = Some((9.0, 11.0));
        let c = side(&[10.1]);
        assert_eq!(p.stats(), Some((10.0, 9.0, 11.0)));
        assert_eq!(
            verdict(&p, &c, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Unresolved)
        );
        p.run_quartiles = Some((9.9, 10.1));
        assert_eq!(
            verdict(&p, &c, &lower(0.1)).map(|v| v.0),
            Some(Verdict::Unchanged)
        );
    }

    #[test]
    fn compare_reads_bounds_and_records() {
        let bench = Json::parse(
            r#"{"end_to_end":[{"name":"fit_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .expect("valid json");
        let b = bounds(&bench).expect("bounds");
        let rec = |v: f64, failed: f64| {
            format!(
                r#"{{"workload":"simulate","seed":1,"trace":0,"correct":true,"attempted":10,"failed":{failed},"metrics":{{"fit_ms":{{"value":{v},"unit":"ms","q1":{v},"q3":{v},"n":5}}}}}}"#
            )
        };
        let parent = records(&rec(20.0, 0.0)).expect("parent");
        let (table, failing) = compare(&b, &parent, &records(&rec(20.5, 0.0)).expect("change"));
        assert!(!failing, "{table}");
        assert!(table.contains("unchanged"));
        let (_, failing) = compare(&b, &parent, &records(&rec(30.0, 0.0)).expect("change"));
        assert!(failing);
        let (_, failing) = compare(&b, &parent, &records(&rec(20.0, 1.0)).expect("change"));
        assert!(failing, "more failed operations is a regression");
    }
}
