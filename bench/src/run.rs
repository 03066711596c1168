//! One workload run: set-up, a warm-up sample, timed samples for the
//! requested seconds, the correctness checks, and the metrics.

use crate::harness::{peak_heap_mib, reference_s, Json, Metric, Summary, Tally, WorkDir};
use crate::probes::{layer_pass, probe_layers};
use crate::trace::{self, Tracer};
use crate::workloads::{
    digest, effective_cores, matches_pinned, prepare, sample, zm_fit, Prepared, Spec,
};
use palu::zm_fit::ZmFit;
use palu_traffic::pipeline::PooledDistribution;
use std::path::PathBuf;
use std::time::Instant;

/// Timed samples a run takes at least, however long they last.
const MIN_SAMPLES: usize = 5;

/// ZM fits and reference-kernel timings a run takes at least: one of
/// each per timed sample, topped up with refits of the last sample's
/// output and further reference runs.
const MIN_FITS: usize = 20;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pkts_per_ref", "pkt/ref"),
    ("fit_ns_per_term", "ns"),
    ("peak_heap_mib", "MiB"),
];

/// The per-layer metrics a traced run reports, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("observatory.build_ms", "ms"),
    ("synthesize.ns_per_pkt", "ns"),
    ("window.ns_per_pkt", "ns"),
    ("histogram.ns_per_pkt", "ns"),
    ("bin.us_per_window", "us"),
    ("merge.us_per_window", "us"),
    ("journal.create_ms", "ms"),
    ("journal.append_us_per_window", "us"),
    ("journal.recover_us_per_window", "us"),
    ("journal.bytes_per_window", "bytes"),
    ("wire.record_encode_ns", "ns"),
    ("wire.record_decode_ns", "ns"),
    ("wire.fit_response_encode_us", "us"),
    ("wire.fit_response_decode_us", "us"),
    ("wire.fit_response_bytes", "bytes"),
    ("service.accept_us_per_window", "us"),
    ("service.fit_snapshot_ms", "ms"),
    ("service.query_p50_ms", "ms"),
    ("service.query_p99_ms", "ms"),
    ("service.query_wait_ms", "ms"),
    ("dispatch.lease_rtt_p50_ms", "ms"),
    ("dispatch.lease_rtt_p99_ms", "ms"),
    ("fit.zm_ms", "ms"),
    ("fit.zm_evals", "count"),
    ("fit.csn_ms", "ms"),
    ("fit.palu_estimate_ms", "ms"),
    ("trace.sample_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// The pooled output's digest, when every sample agreed on one.
    pub digest: Option<u32>,
    pub spans_file: Option<PathBuf>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its median value and unit.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.tally.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The record `--out` appends and `--compare` reads: the result
    /// plus the workload, seed, digest and each metric's quartiles.
    pub fn record(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::Str(m.unit.to_string())),
                    ("q1", Json::Num(m.summary.q1)),
                    ("q3", Json::Num(m.summary.q3)),
                    ("n", Json::Num(m.summary.n as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("correct", Json::Bool(self.tally.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("fail_ratio", Json::Num(self.tally.fail_ratio())),
            (
                "digest",
                self.digest.map_or(Json::Null, |d| Json::Num(f64::from(d))),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Timed samples of one phase.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    /// Fit time ÷ (objective evaluations × `d_max`): each evaluation
    /// sums the model over every degree up to `d_max`, so this is the
    /// cost of one model term, steady across seeds whose pooled
    /// supports differ.
    fit_ns_per_term: Vec<f64>,
    /// Wall time of the reference kernel, run after each sample.
    reference_s: Vec<f64>,
    digests: Vec<u32>,
    fits: Vec<ZmFit>,
    last: Option<PooledDistribution>,
}

/// Take samples until `seconds` have passed and at least `min` were
/// taken; each sample's pooled output is digested and fitted.
#[allow(clippy::too_many_arguments)]
fn collect(
    spec: &Spec,
    prep: &mut Prepared,
    work: &WorkDir,
    tracer: &Tracer,
    min: usize,
    seconds: f64,
    out: &mut Samples,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let first = out.wall_s.len();
    while out.wall_s.len() - first < min || start.elapsed().as_secs_f64() < seconds {
        let request = out.wall_s.len() as u64;
        let t0 = Instant::now();
        let pooled = sample(spec, prep, work, tracer, request, tally);
        out.wall_s.push(t0.elapsed().as_secs_f64());
        let Some(pooled) = pooled else { continue };
        out.digests.push(digest(&pooled));
        fit(&pooled, tracer, request, out, tally);
        out.reference_s.push(reference_s());
        out.last = Some(pooled);
    }
}

/// Time one ZM fit of `pooled` and keep its parameters.
fn fit(
    pooled: &PooledDistribution,
    tracer: &Tracer,
    request: u64,
    out: &mut Samples,
    tally: &mut Tally,
) {
    let t0 = Instant::now();
    let fit = tracer.span("fit", 0, request, |_| zm_fit(pooled));
    let fit_s = t0.elapsed().as_secs_f64();
    match fit {
        Ok(fit) => {
            out.fit_ns_per_term
                .push(fit_s * 1e9 / (fit.evals as f64 * fit.d_max as f64));
            out.fits.push(fit);
        }
        Err(e) => tally.check(false, || format!("ZM fit of sample {request}: {e}")),
    }
}

/// Run one workload for `seconds` of timed samples.
pub fn run(spec: &Spec, seconds: f64, trace: bool) -> Result<Report, String> {
    let name = spec.kind.name();
    eprintln!(
        "== {name}: seed {}, {} windows x N_V {} over {} nodes, {} thread(s) on {} effective core(s)",
        spec.seed,
        spec.size.windows,
        spec.size.n_v,
        spec.size.nodes,
        spec.threads,
        effective_cores()
    );
    let work = WorkDir::new(name).map_err(|e| format!("work directory: {e}"))?;
    let mut tally = Tally::default();
    let mut prep = prepare(spec, &work, &mut tally)?;
    let off = Tracer::off();
    let tracer = Tracer::new(trace);

    let mut take = |tracer: &Tracer, min: usize, seconds: f64, out: &mut Samples| {
        collect(
            spec, &mut prep, &work, tracer, min, seconds, out, &mut tally,
        );
    };
    // Warm-up: caches fill and lazily built state settles before
    // timing starts. Its output is checked like every other sample's.
    let mut warm = Samples::default();
    take(&off, 1, 0.0, &mut warm);
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    if trace {
        take(&off, 3, seconds / 2.0, &mut untraced);
        take(&tracer, 3, seconds / 2.0, &mut traced);
    } else {
        take(&off, MIN_SAMPLES, seconds, &mut untraced);
        if let Some(pooled) = untraced.last.take() {
            while untraced.fit_ns_per_term.len() < MIN_FITS {
                let request = (untraced.wall_s.len() + untraced.fits.len()) as u64;
                fit(&pooled, &off, request, &mut untraced, &mut tally);
            }
        }
        while untraced.reference_s.len() < MIN_FITS {
            untraced.reference_s.push(reference_s());
        }
    }

    // The layer pass below keeps its own copies of windows; the peak
    // is the workload's.
    let peak = peak_heap_mib();

    // Every sample must pool exactly what the serial stage-by-stage
    // pass pools, and fit to exactly the same parameters.
    let pass = layer_pass(spec, &prep.obs[0], &tracer)?;
    let reference = digest(&pass.pooled);
    let phases = [&warm, &untraced, &traced];
    let digests: Vec<u32> = phases
        .iter()
        .flat_map(|s| s.digests.iter().copied())
        .collect();
    let fits: Vec<ZmFit> = phases.iter().flat_map(|s| s.fits.iter().copied()).collect();
    let samples = phases.iter().map(|s| s.wall_s.len()).sum::<usize>();
    tally.check(digests.len() == samples, || {
        format!(
            "{} of {samples} samples produced no output",
            samples - digests.len()
        )
    });
    tally.check(digests.iter().all(|&d| d == reference), || {
        format!("pooled digests {digests:08x?} differ from the serial layer pass's {reference:08x}")
    });
    let first_fit = fits.first().copied();
    tally.check(
        fits.iter().all(|f| {
            Some((f.alpha.to_bits(), f.delta.to_bits()))
                == first_fit.map(|g| (g.alpha.to_bits(), g.delta.to_bits()))
        }),
        || "ZM fits differ between samples".to_string(),
    );
    if let Some(fit) = first_fit {
        eprintln!(
            "  output: digest {reference:08x}, ZM alpha {:?}, delta {:?} ({} bins, d_max {}, {} evals)",
            fit.alpha,
            fit.delta,
            pass.pooled.mean.n_bins(),
            fit.d_max,
            fit.evals
        );
        if spec.seed == 1 && spec.is_full_size() {
            tally.check(matches_pinned(spec.kind, reference, &fit), || {
                "seed-1 output differs from the pinned digest and fit".to_string()
            });
        }
    }

    let packets = spec.packets() as f64;
    let mut spans_file = None;
    let metrics = if trace {
        let mut metrics = vec![Metric::new(
            "observatory.build_ms",
            "ms",
            Summary::of(&prep.build_s).scaled(1e3),
        )];
        metrics.extend(probe_layers(spec, &pass, &work, &tracer, &mut tally)?);
        let spans = tracer.spans();
        let sample_ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "sample")
            .map(|s| s.ns() as f64)
            .collect();
        let self_ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "sample")
            .filter_map(|s| trace::self_ns(&spans, s.id))
            .map(|ns| ns as f64)
            .collect();
        let overhead = Summary::of(&untraced.wall_s).median / Summary::of(&traced.wall_s).median;
        metrics.extend([
            Metric::new(
                "trace.sample_ms",
                "ms",
                Summary::of(&sample_ns).scaled(1e-6),
            ),
            Metric::new("trace.self_ms", "ms", Summary::of(&self_ns).scaled(1e-6)),
            Metric::new("trace.overhead_ratio", "ratio", Summary::one(overhead)),
        ]);
        let path = std::path::Path::new(".bench_work")
            .join(format!("spans-{name}-seed{}.jsonl", spec.seed));
        trace::write_jsonl(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("  spans by name: {:?}", trace::counts(&spans));
        spans_file = Some(path);
        let listed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
        tally.check(listed == PER_LAYER, || {
            "per-layer metrics differ from the PER_LAYER list".to_string()
        });
        metrics
    } else {
        let wall = Summary::of(&untraced.wall_s);
        let reference = Summary::min_of(&untraced.reference_s).median;
        eprintln!(
            "  raw throughput {:.6e} pkt/s; fastest reference kernel {:.6} ms",
            packets / wall.median,
            reference * 1e3
        );
        vec![
            Metric::new(END_TO_END[0].0, END_TO_END[0].1, Summary::of(&prep.setup_s)),
            // Throughput in units of the reference kernel's fastest run:
            // the host's speed drifts by a quarter for minutes at a
            // time and moves both, while the slowest kernel runs also
            // catch the workload's own aftermath.
            Metric::new(
                END_TO_END[1].0,
                END_TO_END[1].1,
                wall.reciprocal(packets * reference),
            ),
            Metric::new(
                END_TO_END[2].0,
                END_TO_END[2].1,
                Summary::min_of(&untraced.fit_ns_per_term),
            ),
            Metric::new(END_TO_END[3].0, END_TO_END[3].1, Summary::one(peak)),
        ]
    };
    drop(work);
    let all_agree = !digests.is_empty() && digests.iter().all(|&d| d == digests[0]);
    Ok(Report {
        workload: name,
        seed: spec.seed,
        trace,
        tally,
        metrics,
        digest: all_agree.then(|| digests[0]),
        spans_file,
    })
}

/// Print a report's metrics and accounting, one line each.
pub fn print(report: &Report) {
    for m in &report.metrics {
        let s = m.summary;
        eprintln!(
            "  {:<32} {:>14.6} {:<6} (q1 {:.6}, q3 {:.6}, n {})",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    let t = &report.tally;
    eprintln!(
        "  operations: {} attempted, {} failed (fail_ratio {}); checks: {}",
        t.attempted,
        t.failed,
        t.fail_ratio(),
        if t.correct() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", t.broken.len())
        }
    );
    if let Some(path) = &report.spans_file {
        eprintln!("  spans written to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Kind, Size};

    /// Small enough for a unit test; 16 windows split evenly over every
    /// plan's shards.
    const TINY: Size = Size {
        nodes: 2_000,
        n_v: 500,
        windows: 16,
    };

    #[test]
    fn every_workload_runs_correctly_at_a_tiny_size() {
        let mut digests = Vec::new();
        for kind in Kind::ALL {
            let report = run(&Spec::new(kind, TINY, 3), 0.0, false).expect("run completes");
            assert!(
                report.tally.correct(),
                "{}: {:?}",
                kind.name(),
                report.tally.broken
            );
            assert_eq!(report.tally.failed, 0, "{}", kind.name());
            assert!(report.tally.attempted > 0);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|(n, _)| n));
            assert!(report.metrics.iter().all(|m| m.summary.median > 0.0));
            digests.push((kind, report.digest.expect("samples agree")));
        }
        let shared: Vec<u32> = digests
            .iter()
            .filter(|(k, _)| matches!(k, Kind::Simulate | Kind::Serve | Kind::Dispatch))
            .map(|&(_, d)| d)
            .collect();
        assert_eq!(shared.len(), 3);
        assert!(shared.iter().all(|&d| d == shared[0]), "{digests:x?}");
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let report = run(&Spec::new(Kind::Narrow, TINY, 3), 0.0, true).expect("run completes");
        assert!(report.tally.correct(), "{:?}", report.tally.broken);
        assert_eq!(report.tally.failed, 0);
        let listed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, PER_LAYER);
        assert!(report.metrics.iter().all(|m| m.summary.median.is_finite()));
        let spans = report.spans_file.expect("spans written");
        let text = std::fs::read_to_string(&spans).expect("spans file");
        assert!(text.lines().all(|l| Json::parse(l).is_ok()));
        assert!(text.contains("\"shard_capture\""));
        let _ = std::fs::remove_file(spans);
    }
}
