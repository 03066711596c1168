//! E-PERF — pipeline throughput at paper scale.
//!
//! The paper's methodology runs "over a wide range of windows from
//! N_V = 100,000 to N_V = 100,000,000". This experiment demonstrates
//! the substrate holds up at the 10⁷-packet scale on one machine: the
//! COO → CSR window build, Table-I aggregation and the five Figure-1
//! quantities, with throughput in packets/second, then the capture
//! engine at 1 vs N threads with bit-identical pooled results, timed
//! over alternating repetitions.

use palu_bench::record_json;
use palu_cli::commands::metrics_json;
use palu_cli::json::JsonValue;
use palu_sparse::aggregates::Aggregates;
use palu_sparse::coo::CooMatrix;
use palu_sparse::quantities::QuantityHistograms;
use palu_traffic::metrics::Metrics;
use palu_traffic::pipeline::{default_threads, Measurement, Pipeline, PooledDistribution};
use palu_traffic::{FailurePolicy, MetricsSnapshot};
use std::time::Instant;

/// Alternating runs per side of the 1-vs-N-thread engine comparison.
const PIPELINE_REPS: usize = 7;

/// Median and quartiles of repeated wall times, in seconds.
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// The spread of `samples` (sorted in place; at least one).
    fn of(samples: &mut [f64]) -> Spread {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    fn show(&self) -> String {
        format!("{:.3}s (q1 {:.3}, q3 {:.3})", self.median, self.q1, self.q3)
    }

    fn json(&self) -> JsonValue {
        JsonValue::obj([
            ("median", self.median.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
        ])
    }
}

/// Run the full multi-window pipeline (synthesize → histogram → bin →
/// merge) over `windows` consecutive windows with the given
/// thread count, returning the pooled result plus wall time and the
/// per-stage metrics snapshot.
fn run_pipeline(windows: usize, threads: usize) -> (PooledDistribution, f64, MetricsSnapshot) {
    // A fixed mid-size scenario (first Figure-3 panel, shrunk N_V so
    // the 1-thread baseline stays cheap) re-seeded identically per run:
    // every thread count sees the same window indices and must agree
    // bit-for-bit.
    let mut scenario = palu_bench::fig3_scenarios().remove(0);
    scenario.n_v = 20_000;
    scenario.windows = windows;
    let mut obs = scenario.observatory(20260807);
    let metrics = Metrics::new();
    let t0 = Instant::now();
    let pooled = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        windows,
        threads,
        Some(&metrics),
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("clean capture")
    .pooled;
    (pooled, t0.elapsed().as_secs_f64(), metrics.snapshot())
}

fn main() {
    let n = 10_000_000usize;
    println!("E-PERF — window pipeline at N_V = {n} packets");

    // Synthesize a heavy-tailed packet stream cheaply (zeta-ish source
    // popularity via the multiplicative hash trick).
    let t0 = Instant::now();
    let mut x = 0x9E3779B97F4A7C15u64;
    let packets: Vec<(u32, u32)> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skew ids: low ids vastly more popular (supernode-ish).
            let a = ((x >> 33) as f64 / 2f64.powi(31)).powf(3.0);
            let b = ((x & 0xFFFF_FFFF) as f64 / 2f64.powi(32)).powf(3.0);
            ((a * 500_000.0) as u32, (b * 500_000.0) as u32)
        })
        .collect();
    println!("  synthesized in {:.2}s", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let window = CooMatrix::from_packet_pairs(packets.iter().copied()).to_csr();
    let build_s = t0.elapsed().as_secs_f64();
    println!(
        "  CSR build:       {build_s:.2}s ({:.1} Mpkt/s)",
        n as f64 / build_s / 1e6
    );

    let t0 = Instant::now();
    let agg = Aggregates::compute(&window);
    let aggregate_s = t0.elapsed().as_secs_f64();
    println!(
        "  Table-I aggregates in {aggregate_s:.3}s: N_V = {}, links = {}, sources = {}, dests = {}",
        agg.valid_packets, agg.unique_links, agg.unique_sources, agg.unique_destinations
    );
    assert_eq!(agg.valid_packets, n as u64);

    let t0 = Instant::now();
    let qs = QuantityHistograms::compute(&window);
    let quantities_s = t0.elapsed().as_secs_f64();
    println!("  five quantities in {quantities_s:.3}s");
    println!(
        "  source-packet d_max = {} (supernode), link-packet d_max = {}",
        qs.source_packets.d_max().unwrap_or(0),
        qs.link_packets.d_max().unwrap_or(0)
    );

    // Multi-window capture engine: 1 thread vs N threads end-to-end
    // (synthesize → histogram → bin → window-ordered merge), with
    // per-stage wall-times from the metrics instrumentation. One run is
    // 0.04–0.07 s of work, too short for one shot to tell the two apart,
    // so the sides alternate for `PIPELINE_REPS` runs each and a
    // speedup is claimed only when their quartiles do not overlap.
    let pipeline_windows = 64usize;
    let pipeline_threads = default_threads().max(2);
    let effective_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "  multi-window pipeline: {pipeline_windows} windows × N_V = 20000, \
         {PIPELINE_REPS} alternating runs per side, {effective_cores} effective core(s)"
    );
    let mut serial_s = Vec::with_capacity(PIPELINE_REPS);
    let mut parallel_s = Vec::with_capacity(PIPELINE_REPS);
    let mut pipeline_snap = None;
    for _ in 0..PIPELINE_REPS {
        let (pooled_serial, s1, _) = run_pipeline(pipeline_windows, 1);
        let (pooled_parallel, sn, snap) = run_pipeline(pipeline_windows, pipeline_threads);
        assert_eq!(
            pooled_serial.mean, pooled_parallel.mean,
            "parallel pipeline must be bit-identical to serial"
        );
        assert_eq!(pooled_serial.sigma, pooled_parallel.sigma);
        assert_eq!(pooled_serial.d_max, pooled_parallel.d_max);
        serial_s.push(s1);
        parallel_s.push(sn);
        pipeline_snap = Some(snap);
    }
    let pipeline_snap = pipeline_snap.expect("at least one repetition");
    let serial = Spread::of(&mut serial_s);
    let parallel = Spread::of(&mut parallel_s);
    // Separate quartiles: the faster side's slowest quarter still beats
    // the slower side's fastest quarter.
    let measurable = parallel.q3 < serial.q1 || serial.q3 < parallel.q1;
    let pipeline_speedup = measurable.then(|| serial.median / parallel.median.max(1e-9));
    let verdict = match pipeline_speedup {
        Some(x) => format!("measured speedup {x:.2}x"),
        None => "no measurable speedup (quartiles overlap)".to_string(),
    };
    println!(
        "    serial {}, {} threads {} → {verdict} (bit-identical)",
        serial.show(),
        pipeline_snap.threads,
        parallel.show()
    );
    for (name, ns) in pipeline_snap.stages() {
        println!(
            "    stage {name:<10} {:.3}s (last parallel run)",
            ns as f64 / 1e9
        );
    }

    record_json(
        "scale",
        &JsonValue::obj([
            ("n_packets", n.into()),
            ("build_s", build_s.into()),
            ("aggregate_s", aggregate_s.into()),
            ("quantities_s", quantities_s.into()),
            ("unique_links", agg.unique_links.into()),
            ("pipeline_windows", pipeline_windows.into()),
            ("pipeline_reps", PIPELINE_REPS.into()),
            ("effective_cores", effective_cores.into()),
            ("pipeline_serial_s", serial.json()),
            ("pipeline_parallel_s", parallel.json()),
            (
                "pipeline_speedup",
                pipeline_speedup.map_or(JsonValue::Null, JsonValue::from),
            ),
            ("pipeline_verdict", verdict.into()),
            ("pipeline_metrics", metrics_json(&pipeline_snap)),
        ]),
    );
}
