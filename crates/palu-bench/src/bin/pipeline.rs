//! E-PIPE — parallel pipeline determinism, throughput, and scaling.
//!
//! The sharded multi-window pipeline's hard contract: for any thread
//! count, `Pipeline::pool_observatory_durable` produces a pooled
//! `D(d_i) ± σ(d_i)` **bit-identical** to the serial fold. This binary
//! checks that contract at 1, 2, and 8 threads on a 64-window workload
//! and records `BENCH_pipeline.json` with the per-stage wall-times,
//! packets/sec throughput, and speedups, so scaling is measured rather
//! than asserted.
//!
//! With `--gate` the binary additionally enforces the CI scaling
//! floor: the median 8-thread speedup must reach
//! `0.75 × min(threads, effective_cores)`. The floor is core-aware
//! because speedup is physically bounded by the cores actually
//! present — on an 8-core box the gate demands 6×, on a single-core
//! CI runner it only demands that parallel dispatch is not
//! pathologically slower than serial (the allocation-bound regression
//! this gate exists to catch showed 0.77× at 8 threads).
//!
//! A gated run prints its verdict and writes no file, so a CI run
//! leaves the committed `results/` untouched; a run without `--gate`
//! records the snapshot.
//!
//! The gate samples instead of shooting once: a 64-window run takes
//! about 0.05 s, so thread start-up and a neighbour's time slice
//! decided a one-shot ratio. It runs `GATE_WINDOWS` windows (about a
//! second serial), alternates `GATE_RUNS` serial and 8-thread runs,
//! checks every run bit-identical, and gates on the median of the
//! per-pair speedups, printing their quartiles and saying so when
//! they straddle the floor.

use palu_bench::{record_json, Spread};
use palu_cli::commands::metrics_json;
use palu_cli::json::JsonValue;
use palu_traffic::metrics::Metrics;
use palu_traffic::pipeline::{Measurement, Pipeline, PooledDistribution};
use palu_traffic::{FailurePolicy, MetricsSnapshot};
use std::time::Instant;

const WINDOWS: usize = 64;
/// Windows of the gated workload: about a second per serial run.
const GATE_WINDOWS: usize = 1536;
/// Alternating serial/gated-thread run pairs the gate takes.
const GATE_RUNS: usize = 7;
const N_V: u64 = 20_000;
const SEED: u64 = 20260807;
/// Required parallel efficiency at the gated thread count: speedup
/// must reach this fraction of the ideal `min(threads, cores)`.
const GATE_EFFICIENCY: f64 = 0.75;
/// The thread count the `--gate` mode enforces.
const GATE_THREADS: usize = 8;

/// Cores the scheduler will actually give us — the physical ceiling
/// on any speedup this process can observe.
fn effective_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The scaling floor for a run at `threads` on `cores` cores.
fn gate_threshold(threads: usize, cores: usize) -> f64 {
    GATE_EFFICIENCY * threads.min(cores) as f64
}

fn run(windows: usize, threads: usize) -> (PooledDistribution, f64, MetricsSnapshot) {
    // Identical scenario + seed per run: every thread count must see
    // the same per-window RNG streams and hence the same windows.
    let mut scenario = palu_bench::fig3_scenarios().remove(0);
    scenario.n_v = N_V;
    scenario.windows = windows;
    let mut obs = scenario.observatory(SEED);
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

/// Bit-identity: every pooled mean/σ value, the window count, and
/// d_max must match the serial reference exactly.
fn assert_identical(pooled: &PooledDistribution, reference: &PooledDistribution, threads: usize) {
    assert_eq!(pooled.windows, reference.windows, "threads = {threads}");
    assert_eq!(pooled.d_max, reference.d_max, "threads = {threads}");
    for (i, ((got, want), (gs, ws))) in pooled
        .mean
        .iter()
        .zip(reference.mean.iter())
        .zip(pooled.sigma.iter().zip(reference.sigma.iter()))
        .enumerate()
    {
        assert_eq!(
            got.1.to_bits(),
            want.1.to_bits(),
            "mean bin {i} differs at {threads} threads"
        );
        assert_eq!(
            gs.to_bits(),
            ws.to_bits(),
            "sigma bin {i} differs at {threads} threads"
        );
    }
}

/// The scaling gate's samples: `GATE_RUNS` alternating serial and
/// `GATE_THREADS` runs of the gated workload, each checked
/// bit-identical to the first serial run, as per-pair speedups.
fn gate_speedups() -> Vec<f64> {
    let mut reference = None;
    (0..GATE_RUNS)
        .map(|_| {
            let (serial, serial_s, _) = run(GATE_WINDOWS, 1);
            let reference = reference.get_or_insert(serial);
            let (pooled, wall_s, _) = run(GATE_WINDOWS, GATE_THREADS);
            assert_identical(&pooled, reference, GATE_THREADS);
            serial_s / wall_s.max(1e-9)
        })
        .collect()
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let cores = effective_cores();
    println!("E-PIPE — sharded multi-window pipeline: determinism + scaling");
    println!("  workload: {WINDOWS} windows × N_V = {N_V}, effective cores: {cores}");

    let (reference, serial_s, _) = run(WINDOWS, 1);
    let mut runs = Vec::new();
    for threads in [1usize, 2, GATE_THREADS] {
        let (pooled, wall_s, snap) = run(WINDOWS, threads);
        assert_identical(&pooled, &reference, threads);
        let stage_s = snap.total_ns() as f64 / 1e9;
        println!(
            "  threads = {threads}: bit-identical, wall {wall_s:.2}s, stage time {stage_s:.2}s, \
             {:.2}M packets/s, speedup vs serial {:.2}x",
            snap.packets_per_sec() / 1e6,
            serial_s / wall_s.max(1e-9)
        );
        runs.push((threads, wall_s, snap));
    }
    println!("determinism: pooled distribution is thread-count invariant — OK");

    if !gate {
        record_json(
            "BENCH_pipeline",
            &JsonValue::obj([
                ("windows", WINDOWS.into()),
                ("n_v", N_V.into()),
                ("serial_wall_s", serial_s.into()),
                ("effective_cores", cores.into()),
                (
                    "runs",
                    JsonValue::array(runs.iter().map(|&(threads, wall_s, ref snap)| {
                        JsonValue::obj([
                            ("threads", threads.into()),
                            ("wall_s", wall_s.into()),
                            ("speedup_vs_serial", (serial_s / wall_s.max(1e-9)).into()),
                            ("packets_per_sec", snap.packets_per_sec().into()),
                            ("metrics", metrics_json(snap)),
                        ])
                    })),
                ),
            ]),
        );
        return;
    }

    let threshold = gate_threshold(GATE_THREADS, cores);
    println!(
        "  scaling gate: {GATE_WINDOWS} windows × N_V = {N_V}, 1 vs {GATE_THREADS} threads, \
         {GATE_RUNS} alternating runs per side"
    );
    let s = Spread::of(&mut gate_speedups());
    println!(
        "scaling gate: {GATE_THREADS}-thread median speedup {} vs floor {threshold:.2}x \
         ({cores} core(s))",
        s.show("x")
    );
    if s.q1 < threshold && threshold <= s.q3 {
        println!(
            "scaling gate: the quartiles straddle the floor, so host load may have \
             decided this verdict"
        );
    }
    if s.median < threshold {
        eprintln!(
            "scaling gate FAILED: {GATE_THREADS}-thread median speedup {:.2}x \
             is below the {threshold:.2}x floor — the worker loop has \
             re-grown a serial bottleneck (allocator churn, lock, or \
             load imbalance)",
            s.median
        );
        std::process::exit(1);
    }
}
