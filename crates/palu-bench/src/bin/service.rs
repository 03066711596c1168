//! E-SRV — federation service mode: submission throughput, fit-query
//! latency, and wire-fault retry overhead on a loopback server.
//!
//! The service layer (DESIGN.md §4k) claims the wire adds accounting,
//! not arithmetic: a fit served from submitted shard journals must be
//! bit-identical to the single-process pooled distribution, with
//! submission costing a small fraction of capture time even under an
//! injected wire-fault storm. This binary measures clean submission,
//! a 30% fault storm's retry overhead, and the rolling-fit query
//! latency, and records `BENCH_service.json`.

use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_traffic::federation::{capture_shard, ShardPlan};
use palu_traffic::journal::{Journal, JournalHeader};
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline};
use palu_traffic::service::{
    query_fit, request_shutdown, submit_journal, Collector, RetryPolicy, Server, ServiceConfig,
};
use palu_traffic::wire::FitSnapshot;
use palu_traffic::{FailurePolicy, WireInjector, WireSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WINDOWS: usize = 48;
const SHARDS: u64 = 4;
const N_V: u64 = 20_000;
const SEED: u64 = 20260809;
const FIT_QUERIES: usize = 32;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "bench=service".to_string(),
            "measurement=undirected-degree".to_string(),
        ],
    )
}

fn observatory() -> palu_traffic::Observatory {
    let mut scenario = palu_bench::fig3_scenarios().remove(0);
    scenario.n_v = N_V;
    scenario.windows = WINDOWS;
    scenario.observatory(SEED)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

fn assert_bit_identical(snap: &FitSnapshot, baseline: &FaultTolerantPool, what: &str) {
    assert_eq!(snap.covered, WINDOWS as u64, "{what}: coverage");
    assert_eq!(snap.pooled_windows, baseline.pooled.windows, "{what}");
    assert_eq!(snap.d_max, baseline.pooled.d_max, "{what}");
    for (i, (row, ((degree, mean), sigma))) in snap
        .rows
        .iter()
        .zip(
            baseline
                .pooled
                .mean
                .iter()
                .zip(baseline.pooled.sigma.iter()),
        )
        .enumerate()
    {
        assert_eq!(row.degree, degree, "{what}: degree bin {i}");
        assert_eq!(row.mean_bits, mean.to_bits(), "{what}: mean bin {i}");
        assert_eq!(row.sigma_bits, sigma.to_bits(), "{what}: sigma bin {i}");
    }
}

/// Start a loopback server over a fresh journal directory.
fn start_server(
    dir: &std::path::Path,
    tag: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<palu_traffic::ServiceReport, palu_traffic::ServiceFault>>,
) {
    let journal_dir = dir.join(format!("server-{tag}"));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let collector = Collector::new(ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: header(),
        shards: SHARDS,
        min_coverage: 1.0,
        journal_dir,
        read_timeout: Duration::from_secs(5),
    })
    .expect("collector");
    let server = Server::bind("127.0.0.1:0", collector).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Submit every shard journal, returning total wall time.
fn submit_all(addr: &str, paths: &[PathBuf], injector: &WireInjector, retry: &RetryPolicy) -> f64 {
    let t0 = Instant::now();
    for (shard, path) in paths.iter().enumerate() {
        let outcome = submit_journal(addr, path, shard as u64, SHARDS, &header(), retry, injector)
            .expect("submission converges");
        assert_eq!(outcome.accepted, outcome.assigned, "shard {shard} complete");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    println!("E-SRV — federation service: submission throughput, fit latency, wire-fault overhead");
    println!("  workload: {WINDOWS} windows × N_V = {N_V}, {SHARDS} shards over loopback TCP");

    let scratch = palu_bench::ScratchDir::new("palu-bench-service").expect("bench temp dir");
    let dir = scratch.path();

    // 1. Single-process baseline.
    let mut obs = observatory();
    let t0 = Instant::now();
    let baseline = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        threads(),
        None,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("baseline capture succeeds");
    let base_s = t0.elapsed().as_secs_f64();

    // 2. Capture the shard journals the clients will submit.
    let plan = ShardPlan::new(WINDOWS as u64, SHARDS).expect("plan");
    let mut paths = Vec::new();
    let mut capture_s = 0.0f64;
    for shard in 0..SHARDS {
        let path = dir.join(format!("bench-shard-{shard}.journal"));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, header()).expect("shard journal create");
        let mut obs = observatory();
        let t0 = Instant::now();
        capture_shard(
            Measurement::UndirectedDegree,
            &mut obs,
            &plan,
            shard,
            threads(),
            None,
            &FailurePolicy::strict(),
            None,
            Some(&journal),
            None,
            None,
        )
        .expect("shard capture succeeds");
        capture_s += t0.elapsed().as_secs_f64();
        paths.push(path);
    }
    let journal_bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();

    let retry = RetryPolicy::fast(SEED);

    // 3. Clean submission of all shards, then the fit-query loop.
    let (addr, handle) = start_server(dir, "clean");
    let clean_injector = WireInjector::new(WireSpec::none(), SEED);
    let submit_s = submit_all(&addr, &paths, &clean_injector, &retry);
    let t0 = Instant::now();
    let mut snap = query_fit(&addr, &retry).expect("fit");
    for _ in 1..FIT_QUERIES {
        snap = query_fit(&addr, &retry).expect("fit");
    }
    let fit_s = t0.elapsed().as_secs_f64() / FIT_QUERIES as f64;
    assert_bit_identical(&snap, &baseline, "served fit vs single-process");
    request_shutdown(&addr, &retry).expect("shutdown");
    let clean_report = handle.join().expect("server thread").expect("drain");
    assert_eq!(clean_report.covered, WINDOWS as u64);
    let submit_frac = submit_s / base_s.max(1e-9);
    println!(
        "  capture: single-process {base_s:.2}s; shards {capture_s:.2}s total \
         ({journal_bytes} journal bytes)"
    );
    println!(
        "  clean submission: {submit_s:.4}s for {SHARDS} shards — {:.1}% of capture time, \
         served fit bit-identical",
        submit_frac * 100.0
    );
    println!(
        "  rolling fit: {:.2} ms/query over {FIT_QUERIES} queries",
        fit_s * 1e3
    );

    // 4. The same submission under a 30% wire-fault storm: retries
    //    must converge to the identical fit; the overhead is the cost
    //    of crash tolerance on a hostile wire.
    let (addr, handle) = start_server(dir, "storm");
    let storm_injector = WireInjector::new(WireSpec::uniform(0.3), SEED + 1);
    let storm_retry = RetryPolicy {
        deadline: Duration::from_secs(120),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        io_timeout: Duration::from_secs(5),
        seed: SEED,
    };
    let storm_s = submit_all(&addr, &paths, &storm_injector, &storm_retry);
    let snap = query_fit(&addr, &retry).expect("fit under storm");
    assert_bit_identical(&snap, &baseline, "storm fit vs single-process");
    request_shutdown(&addr, &retry).expect("shutdown");
    let storm_report = handle.join().expect("server thread").expect("drain");
    assert_eq!(storm_report.covered, WINDOWS as u64);
    let storm_overhead = storm_s / submit_s.max(1e-9);
    println!(
        "  30% wire faults: {storm_s:.4}s ({storm_overhead:.1}× clean), {} refusal(s) typed, \
         fit still bit-identical",
        storm_report.rejected
    );
    println!("single-process equivalence: served fit is bit-identical — OK");

    let snapshot = JsonValue::obj([
        ("windows", WINDOWS.into()),
        ("n_v", N_V.into()),
        ("shards", SHARDS.into()),
        ("baseline_wall_s", base_s.into()),
        ("shard_capture_wall_s", capture_s.into()),
        ("journal_bytes", journal_bytes.into()),
        ("submit_wall_s", submit_s.into()),
        ("submit_frac_of_capture", submit_frac.into()),
        ("fit_query_ms", (fit_s * 1e3).into()),
        ("fit_queries", FIT_QUERIES.into()),
        ("storm_submit_wall_s", storm_s.into()),
        ("storm_overhead_x", storm_overhead.into()),
        ("storm_rejected", storm_report.rejected.into()),
        ("storm_duplicates", storm_report.duplicates.into()),
    ]);
    record_json("BENCH_service", &snapshot);
}
