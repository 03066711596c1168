//! E-DSP — federation dispatcher: lease-supervised capture throughput
//! and chaos-recovery overhead on a loopback dispatcher.
//!
//! The dispatcher (DESIGN.md §4l) claims supervision adds accounting,
//! not arithmetic: a fit assembled from lease-dispatched worker
//! captures must be bit-identical to the single-process pooled
//! distribution at any worker count, and a mid-capture worker kill
//! must cost one lease timeout — not the capture. This binary scales
//! the worker pool over a fixed shard plan, kills a worker mid-capture
//! to price deterministic re-dispatch, and records `BENCH_dispatch.json`.

use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_traffic::dispatch::{
    run_worker, DispatchConfig, DispatchReport, DispatchServer, Dispatcher, WorkPhase, WorkerConfig,
};
use palu_traffic::journal::JournalHeader;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline};
use palu_traffic::service::{query_fit, request_shutdown, Collector, RetryPolicy, ServiceConfig};
use palu_traffic::wire::FitSnapshot;
use palu_traffic::{FailurePolicy, ServiceFault, WireInjector, WireSpec};
use std::path::Path;
use std::time::{Duration, Instant};

const WINDOWS: usize = 48;
const SHARDS: u64 = 4;
const N_V: u64 = 20_000;
const SEED: u64 = 20260809;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "bench=dispatch".to_string(),
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

/// Start a lingering loopback dispatcher over a fresh journal
/// directory, so the fit can be queried after the plan completes.
fn start_dispatcher(
    dir: &Path,
    tag: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<DispatchReport, ServiceFault>>,
) {
    let journal_dir = dir.join(format!("dispatcher-{tag}"));
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
    let dispatcher = Dispatcher::new(
        collector,
        DispatchConfig {
            lease: Duration::from_millis(600),
            heartbeat: Duration::from_millis(120),
            linger: true,
            stall: None,
        },
    )
    .expect("dispatcher");
    let server = DispatchServer::bind("127.0.0.1:0", dispatcher).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Serve leases until the dispatcher reports the plan complete: the
/// worker captures each granted range into a local journal and
/// submits it through the collector path.
fn serve(addr: &str, worker: u64, dir: &Path, per_worker_threads: usize, chaos: Option<WorkPhase>) {
    let cfg = WorkerConfig {
        addr: addr.to_string(),
        worker,
        journal_dir: dir.to_path_buf(),
        expect: header(),
        retry: RetryPolicy::fast(SEED + worker),
        poll: Duration::from_millis(10),
    };
    let injector = WireInjector::new(WireSpec::none(), SEED + worker);
    // Built on the first grant, as `palu-cli work` does.
    let mut obs = None;
    let report = run_worker(
        &cfg,
        &injector,
        chaos,
        |ticket, journal, limit| {
            let obs = obs.get_or_insert_with(observatory);
            obs.seek(ticket.lo);
            let n = usize::try_from(limit.unwrap_or(ticket.hi - ticket.lo))
                .expect("window count fits usize");
            Pipeline::pool_observatory_durable(
                Measurement::UndirectedDegree,
                obs,
                n,
                per_worker_threads,
                None,
                &FailurePolicy::strict(),
                None,
                Some(journal),
                None,
            )
            .map(|_| ())
            .map_err(palu_traffic::FederationError::Pipeline)
        },
        |_| {},
    )
    .expect("worker serves to completion");
    if chaos.is_some() {
        assert_eq!(report.killed, chaos, "chaos worker dies on schedule");
    }
}

/// One supervised run: a dispatcher, `n_workers` clean workers (plus
/// an optional chaos casualty), wall time, and the dispatch report.
fn supervised_run(
    dir: &Path,
    tag: &str,
    n_workers: u64,
    chaos: Option<WorkPhase>,
    baseline: &FaultTolerantPool,
) -> (f64, DispatchReport) {
    let (addr, handle) = start_dispatcher(dir, tag);
    let worker_dir = dir.join(format!("workers-{tag}"));
    let _ = std::fs::remove_dir_all(&worker_dir);
    std::fs::create_dir_all(&worker_dir).expect("worker journal dir");
    let per_worker_threads = (threads() / n_workers.max(1) as usize).max(1);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // The casualty goes first so its lease is live when the clean
        // workers start competing for ranges.
        if let Some(phase) = chaos {
            serve(&addr, 100, &worker_dir, per_worker_threads, Some(phase));
        }
        for worker in 0..n_workers {
            let (addr, worker_dir) = (addr.clone(), worker_dir.clone());
            scope.spawn(move || serve(&addr, worker, &worker_dir, per_worker_threads, None));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let retry = RetryPolicy::fast(SEED);
    let snap = query_fit(&addr, &retry).expect("fit");
    assert_bit_identical(&snap, baseline, tag);
    request_shutdown(&addr, &retry).expect("shutdown");
    let report = handle.join().expect("dispatcher thread").expect("drain");
    assert_eq!(report.shards_done, SHARDS, "{tag}: plan complete");
    (wall_s, report)
}

fn run_json(tag: &str, workers: u64, wall_s: f64, report: &DispatchReport) -> JsonValue {
    JsonValue::obj([
        ("tag", tag.into()),
        ("workers", workers.into()),
        ("wall_s", wall_s.into()),
        ("leases_granted", report.leases_granted.into()),
        ("leases_expired", report.leases_expired.into()),
        ("leases_redispatched", report.leases_redispatched.into()),
        ("leases_fenced", report.leases_fenced.into()),
        ("heartbeats", report.heartbeats.into()),
    ])
}

fn main() {
    println!("E-DSP — federation dispatcher: lease-supervised capture, chaos-recovery overhead");
    println!("  workload: {WINDOWS} windows × N_V = {N_V}, {SHARDS} shards over loopback TCP");

    let scratch = palu_bench::ScratchDir::new("palu-bench-dispatch").expect("bench temp dir");
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
    println!("  capture: single-process {base_s:.2}s");

    // 2. Clean supervised runs at increasing worker counts: every fit
    //    must be bit-identical to the baseline; the delta over the
    //    single-process wall time is the full cost of supervision
    //    (leases, heartbeats, submission) at that parallelism.
    let mut runs = Vec::new();
    let mut clean_2worker_s = None;
    for n_workers in [1u64, 2, 4] {
        let tag = format!("clean-{n_workers}w");
        let (wall_s, report) = supervised_run(dir, &tag, n_workers, None, &baseline);
        assert_eq!(
            report.leases_expired, 0,
            "{tag}: no expiries on a clean run"
        );
        if n_workers == 2 {
            clean_2worker_s = Some(wall_s);
        }
        println!(
            "  {tag}: {wall_s:.2}s ({:.2}× single-process), {} leases, {} heartbeats, \
             fit bit-identical",
            wall_s / base_s.max(1e-9),
            report.leases_granted,
            report.heartbeats
        );
        runs.push(run_json(&tag, n_workers, wall_s, &report));
    }

    // 3. The chaos run: a worker is killed mid-capture with a lease
    //    outstanding; the surviving workers absorb its range via
    //    deterministic re-dispatch. The overhead over the clean run at
    //    the same worker count prices one lease timeout + recapture.
    let (chaos_s, chaos_report) = supervised_run(
        dir,
        "chaos-midcapture",
        2,
        Some(WorkPhase::MidCapture),
        &baseline,
    );
    assert!(
        chaos_report.leases_expired >= 1,
        "chaos: the dead lease expired"
    );
    assert!(
        chaos_report.leases_redispatched >= 1,
        "chaos: the orphaned range was re-dispatched"
    );
    let clean_s = clean_2worker_s.expect("2-worker clean run recorded");
    let recovery_overhead = chaos_s / clean_s.max(1e-9);
    println!(
        "  chaos (mid-capture kill, 2 survivors): {chaos_s:.2}s ({recovery_overhead:.2}× clean), \
         {} expiry, {} re-dispatch, fit still bit-identical",
        chaos_report.leases_expired, chaos_report.leases_redispatched
    );
    runs.push(run_json("chaos-midcapture", 2, chaos_s, &chaos_report));
    println!("single-process equivalence: every supervised fit is bit-identical — OK");

    let snapshot = JsonValue::obj([
        ("windows", WINDOWS.into()),
        ("n_v", N_V.into()),
        ("shards", SHARDS.into()),
        ("baseline_wall_s", base_s.into()),
        ("recovery_overhead_x", recovery_overhead.into()),
        ("runs", JsonValue::Array(runs)),
    ]);
    record_json("BENCH_dispatch", &snapshot);
}
