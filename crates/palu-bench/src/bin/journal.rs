//! E-JRNL — durable capture journal: overhead, replay speedup, and
//! crash-equivalence.
//!
//! The write-ahead journal (DESIGN.md §4f) must earn its keep twice
//! over: appending every completed window may not meaningfully slow a
//! capture down, and resuming from a torn journal must (a) replay the
//! completed prefix instead of recomputing it and (b) reproduce the
//! uninterrupted pooled result **bit-identically**. This binary
//! measures all three on a 48-window workload, simulating the crash by
//! chopping the journal to 2/3 of its length (mid-record, so torn-tail
//! handling is exercised too), and records `BENCH_journal.json`.

use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_traffic::journal::{Journal, JournalHeader};
use palu_traffic::metrics::Metrics;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline};
use palu_traffic::{FailurePolicy, MetricsSnapshot, Recovery};
use std::time::Instant;

const WINDOWS: usize = 48;
const N_V: u64 = 20_000;
const SEED: u64 = 20260807;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "bench=journal".to_string(),
            "measurement=undirected-degree".to_string(),
        ],
    )
}

fn run(
    journal: Option<&Journal>,
    recovery: Option<&Recovery>,
) -> (FaultTolerantPool, f64, MetricsSnapshot) {
    let mut scenario = palu_bench::fig3_scenarios().remove(0);
    scenario.n_v = N_V;
    scenario.windows = WINDOWS;
    let mut obs = scenario.observatory(SEED);
    let metrics = Metrics::new();
    let t0 = Instant::now();
    let ft = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        std::thread::available_parallelism().map_or(4, |p| p.get()),
        Some(&metrics),
        &FailurePolicy::strict(),
        None,
        journal,
        recovery,
    )
    .expect("bench capture succeeds");
    (ft, t0.elapsed().as_secs_f64(), metrics.snapshot())
}

fn assert_bit_identical(a: &FaultTolerantPool, b: &FaultTolerantPool, what: &str) {
    assert_eq!(a.pooled.windows, b.pooled.windows, "{what}");
    assert_eq!(a.pooled.d_max, b.pooled.d_max, "{what}");
    for (i, ((ga, wa), (gs, ws))) in a
        .pooled
        .mean
        .iter()
        .zip(b.pooled.mean.iter())
        .zip(a.pooled.sigma.iter().zip(b.pooled.sigma.iter()))
        .enumerate()
    {
        assert_eq!(ga.1.to_bits(), wa.1.to_bits(), "{what}: mean bin {i}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{what}: sigma bin {i}");
    }
}

fn main() {
    println!("E-JRNL — durable capture journal: overhead, replay speedup, crash-equivalence");
    println!("  workload: {WINDOWS} windows × N_V = {N_V}");

    let scratch = palu_bench::ScratchDir::new("palu-bench-journal").expect("bench temp dir");
    let path = scratch.path().join("capture.journal");

    // 1. Baseline: the same capture with no journal at all.
    let (baseline, base_s, _) = run(None, None);

    // 2. Durable capture: journal every completed window.
    let journal = Journal::create(&path, header()).expect("journal create");
    let (durable, durable_s, _) = run(Some(&journal), None);
    let journal_bytes = journal.appended_bytes();
    drop(journal);
    assert_bit_identical(&durable, &baseline, "durable vs baseline");
    let overhead = durable_s / base_s.max(1e-9) - 1.0;
    println!(
        "  durable capture: wall {durable_s:.2}s vs {base_s:.2}s baseline \
         ({:+.1}% overhead, {journal_bytes} journal bytes)",
        overhead * 100.0
    );

    // 3. Crash at ~2/3: chop the journal mid-record and resume.
    let bytes = std::fs::read(&path).expect("journal readable");
    let cut = bytes.len() * 2 / 3;
    std::fs::write(&path, &bytes[..cut]).expect("journal truncatable");
    let (resumed_journal, recovery) = Journal::resume(&path, header()).expect("journal resume");
    let replayed = recovery.windows.len();
    let torn = recovery.torn_records_dropped;
    let (resumed, resume_s, snap) = run(Some(&resumed_journal), Some(&recovery));
    drop(resumed_journal);
    assert_bit_identical(&resumed, &baseline, "resumed vs baseline");
    assert_eq!(snap.windows_recovered as usize, replayed);
    assert!(
        replayed > 0 && replayed < WINDOWS,
        "cut must land mid-capture"
    );
    assert_eq!(torn, 1, "a mid-record cut leaves exactly one torn record");
    let speedup = durable_s / resume_s.max(1e-9);
    println!(
        "  resume after kill at 2/3: replayed {replayed}/{WINDOWS} windows \
         ({} bytes, {torn} torn record dropped), wall {resume_s:.2}s → {speedup:.2}x \
         vs full durable capture",
        snap.journal_bytes_replayed
    );
    println!("crash-equivalence: resumed pooled distribution is bit-identical — OK");

    let snapshot = JsonValue::obj([
        ("windows", WINDOWS.into()),
        ("n_v", N_V.into()),
        ("baseline_wall_s", base_s.into()),
        ("durable_wall_s", durable_s.into()),
        ("journal_overhead_frac", overhead.into()),
        ("journal_bytes", journal_bytes.into()),
        ("resume_wall_s", resume_s.into()),
        ("resume_speedup", speedup.into()),
        ("windows_recovered", (replayed as u64).into()),
        ("bytes_replayed", snap.journal_bytes_replayed.into()),
        ("torn_records_dropped", torn.into()),
    ]);
    record_json("BENCH_journal", &snapshot);
}
