//! E-FED — federated observatories: merge cost, re-capture overhead,
//! and single-process equivalence.
//!
//! The federation layer (DESIGN.md §4j) claims a sharded capture is
//! free at the output: merging N clean shard journals must reproduce
//! the single-process pooled distribution **bit-identically**, and the
//! merge itself must cost a small fraction of capture time. This
//! binary measures both on a 48-window workload split 4 ways, then
//! kills one shard at ~half its journal and measures the
//! re-capture-and-merge path against the uninterrupted baseline, and
//! records `BENCH_federation.json`.

use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_traffic::federation::{capture_shard, merge_shard_journals, ShardPlan};
use palu_traffic::journal::{Journal, JournalHeader};
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline};
use palu_traffic::FailurePolicy;
use std::path::PathBuf;
use std::time::Instant;

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
            "bench=federation".to_string(),
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

fn assert_bit_identical(a: &FaultTolerantPool, b: &FaultTolerantPool, what: &str) {
    assert_eq!(a.pooled.windows, b.pooled.windows, "{what}");
    assert_eq!(a.pooled.d_max, b.pooled.d_max, "{what}");
    assert_eq!(a.histogram, b.histogram, "{what}: merged histogram");
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

/// Capture shard `i` of the plan into its own journal, returning the
/// journal path and the shard's wall time.
fn run_shard(plan: &ShardPlan, shard: u64, dir: &std::path::Path) -> (PathBuf, f64) {
    let path = dir.join(format!("bench-shard-{shard}.journal"));
    let _ = std::fs::remove_file(&path);
    let journal = Journal::create(&path, header()).expect("shard journal create");
    let mut obs = observatory();
    let t0 = Instant::now();
    capture_shard(
        Measurement::UndirectedDegree,
        &mut obs,
        plan,
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
    (path, t0.elapsed().as_secs_f64())
}

fn merge(paths: &[PathBuf], recapture: bool) -> (palu_traffic::federation::FederatedMerge, f64) {
    let mut obs = if recapture { Some(observatory()) } else { None };
    let t0 = Instant::now();
    let merged = merge_shard_journals(
        Measurement::UndirectedDegree,
        &header(),
        paths,
        &FailurePolicy::strict(),
        0.0,
        threads(),
        None,
        obs.as_mut(),
        None,
    )
    .expect("merge succeeds");
    (merged, t0.elapsed().as_secs_f64())
}

fn main() {
    println!(
        "E-FED — federated observatories: merge cost and re-capture overhead vs single-process"
    );
    println!("  workload: {WINDOWS} windows × N_V = {N_V}, {SHARDS} shards");

    let scratch = palu_bench::ScratchDir::new("palu-bench-federation").expect("bench temp dir");
    let dir = scratch.path();

    // 1. Single-process baseline (durable engine, no journal).
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

    // 2. Shard the capture 4 ways (sequentially here; the per-shard
    //    max is what a real federation would pay in parallel).
    let plan = ShardPlan::new(WINDOWS as u64, SHARDS).expect("plan");
    let mut paths = Vec::new();
    let mut shard_total_s = 0.0f64;
    let mut shard_max_s = 0.0f64;
    for shard in 0..SHARDS {
        let (path, wall) = run_shard(&plan, shard, dir);
        paths.push(path);
        shard_total_s += wall;
        shard_max_s = shard_max_s.max(wall);
    }

    // 3. Pure hierarchical merge of the clean shard journals.
    let (clean, merge_s) = merge(&paths, false);
    assert_bit_identical(&clean.pool, &baseline, "federated merge vs single-process");
    assert_eq!(clean.federation.covered, WINDOWS as u64);
    assert_eq!(clean.federation.merge_levels, 2, "4 shards → 2 levels");
    let merge_frac = merge_s / base_s.max(1e-9);
    println!(
        "  capture: single-process {base_s:.2}s; shards {shard_total_s:.2}s total \
         ({shard_max_s:.2}s slowest)"
    );
    println!(
        "  clean merge: {merge_s:.4}s across {} level(s) — {:.1}% of capture time, bit-identical",
        clean.federation.merge_levels,
        merge_frac * 100.0
    );

    // 4. Kill one shard at ~half its journal; merge with deterministic
    //    re-capture of the gap.
    let victim = &paths[1];
    let bytes = std::fs::read(victim).expect("victim journal readable");
    std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("victim truncatable");
    let (healed, recapture_s) = merge(&paths, true);
    assert_bit_identical(
        &healed.pool,
        &baseline,
        "re-captured merge vs single-process",
    );
    let recaptured = healed.federation.recaptured;
    assert!(
        recaptured > 0 && recaptured < plan.shard_range(1).map_or(0, |r| r.window_count()) + 1,
        "kill must cost some but not all of shard 1's windows"
    );
    let recapture_frac = recapture_s / base_s.max(1e-9);
    println!(
        "  kill + re-capture: {recaptured} window(s) recomputed in {recapture_s:.2}s \
         ({:.1}% of a full capture), bit-identical",
        recapture_frac * 100.0
    );
    println!("single-process equivalence: federated pooled distribution is bit-identical — OK");

    let snapshot = JsonValue::obj([
        ("windows", WINDOWS.into()),
        ("n_v", N_V.into()),
        ("shards", SHARDS.into()),
        ("baseline_wall_s", base_s.into()),
        ("shard_total_wall_s", shard_total_s.into()),
        ("shard_max_wall_s", shard_max_s.into()),
        ("merge_wall_s", merge_s.into()),
        ("merge_frac_of_capture", merge_frac.into()),
        ("merge_levels", clean.federation.merge_levels.into()),
        ("recapture_wall_s", recapture_s.into()),
        ("recapture_frac_of_capture", recapture_frac.into()),
        ("windows_recaptured", recaptured.into()),
    ]);
    record_json("BENCH_federation", &snapshot);
}
