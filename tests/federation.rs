//! Tier-1 contract for federated observatories (DESIGN.md §4j):
//! sharded capture with hierarchical journal merge.
//!
//! The guarantees under test:
//!
//! 1. **Single-process equivalence** — merging N clean shard journals
//!    reproduces the uninterrupted single-process pooled `D(d_i)` bit
//!    for bit, across a 1/2/4-shard × 1/2/8-thread sweep, with fault
//!    injection active so every journal-entry shape is exercised.
//! 2. **Crash recovery composes** — a shard killed mid-capture
//!    (journal truncated mid-record, the SIGKILL signature) resumes
//!    through the ordinary journal machinery, and the merge of the
//!    healed shards is still bit-identical; alternatively the merge
//!    itself re-captures the windows of a torn or lost shard journal
//!    deterministically.
//! 3. **Quarantine boundaries are exact** — a merge exactly at
//!    `min_coverage` passes, one window below refuses with the typed
//!    survivor count, and a corrupted shard quarantines exactly its
//!    window range as `ShardLost` records.
//! 4. **Identity skew is a hard refusal** — a shard captured under a
//!    skewed parameter fingerprint names the parameter and never
//!    merges.

use palu_suite::prelude::*;

use palu_traffic::federation::{
    capture_shard, merge_shard_journals, FederatedMerge, FederationError, ShardFault, ShardPlan,
};
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::{
    FailurePolicy, FaultKind, InjectionSpec, Injector, Journal, JournalFault, JournalHeader,
};
use std::path::PathBuf;

const WINDOWS: usize = 24;
const N_V: u64 = 200;
const SEED: u64 = 777;
const INJECT_SEED: u64 = 11;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "test=federation".to_string(),
            "lambda=3".to_string(),
            "alpha=2".to_string(),
        ],
    )
}

fn generator() -> PaluGenerator {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(3_000)
        .unwrap()
}

fn observatory(gen: &PaluGenerator) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "federation test".to_string(),
            date: String::new(),
            n_v: N_V,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

/// The injector every capture path shares: deterministic duplicate
/// storms, so shard journals hold clean, recovered, and quarantined
/// entries alike. Faults derive from absolute window indices, so the
/// pattern is shard-split-invariant.
fn injector() -> Injector {
    let spec = InjectionSpec {
        duplicate: 0.2,
        ..InjectionSpec::none()
    };
    Injector::new(spec, INJECT_SEED)
}

fn policy() -> FailurePolicy {
    FailurePolicy::quarantine(1)
}

/// The uninterrupted single-process reference capture.
fn single_process(gen: &PaluGenerator, threads: usize) -> FaultTolerantPool {
    let mut obs = observatory(gen);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        threads,
        None,
        &policy(),
        Some(&injector()),
        None,
        None,
    )
    .expect("single-process capture succeeds")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("palu-federation-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Capture every shard of an `n_shards` plan into its own journal.
fn capture_all_shards(
    gen: &PaluGenerator,
    dir: &std::path::Path,
    n_shards: u64,
    threads: usize,
) -> Vec<PathBuf> {
    let plan = ShardPlan::new(WINDOWS as u64, n_shards).expect("plan");
    (0..n_shards)
        .map(|shard| {
            let path = dir.join(format!("shard-{n_shards}x-{shard}.journal"));
            let journal = Journal::create(&path, header()).expect("shard journal");
            let mut obs = observatory(gen);
            capture_shard(
                Measurement::UndirectedDegree,
                &mut obs,
                &plan,
                shard,
                threads,
                None,
                &policy(),
                Some(&injector()),
                Some(&journal),
                None,
                None,
            )
            .expect("shard capture succeeds");
            path
        })
        .collect()
}

fn merge(
    paths: &[PathBuf],
    min_coverage: f64,
    recapture: Option<&mut Observatory>,
) -> Result<FederatedMerge, FederationError> {
    merge_shard_journals(
        Measurement::UndirectedDegree,
        &header(),
        paths,
        &policy(),
        min_coverage,
        2,
        Some(&injector()),
        recapture,
        None,
    )
}

fn assert_bit_identical(a: &FaultTolerantPool, b: &FaultTolerantPool, what: &str) {
    assert_eq!(a.report, b.report, "{what}: fault report");
    assert_eq!(a.pooled.windows, b.pooled.windows, "{what}: window count");
    assert_eq!(a.pooled.d_max, b.pooled.d_max, "{what}: d_max");
    assert_eq!(a.histogram, b.histogram, "{what}: merged histogram");
    for (i, ((_, ma), (_, mb))) in a.pooled.mean.iter().zip(b.pooled.mean.iter()).enumerate() {
        assert_eq!(ma.to_bits(), mb.to_bits(), "{what}: mean bin {i}");
    }
    for (i, (sa, sb)) in a.pooled.sigma.iter().zip(b.pooled.sigma.iter()).enumerate() {
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: sigma bin {i}");
    }
}

#[test]
fn federated_merge_is_bit_identical_across_shard_and_thread_counts() {
    let gen = generator();
    let dir = temp_dir("sweep");
    let reference = single_process(&gen, 2);
    for n_shards in [1u64, 2, 4] {
        for threads in [1usize, 2, 8] {
            let paths = capture_all_shards(&gen, &dir, n_shards, threads);
            let merged = merge(&paths, 1.0, None)
                .unwrap_or_else(|e| panic!("{n_shards} shards @ {threads} threads: {e}"));
            assert_bit_identical(
                &merged.pool,
                &reference,
                &format!("{n_shards} shards @ {threads} threads vs single-process"),
            );
            assert_eq!(merged.federation.covered, WINDOWS as u64);
            assert_eq!(merged.federation.missing, 0);
            assert!(merged.federation.faults.is_empty(), "clean shards");
            // Hierarchical depth: ceil(log2(shards)).
            let expected_levels = match n_shards {
                1 => 0,
                2 => 1,
                _ => 2,
            };
            assert_eq!(merged.federation.merge_levels, expected_levels);
            for p in &paths {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

#[test]
fn killed_shard_resumes_and_merge_stays_bit_identical() {
    let gen = generator();
    let dir = temp_dir("sigkill");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 3, 2);

    // SIGKILL the middle shard: truncate its journal mid-record, the
    // only state a kill can leave (tier-1 journal contract).
    let victim = &paths[1];
    let bytes = std::fs::read(victim).expect("victim journal readable");
    assert!(bytes.len() > 64);
    std::fs::write(victim, &bytes[..bytes.len() * 2 / 3]).expect("truncate");

    // A straight merge sees the gap as a typed RangeGap + TornTail…
    let partial = merge(&paths, 0.0, None).expect("partial merge proceeds");
    assert!(partial.federation.missing > 0);
    assert!(partial
        .federation
        .faults
        .iter()
        .any(|f| matches!(f, ShardFault::TornTail { shard: 1, .. })));
    assert!(partial
        .federation
        .faults
        .iter()
        .any(|f| matches!(f, ShardFault::RangeGap { shard: 1, .. })));

    // …a re-capturing merge heals the torn journal in-merge, recomputing
    // only the windows lost with its tail (the scan is read-only, so
    // the journal is left for the resume below)…
    let plan = ShardPlan::new(WINDOWS as u64, 3).unwrap();
    let victim_windows = plan.shard_range(1).unwrap().window_count();
    let mut obs = observatory(&gen);
    let recaptured = merge(&paths, 1.0, Some(&mut obs)).expect("re-capturing merge");
    assert_bit_identical(
        &recaptured.pool,
        &reference,
        "re-captured torn shard vs single-process",
    );
    let redone = recaptured.federation.recaptured;
    assert!(
        redone > 0 && redone <= victim_windows,
        "the tear costs some of shard 1's {victim_windows} windows, not {redone}"
    );

    // …then the shard process restarts with --resume: the ordinary
    // journal recovery replays the intact prefix and re-captures only
    // the complement of its own range.
    let (journal, recovery) = Journal::resume(victim, header()).expect("shard resume");
    let mut obs = observatory(&gen);
    capture_shard(
        Measurement::UndirectedDegree,
        &mut obs,
        &plan,
        1,
        8,
        None,
        &policy(),
        Some(&injector()),
        Some(&journal),
        Some(&recovery),
        None,
    )
    .expect("shard re-capture succeeds");
    drop(journal);

    let healed = merge(&paths, 1.0, None).expect("healed merge");
    assert_bit_identical(&healed.pool, &reference, "healed merge vs single-process");
    assert_eq!(healed.federation.missing, 0);
}

#[test]
fn lost_shard_is_recaptured_deterministically_by_the_merge() {
    let gen = generator();
    let dir = temp_dir("recapture");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 4, 2);

    // Lose shard 2's journal entirely.
    let range = ShardPlan::new(WINDOWS as u64, 4)
        .unwrap()
        .shard_range(2)
        .unwrap();
    std::fs::remove_file(&paths[2]).expect("delete shard journal");

    let mut obs = observatory(&gen);
    let healed = merge(&paths, 1.0, Some(&mut obs)).expect("re-capturing merge");
    assert_bit_identical(
        &healed.pool,
        &reference,
        "re-captured merge vs single-process",
    );
    assert_eq!(healed.federation.recaptured, range.window_count());
    assert_eq!(healed.federation.missing, range.window_count());
    assert!(healed
        .federation
        .faults
        .iter()
        .any(|f| matches!(f, ShardFault::MissingJournal { shard: 2, .. })));
    assert!(healed.federation.shards[2].quarantined_shard);
}

#[test]
fn coverage_threshold_boundary_is_exact() {
    let gen = generator();
    let dir = temp_dir("coverage");
    let paths = capture_all_shards(&gen, &dir, 4, 2);
    std::fs::remove_file(&paths[3]).expect("delete shard journal");
    let lost = ShardPlan::new(WINDOWS as u64, 4)
        .unwrap()
        .shard_range(3)
        .unwrap()
        .window_count();
    // Coverage counts windows with a *known outcome* — shard-level
    // loss, not windows the capture itself quarantined under its own
    // failure policy — so with one of four shards gone the covered
    // fraction is exactly (WINDOWS - lost) / WINDOWS.
    let covered = WINDOWS as u64 - lost;
    let exact = covered as f64 / WINDOWS as f64;

    // Exactly at the covered fraction: passes.
    let at = merge(&paths, exact, None).expect("exactly-at-threshold merge passes");
    assert_eq!(at.federation.covered, covered);
    // Lost windows quarantine as ShardLost, recounted exactly.
    let shard_lost = at
        .pool
        .report
        .records
        .iter()
        .filter(|r| r.kind == FaultKind::ShardLost)
        .count() as u64;
    assert_eq!(shard_lost, lost, "one ShardLost record per lost window");

    // One window above the covered fraction: typed refusal.
    let above = (covered + 1) as f64 / WINDOWS as f64;
    match merge(&paths, above, None) {
        Err(FederationError::Coverage {
            covered: c,
            windows,
            min_coverage,
        }) => {
            assert_eq!(c, covered);
            assert_eq!(windows, WINDOWS as u64);
            assert!((min_coverage - above).abs() < 1e-12);
        }
        other => panic!("expected Coverage refusal, got {other:?}"),
    }
}

#[test]
fn corrupted_shard_quarantines_exactly_its_window_range() {
    let gen = generator();
    let dir = temp_dir("corrupt");
    let paths = capture_all_shards(&gen, &dir, 2, 2);
    let range = ShardPlan::new(WINDOWS as u64, 2)
        .unwrap()
        .shard_range(0)
        .unwrap();

    // Flip a payload byte mid-journal: a checksum failure, not a torn
    // tail, so nothing from the shard is trusted.
    let mut bytes = std::fs::read(&paths[0]).expect("journal readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&paths[0], &bytes).expect("writable");

    let merged = merge(&paths, 0.0, None).expect("merge proceeds under quarantine");
    assert!(merged
        .federation
        .faults
        .iter()
        .any(|f| matches!(f, ShardFault::Corrupt { shard: 0, .. })));
    assert!(merged.federation.shards[0].quarantined_shard);
    assert_eq!(merged.federation.shards[0].missing, range.window_count());
    let shard_lost: Vec<u64> = merged
        .pool
        .report
        .records
        .iter()
        .filter(|r| r.kind == FaultKind::ShardLost)
        .map(|r| r.window)
        .collect();
    assert_eq!(
        shard_lost,
        (range.lo..range.hi).collect::<Vec<u64>>(),
        "exactly the corrupt shard's windows quarantine as ShardLost"
    );
    // Quarantine count in the pooled report covers the lost shard's
    // windows plus the surviving shard's own capture-time quarantines.
    assert!(merged.pool.report.quarantined >= range.window_count());
}

#[test]
fn fingerprint_skew_is_refused_naming_the_parameter() {
    let gen = generator();
    let dir = temp_dir("skew");
    let paths = capture_all_shards(&gen, &dir, 2, 2);

    // Re-capture shard 1 under a skewed lambda manifest.
    let skewed = JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "test=federation".to_string(),
            "lambda=9".to_string(),
            "alpha=2".to_string(),
        ],
    );
    let plan = ShardPlan::new(WINDOWS as u64, 2).unwrap();
    let journal = Journal::create(&paths[1], skewed).expect("skewed journal");
    let mut obs = observatory(&gen);
    capture_shard(
        Measurement::UndirectedDegree,
        &mut obs,
        &plan,
        1,
        2,
        None,
        &policy(),
        Some(&injector()),
        Some(&journal),
        None,
        None,
    )
    .expect("skewed shard captures fine in isolation");
    drop(journal);

    match merge(&paths, 0.0, None) {
        Err(FederationError::IdentitySkew {
            shard: 1,
            fault:
                JournalFault::ConfigMismatch {
                    field,
                    journal,
                    run,
                },
        }) => {
            assert_eq!(field, "lambda");
            assert_eq!(journal, "9");
            assert_eq!(run, "3");
        }
        other => panic!("expected identity skew naming lambda, got {other:?}"),
    }
}
