//! Tier-1 contract for the durable capture journal (DESIGN.md §4f):
//! crash-equivalence under a kill-point sweep.
//!
//! The guarantees under test:
//!
//! 1. **Every byte prefix is resumable** — a writer killed after any
//!    number of bytes leaves a journal that [`Journal::recover_bytes`]
//!    accepts: complete records replay byte-exactly, the torn tail is
//!    dropped and counted, and nothing panics or errors. The sweep is
//!    exhaustive over all prefix lengths of a 64-window capture.
//! 2. **Resume is bit-identical** — resuming a truncated journal and
//!    recomputing the complement reproduces the uninterrupted pooled
//!    `D(d_i)` bit for bit, at 1, 2, and 8 threads, whether the kill
//!    landed on a record boundary or mid-record.
//! 3. **Replay is accounted** — metrics report exactly the windows
//!    that were replayed rather than recomputed.

use palu_suite::prelude::*;

use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::{
    FailurePolicy, InjectionSpec, Injector, Journal, JournalHeader, Recovery, WindowEntry,
};

const WINDOWS: usize = 64;
const N_V: u64 = 200;
const SEED: u64 = 4242;
const INJECT_SEED: u64 = 7;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec!["test=journal-recovery".to_string()],
    )
}

fn observatory(gen: &PaluGenerator) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "journal-recovery test".to_string(),
            date: String::new(),
            n_v: N_V,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

fn generator() -> PaluGenerator {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(3_000)
        .unwrap()
}

/// One capture run. The injector plants deterministic duplicate
/// storms so the journal holds all three entry shapes: clean,
/// recovered (with a fault record), and quarantined (no result).
fn run(
    gen: &PaluGenerator,
    threads: usize,
    metrics: Option<&Metrics>,
    journal: Option<&Journal>,
    recovery: Option<&Recovery>,
) -> FaultTolerantPool {
    let mut obs = observatory(gen);
    let spec = InjectionSpec {
        duplicate: 0.2,
        ..InjectionSpec::none()
    };
    let injector = Injector::new(spec, INJECT_SEED);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        threads,
        metrics,
        &FailurePolicy::quarantine(1),
        Some(&injector),
        journal,
        recovery,
    )
    .expect("capture succeeds")
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

/// Byte offsets just past each complete record (the first is the end
/// of the header record). A cut at one of these is a clean kill; a cut
/// anywhere else leaves a torn tail.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off + 8 + len;
        if end > bytes.len() {
            break;
        }
        off = end;
        ends.push(end);
    }
    ends
}

/// The raw IEEE-754 bits behind an entry's replayable state, so that
/// the sweep compares *bit patterns*, not `f64` equality (which would
/// conflate `-0.0` with `0.0`).
fn result_bits(entry: &WindowEntry) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Some(r) = &entry.result {
        r.stats.encode_into(&mut buf);
        buf.extend_from_slice(&r.d_max.unwrap_or(u64::MAX).to_le_bytes());
        for (d, c) in r.histogram.iter() {
            buf.extend_from_slice(&d.to_le_bytes());
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// Capture the 64-window reference journal once, returning its raw
/// bytes and the uninterrupted pooled result.
fn reference_capture(gen: &PaluGenerator, dir: &std::path::Path) -> (Vec<u8>, FaultTolerantPool) {
    let path = dir.join("reference.journal");
    let journal = Journal::create(&path, header()).expect("journal create");
    let full = run(gen, 2, None, Some(&journal), None);
    drop(journal);
    let bytes = std::fs::read(&path).expect("journal readable");
    (bytes, full)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("palu-journal-recovery-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn every_byte_prefix_of_a_capture_stays_resumable() {
    let gen = generator();
    let dir = temp_dir("prefix-sweep");
    let (bytes, _full) = reference_capture(&gen, &dir);

    let reference = Journal::recover_bytes(&bytes, &header()).expect("full journal recovers");
    assert_eq!(reference.windows.len(), WINDOWS, "every window journaled");
    assert_eq!(reference.torn_bytes_dropped, 0);
    let reference_bits: std::collections::BTreeMap<u64, Vec<u8>> = reference
        .windows
        .iter()
        .map(|(&w, e)| (w, result_bits(e)))
        .collect();

    let boundaries = record_boundaries(&bytes);
    assert_eq!(
        boundaries.len(),
        WINDOWS + 1,
        "header + one record per window"
    );

    // The exhaustive kill-point sweep: every prefix length, including
    // 0 (nothing written) and cuts inside the header record.
    let mut complete = 0usize; // records fully inside the prefix
    for cut in 0..=bytes.len() {
        while complete < boundaries.len() && boundaries[complete] <= cut {
            complete += 1;
        }
        let last_end = if complete == 0 {
            0
        } else {
            boundaries[complete - 1]
        };
        let rec = Journal::recover_bytes(&bytes[..cut], &header())
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes must stay resumable: {e}"));
        assert_eq!(
            rec.windows.len(),
            complete.saturating_sub(1),
            "complete window records in a {cut}-byte prefix"
        );
        assert_eq!(rec.bytes_replayed, last_end as u64, "cut at {cut}");
        assert_eq!(
            rec.torn_bytes_dropped,
            (cut - last_end) as u64,
            "cut at {cut}"
        );
        assert_eq!(
            rec.torn_records_dropped,
            u64::from(cut != last_end),
            "cut at {cut}"
        );
        // Replayed state only changes when a record boundary is
        // crossed; the parse is deterministic, so checking content at
        // the boundary cuts pins it for every cut in between.
        if cut == last_end {
            for (w, entry) in &rec.windows {
                let want = &reference.windows[w];
                assert_eq!(entry, want, "window {w} entry at cut {cut}");
                assert_eq!(
                    result_bits(entry),
                    reference_bits[w],
                    "window {w} replayed bits at cut {cut}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_bit_identical_at_every_record_boundary() {
    let gen = generator();
    let dir = temp_dir("boundary-resume");
    let (bytes, full) = reference_capture(&gen, &dir);

    // The uninterrupted result itself is thread-count invariant.
    for threads in [1usize, 8] {
        let again = run(&gen, threads, None, None, None);
        assert_bit_identical(&again, &full, &format!("clean run at {threads} threads"));
    }

    let boundaries = record_boundaries(&bytes);
    let path = dir.join("cut.journal");
    // Every record boundary is a kill point; thread counts rotate so
    // the full sweep covers 1, 2, and 8 without tripling the runtime.
    // A handful of cuts additionally run at all three counts.
    let all_threads_at = [0usize, 1, 31, 63, 64];
    for (k, &cut) in boundaries.iter().enumerate() {
        let thread_counts: &[usize] = if all_threads_at.contains(&k) {
            &[1, 2, 8]
        } else {
            &[[1usize, 2, 8][k % 3]]
        };
        for &threads in thread_counts {
            std::fs::write(&path, &bytes[..cut]).expect("write truncated journal");
            let (journal, recovery) =
                Journal::resume(&path, header()).expect("boundary cut resumes");
            assert_eq!(
                recovery.windows.len(),
                k,
                "replayed windows at boundary {k}"
            );
            assert_eq!(
                recovery.torn_records_dropped, 0,
                "boundary cut has no torn tail"
            );
            let metrics = Metrics::new();
            let resumed = run(
                &gen,
                threads,
                Some(&metrics),
                Some(&journal),
                Some(&recovery),
            );
            drop(journal);
            assert_bit_identical(
                &resumed,
                &full,
                &format!("resume at boundary {k}, {threads} threads"),
            );
            assert_eq!(metrics.snapshot().windows_recovered, k as u64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_bit_identical_after_mid_record_kills() {
    let gen = generator();
    let dir = temp_dir("torn-resume");
    let (bytes, full) = reference_capture(&gen, &dir);

    let boundaries = record_boundaries(&bytes);
    let path = dir.join("torn.journal");
    // Kill points inside a record: half-way into the record after each
    // sampled boundary, plus a cut leaving a single dangling byte.
    for (k, threads) in [(0usize, 1usize), (5, 2), (20, 8), (40, 1), (63, 2)] {
        let start = boundaries[k];
        let end = boundaries[k + 1];
        for cut in [start + (end - start) / 2, start + 1] {
            std::fs::write(&path, &bytes[..cut]).expect("write torn journal");
            let (journal, recovery) = Journal::resume(&path, header()).expect("torn cut resumes");
            assert_eq!(
                recovery.windows.len(),
                k,
                "complete records before the tear"
            );
            assert_eq!(
                recovery.torn_records_dropped, 1,
                "the torn record is dropped"
            );
            assert_eq!(recovery.torn_bytes_dropped, (cut - start) as u64);
            let resumed = run(&gen, threads, None, Some(&journal), Some(&recovery));
            // The resume compacted the tear away: a second resume of
            // the same file replays everything and drops nothing.
            drop(journal);
            let (journal2, recovery2) =
                Journal::resume(&path, header()).expect("compacted journal resumes");
            drop(journal2);
            assert_eq!(recovery2.windows.len(), WINDOWS);
            assert_eq!(recovery2.torn_records_dropped, 0);
            assert_bit_identical(
                &resumed,
                &full,
                &format!("torn resume after record {k}, {threads} threads"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal bytes of one capture of `gen` under `policy` at
/// `threads`, with the faults `spec` plants, and whether the capture
/// succeeded.
fn journal_bytes(
    gen: &PaluGenerator,
    dir: &std::path::Path,
    policy: &FailurePolicy,
    spec: InjectionSpec,
    threads: usize,
) -> (Vec<u8>, bool) {
    let path = dir.join(format!("threads-{threads}.journal"));
    let _ = std::fs::remove_file(&path);
    let journal = Journal::create(&path, header()).expect("journal create");
    let injector = Injector::new(spec, INJECT_SEED);
    let captured = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut observatory(gen),
        WINDOWS,
        threads,
        None,
        policy,
        Some(&injector),
        Some(&journal),
        None,
    );
    drop(journal);
    (
        std::fs::read(&path).expect("journal readable"),
        captured.is_ok(),
    )
}

#[test]
fn journal_bytes_are_identical_at_1_2_8_threads() {
    let gen = generator();
    let dir = temp_dir("thread-bytes");
    // Records land in window order whichever worker finishes first:
    // clean, recovered and quarantined windows under quarantine, around
    // the aborted windows a strict policy never journals, and past
    // windows that sleep 30 ms (no deadline is armed, so they succeed)
    // while the other workers run as far ahead as they may.
    let storms = InjectionSpec {
        duplicate: 0.2,
        ..InjectionSpec::none()
    };
    let stalls = InjectionSpec {
        stall: 0.05,
        ..InjectionSpec::none()
    };
    for (policy, spec, ok) in [
        (FailurePolicy::quarantine(1), storms, true),
        (FailurePolicy::strict(), storms, false),
        (FailurePolicy::strict(), stalls, true),
    ] {
        let what = format!("{policy:?}, {spec:?}");
        let (serial, captured) = journal_bytes(&gen, &dir, &policy, spec, 1);
        assert_eq!(captured, ok, "{what}");
        let records = record_boundaries(&serial).len() - 1;
        assert!(ok == (records == WINDOWS), "{what}: {records} records");
        for threads in [2, 8, 2, 8] {
            let (bytes, _) = journal_bytes(&gen, &dir, &policy, spec, threads);
            assert!(bytes == serial, "{what}: {threads} threads");
        }
    }
    // A resumed capture appends the complement in window order too, so
    // resuming at any thread count rewrites the uninterrupted bytes.
    let (bytes, _) = reference_capture(&gen, &dir);
    let boundaries = record_boundaries(&bytes);
    let path = dir.join("resumed.journal");
    for (k, threads) in [(1usize, 8usize), (17, 2), (40, 8)] {
        std::fs::write(&path, &bytes[..boundaries[k]]).expect("write cut journal");
        let (journal, recovery) = Journal::resume(&path, header()).expect("cut resumes");
        run(&gen, threads, None, Some(&journal), Some(&recovery));
        drop(journal);
        let resumed = std::fs::read(&path).expect("journal readable");
        assert!(
            resumed == bytes,
            "resume after record {k}, {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
