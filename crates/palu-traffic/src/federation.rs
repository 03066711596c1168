//! Federated observatories: fault-tolerant sharded capture with
//! hierarchical journal merge (DESIGN.md §4j).
//!
//! Real trunk measurement aggregates many sensors — the MAWI/CAIDA
//! methodology pools per-link collectors, and hypersparse traffic
//! analysis distributes capture across nodes under per-node
//! envelopes. This module generalizes the single-process pipeline the
//! same way: a capture of `W` windows is split by a [`ShardPlan`]
//! into `N` disjoint contiguous window ranges over the *same*
//! `SeedSequence`, each shard running the ordinary durable/governed
//! engine ([`capture_shard`]) with its own journal and budget, and
//! the shard journals are then merged hierarchically
//! ([`merge_shard_journals`]) through the exact window-ordered fold
//! the engines use internally.
//!
//! **Bit-identity.** Window `t`'s state is a pure function of the
//! capture identity (seed, `N_V`, fingerprinted parameters) — never
//! of which process computed it — and journal records round-trip
//! results as raw IEEE-754 bits. Folding the union of shard entries
//! in strict window order therefore replays the exact statement
//! sequence of a single-process merge, so a federated merge of clean
//! shards is **bit-identical to a single-process run** at any shard
//! and thread count.
//!
//! **Fault tolerance.** Shards die, stall, and corrupt
//! independently. Every way a shard can fail is a typed
//! [`ShardFault`]; a failed shard quarantines (its windows are folded
//! as [`FaultKind::ShardLost`] quarantine records, so the pooled
//! report recounts them exactly) while identity skew — a shard
//! journal captured under a different seed, version, or parameter
//! fingerprint — is a *hard refusal* ([`FederationError::IdentitySkew`]):
//! splicing incompatible captures would silently bias the fitted
//! exponents. The merge proceeds only while at least `min_coverage`
//! of the windows survive; below that it refuses with
//! [`FederationError::Coverage`]. Missing windows can instead be
//! *re-captured* deterministically (the same fresh-seed retry streams
//! as crash recovery) by supplying an observatory to
//! [`merge_shard_journals`], which recomputes exactly the complement
//! of the journaled union.

use crate::budget::Governor;
use crate::fault::{FailurePolicy, FaultKind, Injector, PipelineError, WindowOutcome};
use crate::journal::{Journal, JournalFault, JournalHeader, Recovery, WindowEntry};
use crate::metrics::{time_stage, Metrics, Stage};
use crate::observatory::Observatory;
use crate::pipeline::{FaultTolerantPool, Measurement, MergeAcc, Pipeline, WindowSlot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How a capture of `windows` windows is split across `shards`
/// cooperating processes: shard `i` owns a contiguous window range,
/// ranges are disjoint, and their union covers `0..windows` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    windows: u64,
    shards: u64,
}

impl ShardPlan {
    /// A balanced plan: every shard gets `windows / shards` windows
    /// and the first `windows % shards` shards get one extra.
    ///
    /// # Errors
    ///
    /// [`FederationError::BadPlan`] when `windows` or `shards` is
    /// zero, or there are more shards than windows (an empty shard
    /// could never journal anything and would always read as lost).
    pub fn new(windows: u64, shards: u64) -> Result<ShardPlan, FederationError> {
        if windows == 0 || shards == 0 || shards > windows {
            return Err(FederationError::BadPlan { windows, shards });
        }
        Ok(ShardPlan { windows, shards })
    }

    /// Total windows in the federated capture.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Number of shards the capture is split into.
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// The window range shard `shard` owns; `None` when the index is
    /// outside the plan.
    pub fn shard_range(&self, shard: u64) -> Option<ShardRange> {
        if shard >= self.shards {
            return None;
        }
        let base = self.windows / self.shards;
        let extra = self.windows % self.shards;
        let lo = shard * base + shard.min(extra);
        let len = base + u64::from(shard < extra);
        Some(ShardRange {
            shard,
            lo,
            hi: lo + len,
        })
    }

    /// Every shard's range, in shard order — the dispatcher iterates
    /// this to seed its lease table.
    pub fn ranges(&self) -> impl Iterator<Item = ShardRange> + '_ {
        (0..self.shards).filter_map(|shard| self.shard_range(shard))
    }
}

/// One shard's contiguous half-open window range `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// The owning shard's index.
    pub shard: u64,
    /// First window (inclusive).
    pub lo: u64,
    /// Past-the-end window (exclusive).
    pub hi: u64,
}

impl ShardRange {
    /// Number of windows in the range.
    pub fn window_count(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether window `t` belongs to this shard.
    pub fn owns(&self, t: u64) -> bool {
        (self.lo..self.hi).contains(&t)
    }
}

/// Every way one shard can fail without poisoning the merge. Each
/// variant carries exact window counts so the fault report's
/// arithmetic is checkable. Identity skew is deliberately *not* here
/// — it is a hard [`FederationError::IdentitySkew`] refusal, never a
/// quarantine.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFault {
    /// The shard's journal file could not be read at all (never
    /// started, died before the atomic header write, or the file was
    /// lost). The whole shard quarantines.
    MissingJournal {
        /// The failed shard.
        shard: u64,
        /// Path that could not be read.
        path: String,
        /// The OS error.
        message: String,
    },
    /// The shard's journal ends in a torn record — the signature of a
    /// mid-append kill. The intact prefix is merged; only the torn
    /// tail is dropped.
    TornTail {
        /// The killed shard.
        shard: u64,
        /// Torn records dropped (0 or 1 by journal construction).
        records_dropped: u64,
        /// Bytes dropped with the torn tail.
        bytes_dropped: u64,
    },
    /// The shard's journal is corrupt (checksum-failed record, not a
    /// journal, malformed body) — unlike a torn tail this cannot be
    /// crash residue, so nothing from the shard is trusted and the
    /// whole shard quarantines.
    Corrupt {
        /// The corrupt shard.
        shard: u64,
        /// The underlying typed journal refusal.
        fault: JournalFault,
    },
    /// The shard journaled windows outside its assigned range
    /// (overlap with a neighbor's range). The trespassing entries are
    /// dropped — each window is taken only from its owner, keeping
    /// the union deterministic.
    RangeViolation {
        /// The trespassing shard.
        shard: u64,
        /// How many out-of-range windows it journaled.
        windows: u64,
        /// The first out-of-range window index.
        first_window: u64,
    },
    /// The shard's journal is valid but covers fewer windows than its
    /// assigned range — it stalled or died mid-capture and was not
    /// re-captured.
    RangeGap {
        /// The incomplete shard.
        shard: u64,
        /// Assigned windows with no journaled entry.
        missing: u64,
    },
    /// The shard's own capture classified windows as stalled (the
    /// per-window deadline watchdog fired); surfaced per shard so a
    /// consistently slow sensor is visible in the roll-up.
    Stalled {
        /// The slow shard.
        shard: u64,
        /// Windows whose journaled fault record is `Stalled`.
        windows: u64,
    },
    /// Two *distinct* shard journals claim the identical journaled
    /// window span under the same capture fingerprint — a
    /// mis-specified shard list (e.g. a stale copy of the same shard
    /// submitted alongside a fresh one). Byte-identical duplicates are
    /// deduplicated silently instead; this fault is raised only when
    /// the contents disagree, and it is a hard
    /// [`FederationError::Overlap`] refusal, never a quarantine.
    OverlappingRange {
        /// The later of the two clashing shard-list positions.
        shard: u64,
        /// The earlier clashing shard-list position.
        other_shard: u64,
        /// First window of the contested span (inclusive).
        lo: u64,
        /// Last window of the contested span (inclusive).
        hi: u64,
    },
}

impl ShardFault {
    /// The shard this fault belongs to.
    pub fn shard(&self) -> u64 {
        match self {
            ShardFault::MissingJournal { shard, .. }
            | ShardFault::TornTail { shard, .. }
            | ShardFault::Corrupt { shard, .. }
            | ShardFault::RangeViolation { shard, .. }
            | ShardFault::RangeGap { shard, .. }
            | ShardFault::Stalled { shard, .. }
            | ShardFault::OverlappingRange { shard, .. } => *shard,
        }
    }

    /// Stable lowercase name, used as a JSON label.
    pub fn name(&self) -> &'static str {
        match self {
            ShardFault::MissingJournal { .. } => "missing_journal",
            ShardFault::TornTail { .. } => "torn_tail",
            ShardFault::Corrupt { .. } => "corrupt",
            ShardFault::RangeViolation { .. } => "range_violation",
            ShardFault::RangeGap { .. } => "range_gap",
            ShardFault::Stalled { .. } => "stalled",
            ShardFault::OverlappingRange { .. } => "overlapping_range",
        }
    }
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFault::MissingJournal {
                shard,
                path,
                message,
            } => write!(f, "shard {shard}: journal {path} unreadable: {message}"),
            ShardFault::TornTail {
                shard,
                records_dropped,
                bytes_dropped,
            } => write!(
                f,
                "shard {shard}: torn tail ({records_dropped} record(s), \
                 {bytes_dropped} byte(s) dropped)"
            ),
            ShardFault::Corrupt { shard, fault } => {
                write!(f, "shard {shard}: corrupt journal: {fault}")
            }
            ShardFault::RangeViolation {
                shard,
                windows,
                first_window,
            } => write!(
                f,
                "shard {shard}: {windows} window(s) outside its assigned range \
                 (first: window {first_window}) — dropped"
            ),
            ShardFault::RangeGap { shard, missing } => {
                write!(
                    f,
                    "shard {shard}: {missing} assigned window(s) not journaled"
                )
            }
            ShardFault::Stalled { shard, windows } => {
                write!(
                    f,
                    "shard {shard}: {windows} window(s) hit the stall deadline"
                )
            }
            ShardFault::OverlappingRange {
                shard,
                other_shard,
                lo,
                hi,
            } => write!(
                f,
                "shard-list entries {other_shard} and {shard} both journal windows \
                 [{lo}, {hi}] with differing contents — overlapping shard ranges, \
                 refusing to merge an ambiguous shard list"
            ),
        }
    }
}

impl std::error::Error for ShardFault {}

/// Typed federation failure taxonomy: what can stop a sharded
/// capture or a merge outright (shard-local trouble becomes a
/// [`ShardFault`] instead).
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// The shard plan is not satisfiable (zero windows/shards, or
    /// more shards than windows).
    BadPlan {
        /// Requested total windows.
        windows: u64,
        /// Requested shard count.
        shards: u64,
    },
    /// A shard index outside the plan was addressed.
    BadShardIndex {
        /// The out-of-range index.
        shard: u64,
        /// Shards in the plan.
        shards: u64,
    },
    /// `min_coverage` outside `[0, 1]` (or NaN).
    BadCoverage {
        /// The rejected threshold.
        min_coverage: f64,
    },
    /// A merge was requested with no shard journals at all.
    NoJournals,
    /// A shard journal's identity (seed, version, or parameter
    /// fingerprint) does not match the merge's expected header. Hard
    /// refusal: splicing incompatible captures would bias the pooled
    /// fit, so no quarantine/coverage machinery applies.
    IdentitySkew {
        /// The skewed shard.
        shard: u64,
        /// The underlying typed journal refusal (a fingerprint skew
        /// names the exact parameter that differed).
        fault: JournalFault,
    },
    /// Fewer windows were accounted for (journaled by a surviving
    /// shard or re-captured) than the coverage threshold tolerates.
    Coverage {
        /// Windows with a known outcome.
        covered: u64,
        /// Total windows in the plan.
        windows: u64,
        /// The minimum surviving fraction required.
        min_coverage: f64,
    },
    /// Two distinct shard journals claim the identical window span
    /// (see [`ShardFault::OverlappingRange`]). The shard list is
    /// ambiguous, so the merge refuses outright.
    Overlap(ShardFault),
    /// The underlying capture/merge pipeline failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::BadPlan { windows, shards } => write!(
                f,
                "unsatisfiable shard plan: {shards} shard(s) over {windows} window(s)"
            ),
            FederationError::BadShardIndex { shard, shards } => {
                write!(f, "shard index {shard} outside a {shards}-shard plan")
            }
            FederationError::BadCoverage { min_coverage } => {
                write!(f, "min coverage {min_coverage} outside [0, 1]")
            }
            FederationError::NoJournals => write!(f, "no shard journals to merge"),
            FederationError::IdentitySkew { shard, fault } => {
                write!(f, "shard {shard}: identity skew — {fault}")
            }
            FederationError::Coverage {
                covered,
                windows,
                min_coverage,
            } => write!(
                f,
                "coverage below threshold: {covered}/{windows} window(s) accounted for, \
                 minimum coverage is {min_coverage} — refusing to pool an \
                 unrepresentative capture"
            ),
            FederationError::Overlap(fault) => write!(f, "{fault}"),
            FederationError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<PipelineError> for FederationError {
    fn from(e: PipelineError) -> Self {
        FederationError::Pipeline(e)
    }
}

/// Per-shard accounting in the merge roll-up. All counts are in
/// windows; `journaled = accepted + out-of-range drops`, and
/// `accepted + missing` equals the shard's assigned range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u64,
    /// First assigned window (inclusive).
    pub lo: u64,
    /// Past-the-end assigned window (exclusive).
    pub hi: u64,
    /// Entries found in the shard's journal.
    pub journaled: u64,
    /// In-range entries merged.
    pub accepted: u64,
    /// Accepted entries carrying a result.
    pub survivors: u64,
    /// Accepted entries quarantined at capture time.
    pub quarantined: u64,
    /// Faults injected into the shard's attempts (from its entries).
    pub injected: u64,
    /// Retries the shard's windows consumed.
    pub retries: u64,
    /// Accepted entries whose fault record is `Stalled`.
    pub stalled: u64,
    /// Assigned windows with no accepted entry.
    pub missing: u64,
    /// Torn records dropped from the journal tail.
    pub torn_records_dropped: u64,
    /// Bytes dropped with the shard's torn tail.
    pub torn_bytes_dropped: u64,
    /// Whether the whole shard quarantined (missing or corrupt
    /// journal: nothing from it was merged).
    pub quarantined_shard: bool,
}

/// The federation-level roll-up accompanying a merged pool: shard
/// reports, the typed fault list, and the coverage arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// Total windows in the plan.
    pub windows: u64,
    /// Windows with an accepted journal entry across all shards.
    pub covered: u64,
    /// Windows no surviving shard delivered (`windows - covered`).
    pub missing: u64,
    /// Missing windows recomputed by the re-capture path (0 on a
    /// journal-only merge).
    pub recaptured: u64,
    /// Windows contributing results to the pooled output.
    pub survivors: u64,
    /// The coverage threshold the merge was held to.
    pub min_coverage: f64,
    /// Rounds of pairwise journal union (`ceil(log2(shards))`).
    pub merge_levels: u64,
    /// Byte-identical duplicate journals dropped by the exact-dup
    /// pass before planning (the same shard path listed twice).
    pub duplicates_removed: u64,
    /// Per-shard accounting, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Every typed shard fault observed, in shard order.
    pub faults: Vec<ShardFault>,
}

/// A federated merge's outcome: the pooled result (indistinguishable
/// from a single-process [`FaultTolerantPool`]) plus the federation
/// roll-up.
#[derive(Debug, Clone)]
pub struct FederatedMerge {
    /// The merged pool; bit-identical to a single-process run when
    /// every window survived.
    pub pool: FaultTolerantPool,
    /// Shard-level accounting and faults.
    pub federation: FederationReport,
}

/// Run one shard of a federated capture: seek the observatory to the
/// shard's range and drive the ordinary capture engine over
/// exactly that range. Window indices are *absolute*, so the shard's
/// journal carries the same header identity as a single-process
/// capture and a 1-shard capture is byte-compatible with `simulate`.
///
/// # Errors
///
/// [`FederationError::BadShardIndex`] for an index outside the plan,
/// [`FederationError::IdentitySkew`] when the supplied journal's
/// header disagrees with the plan's window count, and any
/// [`PipelineError`] from the underlying engine.
#[allow(clippy::too_many_arguments)]
pub fn capture_shard(
    measurement: Measurement,
    obs: &mut Observatory,
    plan: &ShardPlan,
    shard: u64,
    threads: usize,
    metrics: Option<&Metrics>,
    policy: &FailurePolicy,
    injector: Option<&Injector>,
    journal: Option<&Journal>,
    recovery: Option<&Recovery>,
    governor: Option<&Governor<'_>>,
) -> Result<FaultTolerantPool, FederationError> {
    let range = plan
        .shard_range(shard)
        .ok_or(FederationError::BadShardIndex {
            shard,
            shards: plan.shards,
        })?;
    if let Some(j) = journal {
        if j.header().windows != plan.windows {
            return Err(FederationError::IdentitySkew {
                shard,
                fault: JournalFault::ConfigMismatch {
                    field: "windows".to_string(),
                    journal: j.header().windows.to_string(),
                    run: plan.windows.to_string(),
                },
            });
        }
    }
    let n = usize::try_from(range.window_count()).map_err(|_| FederationError::BadPlan {
        windows: plan.windows,
        shards: plan.shards,
    })?;
    obs.seek(range.lo);
    Pipeline::pool_observatory_governed(
        measurement,
        obs,
        n,
        threads,
        metrics,
        policy,
        injector,
        journal,
        recovery,
        governor,
    )
    .map_err(FederationError::Pipeline)
}

/// One shard journal's scan outcome: the accepted in-range entries
/// plus the shard's accounting row.
struct ShardLoad {
    entries: BTreeMap<u64, WindowEntry>,
    report: ShardReport,
}

/// Classify one shard journal's pre-scanned recovery and keep only
/// the entries inside the shard's assigned range. Identity skew is
/// the only hard error; everything else degrades into
/// [`ShardFault`]s. The scan itself happens up front (see
/// [`scan_journals`]) so the duplicate/overlap pre-pass and the
/// per-shard load read each journal exactly once.
fn load_shard(
    path: &Path,
    recovered: Result<Recovery, JournalFault>,
    range: &ShardRange,
    faults: &mut Vec<ShardFault>,
) -> Result<ShardLoad, FederationError> {
    let shard = range.shard;
    let mut report = ShardReport {
        shard,
        lo: range.lo,
        hi: range.hi,
        ..ShardReport::default()
    };
    let recovery = match recovered {
        Ok(rec) => rec,
        Err(fault @ JournalFault::Io { .. }) => {
            let message = fault.to_string();
            faults.push(ShardFault::MissingJournal {
                shard,
                path: path.display().to_string(),
                message,
            });
            report.missing = range.window_count();
            report.quarantined_shard = true;
            return Ok(ShardLoad {
                entries: BTreeMap::new(),
                report,
            });
        }
        Err(
            fault @ (JournalFault::SeedMismatch { .. }
            | JournalFault::ConfigMismatch { .. }
            | JournalFault::VersionSkew { .. }),
        ) => {
            return Err(FederationError::IdentitySkew { shard, fault });
        }
        Err(fault) => {
            // NotAJournal / ChecksumMismatch / Malformed: corruption,
            // not crash residue — trust nothing from this shard.
            faults.push(ShardFault::Corrupt { shard, fault });
            report.missing = range.window_count();
            report.quarantined_shard = true;
            return Ok(ShardLoad {
                entries: BTreeMap::new(),
                report,
            });
        }
    };
    if recovery.torn_records_dropped > 0 {
        faults.push(ShardFault::TornTail {
            shard,
            records_dropped: recovery.torn_records_dropped,
            bytes_dropped: recovery.torn_bytes_dropped,
        });
        report.torn_records_dropped = recovery.torn_records_dropped;
        report.torn_bytes_dropped = recovery.torn_bytes_dropped;
    }
    report.journaled = recovery.windows.len() as u64;
    let mut entries = BTreeMap::new();
    let mut violations = 0u64;
    let mut first_violation = None;
    for (window, entry) in recovery.windows {
        if !range.owns(window) {
            violations += 1;
            if first_violation.is_none() {
                first_violation = Some(window);
            }
            continue;
        }
        report.accepted += 1;
        report.injected += entry.injected;
        report.retries += entry.retries;
        if entry.result.is_some() {
            report.survivors += 1;
        }
        if let Some(rec) = &entry.record {
            if rec.outcome == WindowOutcome::Quarantined {
                report.quarantined += 1;
            }
            if rec.kind == FaultKind::Stalled {
                report.stalled += 1;
            }
        }
        entries.insert(window, entry);
    }
    if let Some(first_window) = first_violation {
        faults.push(ShardFault::RangeViolation {
            shard,
            windows: violations,
            first_window,
        });
    }
    report.missing = range.window_count() - report.accepted;
    if report.missing > 0 {
        faults.push(ShardFault::RangeGap {
            shard,
            missing: report.missing,
        });
    }
    if report.stalled > 0 {
        faults.push(ShardFault::Stalled {
            shard,
            windows: report.stalled,
        });
    }
    Ok(ShardLoad { entries, report })
}

/// Pairwise hierarchical union of per-shard entry maps: each round
/// merges neighbors, halving the list, until one map remains.
/// Returns the union and the number of merge levels
/// (`ceil(log2(shards))`). Disjoint shard ranges make the union
/// conflict-free; `BTreeMap` keeps every round deterministically
/// window-ordered.
fn hierarchical_union(
    mut maps: Vec<BTreeMap<u64, WindowEntry>>,
) -> (BTreeMap<u64, WindowEntry>, u64) {
    let mut levels = 0u64;
    while maps.len() > 1 {
        levels += 1;
        let mut next = Vec::with_capacity(maps.len().div_ceil(2));
        let mut iter = maps.into_iter();
        while let Some(mut a) = iter.next() {
            if let Some(b) = iter.next() {
                a.extend(b);
            }
            next.push(a);
        }
        maps = next;
    }
    (maps.pop().unwrap_or_default(), levels)
}

/// Fold the merged entries through the engines' window-ordered merge
/// accumulator. Windows nobody delivered fold as synthetic
/// [`FaultKind::ShardLost`] quarantine records, so the pooled report
/// recounts lost windows through the exact same arithmetic as
/// capture-time quarantines. The quarantine gate is the merge's
/// `min_coverage` (checked by the caller), so the fold itself runs
/// under a fully permissive policy.
pub(crate) fn merge_entries(
    measurement: Measurement,
    n: usize,
    entries: &BTreeMap<u64, WindowEntry>,
    metrics: Option<&Metrics>,
) -> Result<FaultTolerantPool, FederationError> {
    let mut acc = MergeAcc::new(measurement, n);
    time_stage(metrics, Stage::Merge, || {
        for w in 0..n as u64 {
            match entries.get(&w) {
                Some(entry) => acc.fold(WindowSlot::from_entry(entry)),
                None => acc.fold(WindowSlot::shard_lost(w)),
            }
        }
    });
    acc.finish(&FailurePolicy::quarantine(0), n, metrics)
        .map_err(FederationError::Pipeline)
}

/// Whether `covered` out of `windows` meets the coverage threshold.
/// Mirrors [`FailurePolicy::overflows`]: the fraction is compared
/// directly (exact equality *passes*) so a merge sitting exactly on
/// the boundary is not refused by float rounding. Coverage counts
/// windows with a *known outcome* (journaled by a surviving shard or
/// re-captured) — a window the shard itself quarantined under its own
/// failure policy is accounted data, not federation loss.
pub(crate) fn covers(covered: u64, windows: u64, min_coverage: f64) -> bool {
    if windows == 0 {
        return true;
    }
    covered as f64 / windows as f64 >= min_coverage
}

/// One journal path's up-front scan: the raw read outcome plus the
/// recovered state, read exactly once and reused by both the
/// duplicate/overlap pre-pass and the per-shard load.
struct Scanned {
    path: PathBuf,
    recovered: Result<Recovery, JournalFault>,
}

/// Read and scan every journal path once, dropping byte-identical
/// duplicates (the same shard journal listed twice — previously
/// silently accepted, splitting the plan across two copies of one
/// range) and refusing *non*-identical journals that claim the same
/// journaled window span ([`ShardFault::OverlappingRange`]): same
/// span + same fingerprint but different bytes means a stale or
/// diverged copy, and merging either arbitrarily would be silent
/// data loss.
fn scan_journals(
    paths: &[PathBuf],
    expect: &JournalHeader,
) -> Result<(Vec<Scanned>, u64), FederationError> {
    let mut kept: Vec<(Option<Vec<u8>>, Scanned)> = Vec::with_capacity(paths.len());
    let mut duplicates_removed = 0u64;
    for path in paths {
        let blob = std::fs::read(path).map_err(|e| JournalFault::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        });
        match blob {
            Ok(bytes) => {
                if kept
                    .iter()
                    .any(|(b, _)| b.as_deref().is_some_and(|prev| prev == bytes.as_slice()))
                {
                    duplicates_removed += 1;
                    continue;
                }
                let recovered = Journal::recover_bytes(&bytes, expect);
                kept.push((
                    Some(bytes),
                    Scanned {
                        path: path.clone(),
                        recovered,
                    },
                ));
            }
            Err(fault) => kept.push((
                None,
                Scanned {
                    path: path.clone(),
                    recovered: Err(fault),
                },
            )),
        }
    }
    // Overlap refusal: two kept (hence non-identical) journals whose
    // journaled spans coincide exactly. Partial overlaps stay with
    // the tolerant RangeViolation path — a shard journaling a
    // neighbor's window is dropped entry-by-entry, not refused.
    let spans: Vec<Option<(u64, u64)>> = kept
        .iter()
        .map(|(_, s)| match &s.recovered {
            Ok(rec) => {
                let lo = rec.windows.keys().next().copied();
                let hi = rec.windows.keys().next_back().copied();
                lo.zip(hi)
            }
            Err(_) => None,
        })
        .collect();
    for (i, a) in spans.iter().enumerate() {
        let Some((lo, hi)) = a else { continue };
        for (j, b) in spans.iter().enumerate().skip(i + 1) {
            if b == a {
                return Err(FederationError::Overlap(ShardFault::OverlappingRange {
                    shard: j as u64,
                    other_shard: i as u64,
                    lo: *lo,
                    hi: *hi,
                }));
            }
        }
    }
    Ok((
        kept.into_iter().map(|(_, s)| s).collect(),
        duplicates_removed,
    ))
}

/// Merge `paths.len()` shard journals into one pooled result.
///
/// `paths[i]` is shard `i` of a balanced [`ShardPlan`] over
/// `expect.windows` windows (after the exact-duplicate pass: a
/// byte-identical journal listed twice counts once). Each journal is
/// scanned read-only ([`Journal::recover_bytes`]); shard failures
/// degrade into typed [`ShardFault`]s (the shard's windows quarantine
/// as [`FaultKind::ShardLost`]) while identity skew hard-refuses. With
/// `recapture` supplied, the missing windows are instead *recomputed*
/// deterministically by driving the durable engine over the full
/// range with the journaled union as recovery — only the complement
/// runs, and the result is bit-identical to an uninterrupted
/// single-process capture. The merge must end with at least
/// `min_coverage` of the windows surviving, else
/// [`FederationError::Coverage`].
///
/// # Errors
///
/// [`FederationError::NoJournals`] / [`FederationError::BadPlan`] /
/// [`FederationError::BadCoverage`] on unsatisfiable requests,
/// [`FederationError::IdentitySkew`] on any shard identity mismatch,
/// [`FederationError::Coverage`] below the threshold, and
/// [`FederationError::Pipeline`] from the re-capture engine.
#[allow(clippy::too_many_arguments)]
pub fn merge_shard_journals(
    measurement: Measurement,
    expect: &JournalHeader,
    paths: &[PathBuf],
    policy: &FailurePolicy,
    min_coverage: f64,
    threads: usize,
    injector: Option<&Injector>,
    recapture: Option<&mut Observatory>,
    metrics: Option<&Metrics>,
) -> Result<FederatedMerge, FederationError> {
    if paths.is_empty() {
        return Err(FederationError::NoJournals);
    }
    if !(0.0..=1.0).contains(&min_coverage) {
        return Err(FederationError::BadCoverage { min_coverage });
    }
    let (scanned, duplicates_removed) = scan_journals(paths, expect)?;
    if scanned.is_empty() {
        return Err(FederationError::NoJournals);
    }
    let plan = ShardPlan::new(expect.windows, scanned.len() as u64)?;
    let n = usize::try_from(expect.windows).map_err(|_| FederationError::BadPlan {
        windows: expect.windows,
        shards: plan.shards,
    })?;
    let mut faults = Vec::new();
    let mut shard_maps = Vec::with_capacity(scanned.len());
    let mut shard_reports = Vec::with_capacity(scanned.len());
    for (i, scan) in scanned.into_iter().enumerate() {
        let shard = i as u64;
        let range = plan
            .shard_range(shard)
            .ok_or(FederationError::BadShardIndex {
                shard,
                shards: plan.shards,
            })?;
        let load = load_shard(&scan.path, scan.recovered, &range, &mut faults)?;
        shard_maps.push(load.entries);
        shard_reports.push(load.report);
    }
    let (combined, merge_levels) = hierarchical_union(shard_maps);
    let covered = combined.len() as u64;
    let missing = expect.windows - covered;
    let (pool, recaptured) = match recapture {
        Some(obs) if missing > 0 => {
            // Re-capture exactly the complement: the union becomes a
            // recovery set and the ordinary durable engine recomputes
            // only the windows it does not cover, drawing from the
            // same per-(window, attempt) seed streams as the original
            // shards would have.
            let recovery = Recovery {
                windows: combined,
                bytes_replayed: 0,
                torn_bytes_dropped: 0,
                torn_records_dropped: 0,
            };
            obs.seek(0);
            let pool = Pipeline::pool_observatory_durable(
                measurement,
                obs,
                n,
                threads,
                metrics,
                policy,
                injector,
                None,
                Some(&recovery),
            )
            .map_err(FederationError::Pipeline)?;
            (pool, missing)
        }
        _ => (merge_entries(measurement, n, &combined, metrics)?, 0),
    };
    let known = covered + recaptured;
    if !covers(known, expect.windows, min_coverage) {
        return Err(FederationError::Coverage {
            covered: known,
            windows: expect.windows,
            min_coverage,
        });
    }
    let survivors = pool.report.survivors;
    Ok(FederatedMerge {
        pool,
        federation: FederationReport {
            windows: expect.windows,
            covered,
            missing,
            recaptured,
            survivors,
            min_coverage,
            merge_levels,
            duplicates_removed,
            shards: shard_reports,
            faults,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_stats::logbin::DifferentialCumulative;
    use palu_stats::summary::BinStats;

    fn plan(windows: u64, shards: u64) -> ShardPlan {
        ShardPlan::new(windows, shards).unwrap()
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for (windows, shards) in [(16u64, 4u64), (17, 4), (5, 5), (64, 3), (1, 1)] {
            let p = plan(windows, shards);
            let mut next = 0u64;
            for s in 0..shards {
                let r = p.shard_range(s).unwrap();
                assert_eq!(r.lo, next, "{windows}w/{shards}s shard {s}");
                assert!(r.hi > r.lo);
                next = r.hi;
            }
            assert_eq!(next, windows, "{windows}w/{shards}s covers all windows");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<u64> = (0..shards)
                .map(|s| p.shard_range(s).unwrap().window_count())
                .collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "{sizes:?}");
        }
        assert!(plan(16, 4).shard_range(4).is_none());
        assert!(ShardPlan::new(3, 4).is_err());
        assert!(ShardPlan::new(0, 1).is_err());
        assert!(ShardPlan::new(4, 0).is_err());
    }

    fn entry(window: u64) -> WindowEntry {
        let mut stats = BinStats::new();
        stats.push(&DifferentialCumulative::from_values(vec![0.5, 0.25, 0.25]));
        WindowEntry {
            window,
            injected: 0,
            retries: 0,
            record: None,
            result: Some(crate::journal::WindowResult {
                stats,
                d_max: Some(3 + window),
                histogram: palu_stats::histogram::DegreeHistogram::from_counts([
                    (1, 4),
                    (3 + window, 1),
                ]),
            }),
        }
    }

    fn header(windows: u64) -> JournalHeader {
        JournalHeader::with_params(5, 50, windows, vec!["lambda=2".to_string()])
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("palu-federation-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_shard(
        name: &str,
        h: &JournalHeader,
        windows: impl IntoIterator<Item = u64>,
    ) -> PathBuf {
        let path = temp_path(name);
        let j = Journal::create(&path, h.clone()).unwrap();
        for w in windows {
            j.append(&entry(w)).unwrap();
        }
        path
    }

    #[test]
    fn hierarchical_union_counts_levels() {
        let maps: Vec<BTreeMap<u64, WindowEntry>> = (0..4)
            .map(|s| {
                let mut m = BTreeMap::new();
                m.insert(s, entry(s));
                m
            })
            .collect();
        let (combined, levels) = hierarchical_union(maps);
        assert_eq!(combined.len(), 4);
        assert_eq!(levels, 2);
        let (single, levels) = hierarchical_union(vec![BTreeMap::new()]);
        assert!(single.is_empty());
        assert_eq!(levels, 0);
    }

    #[test]
    fn missing_shard_quarantines_and_coverage_gates() {
        let h = header(8);
        let a = write_shard("cov_a.journal", &h, 0..4);
        let missing = temp_path("cov_missing.journal");
        let _ = std::fs::remove_file(&missing);
        // Exactly at threshold: 4/8 survive, min 0.5 passes.
        let merged = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a.clone(), missing.clone()],
            &FailurePolicy::quarantine(0),
            0.5,
            1,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(merged.federation.covered, 4);
        assert_eq!(merged.federation.missing, 4);
        assert_eq!(merged.federation.survivors, 4);
        assert_eq!(merged.pool.report.quarantined, 4);
        assert!(merged
            .federation
            .faults
            .iter()
            .any(|f| matches!(f, ShardFault::MissingJournal { shard: 1, .. })));
        let lost: Vec<u64> = merged
            .pool
            .report
            .records
            .iter()
            .filter(|r| r.kind == FaultKind::ShardLost)
            .map(|r| r.window)
            .collect();
        assert_eq!(lost, vec![4, 5, 6, 7]);
        // One window above the surviving fraction refuses.
        let err = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a, missing],
            &FailurePolicy::quarantine(0),
            0.625,
            1,
            None,
            None,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FederationError::Coverage {
                    covered: 4,
                    windows: 8,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn identity_skew_is_a_hard_refusal() {
        let h = header(4);
        let skewed = JournalHeader::with_params(5, 50, 4, vec!["lambda=3".to_string()]);
        let a = write_shard("skew_a.journal", &h, 0..2);
        let b = write_shard("skew_b.journal", &skewed, 2..4);
        let err = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a, b],
            &FailurePolicy::quarantine(0),
            0.0,
            1,
            None,
            None,
            None,
        )
        .unwrap_err();
        match err {
            FederationError::IdentitySkew {
                shard: 1,
                fault:
                    JournalFault::ConfigMismatch {
                        field,
                        journal,
                        run,
                    },
            } => {
                assert_eq!(field, "lambda");
                assert_eq!(journal, "3");
                assert_eq!(run, "2");
            }
            other => panic!("expected identity skew naming lambda, got {other:?}"),
        }
    }

    #[test]
    fn range_violation_drops_trespassing_windows() {
        let h = header(8);
        // Shard 0 owns [0, 4) but journals window 5 as well.
        let a = write_shard("tres_a.journal", &h, vec![0, 1, 2, 3, 5]);
        let b = write_shard("tres_b.journal", &h, 4..8);
        let merged = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a, b],
            &FailurePolicy::quarantine(0),
            1.0,
            1,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(merged.federation.covered, 8);
        assert!(merged.federation.faults.iter().any(|f| matches!(
            f,
            ShardFault::RangeViolation {
                shard: 0,
                windows: 1,
                first_window: 5
            }
        )));
        assert_eq!(merged.federation.shards[0].journaled, 5);
        assert_eq!(merged.federation.shards[0].accepted, 4);
    }

    #[test]
    fn duplicate_journal_paths_dedupe_exactly() {
        let h = header(8);
        let a = write_shard("dedupe_a.journal", &h, 0..4);
        let b = write_shard("dedupe_b.journal", &h, 4..8);
        // The same shard journal listed twice used to split the plan
        // across two copies of one range; the exact-duplicate pass
        // collapses it back to a clean 2-shard merge.
        let merged = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a.clone(), a.clone(), b],
            &FailurePolicy::quarantine(0),
            1.0,
            1,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(merged.federation.duplicates_removed, 1);
        assert_eq!(merged.federation.shards.len(), 2);
        assert_eq!(merged.federation.covered, 8);
        assert_eq!(merged.federation.missing, 0);
        assert!(merged.federation.faults.is_empty());
    }

    #[test]
    fn overlapping_non_identical_journals_refuse() {
        let h = header(8);
        let a = write_shard("overlap_a.journal", &h, 0..4);
        // A diverged copy of the same span: same windows, different
        // record contents (injected counter skewed).
        let path = temp_path("overlap_a_stale.journal");
        let j = Journal::create(&path, h.clone()).unwrap();
        for w in 0..4 {
            let mut e = entry(w);
            e.injected = 7;
            j.append(&e).unwrap();
        }
        let b = write_shard("overlap_b.journal", &h, 4..8);
        let err = merge_shard_journals(
            Measurement::UndirectedDegree,
            &h,
            &[a, path, b],
            &FailurePolicy::quarantine(0),
            0.0,
            1,
            None,
            None,
            None,
        )
        .unwrap_err();
        match err {
            FederationError::Overlap(ShardFault::OverlappingRange {
                shard,
                other_shard,
                lo,
                hi,
            }) => {
                assert_eq!((other_shard, shard), (0, 1));
                assert_eq!((lo, hi), (0, 3));
            }
            other => panic!("expected an overlapping-range refusal, got {other:?}"),
        }
    }

    #[test]
    fn bad_inputs_are_typed() {
        let h = header(4);
        assert!(matches!(
            merge_shard_journals(
                Measurement::UndirectedDegree,
                &h,
                &[],
                &FailurePolicy::quarantine(0),
                1.0,
                1,
                None,
                None,
                None,
            ),
            Err(FederationError::NoJournals)
        ));
        let a = write_shard("bad_a.journal", &h, 0..4);
        assert!(matches!(
            merge_shard_journals(
                Measurement::UndirectedDegree,
                &h,
                &[a],
                &FailurePolicy::quarantine(0),
                1.5,
                1,
                None,
                None,
                None,
            ),
            Err(FederationError::BadCoverage { .. })
        ));
    }
}
