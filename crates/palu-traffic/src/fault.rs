//! Typed failure taxonomy, failure policies, and the deterministic
//! fault injector for the measurement pipeline.
//!
//! A production trunk-line observatory loses windows: captures get
//! truncated, aggregation hits pathological inputs, workers die. The
//! pipeline's robustness contract (DESIGN.md §4e) is that a window
//! failure is a *data point*, not a crash: each window's
//! synthesize → histogram → bin stage is isolated, failures
//! are classified into a [`WindowFault`], retried against fresh
//! deterministic RNG sub-streams, and — under a permissive
//! [`FailurePolicy`] — quarantined without disturbing the bit-identical
//! window-ordered merge of the surviving set.
//!
//! The [`Injector`] closes the loop: it deterministically plants
//! faults (truncated windows, NaN histogram bins, duplicate-edge
//! storms, worker panics) at configurable rates so the recovery
//! machinery is exercised by tests and the CI smoke matrix, not just
//! by theory. Same `(spec, seed)` ⇒ the same faults in the same
//! windows, regardless of thread count.

use palu_stats::restart::RungTally;
use palu_stats::rng::{Rng, SeedSequence};

/// One classified per-window failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowFault {
    /// The window held fewer packets than its `N_V` budget.
    Truncated {
        /// The configured packet budget.
        expected: u64,
        /// Packets actually present.
        actual: u64,
    },
    /// The measurement histogram came back empty.
    EmptyHistogram,
    /// The histogram's support collapsed (e.g. a duplicate-edge storm
    /// crushed thousands of packets onto one conversation).
    Degenerate {
        /// Distinct degrees left in the histogram.
        support: u64,
    },
    /// A binned probability was NaN or infinite.
    NonFiniteBin {
        /// Index of the first offending bin.
        bin: usize,
    },
    /// More distinct host ids than `u32` can relabel.
    HostIdOverflow {
        /// Distinct ids encountered when the relabeling overflowed.
        distinct: u64,
    },
    /// The packet synthesizer has no conversations to draw from.
    EmptySynthesizer,
    /// The worker thread panicked; the payload's message is captured.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The attempt exceeded the policy's per-window wall-clock
    /// deadline (the stall watchdog; see DESIGN.md §4f).
    Stalled {
        /// Measured attempt duration in milliseconds.
        elapsed_ms: u64,
        /// The policy's deadline in milliseconds.
        deadline_ms: u64,
    },
    /// The configured window budget `N_V` does not fit in `usize` on
    /// this platform, so the synthesis buffer cannot be sized.
    BudgetUnrepresentable {
        /// The configured packet budget.
        n_v: u64,
    },
}

impl WindowFault {
    /// The payload-free classification of this fault.
    pub fn kind(&self) -> FaultKind {
        match self {
            WindowFault::Truncated { .. } => FaultKind::Truncated,
            WindowFault::EmptyHistogram => FaultKind::EmptyHistogram,
            WindowFault::Degenerate { .. } => FaultKind::Degenerate,
            WindowFault::NonFiniteBin { .. } => FaultKind::NonFiniteBin,
            WindowFault::HostIdOverflow { .. } => FaultKind::HostIdOverflow,
            WindowFault::EmptySynthesizer => FaultKind::EmptySynthesizer,
            WindowFault::Panic { .. } => FaultKind::Panic,
            WindowFault::Stalled { .. } => FaultKind::Stalled,
            WindowFault::BudgetUnrepresentable { .. } => FaultKind::BudgetUnrepresentable,
        }
    }
}

impl std::fmt::Display for WindowFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowFault::Truncated { expected, actual } => {
                write!(f, "truncated window: {actual} of {expected} packets")
            }
            WindowFault::EmptyHistogram => write!(f, "empty measurement histogram"),
            WindowFault::Degenerate { support } => {
                write!(f, "degenerate histogram: support collapsed to {support}")
            }
            WindowFault::NonFiniteBin { bin } => {
                write!(f, "non-finite probability in bin {bin}")
            }
            WindowFault::HostIdOverflow { distinct } => {
                write!(f, "more than u32::MAX distinct host ids ({distinct})")
            }
            WindowFault::EmptySynthesizer => {
                write!(f, "synthesizer has no conversations to draw from")
            }
            WindowFault::Panic { message } => write!(f, "worker panic: {message}"),
            WindowFault::Stalled {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "window stalled: attempt took {elapsed_ms} ms against a {deadline_ms} ms deadline"
            ),
            WindowFault::BudgetUnrepresentable { n_v } => write!(
                f,
                "window budget N_V = {n_v} does not fit in usize on this platform"
            ),
        }
    }
}

impl std::error::Error for WindowFault {}

/// Payload-free fault classification, used as a JSON label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// See [`WindowFault::Truncated`].
    Truncated,
    /// See [`WindowFault::EmptyHistogram`].
    EmptyHistogram,
    /// See [`WindowFault::Degenerate`].
    Degenerate,
    /// See [`WindowFault::NonFiniteBin`].
    NonFiniteBin,
    /// See [`WindowFault::HostIdOverflow`].
    HostIdOverflow,
    /// See [`WindowFault::EmptySynthesizer`].
    EmptySynthesizer,
    /// See [`WindowFault::Panic`].
    Panic,
    /// See [`WindowFault::Stalled`].
    Stalled,
    /// See [`WindowFault::BudgetUnrepresentable`].
    BudgetUnrepresentable,
    /// The window's capture shard never delivered it: missing or
    /// corrupt shard journal at federation merge time (no
    /// corresponding [`WindowFault`] — this kind is synthesized by
    /// [`crate::federation`], not by a window attempt).
    ShardLost,
    /// A leased worker stopped heartbeating before its lease
    /// deadline work completed (synthesized by [`crate::dispatch`]).
    WorkerLost,
    /// A lease deadline elapsed and the range was reclaimed for
    /// re-dispatch (synthesized by [`crate::dispatch`]).
    LeaseExpired,
    /// A zombie worker presented a stale fencing token and was
    /// refused (synthesized by [`crate::dispatch`]).
    LeaseFenced,
    /// A shard range finished its lease without full coverage — its
    /// windows return to the dispatch queue (synthesized by
    /// [`crate::dispatch`]).
    RangeOrphaned,
    /// The dispatcher's stall deadline elapsed with incomplete
    /// coverage and no live leases (synthesized by
    /// [`crate::dispatch`]).
    DispatchStalled,
}

impl FaultKind {
    /// Stable lowercase name, used as a JSON key.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Truncated => "truncated",
            FaultKind::EmptyHistogram => "empty_histogram",
            FaultKind::Degenerate => "degenerate",
            FaultKind::NonFiniteBin => "non_finite_bin",
            FaultKind::HostIdOverflow => "host_id_overflow",
            FaultKind::EmptySynthesizer => "empty_synthesizer",
            FaultKind::Panic => "panic",
            FaultKind::Stalled => "stalled",
            FaultKind::BudgetUnrepresentable => "budget_unrepresentable",
            FaultKind::ShardLost => "shard_lost",
            FaultKind::WorkerLost => "worker_lost",
            FaultKind::LeaseExpired => "lease_expired",
            FaultKind::LeaseFenced => "lease_fenced",
            FaultKind::RangeOrphaned => "range_orphaned",
            FaultKind::DispatchStalled => "dispatch_stalled",
        }
    }

    /// Stable one-byte wire code for the capture journal. Codes are
    /// append-only: existing values never change meaning.
    pub fn code(self) -> u8 {
        match self {
            FaultKind::Truncated => 0,
            FaultKind::EmptyHistogram => 1,
            FaultKind::Degenerate => 2,
            FaultKind::NonFiniteBin => 3,
            FaultKind::HostIdOverflow => 4,
            FaultKind::EmptySynthesizer => 5,
            FaultKind::Panic => 6,
            FaultKind::Stalled => 7,
            FaultKind::BudgetUnrepresentable => 8,
            FaultKind::ShardLost => 9,
            FaultKind::WorkerLost => 10,
            FaultKind::LeaseExpired => 11,
            FaultKind::LeaseFenced => 12,
            FaultKind::RangeOrphaned => 13,
            FaultKind::DispatchStalled => 14,
        }
    }

    /// Inverse of [`FaultKind::code`]; `None` for unknown codes (a
    /// journal written by a future version).
    pub fn from_code(code: u8) -> Option<FaultKind> {
        Some(match code {
            0 => FaultKind::Truncated,
            1 => FaultKind::EmptyHistogram,
            2 => FaultKind::Degenerate,
            3 => FaultKind::NonFiniteBin,
            4 => FaultKind::HostIdOverflow,
            5 => FaultKind::EmptySynthesizer,
            6 => FaultKind::Panic,
            7 => FaultKind::Stalled,
            8 => FaultKind::BudgetUnrepresentable,
            9 => FaultKind::ShardLost,
            10 => FaultKind::WorkerLost,
            11 => FaultKind::LeaseExpired,
            12 => FaultKind::LeaseFenced,
            13 => FaultKind::RangeOrphaned,
            14 => FaultKind::DispatchStalled,
            _ => return None,
        })
    }
}

/// What the pipeline does with a window whose retry budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the whole run with [`PipelineError::WindowAborted`].
    Abort,
    /// Drop the window from the pooled result and record it.
    Quarantine,
    /// Replace it with one extra deterministic re-synthesis attempt
    /// (never fault-injected); quarantine only if that also fails.
    Substitute,
}

impl FaultAction {
    /// Stable lowercase name, used as a CLI value and JSON label.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Abort => "abort",
            FaultAction::Quarantine => "quarantine",
            FaultAction::Substitute => "substitute",
        }
    }
}

/// Per-run failure-handling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePolicy {
    /// Disposal of a window whose retries are exhausted.
    pub on_fault: FaultAction,
    /// Retries per window after the initial attempt. Retry `k` of
    /// window `t` draws from a deterministic sub-stream derived from
    /// `(t, k)`, so recovery is replayable.
    pub max_retries: u32,
    /// Maximum tolerated quarantined fraction in `[0, 1]`; exceeding
    /// it (strictly) fails the run with
    /// [`PipelineError::QuarantineOverflow`] — see
    /// [`FailurePolicy::overflows`].
    pub quarantine_threshold: f64,
    /// Per-window stall-watchdog deadline in milliseconds; `None`
    /// disables the watchdog (and keeps the result path entirely
    /// clock-free). An attempt that finishes but overran the deadline
    /// is classified [`FaultKind::Stalled`] and disposed of through
    /// the ordinary retry/quarantine machinery.
    pub window_deadline_ms: Option<u64>,
}

impl FailurePolicy {
    /// The pre-fault-tolerance behavior: no retries, any fault aborts.
    pub fn strict() -> Self {
        FailurePolicy {
            on_fault: FaultAction::Abort,
            max_retries: 0,
            quarantine_threshold: 1.0,
            window_deadline_ms: None,
        }
    }

    /// Retry up to `max_retries` times, then quarantine.
    pub fn quarantine(max_retries: u32) -> Self {
        FailurePolicy {
            on_fault: FaultAction::Quarantine,
            max_retries,
            quarantine_threshold: 1.0,
            window_deadline_ms: None,
        }
    }

    /// Retry up to `max_retries` times, then substitute a clean
    /// re-synthesis.
    pub fn substitute(max_retries: u32) -> Self {
        FailurePolicy {
            on_fault: FaultAction::Substitute,
            max_retries,
            quarantine_threshold: 1.0,
            window_deadline_ms: None,
        }
    }

    /// This policy with the stall watchdog armed at `deadline_ms`.
    pub fn with_deadline_ms(self, deadline_ms: u64) -> Self {
        FailurePolicy {
            window_deadline_ms: Some(deadline_ms),
            ..self
        }
    }

    /// Whether `quarantined` dropped windows out of `windows` exceed
    /// the tolerated fraction.
    ///
    /// The comparison matches the error message's wording exactly: a
    /// quarantined fraction *strictly above* the threshold overflows;
    /// exact equality passes. The fraction is compared as
    /// `quarantined / windows > threshold` rather than
    /// `quarantined > threshold * windows`, because the latter's
    /// product can round *down* (e.g. `0.3 * 10.0` is
    /// `2.999999999999999…`), spuriously failing a run sitting exactly
    /// on the boundary.
    pub fn overflows(&self, quarantined: u64, windows: u64) -> bool {
        if windows == 0 {
            return false;
        }
        quarantined as f64 / windows as f64 > self.quarantine_threshold
    }
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy::strict()
    }
}

/// How one faulted window was ultimately disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOutcome {
    /// A retry succeeded; the window contributes to the pool.
    Recovered,
    /// Dropped from the pooled result.
    Quarantined,
    /// Replaced by a clean re-synthesis; contributes to the pool.
    Substituted,
    /// Failed the whole run (strict policy).
    Aborted,
}

impl WindowOutcome {
    /// Stable lowercase name, used as a JSON label.
    pub fn name(self) -> &'static str {
        match self {
            WindowOutcome::Recovered => "recovered",
            WindowOutcome::Quarantined => "quarantined",
            WindowOutcome::Substituted => "substituted",
            WindowOutcome::Aborted => "aborted",
        }
    }

    /// Stable one-byte wire code for the capture journal.
    pub fn code(self) -> u8 {
        match self {
            WindowOutcome::Recovered => 0,
            WindowOutcome::Quarantined => 1,
            WindowOutcome::Substituted => 2,
            WindowOutcome::Aborted => 3,
        }
    }

    /// Inverse of [`WindowOutcome::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<WindowOutcome> {
        Some(match code {
            0 => WindowOutcome::Recovered,
            1 => WindowOutcome::Quarantined,
            2 => WindowOutcome::Substituted,
            3 => WindowOutcome::Aborted,
            _ => return None,
        })
    }
}

/// One faulted window's audit-trail entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Window index `t`.
    pub window: u64,
    /// Classification of the *last* fault the window exhibited.
    pub kind: FaultKind,
    /// Synthesis attempts spent on the window (including the first).
    pub attempts: u32,
    /// Final disposal.
    pub outcome: WindowOutcome,
}

/// Aggregate fault accounting for one pipeline run. Deterministic:
/// records are in window order and the report compares equal across
/// reruns and thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Windows the run attempted.
    pub windows: u64,
    /// Windows contributing to the pooled result.
    pub survivors: u64,
    /// Windows dropped by quarantine.
    pub quarantined: u64,
    /// Windows replaced by a clean re-synthesis.
    pub substituted: u64,
    /// Windows rescued by a retry.
    pub recovered: u64,
    /// Faults planted by the injector (0 when injection is off).
    pub injected: u64,
    /// Total retry attempts across all windows.
    pub retries: u64,
    /// Per-window audit trail, in window order (clean windows have no
    /// record).
    pub records: Vec<FaultRecord>,
    /// Fit-restart ladder rung histogram for fits run on the pooled
    /// output (filled in by callers that fit; see `palu-cli`).
    pub ladder: RungTally,
    /// Degradation-ladder engagements recorded by the budget governor,
    /// in engagement order (empty without a memory budget).
    pub degradations: Vec<crate::budget::DegradationEvent>,
}

impl FaultReport {
    /// An empty report for a run over `windows` windows.
    pub fn new(windows: u64) -> Self {
        FaultReport {
            windows,
            survivors: windows,
            ..Default::default()
        }
    }

    /// True when no window faulted and nothing was injected.
    pub fn is_clean(&self) -> bool {
        self.records.is_empty() && self.injected == 0
    }
}

/// A fault the injector plants into one window attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Drop half the window's packets (⇒ [`WindowFault::Truncated`]).
    Truncate,
    /// Poison one binned probability with NaN
    /// (⇒ [`WindowFault::NonFiniteBin`]).
    NanBin,
    /// Overwrite every packet with the first (⇒
    /// [`WindowFault::Degenerate`] support collapse).
    DuplicateStorm,
    /// Panic on the worker thread (⇒ [`WindowFault::Panic`]).
    WorkerPanic,
    /// Sleep the attempt past the policy's stall deadline (⇒
    /// [`WindowFault::Stalled`] when the watchdog is armed; a no-op
    /// without a deadline).
    Stall,
    /// Inflate the window's *accounted* footprint in the budget ledger
    /// (no real allocation) to simulate memory pressure and exercise
    /// the degradation ladder. A no-op without a memory budget; never
    /// produces a [`WindowFault`] — the window completes normally.
    Ballast,
}

impl InjectedFault {
    /// Stable lowercase name, used in CLI specs and JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            InjectedFault::Truncate => "truncate",
            InjectedFault::NanBin => "nan",
            InjectedFault::DuplicateStorm => "dup",
            InjectedFault::WorkerPanic => "panic",
            InjectedFault::Stall => "stall",
            InjectedFault::Ballast => "ballast",
        }
    }
}

/// Per-attempt injection rates, each in `[0, 1]` with total ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionSpec {
    /// Probability of [`InjectedFault::Truncate`] per attempt.
    pub truncate: f64,
    /// Probability of [`InjectedFault::NanBin`] per attempt.
    pub nan: f64,
    /// Probability of [`InjectedFault::DuplicateStorm`] per attempt.
    pub duplicate: f64,
    /// Probability of [`InjectedFault::WorkerPanic`] per attempt.
    pub panic: f64,
    /// Probability of [`InjectedFault::Stall`] per attempt. Not part
    /// of the [`InjectionSpec::uniform`] split (a stall is only
    /// observable with the watchdog armed), so it must be requested
    /// explicitly as `stall=rate`.
    pub stall: f64,
    /// Probability of [`InjectedFault::Ballast`] per attempt. Like
    /// `stall`, not part of the [`InjectionSpec::uniform`] split (only
    /// observable with a memory budget set); request it explicitly as
    /// `ballast=rate`.
    pub ballast: f64,
}

impl InjectionSpec {
    /// No injection at all.
    pub fn none() -> Self {
        InjectionSpec {
            truncate: 0.0,
            nan: 0.0,
            duplicate: 0.0,
            panic: 0.0,
            stall: 0.0,
            ballast: 0.0,
        }
    }

    /// Total rate `rate`, split evenly across the four fault kinds.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "injection rate must be in [0, 1], got {rate}"
        );
        InjectionSpec {
            truncate: rate / 4.0,
            nan: rate / 4.0,
            duplicate: rate / 4.0,
            panic: rate / 4.0,
            stall: 0.0,
            ballast: 0.0,
        }
    }

    /// Parse a CLI spec: either a bare total rate (`"0.5"`, split
    /// evenly across `truncate`/`nan`/`dup`/`panic`) or
    /// comma-separated `kind=rate` pairs drawn from `truncate`, `nan`,
    /// `dup`, `panic`, `stall` (unnamed kinds default to 0).
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed input, rates outside
    /// `[0, 1]`, or totals above 1.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty injection spec".into());
        }
        let mut spec = InjectionSpec::none();
        if let Ok(rate) = s.parse::<f64>() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("injection rate must be in [0, 1], got {rate}"));
            }
            return Ok(InjectionSpec::uniform(rate));
        }
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected kind=rate, got '{part}'"))?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad rate '{value}' for '{key}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate for '{key}' must be in [0, 1], got {rate}"));
            }
            match key.trim() {
                "truncate" => spec.truncate = rate,
                "nan" => spec.nan = rate,
                "dup" => spec.duplicate = rate,
                "panic" => spec.panic = rate,
                "stall" => spec.stall = rate,
                "ballast" => spec.ballast = rate,
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (expected truncate, nan, dup, panic, \
                         stall, ballast)"
                    ))
                }
            }
        }
        if spec.total() > 1.0 {
            return Err(format!("injection rates sum to {} > 1", spec.total()));
        }
        Ok(spec)
    }

    /// Sum of all the rates.
    pub fn total(&self) -> f64 {
        self.truncate + self.nan + self.duplicate + self.panic + self.stall + self.ballast
    }

    /// True when every rate is zero.
    pub fn is_none(&self) -> bool {
        self.total() == 0.0
    }
}

/// Deterministic seeded fault injector.
///
/// The decision for `(window, attempt)` is a pure function of the
/// injector's seed: the plan is computed from its own derived RNG
/// stream, independent of which thread evaluates it or in what order.
/// Retries see independent draws, so an injected fault does not
/// automatically recur on the retry (at rate `r` it recurs with
/// probability `r`).
#[derive(Debug, Clone)]
pub struct Injector {
    spec: InjectionSpec,
    seq: SeedSequence,
}

impl Injector {
    /// An injector planting faults per `spec`, deterministically
    /// derived from `seed`.
    pub fn new(spec: InjectionSpec, seed: u64) -> Self {
        Injector {
            spec,
            seq: SeedSequence::new(seed),
        }
    }

    /// The injection rates in force.
    pub fn spec(&self) -> &InjectionSpec {
        &self.spec
    }

    /// The fault (if any) to plant into attempt `attempt` of window
    /// `window`. Pure: same `(seed, window, attempt)` ⇒ same answer.
    pub fn plan(&self, window: u64, attempt: u32) -> Option<InjectedFault> {
        if self.spec.is_none() {
            return None;
        }
        let mut rng = SeedSequence::new(self.seq.child_seed(window)).rng(attempt as u64);
        let u: f64 = rng.gen::<f64>();
        let mut edge = self.spec.truncate;
        if u < edge {
            return Some(InjectedFault::Truncate);
        }
        edge += self.spec.nan;
        if u < edge {
            return Some(InjectedFault::NanBin);
        }
        edge += self.spec.duplicate;
        if u < edge {
            return Some(InjectedFault::DuplicateStorm);
        }
        edge += self.spec.panic;
        if u < edge {
            return Some(InjectedFault::WorkerPanic);
        }
        edge += self.spec.stall;
        if u < edge {
            return Some(InjectedFault::Stall);
        }
        // Appended after every pre-existing kind so enabling ballast
        // never re-plans the established deterministic outcomes.
        edge += self.spec.ballast;
        if u < edge {
            return Some(InjectedFault::Ballast);
        }
        None
    }
}

/// A run-level failure of the fault-tolerant pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The run was configured with zero windows — always a caller bug,
    /// never silently coerced to one window.
    ZeroWindows,
    /// A window exhausted its retry budget under
    /// [`FaultAction::Abort`].
    WindowAborted {
        /// The window index `t`.
        window: u64,
        /// Synthesis attempts spent before giving up.
        attempts: u32,
        /// The last fault observed.
        fault: WindowFault,
    },
    /// Quarantine dropped more than the policy's tolerated fraction.
    QuarantineOverflow {
        /// Windows quarantined.
        quarantined: u64,
        /// Windows attempted.
        windows: u64,
        /// The policy's tolerated fraction.
        threshold: f64,
    },
    /// The durable capture journal failed (I/O or corruption); see
    /// [`crate::journal::JournalFault`].
    Journal(crate::journal::JournalFault),
    /// The resource-budget governor refused or aborted the capture;
    /// see [`crate::budget::BudgetFault`].
    Budget(crate::budget::BudgetFault),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::ZeroWindows => {
                write!(f, "pipeline run configured with zero windows")
            }
            PipelineError::WindowAborted {
                window,
                attempts,
                fault,
            } => write!(
                f,
                "window {window} aborted after {attempts} attempt(s): {fault}"
            ),
            PipelineError::QuarantineOverflow {
                quarantined,
                windows,
                threshold,
            } => write!(
                f,
                "{quarantined} of {windows} windows quarantined, above the {threshold} threshold"
            ),
            PipelineError::Journal(fault) => write!(f, "capture journal: {fault}"),
            PipelineError::Budget(fault) => write!(f, "resource budget: {fault}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::WindowAborted { fault, .. } => Some(fault),
            PipelineError::Journal(fault) => Some(fault),
            PipelineError::Budget(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<crate::journal::JournalFault> for PipelineError {
    fn from(fault: crate::journal::JournalFault) -> Self {
        PipelineError::Journal(fault)
    }
}

impl From<crate::budget::BudgetFault> for PipelineError {
    fn from(fault: crate::budget::BudgetFault) -> Self {
        PipelineError::Budget(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_and_thread_independent() {
        let inj = Injector::new(InjectionSpec::uniform(0.5), 42);
        let first: Vec<_> = (0..64).map(|t| inj.plan(t, 0)).collect();
        let again: Vec<_> = (0..64).map(|t| inj.plan(t, 0)).collect();
        assert_eq!(first, again);
        // Reversed evaluation order — random access, same plan.
        let reversed: Vec<_> = (0..64).rev().map(|t| inj.plan(t, 0)).collect();
        assert_eq!(first, reversed.into_iter().rev().collect::<Vec<_>>());
        // At a 50% rate over 64 windows, both outcomes occur.
        let hits = first.iter().filter(|p| p.is_some()).count();
        assert!(hits > 8 && hits < 56, "hits {hits}");
    }

    #[test]
    fn ballast_parses_and_extends_the_plan_tail() {
        let spec = InjectionSpec::parse("ballast=0.5").expect("parses");
        assert_eq!(spec.ballast, 0.5);
        assert_eq!(spec.total(), 0.5);
        assert!(!spec.is_none());
        // Certain ballast plans ballast everywhere.
        let inj = Injector::new(InjectionSpec::parse("ballast=1.0").unwrap(), 11);
        assert!((0..32).all(|t| inj.plan(t, 0) == Some(InjectedFault::Ballast)));
        // Enabling ballast never re-plans pre-existing kinds: windows
        // the old spec faulted keep the identical fault.
        let old = Injector::new(InjectionSpec::uniform(0.4), 23);
        let mut with_ballast = InjectionSpec::uniform(0.4);
        with_ballast.ballast = 0.3;
        let new = Injector::new(with_ballast, 23);
        for t in 0..128 {
            if let Some(f) = old.plan(t, 0) {
                assert_eq!(new.plan(t, 0), Some(f), "window {t}");
            }
        }
        assert_eq!(InjectedFault::Ballast.name(), "ballast");
        let err = InjectionSpec::parse("blast=0.1").unwrap_err();
        assert!(err.contains("ballast"), "kind list mentions ballast: {err}");
    }

    #[test]
    fn injector_rates_are_respected() {
        let inj = Injector::new(InjectionSpec::uniform(1.0), 7);
        // Total rate 1.0 ⇒ every attempt faults.
        assert!((0..100).all(|t| inj.plan(t, 0).is_some()));
        let off = Injector::new(InjectionSpec::none(), 7);
        assert!((0..100).all(|t| off.plan(t, 0).is_none()));
        // A single-kind spec only produces that kind.
        let only_nan = Injector::new(
            InjectionSpec {
                nan: 1.0,
                ..InjectionSpec::none()
            },
            7,
        );
        assert!((0..50).all(|t| only_nan.plan(t, 3) == Some(InjectedFault::NanBin)));
    }

    #[test]
    fn retries_draw_independent_plans() {
        let inj = Injector::new(InjectionSpec::uniform(0.5), 9);
        let differs = (0..64).any(|t| inj.plan(t, 0) != inj.plan(t, 1));
        assert!(differs, "attempt 1 must not replay attempt 0's plan");
    }

    #[test]
    fn spec_parses_bare_rates_and_pairs() {
        let u = InjectionSpec::parse("0.4").unwrap();
        assert!((u.total() - 0.4).abs() < 1e-12);
        assert_eq!(u.truncate, 0.1);
        let p = InjectionSpec::parse("truncate=0.2,panic=0.05").unwrap();
        assert_eq!(p.truncate, 0.2);
        assert_eq!(p.panic, 0.05);
        assert_eq!(p.nan, 0.0);
        assert!((p.total() - 0.25).abs() < 1e-12);
        assert_eq!(InjectionSpec::parse("0").unwrap(), InjectionSpec::none());
    }

    #[test]
    fn spec_parse_rejects_bad_input() {
        assert!(InjectionSpec::parse("").is_err());
        assert!(InjectionSpec::parse("1.5").is_err());
        assert!(InjectionSpec::parse("-0.1").is_err());
        assert!(InjectionSpec::parse("frobnicate=0.5").is_err());
        assert!(InjectionSpec::parse("nan=abc").is_err());
        assert!(InjectionSpec::parse("nan=0.6,dup=0.6").is_err());
        assert!(InjectionSpec::parse("nan").is_err());
    }

    #[test]
    fn policy_constructors() {
        let s = FailurePolicy::strict();
        assert_eq!(s.on_fault, FaultAction::Abort);
        assert_eq!(s.max_retries, 0);
        assert_eq!(FailurePolicy::default(), s);
        let q = FailurePolicy::quarantine(3);
        assert_eq!(q.on_fault, FaultAction::Quarantine);
        assert_eq!(q.max_retries, 3);
        let sub = FailurePolicy::substitute(1);
        assert_eq!(sub.on_fault, FaultAction::Substitute);
    }

    #[test]
    fn fault_kinds_and_outcomes_have_stable_names() {
        assert_eq!(
            WindowFault::Truncated {
                expected: 10,
                actual: 5
            }
            .kind()
            .name(),
            "truncated"
        );
        assert_eq!(WindowFault::EmptyHistogram.kind().name(), "empty_histogram");
        assert_eq!(
            WindowFault::Panic {
                message: "x".into()
            }
            .kind()
            .name(),
            "panic"
        );
        assert_eq!(WindowOutcome::Quarantined.name(), "quarantined");
        assert_eq!(FaultAction::Substitute.name(), "substitute");
        assert_eq!(InjectedFault::DuplicateStorm.name(), "dup");
    }

    #[test]
    fn quarantine_boundary_exact_equality_passes() {
        // 3 of 10 at threshold 0.3 sits exactly on the boundary: the
        // message says "above the threshold", so equality must pass.
        // The old `quarantined > threshold * n` comparison failed it,
        // because 0.3 * 10.0 rounds to 2.999999999999999… .
        let policy = FailurePolicy {
            quarantine_threshold: 0.3,
            ..FailurePolicy::quarantine(0)
        };
        assert!(!policy.overflows(3, 10));
        assert!(policy.overflows(4, 10));
        assert!(!policy.overflows(0, 10));
        // Thresholds 0 and 1 behave as the degenerate ends.
        let zero = FailurePolicy {
            quarantine_threshold: 0.0,
            ..policy
        };
        assert!(zero.overflows(1, 10));
        assert!(!zero.overflows(0, 10));
        let one = FailurePolicy {
            quarantine_threshold: 1.0,
            ..policy
        };
        assert!(!one.overflows(10, 10));
        // Zero windows never overflow (nothing was attempted).
        assert!(!policy.overflows(0, 0));
    }

    #[test]
    fn stall_spec_parses_and_plans() {
        let s = InjectionSpec::parse("stall=1.0").unwrap();
        assert_eq!(s.stall, 1.0);
        assert_eq!(s.truncate, 0.0);
        let inj = Injector::new(s, 3);
        assert!((0..20).all(|t| inj.plan(t, 0) == Some(InjectedFault::Stall)));
        // The uniform split never includes stalls.
        let u = InjectionSpec::uniform(1.0);
        assert_eq!(u.stall, 0.0);
        assert_eq!(InjectedFault::Stall.name(), "stall");
        assert_eq!(FaultKind::Stalled.name(), "stalled");
    }

    #[test]
    fn wire_codes_round_trip() {
        for kind in [
            FaultKind::Truncated,
            FaultKind::EmptyHistogram,
            FaultKind::Degenerate,
            FaultKind::NonFiniteBin,
            FaultKind::HostIdOverflow,
            FaultKind::EmptySynthesizer,
            FaultKind::Panic,
            FaultKind::Stalled,
            FaultKind::BudgetUnrepresentable,
            FaultKind::ShardLost,
            FaultKind::WorkerLost,
            FaultKind::LeaseExpired,
            FaultKind::LeaseFenced,
            FaultKind::RangeOrphaned,
            FaultKind::DispatchStalled,
        ] {
            assert_eq!(FaultKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FaultKind::from_code(250), None);
        for outcome in [
            WindowOutcome::Recovered,
            WindowOutcome::Quarantined,
            WindowOutcome::Substituted,
            WindowOutcome::Aborted,
        ] {
            assert_eq!(WindowOutcome::from_code(outcome.code()), Some(outcome));
        }
        assert_eq!(WindowOutcome::from_code(9), None);
    }

    #[test]
    fn report_starts_clean() {
        let r = FaultReport::new(8);
        assert!(r.is_clean());
        assert_eq!(r.windows, 8);
        assert_eq!(r.survivors, 8);
        assert_eq!(r.quarantined, 0);
    }

    #[test]
    fn pipeline_errors_display() {
        let e = PipelineError::WindowAborted {
            window: 3,
            attempts: 2,
            fault: WindowFault::EmptyHistogram,
        };
        let msg = e.to_string();
        assert!(msg.contains("window 3"), "{msg}");
        assert!(msg.contains("2 attempt"), "{msg}");
        assert!(PipelineError::ZeroWindows.to_string().contains("zero"));
        let q = PipelineError::QuarantineOverflow {
            quarantined: 5,
            windows: 8,
            threshold: 0.25,
        };
        assert!(q.to_string().contains("5 of 8"), "{q}");
    }
}
