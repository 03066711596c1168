//! The `palu` subcommands, one file per family:
//!
//! | file | commands |
//! |---|---|
//! | `analysis.rs` | `generate`, `observe`, `degrees`, `fit` (local), `census`, `gof` |
//! | `capture.rs` | `simulate`, `shard`, `pool` (trace and `--merge`) |
//! | `service.rs` | `serve`, `submit`, `dispatch`, `work`, `fit --server` |
//! | `report.rs` | every `--metrics` JSON document |
//!
//! This file holds what they share: the typed [`CliError`] and its
//! exit codes, [`USAGE`], the dispatcher [`run`], and the option and
//! output helpers. Every command writes its primary output to `--out`
//! (or stdout) and human-readable progress to stderr, so pipelines
//! compose:
//!
//! ```text
//! palu-cli generate --nodes 100000 --core 0.5 --leaves 0.2 --lambda 3 \
//!               --alpha 2 --seed 1 --out net.txt
//! palu-cli observe  --in net.txt --p 0.5 --seed 2 --out obs.txt
//! palu-cli degrees  --in obs.txt --out deg.txt
//! palu-cli fit      --in deg.txt --p 0.5
//! ```

mod analysis;
mod capture;
mod report;
mod service;

pub use report::metrics_json;

use crate::args::ParsedArgs;
use crate::json::JsonValue;
use std::io::Write;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

/// Process exit codes for typed refusals, so scripts (ci.sh smokes
/// included) can assert the precise failure class instead of a
/// generic nonzero.
pub mod exit {
    /// Unclassified runtime failure (I/O, aborted window, …).
    pub const RUNTIME: i32 = 1;
    /// Bad command line.
    pub const USAGE: i32 = 2;
    /// The budget governor's admission control refused the capture.
    pub const ADMISSION_REFUSED: i32 = 3;
    /// A journal is corrupt: checksum mismatch, malformed record, or
    /// not a journal at all.
    pub const JOURNAL_CORRUPT: i32 = 4;
    /// A journal's identity (seed, version, or fingerprinted
    /// parameter) does not match the run.
    pub const CONFIG_MISMATCH: i32 = 5;
    /// A federated merge ended below its `--min-coverage` threshold.
    pub const COVERAGE: i32 = 6;
    /// Quarantine dropped more windows than the policy tolerates.
    pub const QUARANTINE_OVERFLOW: i32 = 7;
    /// The federation service could not be reached (or a session
    /// could not complete) before the retry deadline.
    pub const SERVICE_UNAVAILABLE: i32 = 8;
    /// A zombie worker presented a stale fencing token and was
    /// refused by the dispatcher.
    pub const DISPATCH_FENCED: i32 = 9;
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::with_code(message, exit::USAGE)
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError::with_code(message, exit::RUNTIME)
    }

    fn with_code(message: impl Into<String>, code: i32) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// A failed write to `--out`, stdout or a metrics file is a runtime
/// failure, so writer closures can use `?`.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::runtime(e.to_string())
    }
}

/// A runtime failure carrying `e`'s message (fit and estimator
/// errors).
fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::runtime(e.to_string())
}

/// Exit code for a typed journal refusal: corruption vs identity
/// mismatch vs plain I/O.
fn journal_fault_code(fault: &palu_traffic::JournalFault) -> i32 {
    use palu_traffic::JournalFault;
    match fault {
        JournalFault::Io { .. } => exit::RUNTIME,
        JournalFault::NotAJournal { .. }
        | JournalFault::ChecksumMismatch { .. }
        | JournalFault::Malformed { .. } => exit::JOURNAL_CORRUPT,
        JournalFault::VersionSkew { .. }
        | JournalFault::SeedMismatch { .. }
        | JournalFault::ConfigMismatch { .. } => exit::CONFIG_MISMATCH,
    }
}

/// Map a journal refusal to a [`CliError`] with its typed exit code.
/// A `ConfigMismatch` names the exact parameter that skewed (the
/// fingerprint diagnosis), so the operator sees *which* flag differs.
fn journal_fault_error(context: &str, fault: &palu_traffic::JournalFault) -> CliError {
    CliError::with_code(format!("{context}: {fault}"), journal_fault_code(fault))
}

/// Map a pipeline failure to a [`CliError`] with its typed exit code.
fn pipeline_error(e: &palu_traffic::PipelineError) -> CliError {
    use palu_traffic::{BudgetFault, PipelineError};
    let code = match e {
        PipelineError::Journal(fault) => journal_fault_code(fault),
        PipelineError::QuarantineOverflow { .. } => exit::QUARANTINE_OVERFLOW,
        PipelineError::Budget(BudgetFault::AdmissionRefused { .. }) => exit::ADMISSION_REFUSED,
        _ => exit::RUNTIME,
    };
    CliError::with_code(format!("pipeline: {e}"), code)
}

/// Map a federation failure to a [`CliError`] with its typed exit
/// code: identity skew and coverage shortfall are the headline typed
/// refusals; plan/input problems are usage errors.
fn federation_error(e: &palu_traffic::FederationError) -> CliError {
    use palu_traffic::FederationError;
    match e {
        FederationError::BadPlan { .. }
        | FederationError::BadShardIndex { .. }
        | FederationError::BadCoverage { .. }
        | FederationError::NoJournals => CliError::usage(e.to_string()),
        FederationError::IdentitySkew { .. } => {
            CliError::with_code(e.to_string(), exit::CONFIG_MISMATCH)
        }
        FederationError::Coverage { .. } => CliError::with_code(e.to_string(), exit::COVERAGE),
        FederationError::Overlap(_) => CliError::with_code(e.to_string(), exit::JOURNAL_CORRUPT),
        FederationError::Pipeline(p) => pipeline_error(p),
    }
}

/// Map a typed service fault to a [`CliError`] with the exit code of
/// its refusal class — the same convention as the merge: corruption →
/// 4, identity skew → 5, coverage → 6, plus 8 for transport
/// exhaustion (`SERVICE_UNAVAILABLE`) and 9 for a fenced zombie
/// lease (`DISPATCH_FENCED`).
fn service_fault_error(context: &str, fault: &palu_traffic::ServiceFault) -> CliError {
    use palu_traffic::RefusalClass;
    let code = match fault.refusal() {
        RefusalClass::Usage => exit::USAGE,
        RefusalClass::Corrupt => exit::JOURNAL_CORRUPT,
        RefusalClass::IdentitySkew => exit::CONFIG_MISMATCH,
        RefusalClass::Coverage => exit::COVERAGE,
        RefusalClass::Unavailable => exit::SERVICE_UNAVAILABLE,
        RefusalClass::Fenced => exit::DISPATCH_FENCED,
    };
    CliError::with_code(format!("{context}: {fault}"), code)
}

/// Checked `u64 → usize` for CLI options: a clear usage error instead
/// of a silent narrowing cast on 32-bit platforms.
fn usize_opt(v: u64, option: &str) -> Result<usize, CliError> {
    usize::try_from(v).map_err(|_| {
        CliError::usage(format!(
            "--{option} = {v} does not fit in usize on this platform"
        ))
    })
}

/// Parse a byte-size option value: a plain integer with an optional
/// `k`/`M`/`G` suffix (powers of 1024). `64M` → 67 108 864.
fn parse_bytes(spec: &str) -> Result<u64, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err("empty size (expected e.g. 64M or 1073741824)".to_string());
    }
    let (digits, shift) = match spec.as_bytes()[spec.len() - 1] {
        b'k' | b'K' => (&spec[..spec.len() - 1], 10),
        b'M' => (&spec[..spec.len() - 1], 20),
        b'G' => (&spec[..spec.len() - 1], 30),
        _ => (spec, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("not a byte count ({e}); expected e.g. 64M or 1073741824"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("{spec} overflows a 64-bit byte count"))
}

/// A millisecond option that must be positive. For a socket deadline
/// zero would mean none at all: the OS refuses a zero timeout, and the
/// socket keeps blocking without one.
fn positive_ms(args: &ParsedArgs, key: &str, default: u64) -> Result<u64, CliError> {
    match args.u64_or(key, default)? {
        0 => Err(CliError::usage(format!(
            "--{key} must be a positive number of milliseconds"
        ))),
        ms => Ok(ms),
    }
}

/// `--min-coverage F` (default 1.0), a fraction in [0, 1].
fn min_coverage(args: &ParsedArgs) -> Result<f64, CliError> {
    let f = args.f64_or("min-coverage", 1.0)?;
    if !(0.0..=1.0).contains(&f) {
        return Err(CliError::usage(format!(
            "--min-coverage must be in [0,1], got {f}"
        )));
    }
    Ok(f)
}

/// Usage text.
pub const USAGE: &str = "\
palu — PALU hybrid power-law network-traffic model (Devlin et al. 2021)

USAGE: palu-cli <command> [--option value]...

COMMANDS:
  generate   Generate a PALU underlying network as an edge list
             --nodes N --core C --leaves L --lambda λ --alpha α
             [--p P=0.5] [--seed S=1] [--out FILE=stdout]
  observe    Keep each edge of an edge list independently with prob. p
             --in FILE --p P [--seed S=1] [--out FILE=stdout]
  degrees    Reduce an edge list to a degree histogram (degree ≥ 1)
             --in FILE [--out FILE=stdout]
  fit        Fit models to a degree histogram
             --in FILE [--p P] [--boot N=0]
             (ZM (α, δ); CSN baseline; PALU constants; with --p also
              the recovered underlying (C, L, U, λ); with --boot N
              bootstrap CIs on the ZM fit)
             Service mode: query a federation server's rolling merged
             fit instead of reading a histogram. Output is the
             canonical pooled format, byte-identical to single-process
             `simulate` at full coverage; below the server's coverage
             threshold the fit refuses (exit 6) unless --allow-partial
             --server ADDR [--allow-partial] [+ retry options, see
             submit]
  census     Figure-2 topology census + clustering of an edge list
             --in FILE
  simulate   Run a synthetic observatory end to end: PALU network →
             packet windows → pooled D(d_i) ± σ series. Windows are
             processed in parallel; output is bit-identical for any
             --threads value
             --core C --leaves L --lambda λ --alpha α
             [--nodes N=100000] [--nv NV=100000] [--windows W=8]
             [--seed S=1] [--threads T=auto] [--metrics FILE]
             [--out FILE=stdout]
             Fault tolerance (deterministic per seed+spec):
             [--inject-faults SPEC]   seeded fault injector; SPEC is a
               bare rate (split evenly) or kind=rate pairs from
               truncate,nan,dup,panic,stall, e.g. 0.5 or
               truncate=0.2,panic=0.1
             [--fail-policy abort|quarantine|substitute]  (default abort)
             [--max-retries K=1]      fresh-seed retries per window
             [--quarantine-threshold F=1.0]  max quarantined fraction
             [--window-deadline-ms MS]  stall watchdog: an attempt
               exceeding MS is classified `stalled` and retried /
               quarantined like any other window fault
             With injection active a fault report (per-window kind,
             attempts, outcome; restart-ladder rungs) is appended to
             the --metrics JSON and summarized on stderr
             Durable checkpoint/resume (crash-equivalent capture):
             [--journal FILE]  append each completed window to a CRC32
               write-ahead journal; [--resume] replay completed windows
               from FILE instead of recomputing them. A resumed capture
               is bit-identical to an uninterrupted one at any kill
               point and --threads value; a journal from a different
               seed/parameter set (or with corrupt records) is refused
             Bounded memory (resource-budget governor):
             [--memory-budget BYTES]  account every capture-phase
               allocation against a hard watermark (suffix k/M/G =
               2^10/2^20/2^30 bytes). Admission projects the peak
               footprint before any window is synthesized and refuses
               configurations whose floor cannot fit (exit 3, with a
               feasible suggestion); past the soft watermark the
               capture degrades through deterministic rungs —
               coarsen_bins, shrink_workers, spill_pooled — recorded
               in the fault report. Pooled output stays bit-identical
               to an unbudgeted run for any --threads value
             [--admission]  strict admission: also refuse configs that
               would only complete by degrading (projected undegraded
               peak above the hard watermark)
  shard      Run one shard of a federated capture: the simulate
             engine over shard i's window range of an n-shard plan,
             journaling under the full capture's identity. Takes every
             simulate option; --journal is required (the merge
             consumes shard journals); --resume re-captures only the
             shard's missing windows after a crash
             --shard-index I --shards N --journal FILE
             + all simulate options
             Merge shard journals with `pool --merge` (below); a
             merge of clean shards is bit-identical to the
             single-process `simulate` output for any shard/thread
             count
  gof        Goodness-of-fit report for a degree histogram: CSN
             semiparametric bootstrap p-value + power-law-vs-lognormal
             Vuong test; the CSN fit runs a deterministic restart
             ladder and reports which rung produced the estimate
             --in FILE [--boot N=50] [--seed S=1]
  pool       Stream a packet trace (`src dst` per line) through
             fixed-N_V windows into pooled D(d_i) ± σ, constant memory
             --in FILE --nv NV [--out FILE=stdout]
             Federated merge mode: pool shard journals instead of a
             trace. Shard-local failures quarantine as typed
             ShardFaults; identity skew (seed/parameter fingerprint)
             is a hard refusal naming the skewed parameter
             --merge A.journal B.journal … [--min-coverage F=1.0]
             [--recapture]  recompute missing windows
             deterministically instead of quarantining them
             + the simulate options naming the capture's identity
             With --metrics FILE a `federation` section (coverage
             arithmetic, per-shard rows, typed faults) is included
  serve      Run the federation service: accept shard-journal
             submissions over TCP, persist them through per-shard
             journals (a SIGKILL'd server rebuilds coverage from disk
             on restart), and serve the rolling merged fit. Drains
             gracefully on `submit --shutdown`
             --journal-dir DIR [--listen ADDR=127.0.0.1:0]
             [--shards N=1] [--min-coverage F=1.0]
             [--read-timeout-ms MS=5000] [--addr-file FILE]
             [--metrics FILE]
             + the simulate options naming the capture's identity
  submit     Submit one shard journal to a federation service with
             deadline + jittered-backoff retries; resubmission is
             idempotent, and a client killed mid-frame resumes from
             the server's acknowledged window set
             --server ADDR --journal FILE
             [--shard-index I=0] [--shards N=1]
             [--retry-deadline-ms MS=30000] [--backoff-base-ms MS=20]
             [--backoff-cap-ms MS=500] [--io-timeout-ms MS=5000]
             [--wire-faults SPEC]  seeded wire-fault injector; SPEC is
               a bare rate (split evenly) or kind=rate pairs from
               drop,corrupt,dup,delay,truncate
             + the simulate options naming the capture's identity
             With --shutdown (and no journal) the server drains and
             exits after in-flight sessions finish
  dispatch   Run the federation dispatcher: a serve collector wrapped
             with lease-based shard supervision. Hands out
             window-range leases to `work` clients, monitors liveness
             via heartbeats, re-dispatches expired leases
             (deterministically: lowest incomplete shard first), and
             fences zombie workers with a typed refusal. Exits when
             every shard completes unless --linger; a SIGKILL'd
             dispatcher restarted over the same --journal-dir derives
             completion from the shard journals and re-dispatches
             only what is missing
             --journal-dir DIR [--listen ADDR=127.0.0.1:0]
             [--shards N=1] [--min-coverage F=1.0]
             [--lease-ms MS=10000] [--heartbeat-ms MS=lease/4]
             [--linger] [--stall-ms MS]  stall watchdog: give up when
               coverage is incomplete but no lease is live or renewed
               for MS (exit 1 with the typed DispatchStalled event)
             [--read-timeout-ms MS=5000] [--addr-file FILE]
             [--metrics FILE]  dispatch + service sections
             + the simulate options naming the capture's identity
  work       Serve leases from a dispatcher: request a lease, capture
             the granted window range into a local journal under
             --work-dir, submit it through the idempotent submit
             path, heartbeat on a jittered interval, repeat until the
             dispatcher reports the capture complete. A leased
             range's failed capture exits as `shard` would (3
             admission refused, 7 quarantine overflow, …)
             --server ADDR --work-dir DIR [--worker ID=0]
             [--poll-ms MS=50] [+ retry and wire-fault options, see
             submit] + the simulate options naming the capture's
             identity
             [--chaos-kill pre-lease|mid-capture|pre-submit]  die at
               that phase exactly as a SIGKILL would (mid-capture
               leaves a half-journaled range; pre-submit a complete
               local journal the collector never saw)
             [--resume-lease]  wake up as a zombie holding the lease
               state a killed incarnation left in --work-dir: the
               heartbeat draws the typed fenced refusal (exit 9) and
               the journal resubmission is a byte-idempotent no-op
  help       This message

EXIT CODES (the one authoritative table):
  0 ok
  1 runtime failure (I/O, aborted window, dispatch stall, …)
  2 usage
  3 admission refused (budget governor)
  4 journal corrupt (checksum / malformed / not a journal)
  5 journal identity mismatch (seed, version, or fingerprint skew)
  6 merge coverage below threshold
  7 quarantine overflow
  8 service unreachable before the retry deadline
  9 lease fenced (zombie worker refused by the dispatcher)
";

/// Write `f`'s output to `--out` or stdout.
fn with_output<F>(args: &ParsedArgs, f: F) -> Result<(), CliError>
where
    F: FnOnce(&mut dyn Write) -> Result<(), CliError>,
{
    match args.nonempty("out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            let mut w = std::io::BufWriter::new(file);
            f(&mut w)?;
            w.flush()
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))
        }
        None => f(&mut std::io::stdout().lock()),
    }
}

/// Write a pooled `D(d_i) ± σ` series after `header`: the canonical
/// format of `simulate`, `shard`, `pool --merge` and `fit --server`,
/// so their output files are byte-comparable, and of `pool` over a
/// trace, which names its own header.
fn write_series(
    args: &ParsedArgs,
    header: &str,
    rows: impl Iterator<Item = (u64, f64, f64)>,
) -> Result<(), CliError> {
    with_output(args, |w| {
        writeln!(w, "{header}")?;
        writeln!(w, "# columns: d_i D sigma")?;
        for (d_i, v, s) in rows {
            writeln!(w, "{d_i} {v:.8e} {s:.8e}")?;
        }
        Ok(())
    })
}

/// The header of a pooled series in the canonical format.
fn pooled_header(windows: u64) -> String {
    format!("# pooled D(d_i) ± σ over {windows} windows of the undirected degree")
}

/// A pooled distribution's `(d_i, D, σ)` rows.
fn pooled_rows(
    pooled: &palu_traffic::PooledDistribution,
) -> impl Iterator<Item = (u64, f64, f64)> + '_ {
    let rows = pooled.mean.iter().zip(&pooled.sigma);
    rows.map(|((d_i, v), &s)| (d_i, v, s))
}

/// Write the pooled series of a capture or merge in the canonical
/// format.
fn write_pooled(
    args: &ParsedArgs,
    pooled: &palu_traffic::PooledDistribution,
) -> Result<(), CliError> {
    write_series(args, &pooled_header(pooled.windows), pooled_rows(pooled))
}

/// Write the document `doc` builds to `--metrics FILE`, when one is
/// given, returning the path written.
fn write_metrics(
    args: &ParsedArgs,
    doc: impl FnOnce() -> JsonValue,
) -> Result<Option<&str>, CliError> {
    let Some(path) = args.nonempty("metrics") else {
        return Ok(None);
    };
    std::fs::write(path, doc().pretty()).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    Ok(Some(path))
}

/// Dispatch a parsed command line.
pub fn run(args: &ParsedArgs) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => analysis::generate(args),
        "observe" => analysis::observe(args),
        "degrees" => analysis::degrees(args),
        "fit" if args.nonempty("server").is_some() => service::fit_server(args),
        "fit" => analysis::fit(args),
        "census" => analysis::census(args),
        "gof" => analysis::gof(args),
        "simulate" => capture::simulate(args, false),
        "shard" => capture::simulate(args, true),
        "pool" if args.options.contains_key("merge") => capture::pool_merge(args),
        "pool" => capture::pool_trace(args),
        "serve" => service::serve(args),
        "submit" => service::submit(args),
        "dispatch" => service::dispatch(args),
        "work" => service::work(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?} (try `palu-cli help`)"
        ))),
    }
}

#[cfg(test)]
mod tests;
