//! Synthetic captures and pooling: `simulate` (the whole capture in
//! one process), `shard` (one shard of a federated capture), and
//! `pool`, over a packet trace or, with `--merge`, over shard
//! journals. [`SimCapture`] is the capture identity every one of
//! them — and the service commands — parses from the same options.

use super::{
    federation_error, journal_fault_error, min_coverage, parse_bytes, pipeline_error, pooled_rows,
    positive_ms, report, usize_opt, write_metrics, write_pooled, write_series, CliError,
};
use crate::args::ParsedArgs;
use crate::io;
use palu::params::PaluParams;
use palu_traffic::metrics::Metrics;
use palu_traffic::pipeline::{Measurement, Pipeline};
use palu_traffic::{FaultTolerantPool, Journal, Observatory, PipelineError, Recovery};
use std::path::Path;

/// Parse the `--fail-policy` / `--max-retries` /
/// `--quarantine-threshold` / `--window-deadline-ms` options into a
/// [`palu_traffic::FailurePolicy`].
fn parse_fail_policy(args: &ParsedArgs) -> Result<palu_traffic::FailurePolicy, CliError> {
    use palu_traffic::{FailurePolicy, FaultAction};
    let max_retries = args.u64_or("max-retries", 1)?;
    let max_retries = u32::try_from(max_retries)
        .map_err(|_| CliError::usage(format!("--max-retries = {max_retries} is out of range")))?;
    let threshold = args.f64_or("quarantine-threshold", 1.0)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(CliError::usage(format!(
            "--quarantine-threshold must be in [0,1], got {threshold}"
        )));
    }
    let on_fault = match args.nonempty("fail-policy") {
        None | Some("abort") => FaultAction::Abort,
        Some("quarantine") => FaultAction::Quarantine,
        Some("substitute") => FaultAction::Substitute,
        Some(other) => {
            return Err(CliError::usage(format!(
                "--fail-policy must be abort, quarantine, or substitute, got {other:?}"
            )))
        }
    };
    let window_deadline_ms = match args.options.get("window-deadline-ms") {
        Some(_) => Some(positive_ms(args, "window-deadline-ms", 0)?),
        None => None,
    };
    Ok(FailurePolicy {
        on_fault,
        max_retries,
        quarantine_threshold: threshold,
        window_deadline_ms,
    })
}

/// The shared capture parameter set of `simulate`, `shard`,
/// `pool --merge` and the service commands: everything that shapes a
/// capture's identity (and therefore its journal fingerprint) plus the
/// operational fault/budget knobs.
pub(super) struct SimCapture {
    nodes: u64,
    core: f64,
    leaves: f64,
    lambda: f64,
    alpha: f64,
    n_v: u64,
    pub(super) n_windows: usize,
    pub(super) seed: u64,
    policy: palu_traffic::FailurePolicy,
    injector: Option<palu_traffic::Injector>,
    inject_spec: String,
    budget: Option<palu_traffic::ResourceBudget>,
    strict_admission: bool,
}

impl SimCapture {
    pub(super) fn parse(args: &ParsedArgs) -> Result<SimCapture, CliError> {
        use palu_traffic::budget::ResourceBudget;
        use palu_traffic::{InjectionSpec, Injector};

        let nodes = args.u64_or("nodes", 100_000)?;
        let core = args.require_f64("core")?;
        let leaves = args.require_f64("leaves")?;
        let lambda = args.require_f64("lambda")?;
        let alpha = args.require_f64("alpha")?;
        let n_v = args.u64_or("nv", 100_000)?;
        if n_v == 0 {
            return Err(CliError::usage("--nv must be positive"));
        }
        let n_windows = usize_opt(args.u64_or("windows", 8)?, "windows")?;
        if n_windows == 0 {
            return Err(CliError::usage(
                "--windows must be positive (an explicit 0-window capture has no pooled result)",
            ));
        }
        let seed = args.u64_or("seed", 1)?;
        let policy = parse_fail_policy(args)?;
        let inject_spec = args.get_or("inject-faults", "").to_string();
        let injector = match args.nonempty("inject-faults") {
            Some(spec) => {
                let spec = InjectionSpec::parse(spec)
                    .map_err(|e| CliError::usage(format!("--inject-faults: {e}")))?;
                Some(Injector::new(spec, seed))
            }
            None => None,
        };
        let memory_budget = match args.options.get("memory-budget") {
            Some(spec) => Some(
                parse_bytes(spec).map_err(|e| CliError::usage(format!("--memory-budget: {e}")))?,
            ),
            None => None,
        };
        let strict_admission = args.options.contains_key("admission");
        if strict_admission && memory_budget.is_none() {
            return Err(CliError::usage(
                "--admission requires --memory-budget <bytes>",
            ));
        }
        Ok(SimCapture {
            nodes,
            core,
            leaves,
            lambda,
            alpha,
            n_v,
            n_windows,
            seed,
            policy,
            injector,
            inject_spec,
            budget: memory_budget.map(ResourceBudget::with_limit),
            strict_admission,
        })
    }

    /// Worker count for a capture of `local` windows: the
    /// same clamp the pipeline applies (no more workers than
    /// windows), so banners and metrics snapshots agree.
    pub(super) fn threads(&self, args: &ParsedArgs, local: usize) -> Result<usize, CliError> {
        Ok(match usize_opt(args.u64_or("threads", 0)?, "threads")? {
            0 => palu_traffic::pipeline::default_threads(),
            t => t,
        }
        .clamp(1, local.max(1)))
    }

    /// The fingerprinted parameter manifest: every result-shaping
    /// parameter — but NOT the thread count (the merge is
    /// bit-identical across --threads) and NOT the stall deadline
    /// (watchdog verdicts are operational, not captured data).
    fn fingerprint_parts(&self) -> Vec<String> {
        vec![
            "measurement=undirected-degree".to_string(),
            format!("nodes={}", self.nodes),
            format!("core={}", self.core),
            format!("leaves={}", self.leaves),
            format!("lambda={}", self.lambda),
            format!("alpha={}", self.alpha),
            format!("fail-policy={:?}", self.policy.on_fault),
            format!("max-retries={}", self.policy.max_retries),
            format!("quarantine-threshold={}", self.policy.quarantine_threshold),
            format!("inject-faults={}", self.inject_spec),
        ]
    }

    /// The journal identity this capture binds to (shared verbatim by
    /// `simulate`, every `shard`, the merge's expectation and the
    /// service commands).
    pub(super) fn header(&self) -> palu_traffic::JournalHeader {
        palu_traffic::JournalHeader::with_params(
            self.seed,
            self.n_v,
            self.n_windows as u64,
            self.fingerprint_parts(),
        )
    }

    /// The validated PALU generator of the network (cheap: no network
    /// is drawn yet).
    pub(super) fn generator(&self) -> Result<palu_graph::palu_gen::PaluGenerator, CliError> {
        PaluParams::from_core_leaf_fractions(self.core, self.leaves, self.lambda, self.alpha, 0.5)
            .map_err(|e| CliError::usage(e.to_string()))?
            .generator(self.nodes)
            .map_err(|e| CliError::usage(e.to_string()))
    }

    /// Draw `gen`'s network and build the observatory (PALU network +
    /// packet synthesizer) over it, timed as `metrics`' set-up.
    pub(super) fn observatory_of(
        &self,
        gen: &palu_graph::palu_gen::PaluGenerator,
        metrics: &Metrics,
    ) -> Observatory {
        use palu_traffic::observatory::ObservatoryConfig;
        use palu_traffic::packets::EdgeIntensity;
        metrics.time_setup(|| {
            Observatory::new(
                ObservatoryConfig {
                    name: "cli".into(),
                    date: String::new(),
                    n_v: self.n_v,
                },
                gen,
                EdgeIntensity::Uniform,
                self.seed,
            )
        })
    }

    /// Capture windows `lo..lo + n` under this capture's policy,
    /// injector and memory budget: the one engine call of `simulate`,
    /// `shard` and `work`'s leases. Window indices are absolute, so a
    /// range journals under the full capture's identity.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn capture(
        &self,
        obs: &mut Observatory,
        lo: u64,
        n: usize,
        threads: usize,
        metrics: Option<&Metrics>,
        journal: Option<&Journal>,
        recovery: Option<&Recovery>,
    ) -> Result<FaultTolerantPool, PipelineError> {
        use palu_traffic::budget::Governor;
        let governor = self.budget.as_ref().map(|budget| Governor {
            budget,
            strict_admission: self.strict_admission,
        });
        obs.seek(lo);
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            obs,
            n,
            threads,
            metrics,
            &self.policy,
            self.injector.as_ref(),
            journal,
            recovery,
            governor.as_ref(),
        )
    }
}

/// Create or resume a capture journal at `path`, with the standard
/// stderr narration. `n_windows` is only for the resume banner.
fn open_journal(
    path: &str,
    header: palu_traffic::JournalHeader,
    resume: bool,
    n_windows: usize,
) -> Result<(Journal, Option<Recovery>), CliError> {
    if resume && Path::new(path).exists() {
        let (journal, recovery) =
            Journal::resume(path, header).map_err(|e| journal_fault_error("journal", &e))?;
        eprintln!(
            "journal: resumed {} of {} windows from {path} ({} bytes replayed, \
             {} torn record(s) dropped)",
            recovery.windows.len(),
            n_windows,
            recovery.bytes_replayed,
            recovery.torn_records_dropped
        );
        Ok((journal, Some(recovery)))
    } else {
        if resume {
            eprintln!("journal: {path} does not exist yet, starting a fresh capture");
        }
        let journal =
            Journal::create(path, header).map_err(|e| journal_fault_error("journal", &e))?;
        Ok((journal, None))
    }
}

/// `palu-cli simulate`, and with `sharded` `palu-cli shard
/// --shard-index i --shards n`: sharded synthesize → histogram → bin
/// with a deterministic window-ordered merge, bit-identical for any
/// --threads value and fault-tolerant per --fail-policy, optionally
/// journaled and budgeted. A shard captures its plan range, journaling
/// under the full capture's identity so the shard journals merge back
/// into a single-process-identical pool; `simulate` is shard 0 of a
/// 1-shard plan.
pub(super) fn simulate(args: &ParsedArgs, sharded: bool) -> Result<(), CliError> {
    use palu_stats::mle::{fit_csn_with_restarts, CsnOptions};
    use palu_stats::restart::RestartPolicy;
    use palu_traffic::federation::ShardPlan;

    let sc = SimCapture::parse(args)?;
    let (shards, shard) = if sharded {
        (args.u64_or("shards", 1)?, args.u64_or("shard-index", 0)?)
    } else {
        (1, 0)
    };
    let plan = ShardPlan::new(sc.n_windows as u64, shards).map_err(|e| federation_error(&e))?;
    let range = plan.shard_range(shard).ok_or_else(|| {
        CliError::usage(format!("--shard-index {shard} outside --shards {shards}"))
    })?;
    let local = usize_opt(range.window_count(), "shards")?;
    let threads = sc.threads(args, local)?;
    // Durable checkpoint/resume: the journal identity binds the seed,
    // window geometry, and every result-shaping parameter (see
    // SimCapture::fingerprint_parts for what stays out).
    let resume = args.options.contains_key("resume");
    let journal_path = if sharded {
        Some(args.require("journal").map_err(|_| {
            CliError::usage("shard requires --journal <path> (the merge consumes shard journals)")
        })?)
    } else {
        args.nonempty("journal")
    };
    if resume && journal_path.is_none() {
        return Err(CliError::usage("--resume requires --journal <path>"));
    }
    // The parameters are checked before the journal is touched, and
    // the network is drawn after.
    let gen = sc.generator()?;
    let journal = match journal_path {
        Some(path) => Some(open_journal(path, sc.header(), resume, local)?),
        None => None,
    };
    let metrics = Metrics::new();
    let mut obs = sc.observatory_of(&gen, &metrics);
    if sharded {
        eprintln!(
            "shard {shard}/{shards} up: windows [{}, {}) of {} × {} packets on {threads} threads",
            range.lo, range.hi, sc.n_windows, sc.n_v
        );
    } else {
        eprintln!(
            "observatory up: {} windows × {} packets on {threads} threads (effective p ≈ {:.3})",
            sc.n_windows,
            sc.n_v,
            obs.effective_p()
        );
    }
    if let Some(b) = &sc.budget {
        eprintln!(
            "budget: {} byte hard watermark (soft {}), admission {}",
            b.hard().unwrap_or(0),
            b.soft().unwrap_or(0),
            if sc.strict_admission {
                "strict"
            } else {
                "floor"
            }
        );
    }
    let mut ft = sc
        .capture(
            &mut obs,
            range.lo,
            local,
            threads,
            Some(&metrics),
            journal.as_ref().map(|(j, _)| j),
            journal.as_ref().and_then(|(_, r)| r.as_ref()),
        )
        .map_err(|e| pipeline_error(&e))?;
    if sc.injector.is_some() {
        // Fit the pooled histogram through the restart ladder so the
        // report shows how far recovery had to climb.
        match fit_csn_with_restarts(
            &ft.histogram,
            &CsnOptions::default(),
            &RestartPolicy::default(),
        ) {
            Ok(fit) => {
                ft.report.ladder.record(fit.rung);
                eprintln!(
                    "csn fit on pooled histogram: alpha = {:.4} via {} rung ({} attempt(s))",
                    fit.value.alpha,
                    fit.rung.name(),
                    fit.attempts
                );
            }
            Err(e) => eprintln!("csn fit on pooled histogram: not fittable ({e})"),
        }
    }
    let r = &ft.report;
    if !r.is_clean() {
        eprintln!(
            "fault report: {} injected, {} retries, {} recovered, {} quarantined, {} substituted \
             ({} of {} windows survive)",
            r.injected,
            r.retries,
            r.recovered,
            r.quarantined,
            r.substituted,
            r.survivors,
            r.windows
        );
    }
    if !r.degradations.is_empty() {
        eprintln!(
            "budget: {} degradation rung engagement(s) under pressure (peak accounted {} bytes); \
             pooled output is unaffected",
            r.degradations.len(),
            sc.budget.as_ref().map_or(0, |b| b.peak())
        );
    }
    let snap = metrics.snapshot();
    let appended = journal.as_ref().map(|(j, _)| j.appended_bytes());
    let written = write_metrics(args, || {
        // The budget, journal and shard sections precede fault_report
        // so consumers slicing the document from "fault_report" onward
        // (the CI crash-recovery diff) see identical bytes for a
        // resumed and an uninterrupted capture.
        let mut sections = Vec::new();
        if let Some(b) = &sc.budget {
            sections.push(("budget", report::budget_json(b, &snap, r)));
        }
        if let Some(appended) = appended {
            sections.push(("journal", report::journal_json(&snap, appended)));
        }
        if sharded {
            sections.push((
                "shard",
                report::shard_json(shard, shards, &range, appended.unwrap_or(0)),
            ));
        }
        report::capture_json(&snap, sections, r)
    })?;
    if let Some(path) = written {
        eprintln!(
            "metrics: {} packets in {:.1} ms of stage time across {} threads, after {:.1} ms \
             of set-up → {path}",
            snap.packets,
            snap.total_ns() as f64 / 1e6,
            snap.threads,
            snap.setup_ns as f64 / 1e6
        );
    }
    if let Some(path) = journal_path.filter(|_| sharded) {
        eprintln!(
            "shard {shard} complete: {} windows journaled to {path}",
            r.survivors + r.quarantined + r.substituted
        );
    }
    write_pooled(args, &ft.pooled)
}

/// `palu-cli pool --merge a.journal b.journal …`: hierarchical merge
/// of shard journals into one pooled series, with quarantine/coverage
/// semantics and optional deterministic re-capture of missing windows.
pub(super) fn pool_merge(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::federation::merge_shard_journals;
    use std::path::PathBuf;

    let sc = SimCapture::parse(args)?;
    let paths: Vec<PathBuf> = args
        .list("merge")
        .unwrap_or_default()
        .into_iter()
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err(CliError::usage(
            "--merge requires at least one journal path",
        ));
    }
    let min_coverage = min_coverage(args)?;
    let threads = sc.threads(args, sc.n_windows)?;
    let recapture = args.options.contains_key("recapture");
    let metrics = Metrics::new();
    let mut obs = if recapture {
        Some(sc.observatory_of(&sc.generator()?, &metrics))
    } else {
        None
    };
    eprintln!(
        "merging {} shard journal(s) over {} windows (min coverage {min_coverage}{})",
        paths.len(),
        sc.n_windows,
        if recapture { ", re-capturing gaps" } else { "" }
    );
    let merged = merge_shard_journals(
        Measurement::UndirectedDegree,
        &sc.header(),
        &paths,
        &sc.policy,
        min_coverage,
        threads,
        sc.injector.as_ref(),
        obs.as_mut(),
        Some(&metrics),
    )
    .map_err(|e| federation_error(&e))?;
    let fed = &merged.federation;
    eprintln!(
        "merge complete: {}/{} windows covered ({} recaptured, {} survivors) \
         across {} level(s); {} shard fault(s)",
        fed.covered,
        fed.windows,
        fed.recaptured,
        fed.survivors,
        fed.merge_levels,
        fed.faults.len()
    );
    for fault in &fed.faults {
        eprintln!("  shard fault [{}]: {fault}", fault.name());
    }
    write_metrics(args, || {
        report::capture_json(
            &metrics.snapshot(),
            vec![("federation", report::federation_json(fed))],
            &merged.pool.report,
        )
    })?;
    write_pooled(args, &merged.pool.pooled)
}

/// `palu-cli pool --in FILE --nv NV`: stream a packet trace through
/// fixed-`N_V` windows into a pooled series, in constant memory.
pub(super) fn pool_trace(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::stream::WindowStream;

    let input = args.require("in")?;
    let n_v = usize_opt(args.u64_or("nv", 100_000)?, "nv")?;
    if n_v == 0 {
        return Err(CliError::usage("--nv must be positive"));
    }
    let file = std::fs::File::open(input).map_err(|e| CliError::usage(format!("{input}: {e}")))?;
    // Streaming parse: surface the first malformed line as an error,
    // keep constant memory otherwise.
    let mut parse_error: Option<String> = None;
    let mut pipeline = Pipeline::new(Measurement::UndirectedDegree);
    let packets = io::packet_stream(file).map_while(|item| match item {
        Ok(p) => Some(p),
        Err(e) => {
            parse_error = Some(e);
            None
        }
    });
    for window in WindowStream::new(packets, n_v) {
        pipeline.push_window(&window);
    }
    if let Some(e) = parse_error {
        return Err(CliError::usage(format!("{input}: {e}")));
    }
    if pipeline.windows() == 0 {
        return Err(CliError::usage(format!(
            "{input}: fewer than {n_v} packets — no complete window"
        )));
    }
    let pooled = pipeline.finish();
    eprintln!("pooled {} windows of {n_v} packets", pooled.windows);
    let header = format!(
        "# pooled undirected-degree D(d_i) ± σ over {} windows (N_V = {n_v})",
        pooled.windows
    );
    write_series(args, &header, pooled_rows(&pooled))
}
