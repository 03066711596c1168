//! The federation service: `serve` (the collector daemon), `submit`
//! (one shard journal to it), `dispatch` (the collector behind
//! lease-based shard supervision), `work` (a dispatcher's worker) and
//! `fit --server` (the rolling merged fit).

use super::capture::SimCapture;
use super::{
    federation_error, min_coverage, pooled_header, positive_ms, report, service_fault_error,
    write_metrics, write_series, CliError,
};
use crate::args::ParsedArgs;
use crate::json::JsonValue;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The client retry knobs shared by `submit`, `work` and `fit --server`.
fn retry_policy(args: &ParsedArgs) -> Result<palu_traffic::RetryPolicy, CliError> {
    Ok(palu_traffic::RetryPolicy {
        deadline: Duration::from_millis(args.u64_or("retry-deadline-ms", 30_000)?),
        backoff_base: Duration::from_millis(args.u64_or("backoff-base-ms", 20)?),
        backoff_cap: Duration::from_millis(args.u64_or("backoff-cap-ms", 500)?),
        io_timeout: Duration::from_millis(positive_ms(args, "io-timeout-ms", 5_000)?),
        seed: args.u64_or("seed", 1)?,
    })
}

/// The `--wire-faults` injector shared by `submit` and `work`.
fn wire_injector(args: &ParsedArgs, seed: u64) -> Result<palu_traffic::WireInjector, CliError> {
    use palu_traffic::WireSpec;
    let spec = match args.nonempty("wire-faults") {
        Some(spec) => {
            WireSpec::parse(spec).map_err(|e| CliError::usage(format!("--wire-faults: {e}")))?
        }
        None => WireSpec::none(),
    };
    Ok(palu_traffic::WireInjector::new(spec, seed))
}

/// The collector `serve` and `dispatch` (named by `cmd`) both front,
/// rebuilt from any shard journals already under `--journal-dir`,
/// and the `--listen` address.
fn collector_from_args(
    args: &ParsedArgs,
    cmd: &str,
) -> Result<(palu_traffic::Collector, String), CliError> {
    use palu_traffic::pipeline::Measurement;
    use palu_traffic::service::{Collector, ServiceConfig};

    let sc = SimCapture::parse(args)?;
    let shards = args.u64_or("shards", 1)?;
    let min_coverage = min_coverage(args)?;
    let journal_dir = args.require("journal-dir").map_err(|_| {
        CliError::usage(format!(
            "{cmd} requires --journal-dir <dir> (one journal per shard persists there)"
        ))
    })?;
    let config = ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: sc.header(),
        shards,
        min_coverage,
        journal_dir: PathBuf::from(journal_dir),
        read_timeout: Duration::from_millis(positive_ms(args, "read-timeout-ms", 5_000)?),
    };
    let collector = Collector::new(config).map_err(|e| service_fault_error(cmd, &e))?;
    let recovered = collector.report();
    if recovered.covered > 0 {
        eprintln!(
            "{cmd}: recovered {}/{} window(s) from {} shard journal(s) on disk \
             ({} torn record(s) dropped)",
            recovered.covered,
            recovered.windows,
            recovered.shard_rows.len(),
            recovered.torn_records_dropped
        );
    }
    Ok((collector, args.get_or("listen", "127.0.0.1:0").to_string()))
}

/// Write the bound address to `--addr-file`, when one is given.
fn write_addr_file(args: &ParsedArgs, addr: std::net::SocketAddr) -> Result<(), CliError> {
    match args.nonempty("addr-file") {
        Some(path) => std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::runtime(format!("{path}: {e}"))),
        None => Ok(()),
    }
}

/// `palu-cli serve`: the federation service daemon. Accepts shard
/// submissions over TCP, persists them through per-shard journals
/// under `--journal-dir` (so a SIGKILL'd server rebuilds coverage on
/// restart), and serves rolling merged fits until drained by
/// `submit --shutdown`.
pub(super) fn serve(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::Server;

    let fault = |e| service_fault_error("serve", &e);
    let (collector, listen) = collector_from_args(args, "serve")?;
    let server = Server::bind(&listen, collector).map_err(fault)?;
    let addr = server.local_addr().map_err(fault)?;
    let config = server.collector().config();
    eprintln!(
        "serve: listening on {addr} for {} shard(s) × {} windows (min coverage {})",
        config.shards, config.expect.windows, config.min_coverage
    );
    write_addr_file(args, addr)?;
    let report = server.run().map_err(fault)?;
    eprintln!(
        "serve: drained after {} submission session(s): {}/{} windows covered, {} record(s) \
         accepted, {} duplicate(s), {} rejection(s), {} fit(s) served",
        report.submissions,
        report.covered,
        report.windows,
        report.frames_accepted,
        report.duplicates,
        report.rejected,
        report.fits_served
    );
    write_metrics(args, || {
        JsonValue::obj([("service", report::service_json(&report))])
    })?;
    Ok(())
}

/// `palu-cli submit`: submit one shard journal to a federation
/// service with deadline + jittered-backoff retries and idempotent
/// resumption, or (with `--shutdown`) drain the service.
pub(super) fn submit(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::{request_shutdown, submit_journal};

    let server = args
        .require("server")
        .map_err(|_| CliError::usage("submit requires --server <addr>"))?;
    let retry = retry_policy(args)?;
    if args.options.contains_key("shutdown") {
        request_shutdown(server, &retry)
            .map_err(|e| service_fault_error("submit --shutdown", &e))?;
        eprintln!("submit: server at {server} acknowledged shutdown");
        return Ok(());
    }
    let sc = SimCapture::parse(args)?;
    let journal = args
        .require("journal")
        .map_err(|_| CliError::usage("submit requires --journal <path> (the shard journal)"))?;
    let shards = args.u64_or("shards", 1)?;
    let shard = args.u64_or("shard-index", 0)?;
    let injector = wire_injector(args, sc.seed)?;
    eprintln!("submit: shard {shard}/{shards} from {journal} to {server}");
    let outcome = submit_journal(
        server,
        Path::new(journal),
        shard,
        shards,
        &sc.header(),
        &retry,
        &injector,
    )
    .map_err(|e| service_fault_error("submit", &e))?;
    eprintln!(
        "submit: shard {} done in {} attempt(s): {}/{} assigned windows persisted \
         server-side ({} recovered locally, {} already present{})",
        outcome.shard,
        outcome.attempts,
        outcome.accepted,
        outcome.assigned,
        outcome.recovered,
        outcome.already_present,
        if outcome.torn_records_dropped > 0 {
            format!(
                ", {} torn record(s) dropped recovering the local journal",
                outcome.torn_records_dropped
            )
        } else {
            String::new()
        }
    );
    Ok(())
}

/// `palu-cli dispatch`: the lease-based federation dispatcher. Wraps
/// the `serve` collector behind one listener, hands out window-range
/// leases to `work` clients, re-dispatches expired leases, and fences
/// zombies. A SIGKILL'd dispatcher restarted over the same
/// `--journal-dir` re-derives completion from the shard journals and
/// re-dispatches only what is genuinely incomplete.
pub(super) fn dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::{DispatchConfig, DispatchServer, Dispatcher};

    let lease_ms = args.u64_or("lease-ms", 10_000)?;
    let heartbeat_ms = args.u64_or("heartbeat-ms", lease_ms / 4)?;
    if lease_ms == 0 || heartbeat_ms == 0 {
        return Err(CliError::usage(
            "--lease-ms and --heartbeat-ms must be positive",
        ));
    }
    let stall = match args.options.get("stall-ms") {
        Some(_) => Some(Duration::from_millis(positive_ms(args, "stall-ms", 0)?)),
        None => None,
    };
    let fault = |e| service_fault_error("dispatch", &e);
    let (collector, listen) = collector_from_args(args, "dispatch")?;
    let (shards, windows) = (collector.config().shards, collector.config().expect.windows);
    let dconfig = DispatchConfig {
        lease: Duration::from_millis(lease_ms),
        heartbeat: Duration::from_millis(heartbeat_ms),
        linger: args.options.contains_key("linger"),
        stall,
    };
    let dispatcher = Dispatcher::new(collector, dconfig).map_err(fault)?;
    let server = DispatchServer::bind(&listen, dispatcher).map_err(fault)?;
    let addr = server.local_addr().map_err(fault)?;
    eprintln!(
        "dispatch: listening on {addr}, leasing {shards} shard(s) × {windows} windows \
         (lease {lease_ms} ms, heartbeat {heartbeat_ms} ms)"
    );
    write_addr_file(args, addr)?;
    // Keep a handle on the wrapped collector (the server consumes
    // itself in run()) so the metrics file can include the service
    // section alongside the dispatch section.
    let dispatcher = server.dispatcher().clone();
    let report = server.run().map_err(fault)?;
    eprintln!(
        "dispatch: {}/{} shard(s) done — {} lease(s) granted, {} expired, {} re-dispatched, \
         {} fenced refusal(s), {} heartbeat(s){}",
        report.shards_done,
        report.shards,
        report.leases_granted,
        report.leases_expired,
        report.leases_redispatched,
        report.leases_fenced,
        report.heartbeats,
        if report.stalled { " — STALLED" } else { "" }
    );
    for event in &report.events {
        eprintln!("dispatch: event: {event}");
    }
    write_metrics(args, || {
        JsonValue::obj([
            ("dispatch", report::dispatch_json(&report)),
            (
                "service",
                report::service_json(&dispatcher.collector().report()),
            ),
        ])
    })?;
    if report.stalled {
        return Err(CliError::runtime(format!(
            "dispatch: stalled at {}/{} shard(s) with no live lease",
            report.shards_done, report.shards
        )));
    }
    Ok(())
}

/// `palu-cli work`: a dispatcher worker. Requests leases, captures
/// each granted window range into a local journal, submits it through
/// the idempotent `submit` path, and heartbeats on a jittered
/// interval so the lease stays live. `--resume-lease` instead wakes
/// up as a zombie holding the lease state a previous (killed)
/// incarnation persisted — the expected outcome is the typed fenced
/// refusal (exit 9) with coverage untouched.
pub(super) fn work(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::{
        resume_zombie, run_worker, FederationError, ServiceFault, WorkPhase, WorkerConfig,
        WorkerError,
    };

    let server = args
        .require("server")
        .map_err(|_| CliError::usage("work requires --server <addr> (the dispatcher)"))?;
    let worker = args.u64_or("worker", 0)?;
    let work_dir = args.require("work-dir").map_err(|_| {
        CliError::usage("work requires --work-dir <dir> (local journals + lease state)")
    })?;
    std::fs::create_dir_all(work_dir).map_err(|e| CliError::runtime(format!("{work_dir}: {e}")))?;
    let retry = retry_policy(args)?;
    let sc = SimCapture::parse(args)?;
    let injector = wire_injector(args, sc.seed)?;
    let cfg = WorkerConfig {
        addr: server.to_string(),
        worker,
        journal_dir: PathBuf::from(work_dir),
        expect: sc.header(),
        retry,
        poll: Duration::from_millis(args.u64_or("poll-ms", 50)?),
    };
    let fault = |e| service_fault_error("work", &e);
    // The zombie-resume state file: written at each grant, removed on
    // a clean exit, so only a killed worker leaves one behind.
    let lease_state = Path::new(work_dir).join(format!("worker-{worker}.lease"));
    if args.options.contains_key("resume-lease") {
        let state = std::fs::read_to_string(&lease_state)
            .map_err(|e| CliError::usage(format!("{}: {e}", lease_state.display())))?;
        let mut fields = state.split_whitespace().map(str::parse::<u64>);
        let (shard, fence, shards) = match (fields.next(), fields.next(), fields.next()) {
            (Some(Ok(shard)), Some(Ok(fence)), Some(Ok(shards))) => (shard, fence, shards),
            _ => {
                return Err(CliError::usage(format!(
                    "{}: expected `shard fence shards`, got {state:?}",
                    lease_state.display()
                )))
            }
        };
        eprintln!(
            "work: zombie worker {worker} waking up on shard {shard}/{shards} with fence {fence}"
        );
        let outcome = resume_zombie(&cfg, &injector, shard, shards, fence).map_err(fault)?;
        eprintln!(
            "work: zombie resubmitted {} window record(s) (byte-idempotent server-side); \
             fenced: {}",
            outcome.resubmitted, outcome.fenced
        );
        if outcome.fenced {
            return Err(service_fault_error(
                "work --resume-lease",
                &ServiceFault::LeaseFenced {
                    worker,
                    shard,
                    fence,
                },
            ));
        }
        return Ok(());
    }
    let chaos = match args.options.get("chaos-kill").map(String::as_str) {
        None => None,
        Some("pre-lease") => Some(WorkPhase::PreLease),
        Some("mid-capture") => Some(WorkPhase::MidCapture),
        Some("pre-submit") => Some(WorkPhase::PreSubmit),
        Some(other) => {
            return Err(CliError::usage(format!(
                "--chaos-kill must be pre-lease, mid-capture, or pre-submit, got {other:?}"
            )))
        }
    };
    let threads = sc.threads(args, sc.n_windows)?;
    // The network is drawn on the first grant, not before the first
    // lease request: a dispatcher without --linger exits once every
    // shard is done, and a worker still drawing its network by then
    // could not tell it finished from not up yet, and would fail at
    // its retry deadline.
    let gen = sc.generator()?;
    let mut obs = None;
    let report = run_worker(
        &cfg,
        &injector,
        chaos,
        |ticket, journal, limit| {
            let obs = obs.get_or_insert_with(|| sc.observatory_of(&gen));
            let n = usize::try_from(limit.unwrap_or(ticket.hi - ticket.lo)).map_err(|_| {
                FederationError::BadPlan {
                    windows: ticket.windows,
                    shards: ticket.shards,
                }
            })?;
            sc.capture(obs, ticket.lo, n, threads, None, Some(journal), None)
                .map(|_| ())
                .map_err(FederationError::Pipeline)
        },
        |ticket| {
            let _ = std::fs::write(
                &lease_state,
                format!("{} {} {}\n", ticket.shard, ticket.fence, ticket.shards),
            );
            eprintln!(
                "work: worker {} leased shard {}/{} — windows [{}, {}), fence {} \
                 (lease {} ms, heartbeat {} ms)",
                ticket.worker,
                ticket.shard,
                ticket.shards,
                ticket.lo,
                ticket.hi,
                ticket.fence,
                ticket.lease_ms,
                ticket.heartbeat_ms
            );
        },
    )
    .map_err(|e| match e {
        WorkerError::Service(e) => fault(e),
        WorkerError::Capture(e) => federation_error(&e),
    })?;
    let completed: Vec<String> = report.completed.iter().map(u64::to_string).collect();
    eprintln!(
        "work: worker {} served {} lease(s): {} shard(s) completed{}, {} fenced refusal(s)",
        report.worker,
        report.leases,
        completed.len(),
        if completed.is_empty() {
            String::new()
        } else {
            format!(" ({})", completed.join(", "))
        },
        report.fenced
    );
    match report.killed {
        Some(phase) => eprintln!("work: chaos kill at {phase:?} — lease state left on disk"),
        None => {
            let _ = std::fs::remove_file(&lease_state);
        }
    }
    Ok(())
}

/// `fit --server`: query the federation service's rolling merged fit
/// and render it in the canonical pooled format. Rows cross the wire
/// as raw IEEE-754 bits, so at full coverage the output is
/// byte-identical to single-process `simulate`. A partial snapshot
/// refuses with the coverage exit code unless `--allow-partial`.
pub(super) fn fit_server(args: &ParsedArgs) -> Result<(), CliError> {
    use palu_traffic::service::query_fit;

    let server = args.require("server")?;
    let retry = retry_policy(args)?;
    let snap = query_fit(server, &retry).map_err(|e| service_fault_error("fit", &e))?;
    eprintln!(
        "fit: {}/{} windows covered (min coverage {}), {} survivor(s), {} quarantined",
        snap.covered, snap.windows, snap.min_coverage, snap.survivors, snap.quarantined
    );
    if let Some(fault) = snap.partial_fault() {
        if !args.options.contains_key("allow-partial") {
            return Err(service_fault_error("fit", &fault));
        }
        eprintln!("fit: WARNING serving a partial pool ({fault})");
    }
    write_metrics(args, || report::fit_json(&snap))?;
    let rows = snap.rows.iter().map(|row| {
        let v = f64::from_bits(row.mean_bits);
        (row.degree, v, f64::from_bits(row.sigma_bits))
    });
    write_series(args, &pooled_header(snap.pooled_windows), rows)
}
