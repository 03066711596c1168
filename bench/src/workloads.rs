//! The five workloads and the one timed sample each of them repeats.
//!
//! `simulate`, `serve` and `dispatch` share one capture spec (Fig. 3
//! panel 0, `N_V` = 2·10⁴, 256 windows), so the three deployment
//! shapes pool exactly the same packets and must produce the same
//! bytes. `wide` and `narrow` change only the window size, by a factor
//! of 50 and 10 either way, to move the cost between per-packet work
//! and per-window fixed costs.

use crate::harness::{Tally, WorkDir};
use crate::trace::Tracer;
use palu::zm_fit::{FitObjective, ZmFit, ZmFitter};
use palu_bench::Scenario;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::StatsError;
use palu_traffic::journal::{crc32, Journal, JournalHeader};
use palu_traffic::pipeline::{FaultTolerantPool, Measurement, Pipeline, PooledDistribution};
use palu_traffic::service::{
    query_fit, request_shutdown, submit_journal, Collector, RetryPolicy, Server, ServiceConfig,
};
use palu_traffic::wire::FitSnapshot;
use palu_traffic::{
    capture_shard, merge_shard_journals, run_worker, DispatchConfig, DispatchServer, Dispatcher,
    FailurePolicy, FederationError, Observatory, ShardPlan, WireInjector, WireSpec, WorkerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The measurement every workload pools: the undirected host degree.
pub const MEASUREMENT: Measurement = Measurement::UndirectedDegree;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Simulate,
    Wide,
    Narrow,
    Serve,
    Dispatch,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Simulate,
        Kind::Wide,
        Kind::Narrow,
        Kind::Serve,
        Kind::Dispatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Simulate => "simulate",
            Kind::Wide => "wide",
            Kind::Narrow => "narrow",
            Kind::Serve => "serve",
            Kind::Dispatch => "dispatch",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The Fig. 3 panel whose network parameters the workload uses.
    fn panel(self) -> usize {
        match self {
            Kind::Wide => 4,
            _ => 0,
        }
    }

    /// Shards in the workload's federation plan (1: no federation).
    pub fn shards(self) -> u64 {
        match self {
            Kind::Narrow => 4,
            Kind::Serve => 8,
            // Finer leases than `serve`'s shards: with 8, which worker
            // drew the last lease swung sample times by a fifth.
            Kind::Dispatch => 16,
            Kind::Simulate | Kind::Wide => 1,
        }
    }
}

/// A workload's capture geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Visible-node budget of the underlying network.
    pub nodes: u64,
    /// Packets per window.
    pub n_v: u64,
    /// Windows pooled.
    pub windows: usize,
}

impl Size {
    /// The size the benchmark runs `kind` at.
    pub fn of(kind: Kind) -> Size {
        match kind {
            // Per-window arrays of tens of MB, far beyond a core's L2.
            Kind::Wide => Size {
                nodes: 300_000,
                n_v: 1_000_000,
                windows: 16,
            },
            // Far fewer packets per window than nodes: fixed per-window
            // costs dominate.
            Kind::Narrow => Size {
                nodes: 120_000,
                n_v: 2_000,
                windows: 2048,
            },
            Kind::Simulate | Kind::Serve | Kind::Dispatch => Size {
                nodes: 120_000,
                n_v: 20_000,
                windows: 256,
            },
        }
    }
}

/// Everything that defines one workload run. The seed is the only
/// input the benchmark takes; the program receives the generated
/// network and packets.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    /// Capture threads, worker count and client connections:
    /// `min(2, effective cores)`.
    pub threads: usize,
    scenario: Scenario,
}

impl Spec {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Spec {
        let mut scenario = palu_bench::fig3_scenarios().swap_remove(kind.panel());
        scenario.n_nodes = size.nodes;
        scenario.n_v = size.n_v;
        scenario.windows = size.windows;
        Spec {
            kind,
            size,
            seed,
            threads: effective_cores().min(2),
            scenario,
        }
    }

    pub fn is_full_size(&self) -> bool {
        self.size == Size::of(self.kind)
    }

    pub fn observatory(&self) -> Observatory {
        self.scenario.observatory(self.seed)
    }

    /// The capture identity journals and collectors are bound to.
    pub fn header(&self) -> JournalHeader {
        self.header_for(self.size.windows as u64)
    }

    /// The same identity for a capture of `windows` windows.
    pub fn header_for(&self, windows: u64) -> JournalHeader {
        JournalHeader::with_params(
            self.seed,
            self.size.n_v,
            windows,
            vec![
                format!("scenario={}", self.scenario.name),
                format!("nodes={}", self.size.nodes),
                "measurement=undirected-degree".to_string(),
            ],
        )
    }

    /// Packets pooled by one sample.
    pub fn packets(&self) -> u64 {
        self.size.n_v * self.size.windows as u64
    }

    /// Windows the traced layer probes replay from the start of the
    /// capture.
    pub fn probe_windows(&self) -> usize {
        let k = if self.kind == Kind::Narrow { 256 } else { 32 };
        k.min(self.size.windows)
    }
}

/// `std::thread::available_parallelism`, or 1 when it is unknown.
pub fn effective_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A collector configuration for a capture identity over `dir`.
pub fn service_config(header: JournalHeader, shards: u64, dir: PathBuf) -> ServiceConfig {
    ServiceConfig {
        measurement: MEASUREMENT,
        expect: header,
        shards,
        min_coverage: 1.0,
        journal_dir: dir,
        read_timeout: Duration::from_secs(5),
    }
}

/// A lingering dispatcher policy: the lease and heartbeat of the
/// dispatch workload.
pub fn dispatch_config() -> DispatchConfig {
    DispatchConfig {
        lease: Duration::from_millis(600),
        heartbeat: Duration::from_millis(120),
        linger: true,
        stall: None,
    }
}

/// The pooled output's digest: crc32 over every row's degree, mean
/// bits and sigma bits, little-endian. Two runs agree on it exactly
/// when their pooled bytes agree.
pub fn digest(p: &PooledDistribution) -> u32 {
    let mut bytes = Vec::with_capacity(24 * p.sigma.len());
    for ((degree, mean), sigma) in p.mean.iter().zip(&p.sigma) {
        bytes.extend_from_slice(&degree.to_le_bytes());
        bytes.extend_from_slice(&mean.to_bits().to_le_bytes());
        bytes.extend_from_slice(&sigma.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

/// The pooled distribution a served fit snapshot carries.
pub fn from_snapshot(snap: &FitSnapshot) -> PooledDistribution {
    PooledDistribution {
        mean: DifferentialCumulative::from_values(
            snap.rows
                .iter()
                .map(|r| f64::from_bits(r.mean_bits))
                .collect(),
        ),
        sigma: snap
            .rows
            .iter()
            .map(|r| f64::from_bits(r.sigma_bits))
            .collect(),
        windows: snap.pooled_windows,
        d_max: snap.d_max,
    }
}

/// The paper's Fig. 3 fit: inverse-variance weighted Zipf–Mandelbrot.
pub fn zm_fit(p: &PooledDistribution) -> Result<ZmFit, StatsError> {
    ZmFitter::with_objective(FitObjective::WeightedLeastSquares).fit(&p.mean, Some(&p.weights(1.0)))
}

/// Outputs pinned at seed 1 and the benchmark's sizes: the digest, ZM
/// `α` and ZM `δ`.
pub fn pinned(kind: Kind) -> (u32, f64, f64) {
    match kind {
        // One capture spec, so one output for all three shapes.
        Kind::Simulate | Kind::Serve | Kind::Dispatch => {
            (0x0a00_185c, 2.014418234761591, -0.516032054929501)
        }
        Kind::Wide => (0x08e8_d94d, 2.5586105036849314, -0.2664933287720336),
        Kind::Narrow => (0xe545_1b24, 2.0998394394788606, -0.587029852767096),
    }
}

/// Whether `digest`, `α` and `δ` match the pinned seed-1 values, with
/// the fit parameters held to a relative error of 1e-9.
pub fn matches_pinned(kind: Kind, digest: u32, fit: &ZmFit) -> bool {
    let (d, alpha, delta) = pinned(kind);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
    d == digest && close(fit.alpha, alpha) && close(fit.delta, delta)
}

/// What a workload's set-up leaves for its samples.
pub struct Prepared {
    /// One observatory per capture worker.
    pub obs: Vec<Observatory>,
    /// `serve`: the shard journals its clients submit, one per shard.
    shard_paths: Vec<PathBuf>,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each observatory build.
    pub build_s: Vec<f64>,
}

/// Set the workload up [`SETUP_REPS`] times and keep the last result:
/// build the observatory (network generation plus synthesizer), and
/// for `serve` also capture the shard journals its clients submit.
pub fn prepare(spec: &Spec, work: &WorkDir, tally: &mut Tally) -> Result<Prepared, String> {
    let keep = if spec.kind == Kind::Dispatch {
        spec.threads
    } else {
        1
    };
    let mut prep = Prepared {
        obs: Vec::new(),
        shard_paths: Vec::new(),
        setup_s: Vec::new(),
        build_s: Vec::new(),
    };
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut obs = spec.observatory();
        prep.build_s.push(t0.elapsed().as_secs_f64());
        if spec.kind == Kind::Serve {
            let dir = work.fresh("shards").map_err(|e| e.to_string())?;
            prep.shard_paths = capture_shards(spec, &mut obs, &dir, &Tracer::off(), 0, 0, tally)?;
        }
        prep.setup_s.push(t0.elapsed().as_secs_f64());
        prep.obs.push(obs);
        if prep.obs.len() > keep {
            prep.obs.remove(0);
        }
    }
    Ok(prep)
}

/// Capture every shard of the plan into its own journal under `dir`,
/// one `shard_capture` span each.
fn capture_shards(
    spec: &Spec,
    obs: &mut Observatory,
    dir: &Path,
    tracer: &Tracer,
    root: u64,
    request: u64,
    tally: &mut Tally,
) -> Result<Vec<PathBuf>, String> {
    let shards = spec.kind.shards();
    let plan = ShardPlan::new(spec.size.windows as u64, shards).map_err(|e| e.to_string())?;
    let paths = (0..shards)
        .map(|shard| {
            let path = dir.join(format!("shard-{shard}.journal"));
            let captured = tracer.span("shard_capture", root, request, |_| {
                capture_one_shard(spec, obs, &plan, shard, &path)
            });
            tally.op(
                captured.as_ref().is_ok_and(|ft| ft.report.is_clean()),
                || format!("shard {shard} capture: {:?}", captured.as_ref().err()),
            );
            path
        })
        .collect();
    Ok(paths)
}

fn capture_one_shard(
    spec: &Spec,
    obs: &mut Observatory,
    plan: &ShardPlan,
    shard: u64,
    path: &Path,
) -> Result<FaultTolerantPool, String> {
    let journal = Journal::create(path, spec.header()).map_err(|e| e.to_string())?;
    capture_shard(
        MEASUREMENT,
        obs,
        plan,
        shard,
        spec.threads,
        None,
        &FailurePolicy::strict(),
        None,
        Some(&journal),
        None,
        None,
    )
    .map_err(|e| e.to_string())
}

/// One timed sample: the workload's deployment shape from its inputs
/// to the pooled distribution. Returns `None` when the shape failed to
/// produce one (the failure is already counted in `tally`).
pub fn sample(
    spec: &Spec,
    prep: &mut Prepared,
    work: &WorkDir,
    tracer: &Tracer,
    request: u64,
    tally: &mut Tally,
) -> Option<PooledDistribution> {
    tracer.span("sample", 0, request, |root| {
        let shaped = match spec.kind {
            Kind::Simulate | Kind::Wide => Ok(capture(
                spec,
                &mut prep.obs[0],
                tracer,
                root,
                request,
                tally,
            )),
            Kind::Narrow => federate(spec, &mut prep.obs[0], work, tracer, root, request, tally),
            Kind::Serve => serve_round(spec, &prep.shard_paths, work, tracer, root, request, tally),
            Kind::Dispatch => dispatch_run(spec, &mut prep.obs, work, tracer, root, request, tally),
        };
        shaped.unwrap_or_else(|e| {
            tally.op(false, || format!("{} sample set-up: {e}", spec.kind.name()));
            None
        })
    })
}

/// `simulate`/`wide`: the call `palu-cli simulate` makes.
fn capture(
    spec: &Spec,
    obs: &mut Observatory,
    tracer: &Tracer,
    root: u64,
    request: u64,
    tally: &mut Tally,
) -> Option<PooledDistribution> {
    obs.seek(0);
    let captured = tracer.span("capture", root, request, |_| {
        Pipeline::pool_observatory_governed(
            MEASUREMENT,
            obs,
            spec.size.windows,
            spec.threads,
            None,
            &FailurePolicy::strict(),
            None,
            None,
            None,
            None,
        )
    });
    tally.op(
        captured.as_ref().is_ok_and(|ft| ft.report.is_clean()),
        || format!("capture: {:?}", captured.as_ref().err()),
    );
    captured.ok().map(|ft| ft.pooled)
}

/// `narrow`: `shard` per shard into its own journal, then
/// `pool --merge`.
fn federate(
    spec: &Spec,
    obs: &mut Observatory,
    work: &WorkDir,
    tracer: &Tracer,
    root: u64,
    request: u64,
    tally: &mut Tally,
) -> Result<Option<PooledDistribution>, String> {
    let dir = work.fresh("narrow").map_err(|e| e.to_string())?;
    let paths = capture_shards(spec, obs, &dir, tracer, root, request, tally)?;
    let merged = tracer.span("shard_merge", root, request, |_| {
        merge_shard_journals(
            MEASUREMENT,
            &spec.header(),
            &paths,
            &FailurePolicy::strict(),
            1.0,
            spec.threads,
            None,
            None,
            None,
        )
    });
    tally.op(
        merged.as_ref().is_ok_and(|m| {
            m.federation.faults.is_empty() && m.federation.missing == 0 && m.pool.report.is_clean()
        }),
        || format!("merge: {:?}", merged.as_ref().err()),
    );
    Ok(merged.ok().map(|m| m.pool.pooled))
}

/// `serve`: a fresh collector and server, every shard journal
/// submitted by the clients, one fit query, then shutdown.
fn serve_round(
    spec: &Spec,
    shard_paths: &[PathBuf],
    work: &WorkDir,
    tracer: &Tracer,
    root: u64,
    request: u64,
    tally: &mut Tally,
) -> Result<Option<PooledDistribution>, String> {
    let dir = work.fresh("serve").map_err(|e| e.to_string())?;
    let shards = spec.kind.shards();
    let header = spec.header();
    let collector =
        Collector::new(service_config(header.clone(), shards, dir)).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", collector).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let retry = RetryPolicy::fast(spec.seed);
    let injector = WireInjector::new(WireSpec::none(), spec.seed);
    let clients = spec.threads;
    std::thread::scope(|s| {
        let server_thread = s.spawn(move || server.run());
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, header, retry, injector) = (&addr, &header, &retry, &injector);
                s.spawn(move || {
                    (c..shard_paths.len())
                        .step_by(clients)
                        .map(|shard| {
                            let outcome = tracer.span("submit", root, request, |_| {
                                submit_journal(
                                    addr,
                                    &shard_paths[shard],
                                    shard as u64,
                                    shards,
                                    header,
                                    retry,
                                    injector,
                                )
                            });
                            (shard, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(outcomes) => {
                    for (shard, outcome) in outcomes {
                        tally.op(
                            outcome
                                .as_ref()
                                .is_ok_and(|o| o.attempts == 1 && o.accepted == o.assigned),
                            || format!("submit shard {shard}: {outcome:?}"),
                        );
                    }
                }
                Err(_) => tally.op(false, || "submission client panicked".to_string()),
            }
        }
        let snap = tracer.span("query", root, request, |_| query_fit(&addr, &retry));
        tally.op(snap.as_ref().is_ok_and(|s| !s.partial), || {
            format!("fit query: {:?}", snap.as_ref().err())
        });
        let shutdown = request_shutdown(&addr, &retry);
        tally.op(shutdown.is_ok(), || format!("shutdown: {shutdown:?}"));
        let report = server_thread.join();
        tally.op(
            matches!(&report, Ok(Ok(r)) if r.rejected == 0 && r.duplicates == 0 && r.covered == spec.size.windows as u64),
            || "server report not clean".to_string(),
        );
        Ok(snap.ok().map(|s| from_snapshot(&s)))
    })
}

/// `dispatch`: a lingering dispatcher over the shard plan, one
/// `work` client per capture thread, then a fit query and shutdown.
fn dispatch_run(
    spec: &Spec,
    observatories: &mut [Observatory],
    work: &WorkDir,
    tracer: &Tracer,
    root: u64,
    request: u64,
    tally: &mut Tally,
) -> Result<Option<PooledDistribution>, String> {
    let dir = work.fresh("dispatch").map_err(|e| e.to_string())?;
    let worker_dir = dir.join("workers");
    std::fs::create_dir_all(&worker_dir).map_err(|e| e.to_string())?;
    let header = spec.header();
    let collector = Collector::new(service_config(
        header.clone(),
        spec.kind.shards(),
        dir.join("collector"),
    ))
    .map_err(|e| e.to_string())?;
    let dispatcher = Dispatcher::new(collector, dispatch_config()).map_err(|e| e.to_string())?;
    let server = DispatchServer::bind("127.0.0.1:0", dispatcher).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let stop = server.stop_handle();
    let retry = RetryPolicy::fast(spec.seed);
    std::thread::scope(|s| {
        let server_thread = s.spawn(move || server.run());
        let handles: Vec<_> = observatories
            .iter_mut()
            .enumerate()
            .map(|(w, obs)| {
                let cfg = WorkerConfig {
                    addr: addr.clone(),
                    worker: w as u64,
                    journal_dir: worker_dir.clone(),
                    expect: header.clone(),
                    retry: RetryPolicy::fast(spec.seed + w as u64),
                    poll: Duration::from_millis(10),
                };
                s.spawn(move || {
                    tracer.span("run_worker", root, request, |worker_span| {
                        let injector = WireInjector::new(WireSpec::none(), spec.seed + w as u64);
                        let mut captures = (0u64, 0u64);
                        let report = run_worker(
                            &cfg,
                            &injector,
                            None,
                            |ticket, journal, limit| {
                                tracer.span("capture_closure", worker_span, request, |_| {
                                    obs.seek(ticket.lo);
                                    let n = limit.unwrap_or(ticket.hi - ticket.lo) as usize;
                                    let captured = Pipeline::pool_observatory_durable(
                                        MEASUREMENT,
                                        obs,
                                        n,
                                        1,
                                        None,
                                        &FailurePolicy::strict(),
                                        None,
                                        Some(journal),
                                        None,
                                    );
                                    captures.0 += 1;
                                    if !captured.as_ref().is_ok_and(|ft| ft.report.is_clean()) {
                                        captures.1 += 1;
                                    }
                                    captured.map(|_| ()).map_err(FederationError::Pipeline)
                                })
                            },
                            |_| {},
                        );
                        (w, report, captures)
                    })
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((w, report, (captures, failed))) => {
                    tally.op(
                        report
                            .as_ref()
                            .is_ok_and(|r| r.fenced == 0 && r.killed.is_none()),
                        || format!("worker {w}: {report:?}"),
                    );
                    for i in 0..captures {
                        tally.op(i >= failed, || format!("worker {w}: capture failed"));
                    }
                }
                Err(_) => tally.op(false, || "worker thread panicked".to_string()),
            }
        }
        let snap = tracer.span("query", root, request, |_| query_fit(&addr, &retry));
        tally.op(snap.as_ref().is_ok_and(|s| !s.partial), || {
            format!("fit query: {:?}", snap.as_ref().err())
        });
        if request_shutdown(&addr, &retry).is_err() {
            // The drain did not land: stop the accept loop directly so
            // the scope can join it.
            stop.store(true, Ordering::SeqCst);
        }
        match server_thread.join() {
            Ok(Ok(report)) => {
                for i in 0..report.leases_granted {
                    tally.op(i >= report.leases_expired, || "lease expired".to_string());
                }
                tally.op(
                    report.shards_done == spec.kind.shards() && report.leases_fenced == 0,
                    || format!("dispatch report: {report:?}"),
                );
            }
            other => tally.op(false, || {
                format!("dispatcher: {:?}", other.map(|r| r.err()))
            }),
        }
        Ok(snap.ok().map(|s| from_snapshot(&s)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn shared_spec_shapes_pool_the_same_packets() {
        let [simulate, serve, dispatch] =
            [Kind::Simulate, Kind::Serve, Kind::Dispatch].map(|k| Spec::new(k, Size::of(k), 1));
        assert_eq!(simulate.size, serve.size);
        assert_eq!(simulate.size, dispatch.size);
        assert_eq!(simulate.packets(), 256 * 20_000);
        assert!(simulate.threads <= 2 && simulate.threads <= effective_cores());
    }
}
