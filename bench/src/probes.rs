//! The serial layer pass and the traced run's per-layer probes.
//!
//! The layer pass calls each capture stage's public function one by
//! one — synthesize → window → histogram → bin → merge — over every
//! window of the workload's spec. Its pooled result must be
//! bit-identical to what the deployment shape produced, which makes it
//! the reference every run is checked against and, when traced, the
//! source of the per-packet and per-window stage costs.
//!
//! The probes then replay the first windows of the same spec through
//! the journal, wire, service, dispatch and fit layers. Every time is
//! read from a span recorded here, around a call into the program.

use crate::harness::{tail, Metric, Summary, Tally, WorkDir};
use crate::trace::{durations, total_ns, Span, Tracer};
use crate::workloads::{
    digest, dispatch_config, from_snapshot, service_config, zm_fit, Spec, MEASUREMENT,
};
use palu::estimate::PaluEstimator;
use palu_sparse::{CooMatrix, CsrScratch, DegreeScratch};
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{fit_csn, CsnOptions};
use palu_stats::summary::BinStats;
use palu_traffic::dispatch::request_lease;
use palu_traffic::journal::{Journal, WindowEntry, WindowResult};
use palu_traffic::pipeline::{Pipeline, PooledDistribution};
use palu_traffic::service::{query_fit, request_shutdown, Collector, RetryPolicy, Server};
use palu_traffic::wire::{read_frame, write_frame, LeaseOffer, WireMessage};
use palu_traffic::{DispatchServer, Dispatcher, Observatory, PacketWindow};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Repetitions of each journal and service-accept probe.
const REPS: u64 = 5;
/// Repetitions of each in-memory codec and snapshot probe.
const CODEC_REPS: u64 = 20;
/// Loopback round trips per probe: enough for a p99 with ten samples
/// beyond it.
const ROUND_TRIPS: usize = 1000;

/// What the serial layer pass produced.
pub struct Pass {
    /// All windows pooled, stage by stage.
    pub pooled: PooledDistribution,
    /// The first [`Spec::probe_windows`] windows pooled.
    pub prefix: PooledDistribution,
    /// The degree histogram summed over all windows.
    pub histogram: DegreeHistogram,
    /// The journal entries of the first [`Spec::probe_windows`]
    /// windows, as the durable engine would append them.
    pub entries: Vec<WindowEntry>,
}

/// Pool every window of `spec` serially through the public stage
/// functions, one span per stage per window.
pub fn layer_pass(spec: &Spec, obs: &Observatory, tracer: &Tracer) -> Result<Pass, String> {
    let keep = spec.probe_windows();
    let mut packets = Vec::new();
    let mut coo = CooMatrix::new();
    let mut csr = CsrScratch::new();
    let mut scratch = DegreeScratch::new();
    let mut pipeline = Pipeline::new(MEASUREMENT);
    let mut prefix = Pipeline::new(MEASUREMENT);
    let mut histogram = DegreeHistogram::new();
    let mut entries = Vec::with_capacity(keep);
    tracer.span("layer_pass", 0, 0, |root| {
        for t in 0..spec.size.windows as u64 {
            tracer
                .span("synthesize", root, t, |_| {
                    obs.packets_at_retry_into(t, 0, &mut packets)
                })
                .map_err(|e| format!("window {t}: {e}"))?;
            let w = tracer
                .span("window", root, t, |_| {
                    PacketWindow::from_packets_with(t, &packets, &mut coo, &mut csr)
                })
                .map_err(|e| format!("window {t}: {e}"))?;
            let h = tracer.span("histogram", root, t, |_| {
                MEASUREMENT.histogram_with(&w, &mut scratch)
            });
            w.recycle(&mut csr);
            let binned = tracer.span("bin", root, t, |_| {
                DifferentialCumulative::from_histogram(&h)
            });
            tracer.span("merge", root, t, |_| {
                pipeline.push_binned(&binned, h.d_max())
            });
            histogram.merge(&h);
            if entries.len() < keep {
                prefix.push_binned(&binned, h.d_max());
                let mut stats = BinStats::new();
                stats.push(&binned);
                entries.push(WindowEntry {
                    window: t,
                    injected: 0,
                    retries: 0,
                    record: None,
                    result: Some(WindowResult {
                        stats,
                        d_max: h.d_max(),
                        histogram: h,
                    }),
                });
            }
        }
        Ok(Pass {
            pooled: pipeline.finish(),
            prefix: prefix.finish(),
            histogram,
            entries,
        })
    })
}

/// Values the probes count rather than time.
#[derive(Debug, Default)]
struct Counts {
    journal_bytes_per_window: f64,
    fit_response_bytes: f64,
    zm_evals: f64,
}

/// An in-memory connection: reads a recorded client session, keeps
/// whatever the collector answers.
struct Replay<'a> {
    input: &'a [u8],
    output: Vec<u8>,
}

impl Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Replay<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Run every probe and return the per-layer metrics they produce.
pub fn probe_layers(
    spec: &Spec,
    pass: &Pass,
    work: &WorkDir,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut counts = Counts::default();
    let journal_bytes = journal_probe(spec, pass, work, tracer, tally, &mut counts)?;
    wire_probe(pass, &journal_bytes, tracer, tally)?;
    let collector_dir =
        service_probe(spec, pass, &journal_bytes, work, tracer, tally, &mut counts)?;
    lease_probe(spec, pass, &collector_dir, tracer, tally)?;
    fit_probe(pass, tracer, tally, &mut counts)?;
    Ok(layer_metrics(spec, pass, &tracer.spans(), &counts))
}

/// Create a journal, append the probe windows, recover it: the durable
/// layer every federated shape writes through.
fn journal_probe(
    spec: &Spec,
    pass: &Pass,
    work: &WorkDir,
    tracer: &Tracer,
    tally: &mut Tally,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let k = pass.entries.len() as u64;
    let header = spec.header_for(k);
    let dir = work.fresh("probe-journal").map_err(text)?;
    let path = dir.join("probe.journal");
    for rep in 0..REPS {
        let journal = tracer
            .span("journal.create", 0, rep, |_| {
                Journal::create(&path, header.clone())
            })
            .map_err(text)?;
        tracer
            .span("journal.append", 0, rep, |_| {
                pass.entries.iter().try_for_each(|e| journal.append(e))
            })
            .map_err(text)?;
        counts.journal_bytes_per_window = journal.appended_bytes() as f64 / k as f64;
        drop(journal);
        let recovered = tracer
            .span("journal.recover", 0, rep, |_| {
                Journal::recover_file(&path, &header)
            })
            .map_err(text)?;
        tally.check(recovered.windows.values().eq(pass.entries.iter()), || {
            "journal probe: recovered windows differ from the appended ones".to_string()
        });
    }
    std::fs::read(&path).map_err(text)
}

/// Frame and unframe the probe windows' records, which travel on the
/// wire byte-for-byte as the journal holds them.
fn wire_probe(
    pass: &Pass,
    journal_bytes: &[u8],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut cursor = journal_bytes;
    let mut payloads = Vec::new();
    while let Some(payload) = read_frame(&mut cursor).map_err(text)? {
        payloads.push(payload);
    }
    let records = payloads.get(1..).unwrap_or_default();
    tally.check(records.len() == pass.entries.len(), || {
        "wire probe: journal does not hold one record per window".to_string()
    });
    let header_len = payloads.first().map_or(0, |h| h.len() + 8);
    let mut framed = Vec::with_capacity(journal_bytes.len());
    for rep in 0..CODEC_REPS {
        framed.clear();
        tracer
            .span("wire.record_encode", 0, rep, |_| {
                records.iter().try_for_each(|r| write_frame(&mut framed, r))
            })
            .map_err(text)?;
        let decoded = tracer
            .span("wire.record_decode", 0, rep, |_| {
                let mut cursor = framed.as_slice();
                let mut n = 0usize;
                while let Some(payload) = read_frame(&mut cursor)? {
                    if matches!(WireMessage::decode(&payload)?, WireMessage::Record(_)) {
                        n += 1;
                    }
                }
                Ok::<usize, palu_traffic::ServiceFault>(n)
            })
            .map_err(text)?;
        tally.check(decoded == records.len(), || {
            "wire probe: decoded record count differs".to_string()
        });
    }
    tally.check(framed.as_slice() == &journal_bytes[header_len..], || {
        "wire probe: wire frames differ from the journal's records".to_string()
    });
    Ok(())
}

/// Replay one shard's submission session into fresh collectors, take
/// fit snapshots, round-trip the fit response codec, and time fit
/// queries over loopback. Returns the journal directory of the last
/// collector, which then holds the whole one-shard plan.
fn service_probe(
    spec: &Spec,
    pass: &Pass,
    journal_bytes: &[u8],
    work: &WorkDir,
    tracer: &Tracer,
    tally: &mut Tally,
    counts: &mut Counts,
) -> Result<std::path::PathBuf, String> {
    let k = pass.entries.len() as u64;
    let header = spec.header_for(k);
    let dir = work.fresh("probe-service").map_err(text)?;
    // The session a `submit` client sends for shard 0 of a one-shard
    // plan: the journal's records verbatim between begin and end.
    let mut session = Vec::new();
    let begin = WireMessage::SubmitBegin {
        shard: 0,
        shards: 1,
        windows: k,
    };
    write_frame(&mut session, &begin.encode()).map_err(text)?;
    session.extend_from_slice(journal_bytes);
    write_frame(&mut session, &WireMessage::SubmitEnd { sent: k }.encode()).map_err(text)?;

    let mut collector_dir = dir.join("accept-0");
    let mut collector = None;
    for rep in 0..REPS {
        collector_dir = dir.join(format!("accept-{rep}"));
        let c = Collector::new(service_config(header.clone(), 1, collector_dir.clone()))
            .map_err(text)?;
        let mut conn = Replay {
            input: &session,
            output: Vec::new(),
        };
        let summary = tracer.span("service.accept", 0, rep, |_| c.handle(&mut conn));
        tally.check(summary.accepted == k && summary.fault.is_none(), || {
            format!(
                "service probe: session accepted {} of {k}: {:?}",
                summary.accepted, summary.fault
            )
        });
        collector = Some(c);
    }
    let collector = collector.ok_or("no collector")?;

    let mut snapshot = None;
    for rep in 0..CODEC_REPS {
        snapshot = Some(
            tracer
                .span("service.fit_snapshot", 0, rep, |_| collector.fit_snapshot())
                .map_err(text)?,
        );
    }
    let snapshot = snapshot.ok_or("no snapshot")?;
    tally.check(
        digest(&from_snapshot(&snapshot)) == digest(&pass.prefix),
        || "service probe: collector snapshot differs from the layer pass".to_string(),
    );
    let response = WireMessage::FitResponse(snapshot.clone());
    for rep in 0..CODEC_REPS {
        let payload = tracer.span("wire.fit_response_encode", 0, rep, |_| response.encode());
        counts.fit_response_bytes = payload.len() as f64;
        let decoded = tracer
            .span("wire.fit_response_decode", 0, rep, |_| {
                WireMessage::decode(&payload)
            })
            .map_err(text)?;
        tally.check(decoded == response, || {
            "service probe: fit response does not round-trip".to_string()
        });
    }

    let server = Server::bind("127.0.0.1:0", collector).map_err(text)?;
    let addr = server.local_addr().map_err(text)?.to_string();
    let expected = digest(&pass.prefix);
    let query = move |addr: &str, retry: &RetryPolicy| {
        query_fit(addr, retry)
            .map_err(text)
            .map(|snap| digest(&from_snapshot(&snap)) == expected)
    };
    let serve = || server.run().map(|_| ()).map_err(text);
    round_trips(
        spec,
        &addr,
        "service.query",
        tracer,
        tally,
        query,
        serve,
        None,
    )?;
    Ok(collector_dir)
}

/// Time lease requests against a dispatcher whose plan is already
/// complete (it resumes the service probe's journal), so each round
/// trip is the lease path alone.
fn lease_probe(
    spec: &Spec,
    pass: &Pass,
    collector_dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let header = spec.header_for(pass.entries.len() as u64);
    let collector =
        Collector::new(service_config(header, 1, collector_dir.to_path_buf())).map_err(text)?;
    let dispatcher = Dispatcher::new(collector, dispatch_config()).map_err(text)?;
    let server = DispatchServer::bind("127.0.0.1:0", dispatcher).map_err(text)?;
    let addr = server.local_addr().map_err(text)?.to_string();
    let stop = server.stop_handle();
    let lease = |addr: &str, retry: &RetryPolicy| {
        request_lease(addr, retry, 0)
            .map_err(text)
            .map(|offer| offer == LeaseOffer::Complete)
    };
    let serve = || server.run().map(|_| ()).map_err(text);
    round_trips(
        spec,
        &addr,
        "dispatch.lease",
        tracer,
        tally,
        lease,
        serve,
        Some(&stop),
    )
}

/// Run `serve` on a scoped thread, make [`ROUND_TRIPS`] closed-loop
/// `call`s from `spec.threads` clients, each recorded as a span named
/// `name`, then shut the server down and join it; `stop`, when given,
/// ends the accept loop if the shutdown request fails. A call counts
/// as a failed operation when it errs or its reply is wrong.
#[allow(clippy::too_many_arguments)]
fn round_trips<C, S>(
    spec: &Spec,
    addr: &str,
    name: &'static str,
    tracer: &Tracer,
    tally: &mut Tally,
    call: C,
    serve: S,
    stop: Option<&AtomicBool>,
) -> Result<(), String>
where
    C: Fn(&str, &RetryPolicy) -> Result<bool, String> + Sync,
    S: FnOnce() -> Result<(), String> + Send,
{
    let retry = RetryPolicy::fast(spec.seed);
    let clients = spec.threads;
    let per_client = ROUND_TRIPS / clients;
    std::thread::scope(|s| {
        let server_thread = s.spawn(serve);
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (call, retry) = (&call, &retry);
                s.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let request = (c * per_client + i) as u64;
                            tracer.span(name, 0, request, |_| call(addr, retry))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for r in results {
                        tally.op(matches!(r, Ok(true)), || format!("{name}: {r:?}"));
                    }
                }
                Err(_) => tally.op(false, || format!("{name}: client panicked")),
            }
        }
        let shutdown = request_shutdown(addr, &retry);
        tally.op(shutdown.is_ok(), || {
            format!("{name}: shutdown {shutdown:?}")
        });
        if let (Err(_), Some(stop)) = (&shutdown, stop) {
            stop.store(true, Ordering::SeqCst);
        }
        server_thread
            .join()
            .map_err(|_| format!("{name}: server panicked"))?
    })
}

/// Time the fits the paper's analysis runs on the pooled result.
fn fit_probe(
    pass: &Pass,
    tracer: &Tracer,
    tally: &mut Tally,
    counts: &mut Counts,
) -> Result<(), String> {
    for rep in 0..REPS {
        let zm = tracer
            .span("fit.zm", 0, rep, |_| zm_fit(&pass.pooled))
            .map_err(text)?;
        counts.zm_evals = zm.evals as f64;
        // Not every histogram has a power-law tail; the time counts
        // either way, as it does in `palu-cli fit`.
        let _ = tracer.span("fit.csn", 0, rep, |_| {
            fit_csn(&pass.histogram, &CsnOptions::default())
        });
        let estimate = tracer.span("fit.palu_estimate", 0, rep, |_| {
            PaluEstimator::default().estimate(&pass.histogram)
        });
        tally.check(estimate.is_ok(), || {
            format!("PALU estimate: {:?}", estimate.err())
        });
    }
    Ok(())
}

/// The per-layer metrics, from the recorded spans. Names and units
/// must match `per_layer` in `BENCHMARK.json`.
fn layer_metrics(spec: &Spec, pass: &Pass, spans: &[Span], counts: &Counts) -> Vec<Metric> {
    let windows = spec.size.windows as f64;
    let packets = spec.packets() as f64;
    let k = pass.entries.len() as f64;
    let per =
        |name: &str, by: f64, unit_ns: f64| Summary::one(total_ns(spans, name) / by / unit_ns);
    let scaled = |name: &str, k: f64| Summary::of(&durations(spans, name)).scaled(k);
    let latency = |name: &str| {
        let ms: Vec<f64> = durations(spans, name).iter().map(|ns| ns / 1e6).collect();
        (
            Summary::of(&ms),
            Summary::one(tail(&ms, 10).map_or(f64::NAN, |(_, v)| v)),
        )
    };
    let (query, query_tail) = latency("service.query");
    let (lease, lease_tail) = latency("dispatch.lease");
    let snapshot = scaled("service.fit_snapshot", 1e-6);
    let codec_ms = (Summary::of(&durations(spans, "wire.fit_response_encode")).median
        + Summary::of(&durations(spans, "wire.fit_response_decode")).median)
        / 1e6;
    vec![
        Metric::new(
            "synthesize.ns_per_pkt",
            "ns",
            per("synthesize", packets, 1.0),
        ),
        Metric::new("window.ns_per_pkt", "ns", per("window", packets, 1.0)),
        Metric::new("histogram.ns_per_pkt", "ns", per("histogram", packets, 1.0)),
        Metric::new("bin.us_per_window", "us", per("bin", windows, 1e3)),
        Metric::new("merge.us_per_window", "us", per("merge", windows, 1e3)),
        Metric::new("journal.create_ms", "ms", scaled("journal.create", 1e-6)),
        Metric::new(
            "journal.append_us_per_window",
            "us",
            scaled("journal.append", 1e-3 / k),
        ),
        Metric::new(
            "journal.recover_us_per_window",
            "us",
            scaled("journal.recover", 1e-3 / k),
        ),
        Metric::new(
            "journal.bytes_per_window",
            "bytes",
            Summary::one(counts.journal_bytes_per_window),
        ),
        Metric::new(
            "wire.record_encode_ns",
            "ns",
            scaled("wire.record_encode", 1.0 / k),
        ),
        Metric::new(
            "wire.record_decode_ns",
            "ns",
            scaled("wire.record_decode", 1.0 / k),
        ),
        Metric::new(
            "wire.fit_response_encode_us",
            "us",
            scaled("wire.fit_response_encode", 1e-3),
        ),
        Metric::new(
            "wire.fit_response_decode_us",
            "us",
            scaled("wire.fit_response_decode", 1e-3),
        ),
        Metric::new(
            "wire.fit_response_bytes",
            "bytes",
            Summary::one(counts.fit_response_bytes),
        ),
        Metric::new(
            "service.accept_us_per_window",
            "us",
            scaled("service.accept", 1e-3 / k),
        ),
        Metric::new("service.fit_snapshot_ms", "ms", snapshot),
        Metric::new("service.query_p50_ms", "ms", query),
        Metric::new("service.query_p99_ms", "ms", query_tail),
        Metric::new(
            "service.query_wait_ms",
            "ms",
            Summary::one(query.median - snapshot.median - codec_ms),
        ),
        Metric::new("dispatch.lease_rtt_p50_ms", "ms", lease),
        Metric::new("dispatch.lease_rtt_p99_ms", "ms", lease_tail),
        Metric::new("fit.zm_ms", "ms", scaled("fit.zm", 1e-6)),
        Metric::new("fit.zm_evals", "count", Summary::one(counts.zm_evals)),
        Metric::new("fit.csn_ms", "ms", scaled("fit.csn", 1e-6)),
        Metric::new(
            "fit.palu_estimate_ms",
            "ms",
            scaled("fit.palu_estimate", 1e-6),
        ),
    ]
}
