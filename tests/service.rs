//! Tier-1 contract for federation service mode (DESIGN.md §4k):
//! the crash-tolerant shard-submission server and its retry clients.
//!
//! The guarantees under test:
//!
//! 1. **Single-process equivalence over the wire** — shard journals
//!    submitted over TCP and served back through the rolling merged
//!    fit reproduce the uninterrupted single-process pooled `D(d_i)`
//!    bit for bit, across a 1/2/4-shard × 1/2/8-thread sweep.
//! 2. **Kills compose** — a client dropped mid-frame and a server
//!    stopped with a torn journal tail both recover through ordinary
//!    journal machinery: a restarted server rebuilds coverage from
//!    disk, reconnecting clients resume from the acknowledged window
//!    set, and the final fit is still bit-identical.
//! 3. **Wire faults never corrupt the fit** — with the seeded
//!    injector corrupting/dropping/duplicating/truncating half of all
//!    client frames, retries converge and the served fit stays
//!    bit-identical; resubmission is idempotent.
//! 4. **Every torn submission prefix is typed** — mirroring the
//!    journal prefix sweep, a session cut at any byte boundary leaves
//!    the collector with either no fault or a typed `Torn`, never a
//!    corrupted slot, and a clean retry converges. A dispatcher, which
//!    runs the same session loop, refuses each cut the same way.

use palu_suite::prelude::*;

use palu_traffic::federation::ShardPlan;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::service::{
    query_fit, request_shutdown, shard_journal_name, submit_journal, Collector, RetryPolicy,
    Server, ServiceConfig,
};
use palu_traffic::wire::{read_frame, write_frame, FitSnapshot, ServiceFault, WireMessage};
use palu_traffic::{
    DispatchConfig, Dispatcher, FailurePolicy, InjectionSpec, Injector, Journal, JournalHeader,
    WireInjector, WireSpec,
};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WINDOWS: usize = 16;
const N_V: u64 = 200;
const SEED: u64 = 4242;
const INJECT_SEED: u64 = 13;

fn header() -> JournalHeader {
    JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec![
            "test=service".to_string(),
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
            name: "service test".to_string(),
            date: String::new(),
            n_v: N_V,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

/// Deterministic duplicate storms so shard journals hold clean and
/// recovered entries alike (same shape as the federation sweep).
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
    let dir = std::env::temp_dir().join(format!("palu-service-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Capture every shard of an `n_shards` plan into its own journal.
fn capture_all_shards(
    gen: &PaluGenerator,
    dir: &Path,
    n_shards: u64,
    threads: usize,
) -> Vec<PathBuf> {
    let plan = ShardPlan::new(WINDOWS as u64, n_shards).expect("plan");
    (0..n_shards)
        .map(|shard| {
            let path = dir.join(format!("client-{n_shards}x-{shard}.journal"));
            let journal = Journal::create(&path, header()).expect("shard journal");
            let mut obs = observatory(gen);
            palu_traffic::federation::capture_shard(
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

fn config(journal_dir: PathBuf, shards: u64, min_coverage: f64) -> ServiceConfig {
    ServiceConfig {
        measurement: Measurement::UndirectedDegree,
        expect: header(),
        shards,
        min_coverage,
        journal_dir,
        read_timeout: Duration::from_secs(5),
    }
}

/// Start a loopback server, returning its address and the join handle
/// that yields the drain report.
fn start_server(
    journal_dir: PathBuf,
    shards: u64,
) -> (
    String,
    std::thread::JoinHandle<Result<palu_traffic::ServiceReport, ServiceFault>>,
) {
    let collector = Collector::new(config(journal_dir, shards, 1.0)).expect("collector");
    let server = Server::bind("127.0.0.1:0", collector).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// The snapshot must reproduce the reference pool bit for bit.
fn assert_snapshot_bit_identical(snap: &FitSnapshot, reference: &FaultTolerantPool, what: &str) {
    assert_eq!(snap.covered, WINDOWS as u64, "{what}: coverage");
    assert!(!snap.partial, "{what}: full coverage must not be partial");
    assert_eq!(
        snap.pooled_windows, reference.pooled.windows,
        "{what}: pooled windows"
    );
    assert_eq!(snap.d_max, reference.pooled.d_max, "{what}: d_max");
    assert_eq!(
        snap.survivors, reference.report.survivors,
        "{what}: survivors"
    );
    assert_eq!(
        snap.quarantined, reference.report.quarantined,
        "{what}: quarantined"
    );
    assert_eq!(
        snap.rows.len(),
        reference.pooled.mean.iter().count(),
        "{what}: row count"
    );
    for (i, (row, ((degree, mean), sigma))) in snap
        .rows
        .iter()
        .zip(
            reference
                .pooled
                .mean
                .iter()
                .zip(reference.pooled.sigma.iter()),
        )
        .enumerate()
    {
        assert_eq!(row.degree, degree, "{what}: degree bin {i}");
        assert_eq!(row.mean_bits, mean.to_bits(), "{what}: mean bin {i}");
        assert_eq!(row.sigma_bits, sigma.to_bits(), "{what}: sigma bin {i}");
    }
}

/// Byte offsets just past each complete frame of a journal (or wire
/// session) byte stream.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
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

#[test]
fn served_fit_is_bit_identical_across_shard_and_thread_sweep() {
    let gen = generator();
    let dir = temp_dir("sweep");
    let reference = single_process(&gen, 2);
    for n_shards in [1u64, 2, 4] {
        for threads in [1usize, 2, 8] {
            let tag = format!("{n_shards}x-{threads}t");
            let paths = capture_all_shards(&gen, &dir, n_shards, threads);
            let server_dir = dir.join(format!("server-{tag}"));
            let (addr, handle) = start_server(server_dir, n_shards);

            // One submitting thread per shard, like independent
            // client processes racing on the same service.
            let workers: Vec<_> = paths
                .iter()
                .cloned()
                .enumerate()
                .map(|(shard, path)| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        submit_journal(
                            &addr,
                            &path,
                            shard as u64,
                            n_shards,
                            &header(),
                            &RetryPolicy::fast(SEED + shard as u64),
                            &WireInjector::new(WireSpec::none(), SEED),
                        )
                    })
                })
                .collect();
            for worker in workers {
                let outcome = worker
                    .join()
                    .expect("submit thread")
                    .unwrap_or_else(|e| panic!("{tag}: submission failed: {e}"));
                assert_eq!(
                    outcome.accepted, outcome.assigned,
                    "{tag}: shard {} fully persisted",
                    outcome.shard
                );
            }

            let snap = query_fit(&addr, &RetryPolicy::fast(SEED)).expect("fit");
            assert_snapshot_bit_identical(&snap, &reference, &tag);

            request_shutdown(&addr, &RetryPolicy::fast(SEED)).expect("shutdown");
            let report = handle.join().expect("server thread").expect("drain report");
            assert_eq!(report.covered, WINDOWS as u64, "{tag}: drained coverage");
            assert_eq!(report.rejected, 0, "{tag}: clean run has no rejections");
            for p in &paths {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

#[test]
fn client_and_server_kills_recover_to_a_bit_identical_fit() {
    let gen = generator();
    let dir = temp_dir("kills");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 2, 2);
    let server_dir = dir.join("server");

    // Round 1: shard 0 submits cleanly; shard 1's client is killed
    // mid-frame (half a window record on the wire, then the socket
    // drops — the SIGKILL signature seen by the server).
    let (addr, handle) = start_server(server_dir.clone(), 2);
    submit_journal(
        &addr,
        &paths[0],
        0,
        2,
        &header(),
        &RetryPolicy::fast(SEED),
        &WireInjector::new(WireSpec::none(), SEED),
    )
    .expect("shard 0 submits");

    let shard1_bytes = std::fs::read(&paths[1]).expect("shard 1 journal readable");
    let bounds = frame_boundaries(&shard1_bytes);
    assert!(bounds.len() > 3, "shard journal has header + windows");
    {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut stream,
            &WireMessage::SubmitBegin {
                shard: 1,
                shards: 2,
                windows: WINDOWS as u64,
            }
            .encode(),
        )
        .expect("begin");
        let mut acked = false;
        if let Ok(Some(payload)) = read_frame(&mut stream) {
            if let Ok(WireMessage::BeginAck { have }) = WireMessage::decode(&payload) {
                assert!(have.is_empty(), "no shard-1 windows persisted yet");
                acked = true;
            }
        }
        assert!(acked, "BeginAck expected");
        // Header record, one full window record, then half of the
        // next record — and the "process" dies.
        let cut = bounds[1] + (bounds[2] - bounds[1]) / 2;
        stream.write_all(&shard1_bytes[..cut]).expect("torn write");
        // Dropping the stream without SubmitEnd is the kill.
    }

    // Stop server 1. Its journals persist whatever was acked; tear the
    // shard-1 server journal mid-record on top, the state an actual
    // SIGKILL during append can leave behind.
    request_shutdown(&addr, &RetryPolicy::fast(SEED)).expect("shutdown server 1");
    let report1 = handle.join().expect("server thread").expect("drain");
    assert!(report1.covered >= (WINDOWS as u64) / 2, "shard 0 persisted");
    let server_journal_1 = server_dir.join(shard_journal_name(2, 1));
    if let Ok(bytes) = std::fs::read(&server_journal_1) {
        if bytes.len() > 12 {
            std::fs::write(&server_journal_1, &bytes[..bytes.len() - 5]).expect("tear tail");
        }
    }

    // Round 2: a fresh server on the same journal directory rebuilds
    // coverage from disk; the retrying client resumes from the
    // acknowledged window set and completes shard 1.
    let (addr2, handle2) = start_server(server_dir, 2);
    let outcome = submit_journal(
        &addr2,
        &paths[1],
        1,
        2,
        &header(),
        &RetryPolicy::fast(SEED + 1),
        &WireInjector::new(WireSpec::none(), SEED),
    )
    .expect("shard 1 resubmits after restart");
    assert_eq!(outcome.accepted, outcome.assigned, "shard 1 complete");

    let snap = query_fit(&addr2, &RetryPolicy::fast(SEED)).expect("fit");
    assert_snapshot_bit_identical(&snap, &reference, "after client+server kills");

    request_shutdown(&addr2, &RetryPolicy::fast(SEED)).expect("shutdown server 2");
    let report2 = handle2.join().expect("server thread").expect("drain");
    assert_eq!(report2.covered, WINDOWS as u64);
}

#[test]
fn wire_fault_injection_never_corrupts_the_served_fit() {
    let gen = generator();
    let dir = temp_dir("wire-faults");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 2, 2);
    let (addr, handle) = start_server(dir.join("server"), 2);

    // Half of all client frames are dropped, corrupted, duplicated,
    // delayed, or truncated — deterministically per (frame, attempt).
    let injector = WireInjector::new(WireSpec::uniform(0.5), INJECT_SEED);
    let retry = RetryPolicy {
        deadline: Duration::from_secs(60),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        io_timeout: Duration::from_secs(5),
        seed: SEED,
    };
    for (shard, path) in paths.iter().enumerate() {
        let outcome = submit_journal(&addr, path, shard as u64, 2, &header(), &retry, &injector)
            .unwrap_or_else(|e| panic!("shard {shard} under 50% wire faults: {e}"));
        assert_eq!(outcome.accepted, outcome.assigned, "shard {shard} complete");
    }

    // Resubmission under the same fault storm is idempotent: nothing
    // new is accepted and nothing conflicts.
    let again = submit_journal(&addr, &paths[0], 0, 2, &header(), &retry, &injector)
        .expect("faulty resubmission stays idempotent");
    assert_eq!(again.accepted, again.assigned);

    let snap = query_fit(&addr, &RetryPolicy::fast(SEED)).expect("fit");
    assert_snapshot_bit_identical(&snap, &reference, "under 50% wire faults");

    request_shutdown(&addr, &RetryPolicy::fast(SEED)).expect("shutdown");
    let report = handle.join().expect("server thread").expect("drain");
    assert_eq!(report.covered, WINDOWS as u64);
    // The storm must have been real: the server refused at least one
    // corrupt/torn frame, and every refusal is typed in the report.
    assert!(report.rejected > 0, "injection reached the server");
    assert!(report.faults.iter().all(|f| f.code > 0));
}

#[test]
fn combined_delay_and_duplicate_storms_converge_on_one_collector() {
    let gen = generator();
    let dir = temp_dir("delay-dup");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 2, 2);
    let (addr, handle) = start_server(dir.join("server"), 2);

    // Delays and duplicates *together* are the nasty schedule: a
    // delayed frame reorders against its own duplicate, so the
    // collector sees the same window arrive twice with other records
    // in between — both submitting clients aim the storm at the one
    // collector concurrently.
    let spec = WireSpec {
        delay: 0.4,
        duplicate: 0.4,
        ..WireSpec::none()
    };
    let workers: Vec<_> = paths
        .iter()
        .cloned()
        .enumerate()
        .map(|(shard, path)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                submit_journal(
                    &addr,
                    &path,
                    shard as u64,
                    2,
                    &header(),
                    &RetryPolicy::fast(SEED + shard as u64),
                    &WireInjector::new(spec, INJECT_SEED + shard as u64),
                )
            })
        })
        .collect();
    for worker in workers {
        let outcome = worker
            .join()
            .expect("submit thread")
            .expect("submission under delay+duplicate storms");
        assert_eq!(outcome.accepted, outcome.assigned, "shard fully persisted");
    }

    let snap = query_fit(&addr, &RetryPolicy::fast(SEED)).expect("fit");
    assert_snapshot_bit_identical(&snap, &reference, "under delay+duplicate storms");

    request_shutdown(&addr, &RetryPolicy::fast(SEED)).expect("shutdown");
    let report = handle.join().expect("server thread").expect("drain");
    assert_eq!(report.covered, WINDOWS as u64);
    // Duplicates must actually have hit the collector, and been
    // absorbed as duplicates — not rejections.
    assert!(report.duplicates > 0, "the duplicate storm was real");
}
struct CannedConn {
    input: std::io::Cursor<Vec<u8>>,
    replies: Vec<u8>,
}

impl CannedConn {
    fn new(input: &[u8]) -> CannedConn {
        CannedConn {
            input: std::io::Cursor::new(input.to_vec()),
            replies: Vec::new(),
        }
    }
}

impl Read for CannedConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for CannedConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.replies.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_torn_submission_prefix_is_typed_and_retry_converges() {
    let gen = generator();
    let dir = temp_dir("torn-sweep");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 1, 2);

    // Record the full submission session a client would send: Begin,
    // the journal's records verbatim, End.
    let journal_bytes = std::fs::read(&paths[0]).expect("journal readable");
    let records = frame_boundaries(&journal_bytes).len();
    let mut session: Vec<u8> = Vec::new();
    write_frame(
        &mut session,
        &WireMessage::SubmitBegin {
            shard: 0,
            shards: 1,
            windows: WINDOWS as u64,
        }
        .encode(),
    )
    .expect("encode begin");
    session.extend_from_slice(&journal_bytes);
    write_frame(
        &mut session,
        &WireMessage::SubmitEnd {
            sent: records as u64 - 1,
        }
        .encode(),
    )
    .expect("encode end");

    let collector = Collector::new(config(dir.join("server"), 1, 1.0)).expect("collector");
    // The same sweep through a dispatcher over a second collector.
    let dispatched = Collector::new(config(dir.join("dispatched"), 1, 1.0)).expect("collector");
    let dispatcher =
        Dispatcher::new(dispatched.clone(), DispatchConfig::fast()).expect("dispatcher");
    let boundaries = frame_boundaries(&session);

    // The exhaustive kill-point sweep, mirroring the journal prefix
    // sweep: a session cut at any byte is either a clean disconnect
    // (frame boundary) or a typed torn frame — never an untyped error,
    // never a corrupted slot.
    for cut in 0..=session.len() {
        let summary = collector.handle(&mut CannedConn::new(&session[..cut]));
        let at_boundary = cut == 0 || boundaries.contains(&cut);
        match (&summary.fault, at_boundary) {
            (None, true) => {}
            (Some(ServiceFault::Torn { .. }), false) => {}
            (fault, _) => {
                panic!("cut at byte {cut} (boundary: {at_boundary}): unexpected outcome {fault:?}")
            }
        }
        let routed = dispatcher.handle(&mut CannedConn::new(&session[..cut]));
        assert_eq!(
            routed.fault.as_ref().map(ServiceFault::name),
            summary.fault.as_ref().map(ServiceFault::name),
            "cut at byte {cut}: the dispatcher path differs"
        );
    }

    // After the storm of torn sessions, one clean pass converges…
    let clean = collector.handle(&mut CannedConn::new(&session)).fault;
    let routed = dispatcher.handle(&mut CannedConn::new(&session)).fault;
    assert!(
        clean.is_none() && routed.is_none(),
        "{clean:?} / {routed:?}"
    );

    // …to a bit-identical fit, and the server-side journal replays
    // with every window intact.
    let snap = collector.fit_snapshot().expect("fit");
    assert_snapshot_bit_identical(&snap, &reference, "after torn-prefix sweep");
    let report = collector.report();
    assert_eq!(report.covered, WINDOWS as u64);
    assert_eq!(
        format!("{:?}", dispatched.report()),
        format!("{report:?}"),
        "both paths account the sweep alike"
    );
    drop(collector);
    let recovered = Journal::recover_file(
        &dir.join("server").join(shard_journal_name(1, 0)),
        &header(),
    )
    .expect("server journal replays");
    assert_eq!(recovered.windows.len(), WINDOWS);
    assert_eq!(recovered.torn_records_dropped, 0, "server journal is whole");

    // Every cut of a lease request, the dispatcher's other first
    // frame, is a clean disconnect or a typed torn frame too.
    let mut lease = Vec::new();
    write_frame(
        &mut lease,
        &WireMessage::LeaseRequest { worker: 3 }.encode(),
    )
    .expect("encode lease request");
    for cut in 0..=lease.len() {
        let summary = dispatcher.handle(&mut CannedConn::new(&lease[..cut]));
        match (&summary.fault, cut == 0 || cut == lease.len()) {
            (None, true) | (Some(ServiceFault::Torn { .. }), false) => {}
            (fault, _) => panic!("lease request cut at byte {cut}: unexpected outcome {fault:?}"),
        }
    }
}

#[test]
fn resumed_client_whose_first_frame_is_already_persisted_stays_idempotent() {
    let gen = generator();
    let dir = temp_dir("beginack-edge");
    let reference = single_process(&gen, 2);
    let paths = capture_all_shards(&gen, &dir, 1, 2);
    let journal_bytes = std::fs::read(&paths[0]).expect("journal readable");
    let records = frame_boundaries(&journal_bytes).len() as u64;
    let mut session: Vec<u8> = Vec::new();
    write_frame(
        &mut session,
        &WireMessage::SubmitBegin {
            shard: 0,
            shards: 1,
            windows: WINDOWS as u64,
        }
        .encode(),
    )
    .expect("encode begin");
    session.extend_from_slice(&journal_bytes);
    write_frame(
        &mut session,
        &WireMessage::SubmitEnd { sent: records - 1 }.encode(),
    )
    .expect("encode end");

    let collector = Collector::new(config(dir.join("server"), 1, 1.0)).expect("collector");

    // Session 1: a clean full submission persists every window.
    let summary = collector.handle(&mut CannedConn::new(&session));
    assert!(
        summary.fault.is_none(),
        "clean session: {:?}",
        summary.fault
    );
    assert_eq!(collector.report().covered, WINDOWS as u64);

    // Session 2: the resumption edge. A client killed after its acks
    // were lost resumes from scratch, so the very first window frame
    // it sends is one the server already persisted. The BeginAck must
    // advertise the complete have-set, and the replayed records must
    // land as duplicates — never rejections, never double counts.
    let mut conn = CannedConn::new(&session);
    let summary = collector.handle(&mut conn);
    assert!(
        summary.fault.is_none(),
        "resumed session: {:?}",
        summary.fault
    );
    let reply_bounds = frame_boundaries(&conn.replies);
    assert!(!reply_bounds.is_empty(), "BeginAck reply expected");
    let first = &conn.replies[8..reply_bounds[0]];
    match WireMessage::decode(first).expect("BeginAck decodes") {
        WireMessage::BeginAck { have } => {
            assert_eq!(
                have.len(),
                WINDOWS,
                "have-set advertises every persisted window"
            );
            assert!(
                (0..WINDOWS as u64).all(|w| have.contains(&w)),
                "have-set is the exact window set"
            );
        }
        other => panic!("expected BeginAck, got {other:?}"),
    }

    let report = collector.report();
    assert_eq!(report.covered, WINDOWS as u64, "coverage unchanged");
    assert!(
        report.duplicates > 0,
        "replayed records counted as duplicates"
    );
    assert_eq!(report.rejected, 0, "idempotent replay is never a rejection");
    let snap = collector.fit_snapshot().expect("fit");
    assert_snapshot_bit_identical(&snap, &reference, "after the resumed replay");
}

/// Wait for `handle` at most `limit`, failing the test on a hang.
fn join_within<T>(handle: std::thread::JoinHandle<T>, limit: Duration, what: &str) -> T {
    let start = Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < limit,
            "{what}: still running after {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().expect("server thread")
}

/// Submit the single shard of a 1-shard plan to a fresh server.
fn start_covered_server(
    tag: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<palu_traffic::ServiceReport, ServiceFault>>,
) {
    let gen = generator();
    let dir = temp_dir(tag);
    let paths = capture_all_shards(&gen, &dir, 1, 2);
    let (addr, handle) = start_server(dir.join("server"), 1);
    submit_journal(
        &addr,
        &paths[0],
        0,
        1,
        &header(),
        &RetryPolicy::fast(SEED),
        &WireInjector::new(WireSpec::none(), SEED),
    )
    .expect("shard submits");
    (addr, handle)
}

#[test]
fn closed_loop_fit_queries_never_wait_on_an_accept_poll() {
    let (addr, handle) = start_covered_server("query-latency");
    let retry = RetryPolicy::fast(SEED);
    // A poll-sleeping accept loop costs each closed-loop query about
    // one poll (5 ms): 100 queries could not finish in 250 ms. The
    // fastest of three batches keeps a noisy host from failing it.
    let fastest = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..100 {
                let snap = query_fit(&addr, &retry).expect("fit");
                assert!(!snap.partial, "the only shard is submitted");
            }
            start.elapsed()
        })
        .min()
        .expect("three batches");
    request_shutdown(&addr, &retry).expect("shutdown");
    let report = join_within(handle, Duration::from_secs(5), "drain").expect("drain report");
    assert_eq!(report.fits_served, 300);
    assert!(
        fastest < Duration::from_millis(250),
        "100 sequential fit queries took {fastest:?}"
    );
}

#[test]
fn shutdown_ends_run_at_once_and_the_wake_connection_is_not_a_session() {
    let (addr, handle) = start_covered_server("shutdown-wake");
    let retry = RetryPolicy::fast(SEED);
    query_fit(&addr, &retry).expect("fit");
    request_shutdown(&addr, &retry).expect("shutdown");
    // No further connection arrives: the shutdown session's end alone
    // must end `run`, well inside the 5 s read timeout.
    let report = join_within(handle, Duration::from_secs(1), "drain").expect("drain report");
    // Exactly the client's sessions are accounted: the wake-up connect
    // `run` makes to its own acceptor never reaches the collector.
    assert_eq!(report.submissions, 1);
    assert_eq!(report.frames_accepted, WINDOWS as u64);
    assert_eq!(report.fits_served, 1);
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.rejected, 0);
    assert!(report.faults.is_empty());
}
