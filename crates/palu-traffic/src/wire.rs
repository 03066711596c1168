//! Wire protocol for the federation service (DESIGN.md §4k).
//!
//! The service moves shard journals over TCP using the *journal
//! record framing itself*: every message is one
//! `len:u32 LE | crc32(payload):u32 LE | payload[len]` record
//! ([`crate::journal`]), and a submitted shard's header/window
//! records travel byte-verbatim — the payload a client puts on the
//! wire is the exact payload its on-disk journal holds, so an
//! accepted submission is byte-identical to the shard journal it came
//! from. Control messages (submission handshake, fit queries,
//! shutdown) use payload type bytes ≥ 16, disjoint from the journal's
//! types 0 (header) and 1 (window) by construction.
//!
//! ```text
//! frame   := len:u32 LE | crc32(payload):u32 LE | payload[len]
//! payload := type:u8 body
//!
//! type  0  journal header record   (verbatim, see crate::journal)
//! type  1  journal window record   (verbatim, see crate::journal)
//! type 16  SubmitBegin  shard:u64 shards:u64 windows:u64
//! type 17  BeginAck     n:u64 (window:u64)*          — already persisted
//! type 18  SubmitEnd    sent:u64
//! type 19  EndAck       accepted:u64 n:u64 (window:u64)*  — still missing
//! type 20  Reject       code:u8 len:u16 message[len]
//! type 21  FitRequest
//! type 22  FitResponse  windows:u64 covered:u64 min_coverage:f64bits
//!                       partial:u8 survivors:u64 quarantined:u64
//!                       pooled_windows:u64 d_max:u64
//!                       n:u64 (degree:u64 mean:f64bits sigma:f64bits)*
//! type 23  Shutdown                                  — admin drain
//! type 24  ShutdownAck
//! type 25  LeaseRequest worker:u64                   — dispatcher mode
//! type 26  LeaseGrant   status:u8 [ticket]           — 0 granted / 1 wait / 2 complete
//!                       ticket := worker:u64 shard:u64 shards:u64 windows:u64
//!                                 lo:u64 hi:u64 fence:u64 lease_ms:u64
//!                                 heartbeat_ms:u64 fingerprint:u64
//! type 27  Heartbeat    worker:u64 shard:u64 fence:u64
//! type 28  LeaseRenew   fence:u64 deadline_ms:u64
//! type 29  WorkDone     worker:u64 shard:u64 fence:u64
//! ```
//!
//! Every way a frame or a session can fail is a typed
//! [`ServiceFault`]; the server answers bad input with a `Reject`
//! frame carrying the fault's stable wire code, and a client
//! reconstructs it as [`ServiceFault::Remote`]. Torn frames (a
//! client killed mid-write) mirror the journal's torn-tail
//! classification: the complete prefix of a session stands, the torn
//! frame is dropped and the window resubmits on retry.
//!
//! The [`WireInjector`] is the transport twin of
//! [`crate::fault::Injector`]: seeded, per-(frame, attempt)
//! deterministic faults — drop / corrupt / duplicate / delay /
//! truncate — so the retry/idempotency machinery is exercised by
//! tests and CI at 50% rates, not just by theory.

use crate::journal::{self, crc32, JournalFault, MAX_RECORD_LEN};
use palu_stats::rng::{Rng, SeedSequence};
use std::io::{Read, Write};

/// Payload type byte for [`WireMessage::SubmitBegin`].
pub const TYPE_SUBMIT_BEGIN: u8 = 16;
/// Payload type byte for [`WireMessage::BeginAck`].
pub const TYPE_BEGIN_ACK: u8 = 17;
/// Payload type byte for [`WireMessage::SubmitEnd`].
pub const TYPE_SUBMIT_END: u8 = 18;
/// Payload type byte for [`WireMessage::EndAck`].
pub const TYPE_END_ACK: u8 = 19;
/// Payload type byte for [`WireMessage::Reject`].
pub const TYPE_REJECT: u8 = 20;
/// Payload type byte for [`WireMessage::FitRequest`].
pub const TYPE_FIT_REQUEST: u8 = 21;
/// Payload type byte for [`WireMessage::FitResponse`].
pub const TYPE_FIT_RESPONSE: u8 = 22;
/// Payload type byte for [`WireMessage::Shutdown`].
pub const TYPE_SHUTDOWN: u8 = 23;
/// Payload type byte for [`WireMessage::ShutdownAck`].
pub const TYPE_SHUTDOWN_ACK: u8 = 24;
/// Payload type byte for [`WireMessage::LeaseRequest`].
pub const TYPE_LEASE_REQUEST: u8 = 25;
/// Payload type byte for [`WireMessage::LeaseGrant`].
pub const TYPE_LEASE_GRANT: u8 = 26;
/// Payload type byte for [`WireMessage::Heartbeat`].
pub const TYPE_HEARTBEAT: u8 = 27;
/// Payload type byte for [`WireMessage::LeaseRenew`].
pub const TYPE_LEASE_RENEW: u8 = 28;
/// Payload type byte for [`WireMessage::WorkDone`].
pub const TYPE_WORK_DONE: u8 = 29;

/// Typed service failure taxonomy — every way a frame, a session, or
/// the service itself can fail. Mirrors [`JournalFault`]'s contract:
/// nothing on the wire path panics and nothing is silently dropped;
/// a fault either closes the session with a `Reject` frame (server)
/// or drives the retry loop (client).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceFault {
    /// An OS-level socket failure (connect, read, write).
    Io {
        /// The OS error message.
        detail: String,
    },
    /// The stream ended inside a frame — the signature of a peer
    /// killed mid-write. Like a journal torn tail, this is crash
    /// residue: everything before it stands, the torn frame resends.
    Torn {
        /// Bytes of the incomplete frame that were received.
        bytes: u64,
    },
    /// A complete length prefix outside `(0, MAX_RECORD_LEN]` —
    /// stream desync or corruption, never crash residue.
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// A complete frame whose CRC32 does not match its payload.
    Checksum,
    /// A complete, checksummed frame with an unknown payload type.
    UnknownFrame {
        /// The unrecognized type byte.
        kind: u8,
    },
    /// A checksummed frame whose body is internally inconsistent.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The per-connection read deadline elapsed with no frame.
    Deadline,
    /// A well-formed message at the wrong point in the session
    /// (window before `SubmitBegin`, ack from a client, …).
    Protocol {
        /// What was out of order.
        detail: String,
    },
    /// A submitted journal header's identity (seed, version,
    /// parameter fingerprint) does not match the service's capture —
    /// the same typed refusal as `pool --merge`, naming the skewed
    /// parameter.
    IdentitySkew {
        /// The underlying typed journal refusal.
        fault: JournalFault,
    },
    /// The service could not persist an accepted record through the
    /// journal layer.
    Journal {
        /// The underlying journal failure, rendered.
        detail: String,
    },
    /// A `SubmitBegin` addressed a shard outside the service's plan,
    /// or declared a different plan geometry.
    BadShard {
        /// The offending shard index (or shard count).
        shard: u64,
        /// Shards in the service's plan.
        shards: u64,
    },
    /// Two submissions delivered *different* contents for the same
    /// window — resubmission is idempotent only for byte-identical
    /// records, so this is data inconsistency, refused like journal
    /// corruption.
    WindowConflict {
        /// The contested window index.
        window: u64,
    },
    /// A fit was requested (or served) below the coverage threshold.
    /// The service still serves the partial pool — this marker rides
    /// on the snapshot so callers can refuse typed, like
    /// `pool --merge`'s coverage gate.
    PartialCoverage {
        /// Windows currently covered.
        covered: u64,
        /// Total windows in the capture.
        windows: u64,
        /// The configured minimum coverage fraction.
        min_coverage: f64,
    },
    /// The server is draining for shutdown and accepts no new
    /// submissions.
    Draining,
    /// The service could not be reached before the retry deadline —
    /// connect refusals and elapsed backoff budgets end up here.
    Unavailable {
        /// The last underlying failure.
        detail: String,
    },
    /// A lease-protocol frame carried a stale fencing token: the
    /// lease it belonged to expired (or the dispatcher restarted) and
    /// the range was re-dispatched under a newer fence. The zombie
    /// holder must stop; byte-idempotent resubmission keeps coverage
    /// safe regardless, this refusal makes the zombie *observable*.
    LeaseFenced {
        /// The worker presenting the stale token.
        worker: u64,
        /// The shard whose lease was fenced.
        shard: u64,
        /// The stale fencing token presented.
        fence: u64,
    },
    /// A refusal received from the peer as a `Reject` frame: `code`
    /// is the original fault's wire code, `message` its rendering.
    Remote {
        /// The originating fault's [`ServiceFault::code`].
        code: u8,
        /// The originating fault's display rendering.
        message: String,
    },
}

/// The CLI-exit-code class a terminal [`ServiceFault`] maps to,
/// matching the `pool --merge` convention: corruption, identity skew,
/// and coverage refusals keep their established codes, and transport
/// exhaustion gets its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalClass {
    /// Caller error: bad shard index, out-of-order protocol use.
    Usage,
    /// Data corruption or inconsistency (exit code 4's class).
    Corrupt,
    /// Capture identity mismatch (exit code 5's class).
    IdentitySkew,
    /// Below the coverage threshold (exit code 6's class).
    Coverage,
    /// The service could not be reached or the session could not
    /// complete (exit code 8's class).
    Unavailable,
    /// A stale fencing token — the presenting worker is a zombie and
    /// must stop (exit code 9's class).
    Fenced,
}

impl ServiceFault {
    /// Stable lowercase name, used as a JSON label.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceFault::Io { .. } => "io",
            ServiceFault::Torn { .. } => "torn",
            ServiceFault::Oversized { .. } => "oversized",
            ServiceFault::Checksum => "checksum",
            ServiceFault::UnknownFrame { .. } => "unknown_frame",
            ServiceFault::Malformed { .. } => "malformed",
            ServiceFault::Deadline => "deadline",
            ServiceFault::Protocol { .. } => "protocol",
            ServiceFault::IdentitySkew { .. } => "identity_skew",
            ServiceFault::Journal { .. } => "journal",
            ServiceFault::BadShard { .. } => "bad_shard",
            ServiceFault::WindowConflict { .. } => "window_conflict",
            ServiceFault::PartialCoverage { .. } => "partial_coverage",
            ServiceFault::Draining => "draining",
            ServiceFault::Unavailable { .. } => "unavailable",
            ServiceFault::LeaseFenced { .. } => "lease_fenced",
            ServiceFault::Remote { .. } => "remote",
        }
    }

    /// Stable wire code carried by `Reject` frames. A
    /// [`ServiceFault::Remote`] reports the code it was built from,
    /// so classification survives one hop.
    pub fn code(&self) -> u8 {
        match self {
            ServiceFault::Io { .. } => 1,
            ServiceFault::Torn { .. } => 2,
            ServiceFault::Oversized { .. } => 3,
            ServiceFault::Checksum => 4,
            ServiceFault::UnknownFrame { .. } => 5,
            ServiceFault::Malformed { .. } => 6,
            ServiceFault::Deadline => 7,
            ServiceFault::Protocol { .. } => 8,
            ServiceFault::IdentitySkew { .. } => 9,
            ServiceFault::Journal { .. } => 10,
            ServiceFault::BadShard { .. } => 11,
            ServiceFault::WindowConflict { .. } => 12,
            ServiceFault::PartialCoverage { .. } => 13,
            ServiceFault::Draining => 14,
            ServiceFault::Unavailable { .. } => 15,
            ServiceFault::LeaseFenced { .. } => 16,
            ServiceFault::Remote { code, .. } => *code,
        }
    }

    /// The exit-code class this fault refuses under when terminal.
    pub fn refusal(&self) -> RefusalClass {
        match self.code() {
            5 | 8 | 11 => RefusalClass::Usage,
            3 | 4 | 6 | 10 | 12 => RefusalClass::Corrupt,
            9 => RefusalClass::IdentitySkew,
            13 => RefusalClass::Coverage,
            16 => RefusalClass::Fenced,
            _ => RefusalClass::Unavailable,
        }
    }

    /// Whether a client may retry after this fault: transport
    /// trouble, deadlines, and drains are transient; identity skew,
    /// plan mismatches, data inconsistency, and fencing never heal by
    /// retry (a fenced lease stays fenced — a newer fence owns it).
    pub fn retryable(&self) -> bool {
        !matches!(
            self.refusal(),
            RefusalClass::Usage
                | RefusalClass::Corrupt
                | RefusalClass::IdentitySkew
                | RefusalClass::Fenced
        ) || matches!(self, ServiceFault::Checksum | ServiceFault::Torn { .. })
            || self.code() == 4
            || self.code() == 2
    }
}

impl std::fmt::Display for ServiceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceFault::Io { detail } => write!(f, "socket error: {detail}"),
            ServiceFault::Torn { bytes } => write!(
                f,
                "stream ended inside a frame ({bytes} byte(s) received) — peer died \
                 mid-write; complete frames stand, the torn frame resends"
            ),
            ServiceFault::Oversized { len } => write!(
                f,
                "frame declares length {len} outside (0, {MAX_RECORD_LEN}] — stream \
                 desync or corruption"
            ),
            ServiceFault::Checksum => {
                write!(
                    f,
                    "frame checksum mismatch — corrupted in transit, rejected"
                )
            }
            ServiceFault::UnknownFrame { kind } => write!(f, "unknown frame type {kind}"),
            ServiceFault::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            ServiceFault::Deadline => write!(f, "read deadline elapsed with no frame"),
            ServiceFault::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServiceFault::IdentitySkew { fault } => {
                write!(f, "identity skew — {fault}")
            }
            ServiceFault::Journal { detail } => {
                write!(f, "journal persistence failed: {detail}")
            }
            ServiceFault::BadShard { shard, shards } => {
                write!(f, "shard {shard} outside the service's {shards}-shard plan")
            }
            ServiceFault::WindowConflict { window } => write!(
                f,
                "window {window} resubmitted with different contents — refusing \
                 ambiguous data (resubmission is idempotent only byte-for-byte)"
            ),
            ServiceFault::PartialCoverage {
                covered,
                windows,
                min_coverage,
            } => write!(
                f,
                "coverage below threshold: {covered}/{windows} window(s) submitted, \
                 minimum coverage is {min_coverage}"
            ),
            ServiceFault::Draining => write!(f, "server is draining for shutdown"),
            ServiceFault::Unavailable { detail } => {
                write!(f, "service unavailable: {detail}")
            }
            ServiceFault::LeaseFenced {
                worker,
                shard,
                fence,
            } => write!(
                f,
                "lease fenced: worker {worker} presented stale fencing token {fence} \
                 for shard {shard} — the lease expired and the range was re-dispatched \
                 under a newer fence; stop working this range"
            ),
            ServiceFault::Remote { code, message } => {
                write!(f, "server refused (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ServiceFault {}

/// Classify a socket error: a timed-out read is the per-connection
/// deadline, everything else is transport failure.
pub(crate) fn io_fault(e: &std::io::Error) -> ServiceFault {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ServiceFault::Deadline,
        _ => ServiceFault::Io {
            detail: e.to_string(),
        },
    }
}

/// Read as much of `buf` as the stream will give: loops over short
/// reads, stops at EOF, retries interrupts. Returns bytes filled.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let (_, rest) = buf.split_at_mut(filled);
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one frame: `Ok(Some(payload))` for a complete, checksummed
/// frame, `Ok(None)` for a clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// [`ServiceFault::Torn`] when the stream ends inside a frame,
/// [`ServiceFault::Oversized`] / [`ServiceFault::Checksum`] for
/// corruption, [`ServiceFault::Deadline`] when the read deadline
/// fires, [`ServiceFault::Io`] otherwise — exactly mirroring the
/// journal recovery state machine, frame by frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServiceFault> {
    let mut prefix = [0u8; 8];
    let got = read_full(r, &mut prefix).map_err(|e| io_fault(&e))?;
    if got == 0 {
        return Ok(None);
    }
    if got < prefix.len() {
        return Err(ServiceFault::Torn { bytes: got as u64 });
    }
    let [l0, l1, l2, l3, c0, c1, c2, c3] = prefix;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let stored = u32::from_le_bytes([c0, c1, c2, c3]);
    if len == 0 || len > MAX_RECORD_LEN {
        return Err(ServiceFault::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload).map_err(|e| io_fault(&e))?;
    if got < payload.len() {
        return Err(ServiceFault::Torn {
            bytes: (8 + got) as u64,
        });
    }
    if crc32(&payload) != stored {
        return Err(ServiceFault::Checksum);
    }
    Ok(Some(payload))
}

/// Frame `payload` with the journal record framing and write it.
///
/// # Errors
///
/// [`ServiceFault::Io`] / [`ServiceFault::Deadline`] on socket
/// failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServiceFault> {
    let mut framed = Vec::with_capacity(payload.len() + 8);
    journal::frame_record(payload, &mut framed);
    w.write_all(&framed).map_err(|e| io_fault(&e))?;
    w.flush().map_err(|e| io_fault(&e))?;
    Ok(())
}

/// One row of a served fit: a bin's degree plus the pooled mean and
/// sigma as raw IEEE-754 bits, so a fit crosses the wire
/// bit-identically to the single-process pooled output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitRow {
    /// The bin's representative degree `d_i`.
    pub degree: u64,
    /// `D(d_i)` as `f64::to_bits`.
    pub mean_bits: u64,
    /// `σ(d_i)` as `f64::to_bits`.
    pub sigma_bits: u64,
}

/// Per-shard torn-tail accounting carried on a served fit, so
/// `fit --server` surfaces the same crash-residue counters as
/// `pool --merge` and `serve` do in their metrics JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTornRow {
    /// The shard index.
    pub shard: u64,
    /// Torn-tail records dropped recovering this shard's journal.
    pub torn_records_dropped: u64,
    /// Torn-tail bytes dropped recovering this shard's journal.
    pub torn_bytes_dropped: u64,
}

/// A served fit snapshot: the rolling merged pool at the coverage the
/// service currently holds, tagged with the coverage arithmetic and
/// the typed partial marker.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSnapshot {
    /// Total windows in the capture.
    pub windows: u64,
    /// Windows currently persisted across all shards.
    pub covered: u64,
    /// The service's configured minimum coverage fraction.
    pub min_coverage: f64,
    /// True when `covered/windows` is below `min_coverage` — the
    /// typed `PartialCoverage` marker.
    pub partial: bool,
    /// Windows contributing results to the pooled output.
    pub survivors: u64,
    /// Windows quarantined in the pooled fold (missing windows count
    /// here as `ShardLost`, exactly like `pool --merge`).
    pub quarantined: u64,
    /// Windows pooled into the distribution (`pooled.windows`).
    pub pooled_windows: u64,
    /// Largest degree observed in any pooled window.
    pub d_max: u64,
    /// The pooled `D(d_i) ± σ` rows, bit-exact.
    pub rows: Vec<FitRow>,
    /// Per-shard torn-tail drop counts from the server's journal
    /// recoveries, shard-ordered.
    pub shard_torn: Vec<ShardTornRow>,
}

impl FitSnapshot {
    /// Coverage as a fraction of the capture's windows.
    pub fn coverage(&self) -> f64 {
        if self.windows == 0 {
            return 1.0;
        }
        self.covered as f64 / self.windows as f64
    }

    /// The typed coverage refusal when this snapshot is partial.
    pub fn partial_fault(&self) -> Option<ServiceFault> {
        if self.partial {
            Some(ServiceFault::PartialCoverage {
                covered: self.covered,
                windows: self.windows,
                min_coverage: self.min_coverage,
            })
        } else {
            None
        }
    }
}

/// One granted lease: everything a worker needs to capture a shard's
/// window range and prove it still owns the lease while doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseTicket {
    /// The worker the lease was granted to.
    pub worker: u64,
    /// The leased shard index.
    pub shard: u64,
    /// Shards in the dispatcher's plan.
    pub shards: u64,
    /// Total windows in the capture.
    pub windows: u64,
    /// First window of the leased range (inclusive).
    pub lo: u64,
    /// One past the last window of the leased range.
    pub hi: u64,
    /// The fencing token: monotonically increasing per grant, echoed
    /// on every `Heartbeat`/`WorkDone` — a stale token is a typed
    /// [`ServiceFault::LeaseFenced`] refusal.
    pub fence: u64,
    /// Lease validity in milliseconds; missing a renewal past this
    /// deadline expires the lease and re-dispatches the range.
    pub lease_ms: u64,
    /// Heartbeat interval in milliseconds, jittered per lease by the
    /// dispatcher so a worker fleet's renewals do not synchronize.
    pub heartbeat_ms: u64,
    /// The capture identity fingerprint ([`JournalHeader`]'s) the
    /// worker must match — a mismatched worker refuses locally before
    /// capturing anything.
    pub fingerprint: u64,
}

/// The dispatcher's answer to a [`WireMessage::LeaseRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOffer {
    /// A lease on one shard's window range.
    Granted(LeaseTicket),
    /// Nothing grantable right now (every incomplete range is leased
    /// to a live worker) — poll again after a backoff.
    Wait,
    /// Every range is durably complete; the worker may exit.
    Complete,
}

/// Every message the service protocol exchanges. Journal records
/// (types 0/1) are carried verbatim as [`WireMessage::Record`] — the
/// codec never re-encodes them, preserving byte identity with the
/// submitting shard's journal.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A raw journal record payload (type 0 header or type 1 window),
    /// byte-verbatim from the submitting shard's journal.
    Record(Vec<u8>),
    /// Client → server: open a submission for one shard of a plan.
    SubmitBegin {
        /// The submitting shard's index.
        shard: u64,
        /// Shard count of the client's plan (must match the server).
        shards: u64,
        /// Total windows of the client's capture (must match).
        windows: u64,
    },
    /// Server → client: the windows already persisted for that shard,
    /// so a reconnecting client resumes mid-stream instead of
    /// resending everything.
    BeginAck {
        /// Window indices already persisted, ascending.
        have: Vec<u64>,
    },
    /// Client → server: the submission stream is complete.
    SubmitEnd {
        /// Window records the client believes it sent this session.
        sent: u64,
    },
    /// Server → client: submission accounting for the shard.
    EndAck {
        /// Windows persisted for the shard so far (all sessions).
        accepted: u64,
        /// Assigned windows still missing, ascending — the client's
        /// retry work-list.
        missing: Vec<u64>,
    },
    /// Server → client: a typed refusal; the session is closed.
    Reject {
        /// The refusing [`ServiceFault::code`].
        code: u8,
        /// The fault's display rendering.
        message: String,
    },
    /// Client → server: serve the rolling merged fit.
    FitRequest,
    /// Server → client: the fit snapshot.
    FitResponse(FitSnapshot),
    /// Client → server: drain and shut down (admin).
    Shutdown,
    /// Server → client: drain acknowledged.
    ShutdownAck,
    /// Worker → dispatcher: announce liveness and ask for a lease.
    LeaseRequest {
        /// The requesting worker's id.
        worker: u64,
    },
    /// Dispatcher → worker: the lease decision.
    LeaseGrant(LeaseOffer),
    /// Worker → dispatcher: proof of life for a held lease; the
    /// dispatcher answers with a [`WireMessage::LeaseRenew`] extending
    /// the deadline, or a `Reject` carrying
    /// [`ServiceFault::LeaseFenced`] for a stale fence.
    Heartbeat {
        /// The heartbeating worker's id.
        worker: u64,
        /// The shard the worker believes it holds.
        shard: u64,
        /// The fencing token from the worker's grant.
        fence: u64,
    },
    /// Dispatcher → worker: the lease deadline was extended (also the
    /// acknowledgement for a [`WireMessage::WorkDone`], with
    /// `deadline_ms` = 0).
    LeaseRenew {
        /// The fence being renewed/acknowledged.
        fence: u64,
        /// Milliseconds of validity from now (0 on a `WorkDone` ack).
        deadline_ms: u64,
    },
    /// Worker → dispatcher: the leased range is fully submitted
    /// through the collector; release the lease.
    WorkDone {
        /// The reporting worker's id.
        worker: u64,
        /// The completed shard.
        shard: u64,
        /// The fencing token from the worker's grant.
        fence: u64,
    },
}

/// Append a `u64` list (count prefix + elements) to `out`.
fn put_list(out: &mut Vec<u8>, items: &[u64]) {
    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
    for w in items {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Parse a `u64` list written by [`put_list`].
fn take_list(cur: &mut journal::Cursor<'_>, what: &str) -> Result<Vec<u64>, JournalFault> {
    let n = cur.u64(what)?;
    if (n as u128) * 8 > cur.bytes.len() as u128 {
        return Err(cur.malformed(format!("declared {what} length extends past the frame")));
    }
    let mut items = Vec::with_capacity(palu_sparse::admitted_capacity(n as usize));
    for _ in 0..n {
        items.push(cur.u64(what)?);
    }
    Ok(items)
}

impl WireMessage {
    /// Encode this message as a frame payload (type byte + body).
    /// [`WireMessage::Record`] payloads pass through untouched.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireMessage::Record(payload) => payload.clone(),
            WireMessage::SubmitBegin {
                shard,
                shards,
                windows,
            } => {
                let mut out = vec![TYPE_SUBMIT_BEGIN];
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                out.extend_from_slice(&windows.to_le_bytes());
                out
            }
            WireMessage::BeginAck { have } => {
                let mut out = vec![TYPE_BEGIN_ACK];
                put_list(&mut out, have);
                out
            }
            WireMessage::SubmitEnd { sent } => {
                let mut out = vec![TYPE_SUBMIT_END];
                out.extend_from_slice(&sent.to_le_bytes());
                out
            }
            WireMessage::EndAck { accepted, missing } => {
                let mut out = vec![TYPE_END_ACK];
                out.extend_from_slice(&accepted.to_le_bytes());
                put_list(&mut out, missing);
                out
            }
            WireMessage::Reject { code, message } => {
                let mut out = vec![TYPE_REJECT, *code];
                let raw = message.as_bytes();
                let len = raw.len().min(usize::from(u16::MAX)) as u16;
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(raw.get(..usize::from(len)).unwrap_or(raw));
                out
            }
            WireMessage::FitRequest => vec![TYPE_FIT_REQUEST],
            WireMessage::FitResponse(snap) => {
                let mut out = vec![TYPE_FIT_RESPONSE];
                out.extend_from_slice(&snap.windows.to_le_bytes());
                out.extend_from_slice(&snap.covered.to_le_bytes());
                out.extend_from_slice(&snap.min_coverage.to_bits().to_le_bytes());
                out.push(u8::from(snap.partial));
                out.extend_from_slice(&snap.survivors.to_le_bytes());
                out.extend_from_slice(&snap.quarantined.to_le_bytes());
                out.extend_from_slice(&snap.pooled_windows.to_le_bytes());
                out.extend_from_slice(&snap.d_max.to_le_bytes());
                out.extend_from_slice(&(snap.rows.len() as u64).to_le_bytes());
                for row in &snap.rows {
                    out.extend_from_slice(&row.degree.to_le_bytes());
                    out.extend_from_slice(&row.mean_bits.to_le_bytes());
                    out.extend_from_slice(&row.sigma_bits.to_le_bytes());
                }
                out.extend_from_slice(&(snap.shard_torn.len() as u64).to_le_bytes());
                for row in &snap.shard_torn {
                    out.extend_from_slice(&row.shard.to_le_bytes());
                    out.extend_from_slice(&row.torn_records_dropped.to_le_bytes());
                    out.extend_from_slice(&row.torn_bytes_dropped.to_le_bytes());
                }
                out
            }
            WireMessage::Shutdown => vec![TYPE_SHUTDOWN],
            WireMessage::ShutdownAck => vec![TYPE_SHUTDOWN_ACK],
            WireMessage::LeaseRequest { worker } => {
                let mut out = vec![TYPE_LEASE_REQUEST];
                out.extend_from_slice(&worker.to_le_bytes());
                out
            }
            WireMessage::LeaseGrant(offer) => {
                let mut out = vec![TYPE_LEASE_GRANT];
                match offer {
                    LeaseOffer::Granted(t) => {
                        out.push(0);
                        for v in [
                            t.worker,
                            t.shard,
                            t.shards,
                            t.windows,
                            t.lo,
                            t.hi,
                            t.fence,
                            t.lease_ms,
                            t.heartbeat_ms,
                            t.fingerprint,
                        ] {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    LeaseOffer::Wait => out.push(1),
                    LeaseOffer::Complete => out.push(2),
                }
                out
            }
            WireMessage::Heartbeat {
                worker,
                shard,
                fence,
            } => {
                let mut out = vec![TYPE_HEARTBEAT];
                out.extend_from_slice(&worker.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&fence.to_le_bytes());
                out
            }
            WireMessage::LeaseRenew { fence, deadline_ms } => {
                let mut out = vec![TYPE_LEASE_RENEW];
                out.extend_from_slice(&fence.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out
            }
            WireMessage::WorkDone {
                worker,
                shard,
                fence,
            } => {
                let mut out = vec![TYPE_WORK_DONE];
                out.extend_from_slice(&worker.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&fence.to_le_bytes());
                out
            }
        }
    }

    /// Decode a frame payload. Journal record types (0/1) come back
    /// as [`WireMessage::Record`] carrying the verbatim payload.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Malformed`] for truncated or inconsistent
    /// bodies, [`ServiceFault::UnknownFrame`] for unknown type bytes.
    pub fn decode(payload: &[u8]) -> Result<WireMessage, ServiceFault> {
        let Some((&kind, body)) = payload.split_first() else {
            return Err(ServiceFault::Malformed {
                detail: "empty frame payload".to_string(),
            });
        };
        if kind <= 1 {
            return Ok(WireMessage::Record(payload.to_vec()));
        }
        let mut cur = journal::Cursor {
            bytes: body,
            record_offset: 0,
        };
        let malformed = |fault: JournalFault| ServiceFault::Malformed {
            detail: fault.to_string(),
        };
        match kind {
            TYPE_SUBMIT_BEGIN => {
                let shard = cur.u64("shard index").map_err(malformed)?;
                let shards = cur.u64("shard count").map_err(malformed)?;
                let windows = cur.u64("window count").map_err(malformed)?;
                Ok(WireMessage::SubmitBegin {
                    shard,
                    shards,
                    windows,
                })
            }
            TYPE_BEGIN_ACK => {
                let have = take_list(&mut cur, "have-list").map_err(malformed)?;
                Ok(WireMessage::BeginAck { have })
            }
            TYPE_SUBMIT_END => {
                let sent = cur.u64("sent count").map_err(malformed)?;
                Ok(WireMessage::SubmitEnd { sent })
            }
            TYPE_END_ACK => {
                let accepted = cur.u64("accepted count").map_err(malformed)?;
                let missing = take_list(&mut cur, "missing-list").map_err(malformed)?;
                Ok(WireMessage::EndAck { accepted, missing })
            }
            TYPE_REJECT => {
                let code = cur.u8("reject code").map_err(malformed)?;
                let len = cur.u16("message length").map_err(malformed)?;
                let raw = cur
                    .take(usize::from(len), "reject message")
                    .map_err(malformed)?;
                let message = String::from_utf8_lossy(raw).into_owned();
                Ok(WireMessage::Reject { code, message })
            }
            TYPE_FIT_REQUEST => Ok(WireMessage::FitRequest),
            TYPE_FIT_RESPONSE => {
                let windows = cur.u64("fit windows").map_err(malformed)?;
                let covered = cur.u64("fit covered").map_err(malformed)?;
                let min_coverage = f64::from_bits(cur.u64("fit min coverage").map_err(malformed)?);
                let partial = cur.u8("fit partial flag").map_err(malformed)? != 0;
                let survivors = cur.u64("fit survivors").map_err(malformed)?;
                let quarantined = cur.u64("fit quarantined").map_err(malformed)?;
                let pooled_windows = cur.u64("fit pooled windows").map_err(malformed)?;
                let d_max = cur.u64("fit d_max").map_err(malformed)?;
                let n = cur.u64("fit row count").map_err(malformed)?;
                if (n as u128) * 24 > cur.bytes.len() as u128 {
                    return Err(ServiceFault::Malformed {
                        detail: "declared fit row count extends past the frame".to_string(),
                    });
                }
                let mut rows = Vec::with_capacity(palu_sparse::admitted_capacity(n as usize));
                for _ in 0..n {
                    let degree = cur.u64("fit row degree").map_err(malformed)?;
                    let mean_bits = cur.u64("fit row mean").map_err(malformed)?;
                    let sigma_bits = cur.u64("fit row sigma").map_err(malformed)?;
                    rows.push(FitRow {
                        degree,
                        mean_bits,
                        sigma_bits,
                    });
                }
                let n_torn = cur.u64("fit shard-torn count").map_err(malformed)?;
                if (n_torn as u128) * 24 > cur.bytes.len() as u128 {
                    return Err(ServiceFault::Malformed {
                        detail: "declared shard-torn row count extends past the frame".to_string(),
                    });
                }
                let mut shard_torn = Vec::with_capacity(n_torn as usize);
                for _ in 0..n_torn {
                    let shard = cur.u64("torn row shard").map_err(malformed)?;
                    let torn_records_dropped = cur.u64("torn row records").map_err(malformed)?;
                    let torn_bytes_dropped = cur.u64("torn row bytes").map_err(malformed)?;
                    shard_torn.push(ShardTornRow {
                        shard,
                        torn_records_dropped,
                        torn_bytes_dropped,
                    });
                }
                Ok(WireMessage::FitResponse(FitSnapshot {
                    windows,
                    covered,
                    min_coverage,
                    partial,
                    survivors,
                    quarantined,
                    pooled_windows,
                    d_max,
                    rows,
                    shard_torn,
                }))
            }
            TYPE_SHUTDOWN => Ok(WireMessage::Shutdown),
            TYPE_SHUTDOWN_ACK => Ok(WireMessage::ShutdownAck),
            TYPE_LEASE_REQUEST => {
                let worker = cur.u64("lease worker").map_err(malformed)?;
                Ok(WireMessage::LeaseRequest { worker })
            }
            TYPE_LEASE_GRANT => {
                let status = cur.u8("lease grant status").map_err(malformed)?;
                match status {
                    0 => {
                        let worker = cur.u64("ticket worker").map_err(malformed)?;
                        let shard = cur.u64("ticket shard").map_err(malformed)?;
                        let shards = cur.u64("ticket shard count").map_err(malformed)?;
                        let windows = cur.u64("ticket window count").map_err(malformed)?;
                        let lo = cur.u64("ticket range lo").map_err(malformed)?;
                        let hi = cur.u64("ticket range hi").map_err(malformed)?;
                        let fence = cur.u64("ticket fence").map_err(malformed)?;
                        let lease_ms = cur.u64("ticket lease ms").map_err(malformed)?;
                        let heartbeat_ms = cur.u64("ticket heartbeat ms").map_err(malformed)?;
                        let fingerprint = cur.u64("ticket fingerprint").map_err(malformed)?;
                        Ok(WireMessage::LeaseGrant(LeaseOffer::Granted(LeaseTicket {
                            worker,
                            shard,
                            shards,
                            windows,
                            lo,
                            hi,
                            fence,
                            lease_ms,
                            heartbeat_ms,
                            fingerprint,
                        })))
                    }
                    1 => Ok(WireMessage::LeaseGrant(LeaseOffer::Wait)),
                    2 => Ok(WireMessage::LeaseGrant(LeaseOffer::Complete)),
                    other => Err(ServiceFault::Malformed {
                        detail: format!("unknown lease grant status {other}"),
                    }),
                }
            }
            TYPE_HEARTBEAT => {
                let worker = cur.u64("heartbeat worker").map_err(malformed)?;
                let shard = cur.u64("heartbeat shard").map_err(malformed)?;
                let fence = cur.u64("heartbeat fence").map_err(malformed)?;
                Ok(WireMessage::Heartbeat {
                    worker,
                    shard,
                    fence,
                })
            }
            TYPE_LEASE_RENEW => {
                let fence = cur.u64("renew fence").map_err(malformed)?;
                let deadline_ms = cur.u64("renew deadline ms").map_err(malformed)?;
                Ok(WireMessage::LeaseRenew { fence, deadline_ms })
            }
            TYPE_WORK_DONE => {
                let worker = cur.u64("work-done worker").map_err(malformed)?;
                let shard = cur.u64("work-done shard").map_err(malformed)?;
                let fence = cur.u64("work-done fence").map_err(malformed)?;
                Ok(WireMessage::WorkDone {
                    worker,
                    shard,
                    fence,
                })
            }
            other => Err(ServiceFault::UnknownFrame { kind: other }),
        }
    }
}

/// Client retry policy: a total deadline, jittered exponential
/// backoff between attempts, and per-socket I/O timeouts. The jitter
/// is seeded ([`SeedSequence`]) so a test's retry schedule is
/// reproducible. Shared by every wire client — `submit`'s journal
/// streamer and the dispatcher's `work` lease loop use the same
/// knobs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total budget across all attempts; [`ServiceFault::Unavailable`]
    /// when it elapses.
    pub deadline: std::time::Duration,
    /// Base backoff; attempt `k` waits `base · 2^k · jitter`.
    pub backoff_base: std::time::Duration,
    /// Backoff ceiling.
    pub backoff_cap: std::time::Duration,
    /// Per-socket read/write timeout.
    pub io_timeout: std::time::Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy suited to loopback tests: tight timeouts, fast
    /// backoff, generous total deadline.
    pub fn fast(seed: u64) -> RetryPolicy {
        RetryPolicy {
            deadline: std::time::Duration::from_secs(30),
            backoff_base: std::time::Duration::from_millis(10),
            backoff_cap: std::time::Duration::from_millis(250),
            io_timeout: std::time::Duration::from_secs(5),
            seed,
        }
    }

    /// The wait before retry `attempt` (0-based): exponential with
    /// multiplicative jitter in `[0.5, 1.0)`, capped. Deterministic
    /// in `(seed, attempt)`.
    pub fn backoff(&self, attempt: u64) -> std::time::Duration {
        let factor = 1u64.checked_shl(attempt.min(16) as u32).unwrap_or(u64::MAX);
        let mut rng = SeedSequence::new(self.seed).rng(attempt);
        let u: f64 = rng.gen::<f64>();
        let jitter = 0.5 + 0.5 * u;
        let nanos = self.backoff_base.as_nanos() as f64 * factor as f64 * jitter;
        let capped = nanos.min(self.backoff_cap.as_nanos() as f64);
        std::time::Duration::from_nanos(capped as u64)
    }

    /// The one client retry loop: run `attempt` (given its 0-based
    /// index) until it succeeds, returning a non-retryable fault at
    /// once and sleeping [`RetryPolicy::backoff`] between the others.
    /// Once the deadline has passed, the last fault comes back wrapped
    /// in [`ServiceFault::Unavailable`].
    pub(crate) fn run<T>(
        &self,
        mut attempt: impl FnMut(u64) -> Result<T, ServiceFault>,
    ) -> Result<T, ServiceFault> {
        let start = now();
        let mut index = 0u64;
        loop {
            let fault = match attempt(index) {
                Ok(value) => return Ok(value),
                Err(fault) if !fault.retryable() => return Err(fault),
                Err(fault) => fault,
            };
            if start.elapsed() >= self.deadline {
                return Err(ServiceFault::Unavailable {
                    detail: format!("retry deadline elapsed; last fault: {fault}"),
                });
            }
            std::thread::sleep(self.backoff(index));
            index += 1;
        }
    }
}

/// Read the monotonic clock for retry pacing and lease deadlines.
/// Confined here so the pragma is one auditable site.
// Transport pacing only: the clock reading never reaches a numerical
// result. lint:allow(R2)
pub(crate) fn now() -> std::time::Instant {
    // lint:allow(R2)
    std::time::Instant::now()
}

/// One injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The frame is silently not sent.
    Drop,
    /// One payload byte is flipped (the CRC catches it server-side).
    Corrupt,
    /// The frame is sent twice (idempotency probe).
    Duplicate,
    /// The frame is sent after a short stall.
    Delay,
    /// Only a prefix of the frame is sent and the connection is
    /// abandoned — the mid-frame-kill signature.
    Truncate,
}

impl WireFault {
    /// Stable lowercase name, used in CLI specs and JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            WireFault::Drop => "drop",
            WireFault::Corrupt => "corrupt",
            WireFault::Duplicate => "dup",
            WireFault::Delay => "delay",
            WireFault::Truncate => "truncate",
        }
    }
}

/// Per-frame wire-fault rates, each in `[0, 1]` with total ≤ 1 —
/// the transport twin of [`crate::fault::InjectionSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSpec {
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is corrupted.
    pub corrupt: f64,
    /// Probability a frame is duplicated.
    pub duplicate: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
    /// Probability a frame is truncated (connection abandoned).
    pub truncate: f64,
}

impl WireSpec {
    /// No injection at all.
    pub fn none() -> Self {
        WireSpec {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            truncate: 0.0,
        }
    }

    /// Total rate `rate`, split evenly across all five fault kinds.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "wire fault rate must be in [0, 1], got {rate}"
        );
        WireSpec {
            drop: rate / 5.0,
            corrupt: rate / 5.0,
            duplicate: rate / 5.0,
            delay: rate / 5.0,
            truncate: rate / 5.0,
        }
    }

    /// Parse a CLI spec: either a bare total rate (`"0.5"`, split
    /// evenly across all five kinds) or comma-separated `kind=rate`
    /// pairs drawn from `drop`, `corrupt`, `dup`, `delay`,
    /// `truncate` (unnamed kinds default to 0).
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed input, rates outside
    /// `[0, 1]`, or totals above 1.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty wire fault spec".into());
        }
        if let Ok(rate) = s.parse::<f64>() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("wire fault rate must be in [0, 1], got {rate}"));
            }
            return Ok(WireSpec::uniform(rate));
        }
        let mut spec = WireSpec::none();
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
                "drop" => spec.drop = rate,
                "corrupt" => spec.corrupt = rate,
                "dup" => spec.duplicate = rate,
                "delay" => spec.delay = rate,
                "truncate" => spec.truncate = rate,
                other => {
                    return Err(format!(
                        "unknown wire fault kind '{other}' (expected drop, corrupt, dup, \
                         delay, truncate)"
                    ))
                }
            }
        }
        if spec.total() > 1.0 {
            return Err(format!("wire fault rates sum to {} > 1", spec.total()));
        }
        Ok(spec)
    }

    /// Sum of all the rates.
    pub fn total(&self) -> f64 {
        self.drop + self.corrupt + self.duplicate + self.delay + self.truncate
    }

    /// True when every rate is zero.
    pub fn is_none(&self) -> bool {
        self.total() == 0.0
    }
}

/// Deterministic seeded wire-fault injector: the decision for
/// `(frame, attempt)` is a pure function of the seed, exactly like
/// [`crate::fault::Injector::plan`] — retried frames see independent
/// draws, so an injected fault does not automatically recur.
#[derive(Debug, Clone)]
pub struct WireInjector {
    spec: WireSpec,
    seq: SeedSequence,
}

impl WireInjector {
    /// An injector planting wire faults per `spec`, deterministically
    /// derived from `seed`.
    pub fn new(spec: WireSpec, seed: u64) -> Self {
        WireInjector {
            spec,
            seq: SeedSequence::new(seed),
        }
    }

    /// The injection rates in force.
    pub fn spec(&self) -> &WireSpec {
        &self.spec
    }

    /// The fault (if any) to plant into send `attempt` of frame
    /// `frame`. Pure: same `(seed, frame, attempt)` ⇒ same answer.
    pub fn plan(&self, frame: u64, attempt: u64) -> Option<WireFault> {
        if self.spec.is_none() {
            return None;
        }
        let mut rng = SeedSequence::new(self.seq.child_seed(frame)).rng(attempt);
        let u: f64 = rng.gen::<f64>();
        let mut edge = self.spec.drop;
        if u < edge {
            return Some(WireFault::Drop);
        }
        edge += self.spec.corrupt;
        if u < edge {
            return Some(WireFault::Corrupt);
        }
        edge += self.spec.duplicate;
        if u < edge {
            return Some(WireFault::Duplicate);
        }
        edge += self.spec.delay;
        if u < edge {
            return Some(WireFault::Delay);
        }
        edge += self.spec.truncate;
        if u < edge {
            return Some(WireFault::Truncate);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: WireMessage) {
        let payload = msg.encode();
        let decoded = WireMessage::decode(&payload).unwrap();
        assert_eq!(decoded, msg);
        // And through the frame layer.
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = wire.as_slice();
        let got = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, payload);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(WireMessage::SubmitBegin {
            shard: 2,
            shards: 4,
            windows: 64,
        });
        round_trip(WireMessage::BeginAck {
            have: vec![0, 1, 5, 9],
        });
        round_trip(WireMessage::SubmitEnd { sent: 12 });
        round_trip(WireMessage::EndAck {
            accepted: 10,
            missing: vec![11, 12],
        });
        round_trip(WireMessage::Reject {
            code: 9,
            message: "identity skew — seed mismatch".to_string(),
        });
        round_trip(WireMessage::FitRequest);
        round_trip(WireMessage::FitResponse(FitSnapshot {
            windows: 64,
            covered: 48,
            min_coverage: 0.9,
            partial: true,
            survivors: 47,
            quarantined: 17,
            pooled_windows: 47,
            d_max: 120,
            rows: vec![FitRow {
                degree: 1,
                mean_bits: 0.5f64.to_bits(),
                sigma_bits: 0.01f64.to_bits(),
            }],
            shard_torn: vec![ShardTornRow {
                shard: 2,
                torn_records_dropped: 1,
                torn_bytes_dropped: 37,
            }],
        }));
        round_trip(WireMessage::Shutdown);
        round_trip(WireMessage::ShutdownAck);
    }

    #[test]
    fn lease_messages_round_trip() {
        round_trip(WireMessage::LeaseRequest { worker: 7 });
        round_trip(WireMessage::LeaseGrant(LeaseOffer::Granted(LeaseTicket {
            worker: 7,
            shard: 2,
            shards: 4,
            windows: 64,
            lo: 32,
            hi: 48,
            fence: 11,
            lease_ms: 2000,
            heartbeat_ms: 400,
            fingerprint: 0xDEAD_BEEF,
        })));
        round_trip(WireMessage::LeaseGrant(LeaseOffer::Wait));
        round_trip(WireMessage::LeaseGrant(LeaseOffer::Complete));
        round_trip(WireMessage::Heartbeat {
            worker: 7,
            shard: 2,
            fence: 11,
        });
        round_trip(WireMessage::LeaseRenew {
            fence: 11,
            deadline_ms: 2000,
        });
        round_trip(WireMessage::WorkDone {
            worker: 7,
            shard: 2,
            fence: 11,
        });
        // An unknown grant status is malformed, not silently mapped.
        assert!(matches!(
            WireMessage::decode(&[TYPE_LEASE_GRANT, 9]),
            Err(ServiceFault::Malformed { .. })
        ));
    }

    #[test]
    fn journal_payloads_pass_through_verbatim() {
        let payload = vec![1u8, 7, 7, 7];
        match WireMessage::decode(&payload).unwrap() {
            WireMessage::Record(raw) => assert_eq!(raw, payload),
            other => panic!("expected Record, got {other:?}"),
        }
        assert_eq!(
            WireMessage::Record(payload.clone()).encode(),
            payload,
            "records must never be re-encoded"
        );
    }

    #[test]
    fn torn_and_corrupt_frames_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[16u8, 1, 2, 3]).unwrap();
        // Every strict prefix is torn (or clean-empty at 0).
        for cut in 0..wire.len() {
            let mut r = &wire[..cut];
            match read_frame(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean end"),
                Err(ServiceFault::Torn { bytes }) => {
                    assert_eq!(bytes, cut as u64, "cut at {cut}")
                }
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
        // Flip a payload byte: checksum refusal.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(read_frame(&mut bad.as_slice()), Err(ServiceFault::Checksum));
        // An absurd length prefix: oversized refusal.
        let mut huge = wire.clone();
        huge[3] = 0xFF;
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ServiceFault::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_frame_types_are_typed() {
        assert!(matches!(
            WireMessage::decode(&[200u8]),
            Err(ServiceFault::UnknownFrame { kind: 200 })
        ));
        assert!(matches!(
            WireMessage::decode(&[]),
            Err(ServiceFault::Malformed { .. })
        ));
    }

    #[test]
    fn wire_spec_parses_like_injection_spec() {
        let spec = WireSpec::parse("0.5").unwrap();
        assert!((spec.total() - 0.5).abs() < 1e-12);
        let spec = WireSpec::parse("drop=0.1,truncate=0.2").unwrap();
        assert_eq!(spec.drop, 0.1);
        assert_eq!(spec.truncate, 0.2);
        assert_eq!(spec.corrupt, 0.0);
        assert!(WireSpec::parse("drop=2").is_err());
        assert!(WireSpec::parse("bogus=0.1").is_err());
        assert!(WireSpec::parse("drop=0.9,corrupt=0.9").is_err());
        assert!(WireSpec::parse("").is_err());
    }

    #[test]
    fn injector_is_deterministic_and_rate_accurate() {
        let inj = WireInjector::new(WireSpec::uniform(0.5), 42);
        let again = WireInjector::new(WireSpec::uniform(0.5), 42);
        let mut hits = 0u64;
        const FRAMES: u64 = 4000;
        for f in 0..FRAMES {
            let a = inj.plan(f, 0);
            assert_eq!(a, again.plan(f, 0), "frame {f} must be deterministic");
            if a.is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / FRAMES as f64;
        assert!((0.4..0.6).contains(&rate), "empirical rate {rate}");
        // Retries draw independently.
        let differs = (0..200u64).any(|f| inj.plan(f, 0) != inj.plan(f, 1));
        assert!(differs, "attempts must see independent draws");
        assert!(WireInjector::new(WireSpec::none(), 1).plan(0, 0).is_none());
    }

    #[test]
    fn refusal_classes_match_cli_exit_convention() {
        let skew = ServiceFault::IdentitySkew {
            fault: JournalFault::SeedMismatch { journal: 1, run: 2 },
        };
        assert_eq!(skew.refusal(), RefusalClass::IdentitySkew);
        assert!(!skew.retryable());
        let cov = ServiceFault::PartialCoverage {
            covered: 3,
            windows: 8,
            min_coverage: 0.9,
        };
        assert_eq!(cov.refusal(), RefusalClass::Coverage);
        assert_eq!(
            ServiceFault::WindowConflict { window: 3 }.refusal(),
            RefusalClass::Corrupt
        );
        assert_eq!(
            ServiceFault::BadShard {
                shard: 9,
                shards: 4
            }
            .refusal(),
            RefusalClass::Usage
        );
        assert_eq!(
            ServiceFault::Unavailable { detail: "x".into() }.refusal(),
            RefusalClass::Unavailable
        );
        // Remote faults keep their origin's class across the hop.
        let remote = ServiceFault::Remote {
            code: skew.code(),
            message: skew.to_string(),
        };
        assert_eq!(remote.refusal(), RefusalClass::IdentitySkew);
        // Transport trouble retries; skew and conflicts never do.
        assert!(ServiceFault::Checksum.retryable());
        assert!(ServiceFault::Torn { bytes: 3 }.retryable());
        assert!(ServiceFault::Deadline.retryable());
        assert!(!ServiceFault::WindowConflict { window: 1 }.retryable());
        // Fencing is terminal: a zombie must stop, not retry.
        let fenced = ServiceFault::LeaseFenced {
            worker: 1,
            shard: 2,
            fence: 3,
        };
        assert_eq!(fenced.code(), 16);
        assert_eq!(fenced.refusal(), RefusalClass::Fenced);
        assert!(!fenced.retryable());
        let remote_fenced = ServiceFault::Remote {
            code: fenced.code(),
            message: fenced.to_string(),
        };
        assert_eq!(remote_fenced.refusal(), RefusalClass::Fenced);
        assert!(!remote_fenced.retryable());
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_and_capped() {
        let retry = RetryPolicy::fast(42);
        let again = RetryPolicy::fast(42);
        for attempt in 0..12 {
            let wait = retry.backoff(attempt);
            assert_eq!(wait, again.backoff(attempt), "attempt {attempt}");
            assert!(wait <= retry.backoff_cap, "attempt {attempt} over cap");
        }
        let other = RetryPolicy::fast(43);
        assert!((0..12).any(|a| retry.backoff(a) != other.backoff(a)));
    }

    #[test]
    fn retry_driver_returns_at_success_or_a_non_retryable_fault() {
        let retry = RetryPolicy {
            backoff_base: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
            ..RetryPolicy::fast(1)
        };
        let mut attempts = 0;
        let refused: Result<(), _> = retry.run(|_| {
            attempts += 1;
            Err(ServiceFault::WindowConflict { window: 3 })
        });
        assert_eq!(refused, Err(ServiceFault::WindowConflict { window: 3 }));
        assert_eq!(attempts, 1);
        let mut seen = Vec::new();
        let out = retry.run(|attempt| {
            seen.push(attempt);
            match attempt {
                0..=2 => Err(ServiceFault::Torn { bytes: 1 }),
                _ => Ok(attempt),
            }
        });
        assert_eq!((out, seen), (Ok(3), vec![0, 1, 2, 3]));
    }

    #[test]
    fn retry_driver_past_its_deadline_names_the_last_fault() {
        let retry = RetryPolicy {
            deadline: std::time::Duration::ZERO,
            ..RetryPolicy::fast(1)
        };
        let out: Result<(), _> = retry.run(|_| Err(ServiceFault::Deadline));
        let detail = format!(
            "retry deadline elapsed; last fault: {}",
            ServiceFault::Deadline
        );
        assert_eq!(out, Err(ServiceFault::Unavailable { detail }));
    }
}
