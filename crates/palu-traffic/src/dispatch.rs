//! Federation dispatcher: lease-based shard supervision (DESIGN.md §4l).
//!
//! PR 8 sharded the capture and the service layer (§4k) let shards
//! *submit themselves*, but nothing launched shard work, noticed a
//! dead worker, or reassigned its range. The [`Dispatcher`] closes
//! that gap: it owns the [`ShardPlan`], hands out window-range
//! **leases** to workers over the existing wire protocol (frame types
//! 25–29), monitors liveness with per-lease deadlines renewed by
//! jittered heartbeats, and **re-dispatches** expired leases to live
//! workers — deterministically, always the lowest-indexed incomplete
//! free shard.
//!
//! Safety against zombies comes from **fencing tokens**: every grant
//! carries a fence drawn from a monotonically increasing epoch
//! (`fence_epoch() + counter`), and a worker whose lease expired —
//! or that predates a dispatcher restart — presents a stale fence and
//! gets a typed [`ServiceFault::LeaseFenced`] refusal (wire code 16,
//! CLI exit 9) instead of corrupting anything. The deeper invariant
//! is structural: window state is a pure function of the capture
//! identity and the collector's `accept_window` is byte-idempotent,
//! so even a zombie that *resubmits* its journal cannot change
//! coverage — fencing adds typed observability and tells the zombie
//! to stop burning cycles, it is not load-bearing for correctness.
//!
//! The dispatcher *wraps* a [`Collector`] behind one listener: the
//! first frame of each connection routes the session — lease frames
//! are handled here, everything else (submission, fit, shutdown)
//! replays byte-exactly into [`Collector::handle`]. Workers therefore
//! submit through the PR 9 path unchanged, and the merged fit stays
//! bit-identical to single-process at any worker count and under any
//! kill schedule.
//!
//! Crash recovery is free by construction: lease state is *derived*
//! (which ranges are complete comes from the collector's per-shard
//! journals, which [`Collector::new`] resumes), so a dispatcher
//! SIGKILLed and restarted over the same journal directory rebuilds
//! its table and re-dispatches only what is genuinely incomplete.
//!
//! Every supervision event is a typed [`DispatchFault`]
//! (WorkerLost / LeaseExpired / LeaseFenced / RangeOrphaned /
//! DispatchStalled) that flows into the existing [`FaultReport`]
//! taxonomy with append-only wire codes 10–14 — the dispatcher's own
//! report, kept separate from the merged capture's report so the
//! latter stays bit-identical to a single-process run.

use crate::accept;
use crate::fault::{FaultKind, FaultRecord, FaultReport, WindowOutcome};
use crate::federation::{FederationError, ShardPlan, ShardRange};
use crate::journal::{Journal, JournalFault, JournalHeader};
use crate::service::{
    connect, frame_name, journal_fault_to_service, now, read_reply, submit_journal, Collector,
    SubmitOutcome,
};
use crate::wire::{
    read_frame, write_frame, LeaseOffer, LeaseTicket, RefusalClass, RetryPolicy, ServiceFault,
    WireInjector, WireMessage, TYPE_LEASE_REQUEST, TYPE_WORK_DONE,
};
use palu_stats::rng::{Rng, SeedSequence};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
// Liveness supervision is inherently wall-clock: lease deadlines and
// heartbeat intervals never reach a numerical result. lint:allow(R2)
use std::time::{Duration, Instant};

/// Detail rows kept per report (the counters stay exact).
const DISPATCH_FAULT_CAP: usize = 256;

/// The fencing epoch: wall-clock milliseconds at dispatcher
/// construction, scaled to leave room for a per-epoch grant counter.
/// A fence must be *unique across dispatcher restarts* — a zombie
/// holding a lease from a previous incarnation has to read as stale —
/// and derived lease state carries nothing across a SIGKILL, so a
/// monotone wall-clock epoch is the only zero-dependency source.
/// Observability/fencing only: the value never reaches a numerical
/// result. lint:allow(R2)
fn fence_epoch() -> u64 {
    // lint:allow(R2)
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    // Room for 2^20 grants per epoch millisecond; saturate far past
    // any realistic clock instead of wrapping into an old epoch.
    ms.saturating_mul(1 << 20)
}

/// Dispatcher policy knobs.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Lease deadline: a worker that neither heartbeats nor completes
    /// within this window loses its range to re-dispatch.
    pub lease: Duration,
    /// Heartbeat interval handed to workers (they jitter around it).
    pub heartbeat: Duration,
    /// Keep serving after all shards complete (until a `Shutdown`
    /// frame) instead of exiting with the report.
    pub linger: bool,
    /// Declare [`DispatchFault::DispatchStalled`] and stop when no
    /// lease activity *and* no live lease exists for this long with
    /// coverage incomplete. `None` disables the watchdog.
    pub stall: Option<Duration>,
}

impl DispatchConfig {
    /// Defaults suited to loopback tests: short leases, fast beats.
    pub fn fast() -> DispatchConfig {
        DispatchConfig {
            lease: Duration::from_millis(2000),
            heartbeat: Duration::from_millis(200),
            linger: false,
            stall: None,
        }
    }
}

/// One typed supervision event. The payload-free classification flows
/// into [`FaultReport`] as [`FaultKind`] codes 10–14 (append-only);
/// the full variants are kept in the [`DispatchReport`] audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchFault {
    /// A leased worker stopped heartbeating before completing.
    WorkerLost {
        /// The silent worker.
        worker: u64,
        /// The shard it held.
        shard: u64,
    },
    /// A lease deadline elapsed; the range returns to the queue.
    LeaseExpired {
        /// The worker that held the lease.
        worker: u64,
        /// The reclaimed shard.
        shard: u64,
        /// The now-stale fencing token.
        fence: u64,
    },
    /// A zombie presented a stale fence and was refused.
    LeaseFenced {
        /// The zombie worker.
        worker: u64,
        /// The shard it believed it held.
        shard: u64,
        /// The stale token it presented.
        fence: u64,
    },
    /// `WorkDone` arrived for a range that is not fully persisted;
    /// its windows return to the dispatch queue.
    RangeOrphaned {
        /// The under-delivered shard.
        shard: u64,
        /// Windows actually persisted.
        persisted: u64,
        /// Windows the range owns.
        assigned: u64,
    },
    /// The stall watchdog fired: incomplete coverage, no live lease,
    /// no lease activity for the configured window.
    DispatchStalled {
        /// Shards complete at the stall.
        done: u64,
        /// Shards in the plan.
        shards: u64,
    },
}

impl DispatchFault {
    /// The payload-free classification recorded in [`FaultReport`].
    pub fn kind(&self) -> FaultKind {
        match self {
            DispatchFault::WorkerLost { .. } => FaultKind::WorkerLost,
            DispatchFault::LeaseExpired { .. } => FaultKind::LeaseExpired,
            DispatchFault::LeaseFenced { .. } => FaultKind::LeaseFenced,
            DispatchFault::RangeOrphaned { .. } => FaultKind::RangeOrphaned,
            DispatchFault::DispatchStalled { .. } => FaultKind::DispatchStalled,
        }
    }
}

impl std::fmt::Display for DispatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchFault::WorkerLost { worker, shard } => {
                write!(f, "worker {worker} lost while holding shard {shard}")
            }
            DispatchFault::LeaseExpired {
                worker,
                shard,
                fence,
            } => write!(
                f,
                "lease {fence} on shard {shard} (worker {worker}) expired — range re-dispatches"
            ),
            DispatchFault::LeaseFenced {
                worker,
                shard,
                fence,
            } => write!(
                f,
                "zombie worker {worker} fenced off shard {shard} (stale token {fence})"
            ),
            DispatchFault::RangeOrphaned {
                shard,
                persisted,
                assigned,
            } => write!(
                f,
                "shard {shard} orphaned: WorkDone with {persisted}/{assigned} windows persisted"
            ),
            DispatchFault::DispatchStalled { done, shards } => write!(
                f,
                "dispatch stalled at {done}/{shards} shard(s) with no live lease"
            ),
        }
    }
}

/// The dispatcher's final accounting: lease counters plus the typed
/// supervision audit trail. Distinct from the merged capture's
/// [`FaultReport`], which must stay bit-identical to single-process.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Shards in the plan.
    pub shards: u64,
    /// Windows in the capture.
    pub windows: u64,
    /// Shards fully persisted at report time.
    pub shards_done: u64,
    /// Leases granted.
    pub leases_granted: u64,
    /// Leases whose deadline elapsed.
    pub leases_expired: u64,
    /// Fenced zombie refusals issued.
    pub leases_fenced: u64,
    /// Grants that re-dispatched a previously expired range.
    pub leases_redispatched: u64,
    /// Heartbeats accepted.
    pub heartbeats: u64,
    /// Whether the stall watchdog fired.
    pub stalled: bool,
    /// Supervision events, in arrival order (bounded at
    /// `DISPATCH_FAULT_CAP`; the counters stay exact).
    pub events: Vec<DispatchFault>,
    /// The same events as [`FaultRecord`]s (kind codes 10–14), so
    /// dispatch supervision rides the existing fault taxonomy.
    pub faults: FaultReport,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Leased,
    Done,
}

struct LeaseSlot {
    range: ShardRange,
    state: SlotState,
    worker: u64,
    fence: u64,
    // Liveness deadline, not data. lint:allow(R2)
    deadline: Instant,
    expired_before: bool,
}

struct DispatchState {
    slots: BTreeMap<u64, LeaseSlot>,
    fence_counter: u64,
    events: Vec<DispatchFault>,
    faults: FaultReport,
    stalled: bool,
    /// Last lease activity (grant / heartbeat / completion); drives
    /// the stall watchdog only.
    // lint:allow(R2)
    activity_at: Instant,
}

struct DispatchShared {
    config: DispatchConfig,
    fence_base: u64,
    state: Mutex<DispatchState>,
}

/// The lease supervisor wrapping a [`Collector`] behind one listener.
/// Cheap to clone (shared state behind `Arc`s), one instance per
/// connection thread.
#[derive(Clone)]
pub struct Dispatcher {
    collector: Collector,
    shared: Arc<DispatchShared>,
}

impl Dispatcher {
    /// Wrap `collector` with lease supervision. Completion state is
    /// *derived*: any shard the collector's resumed journals already
    /// cover is marked done up front, which is exactly what makes a
    /// dispatcher restart over the same journal directory recover.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::BadShard`] when the collector's shard/window
    /// geometry does not form a valid plan (cannot happen for a
    /// collector that constructed successfully).
    pub fn new(collector: Collector, config: DispatchConfig) -> Result<Dispatcher, ServiceFault> {
        let windows = collector.config().expect.windows;
        let shards = collector.config().shards;
        let plan = ShardPlan::new(windows, shards)
            .map_err(|_| ServiceFault::BadShard { shard: 0, shards })?;
        let progress = collector.shard_progress();
        let mut slots = BTreeMap::new();
        for range in plan.ranges() {
            let persisted = progress.get(&range.shard).copied().unwrap_or(0);
            let state = if persisted >= range.window_count() {
                SlotState::Done
            } else {
                SlotState::Free
            };
            slots.insert(
                range.shard,
                LeaseSlot {
                    range,
                    state,
                    worker: 0,
                    fence: 0,
                    deadline: now(),
                    expired_before: false,
                },
            );
        }
        Ok(Dispatcher {
            collector,
            shared: Arc::new(DispatchShared {
                config,
                fence_base: fence_epoch(),
                state: Mutex::new(DispatchState {
                    slots,
                    fence_counter: 0,
                    events: Vec::new(),
                    faults: FaultReport::new(windows),
                    stalled: false,
                    activity_at: now(),
                }),
            }),
        })
    }

    /// The wrapped collector (submission path, fit snapshots,
    /// journals).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The dispatch policy in force.
    pub fn config(&self) -> &DispatchConfig {
        &self.shared.config
    }

    /// Same poisoning argument as [`Collector`]: every mutation
    /// completes before the lock drops, so recover the guard.
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        match self.shared.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Handle one connection: the first frame routes the session.
    /// Lease frames (types 25–29) are supervised here; anything else —
    /// including torn or corrupt first frames — replays byte-exactly
    /// into [`Collector::handle`], so the submission/fit/shutdown
    /// protocol is the PR 9 code path, not a reimplementation.
    pub fn handle<S: Read + Write>(&self, conn: &mut S) {
        let mut recorder = Recorder {
            inner: conn,
            seen: Vec::new(),
        };
        let first = read_frame(&mut recorder);
        let lease_payload = match first {
            Ok(Some(payload))
                if payload
                    .first()
                    .is_some_and(|k| (TYPE_LEASE_REQUEST..=TYPE_WORK_DONE).contains(k)) =>
            {
                Some(payload)
            }
            _ => None,
        };
        let seen = std::mem::take(&mut recorder.seen);
        match lease_payload {
            Some(payload) => self.lease_session(conn, payload),
            None => {
                // Replay every byte the router consumed, then hand the
                // live stream over: the collector sees the identical
                // byte sequence the client sent.
                let mut replay = Replay {
                    head: std::io::Cursor::new(seen),
                    inner: conn,
                };
                let _ = self.collector.handle(&mut replay);
            }
        }
    }

    /// One lease session: reply to each decoded lease frame until the
    /// peer closes. Faults answer with a `Reject` frame carrying the
    /// typed wire code (16 for fencing), mirroring the collector.
    fn lease_session<S: Read + Write>(&self, conn: &mut S, first: Vec<u8>) {
        let mut payload = first;
        loop {
            let reply = WireMessage::decode(&payload).and_then(|msg| self.on_lease_message(msg));
            let frame = match reply {
                Ok(message) => message,
                Err(fault) => WireMessage::Reject {
                    code: fault.code(),
                    message: fault.to_string(),
                },
            };
            if write_frame(conn, &frame.encode()).is_err() {
                break;
            }
            match read_frame(conn) {
                Ok(Some(next)) => payload = next,
                _ => break,
            }
        }
    }

    fn on_lease_message(&self, message: WireMessage) -> Result<WireMessage, ServiceFault> {
        match message {
            WireMessage::LeaseRequest { worker } => Ok(WireMessage::LeaseGrant(self.grant(worker))),
            WireMessage::Heartbeat {
                worker,
                shard,
                fence,
            } => self
                .heartbeat(worker, shard, fence)
                .map(|deadline_ms| WireMessage::LeaseRenew { fence, deadline_ms }),
            WireMessage::WorkDone {
                worker,
                shard,
                fence,
            } => self
                .work_done(worker, shard, fence)
                .map(|()| WireMessage::LeaseRenew {
                    fence,
                    deadline_ms: 0,
                }),
            other => Err(ServiceFault::Protocol {
                detail: format!("{} frame on a lease session", frame_name(&other)),
            }),
        }
    }

    fn record(&self, state: &mut DispatchState, fault: DispatchFault) {
        // The merged capture's own report stays untouched: dispatch
        // supervision audits into the dispatcher's report only.
        let window = match &fault {
            DispatchFault::WorkerLost { shard, .. }
            | DispatchFault::LeaseExpired { shard, .. }
            | DispatchFault::LeaseFenced { shard, .. }
            | DispatchFault::RangeOrphaned { shard, .. } => state
                .slots
                .get(shard)
                .map(|slot| slot.range.lo)
                .unwrap_or(0),
            DispatchFault::DispatchStalled { .. } => 0,
        };
        state.faults.records.push(FaultRecord {
            window,
            kind: fault.kind(),
            attempts: 1,
            outcome: WindowOutcome::Recovered,
        });
        if state.events.len() < DISPATCH_FAULT_CAP {
            state.events.push(fault);
        }
    }

    /// Reclaim every lease whose deadline has passed. Expiry is lazy —
    /// swept at each lease interaction and whenever the accept loop
    /// re-checks completion or the stall watchdog — so no supervision
    /// thread exists to die at an awkward moment.
    fn sweep(&self, state: &mut DispatchState) {
        let t = now();
        let expired: Vec<(u64, u64, u64)> = state
            .slots
            .values()
            .filter(|slot| slot.state == SlotState::Leased && slot.deadline <= t)
            .map(|slot| (slot.range.shard, slot.worker, slot.fence))
            .collect();
        for (shard, worker, fence) in expired {
            if let Some(slot) = state.slots.get_mut(&shard) {
                slot.state = SlotState::Free;
                slot.expired_before = true;
            }
            self.collector.metrics().add_leases_expired(1);
            self.record(state, DispatchFault::WorkerLost { worker, shard });
            self.record(
                state,
                DispatchFault::LeaseExpired {
                    worker,
                    shard,
                    fence,
                },
            );
        }
    }

    /// Mark every shard whose range the collector has fully persisted
    /// as done — regardless of who delivered it (a re-dispatched
    /// worker, a direct `submit`, or journals found at startup).
    fn refresh_done(&self, state: &mut DispatchState) {
        let progress = self.collector.shard_progress();
        let mut completed = false;
        for (shard, slot) in state.slots.iter_mut() {
            if slot.state != SlotState::Done
                && progress.get(shard).copied().unwrap_or(0) >= slot.range.window_count()
            {
                slot.state = SlotState::Done;
                completed = true;
            }
        }
        if completed {
            state.activity_at = now();
        }
    }

    /// Deterministic grant: the lowest-indexed incomplete free shard.
    fn grant(&self, worker: u64) -> LeaseOffer {
        let mut state = self.lock();
        self.sweep(&mut state);
        self.refresh_done(&mut state);
        if state
            .slots
            .values()
            .all(|slot| slot.state == SlotState::Done)
        {
            return LeaseOffer::Complete;
        }
        let Some(shard) = state
            .slots
            .iter()
            .find(|(_, slot)| slot.state == SlotState::Free)
            .map(|(shard, _)| *shard)
        else {
            return LeaseOffer::Wait;
        };
        state.fence_counter += 1;
        let fence = self.shared.fence_base.saturating_add(state.fence_counter);
        let config = self.collector.config();
        let lease_ms = self.shared.config.lease.as_millis() as u64;
        let heartbeat_ms = self.shared.config.heartbeat.as_millis() as u64;
        let (redispatch, ticket) = {
            let slot = match state.slots.get_mut(&shard) {
                Some(slot) => slot,
                None => return LeaseOffer::Wait,
            };
            slot.state = SlotState::Leased;
            slot.worker = worker;
            slot.fence = fence;
            slot.deadline = now() + self.shared.config.lease;
            (
                slot.expired_before,
                LeaseTicket {
                    worker,
                    shard,
                    shards: config.shards,
                    windows: config.expect.windows,
                    lo: slot.range.lo,
                    hi: slot.range.hi,
                    fence,
                    lease_ms,
                    heartbeat_ms,
                    fingerprint: config.expect.fingerprint,
                },
            )
        };
        state.activity_at = now();
        self.collector.metrics().add_leases_granted(1);
        if redispatch {
            self.collector.metrics().add_leases_redispatched(1);
        }
        LeaseOffer::Granted(ticket)
    }

    /// Validate `(worker, fence)` against the lease on `shard`; the
    /// error is the typed zombie refusal. A `Done` slot still accepts
    /// its *own* holder's token: `refresh_done` (run by grants, reports
    /// and the accept loop's completion check after each session) can
    /// mark a shard complete the instant the collector has its windows
    /// — a beat before the holder's `WorkDone` frame arrives — and that
    /// holder is finishing, not a zombie.
    fn check_fence(
        &self,
        state: &mut DispatchState,
        worker: u64,
        shard: u64,
        fence: u64,
    ) -> Result<(), ServiceFault> {
        let live = state.slots.get(&shard).is_some_and(|slot| {
            matches!(slot.state, SlotState::Leased | SlotState::Done)
                && slot.worker == worker
                && slot.fence == fence
        });
        if live {
            return Ok(());
        }
        self.collector.metrics().add_leases_fenced(1);
        self.record(
            state,
            DispatchFault::LeaseFenced {
                worker,
                shard,
                fence,
            },
        );
        Err(ServiceFault::LeaseFenced {
            worker,
            shard,
            fence,
        })
    }

    /// A heartbeat renews the lease deadline; returns the remaining
    /// lease in milliseconds.
    fn heartbeat(&self, worker: u64, shard: u64, fence: u64) -> Result<u64, ServiceFault> {
        let mut state = self.lock();
        self.sweep(&mut state);
        self.check_fence(&mut state, worker, shard, fence)?;
        if let Some(slot) = state.slots.get_mut(&shard) {
            slot.deadline = now() + self.shared.config.lease;
        }
        state.activity_at = now();
        self.collector.metrics().add_heartbeats(1);
        Ok(self.shared.config.lease.as_millis() as u64)
    }

    /// `WorkDone` closes a lease *only* when the collector has the
    /// full range persisted; an under-delivered range is orphaned back
    /// to the queue with a typed refusal.
    fn work_done(&self, worker: u64, shard: u64, fence: u64) -> Result<(), ServiceFault> {
        let mut state = self.lock();
        self.sweep(&mut state);
        self.check_fence(&mut state, worker, shard, fence)?;
        let assigned = state
            .slots
            .get(&shard)
            .map(|slot| slot.range.window_count())
            .unwrap_or(0);
        let persisted = self
            .collector
            .shard_progress()
            .get(&shard)
            .copied()
            .unwrap_or(0);
        if persisted < assigned {
            if let Some(slot) = state.slots.get_mut(&shard) {
                slot.state = SlotState::Free;
                slot.expired_before = true;
            }
            self.record(
                &mut state,
                DispatchFault::RangeOrphaned {
                    shard,
                    persisted,
                    assigned,
                },
            );
            return Err(ServiceFault::Protocol {
                detail: format!(
                    "WorkDone for shard {shard} with {persisted}/{assigned} window(s) \
                     persisted — range returns to the dispatch queue"
                ),
            });
        }
        if let Some(slot) = state.slots.get_mut(&shard) {
            slot.state = SlotState::Done;
        }
        state.activity_at = now();
        Ok(())
    }

    /// True once every shard's range is fully persisted.
    pub fn all_done(&self) -> bool {
        let mut state = self.lock();
        self.sweep(&mut state);
        self.refresh_done(&mut state);
        state
            .slots
            .values()
            .all(|slot| slot.state == SlotState::Done)
    }

    /// Stall watchdog tick: fires (once) when coverage is incomplete,
    /// no lease is live, and nothing has happened for the configured
    /// window. Returns true when the dispatcher should give up.
    fn stalled(&self) -> bool {
        let Some(stall) = self.shared.config.stall else {
            return false;
        };
        let mut state = self.lock();
        if state.stalled {
            return true;
        }
        self.sweep(&mut state);
        self.refresh_done(&mut state);
        let done = state
            .slots
            .values()
            .filter(|slot| slot.state == SlotState::Done)
            .count() as u64;
        let all = state.slots.len() as u64;
        let live = state
            .slots
            .values()
            .any(|slot| slot.state == SlotState::Leased);
        if done < all && !live && state.activity_at.elapsed() >= stall {
            state.stalled = true;
            self.record(
                &mut state,
                DispatchFault::DispatchStalled { done, shards: all },
            );
            return true;
        }
        false
    }

    /// The dispatcher's accounting snapshot.
    pub fn report(&self) -> DispatchReport {
        let metrics = self.collector.metrics().snapshot();
        let mut state = self.lock();
        self.refresh_done(&mut state);
        let shards_done = state
            .slots
            .values()
            .filter(|slot| slot.state == SlotState::Done)
            .count() as u64;
        DispatchReport {
            shards: self.collector.config().shards,
            windows: self.collector.config().expect.windows,
            shards_done,
            leases_granted: metrics.leases_granted,
            leases_expired: metrics.leases_expired,
            leases_fenced: metrics.leases_fenced,
            leases_redispatched: metrics.leases_redispatched,
            heartbeats: metrics.heartbeats,
            stalled: state.stalled,
            events: state.events.clone(),
            faults: state.faults.clone(),
        }
    }
}

/// A stream wrapper that remembers every byte read, so the session
/// router can replay a consumed first frame into the collector.
struct Recorder<'a, S> {
    inner: &'a mut S,
    seen: Vec<u8>,
}

impl<S: Read> Read for Recorder<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        // n ≤ buf.len() by the Read contract. lint:allow(R8)
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// Head-then-stream reader: serves the recorded prefix first, then
/// the live connection; writes go straight through.
struct Replay<'a, S> {
    head: std::io::Cursor<Vec<u8>>,
    inner: &'a mut S,
}

impl<S: Read> Read for Replay<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = std::io::Read::read(&mut self.head, buf)?;
        if n > 0 {
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Replay<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The TCP face of the dispatcher: one listener serving both lease
/// sessions and the whole collector protocol. Exits when every shard
/// completes (unless `linger`), when a `Shutdown` frame drains the
/// collector, when the stall watchdog fires, or when the stop handle
/// is raised (the test harness's in-process SIGKILL: no drain, no
/// final joins beyond thread completion).
pub struct DispatchServer {
    listener: TcpListener,
    dispatcher: Dispatcher,
    stop: Arc<AtomicBool>,
}

impl DispatchServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral CI port).
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the bind fails.
    pub fn bind(addr: &str, dispatcher: Dispatcher) -> Result<DispatchServer, ServiceFault> {
        let listener = TcpListener::bind(addr).map_err(|e| ServiceFault::Io {
            detail: format!("bind {addr}: {e}"),
        })?;
        Ok(DispatchServer {
            listener,
            dispatcher,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves the real port after binding `:0`).
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServiceFault> {
        self.listener.local_addr().map_err(|e| ServiceFault::Io {
            detail: e.to_string(),
        })
    }

    /// The dispatcher this server fronts.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// A flag that makes `run` exit within one accept-loop tick,
    /// without draining or joining in-flight sessions — the
    /// in-process stand-in for SIGKILLing the dispatcher (all durable
    /// state is already in the collector's journals, which is the
    /// point of the recovery test).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accept and route connections until done / drained / stalled /
    /// stopped, then return the dispatch report.
    ///
    /// # Errors
    ///
    /// [`ServiceFault::Io`] when the listener cannot report its address
    /// or the accept thread cannot be started.
    pub fn run(self) -> Result<DispatchReport, ServiceFault> {
        let dispatcher = self.dispatcher.clone();
        let d = &self.dispatcher;
        accept::serve(
            self.listener,
            d.collector().config().read_timeout,
            Some(&self.stop),
            move |stream| dispatcher.handle(stream),
            || d.collector().draining() || (!d.config().linger && d.all_done()) || d.stalled(),
        )?;
        Ok(self.dispatcher.report())
    }
}

// ---------------------------------------------------------------------------
// Worker client
// ---------------------------------------------------------------------------

/// Everything a worker needs to serve leases from one dispatcher.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Dispatcher address.
    pub addr: String,
    /// This worker's stable id (rides in every lease frame).
    pub worker: u64,
    /// Directory for the worker's local shard journals.
    pub journal_dir: PathBuf,
    /// The capture identity this worker is prepared to capture; a
    /// grant whose fingerprint disagrees is refused as identity skew.
    pub expect: JournalHeader,
    /// Transport retry policy (also seeds the heartbeat jitter).
    pub retry: RetryPolicy,
    /// Wait between `Wait` polls when all ranges are leased out.
    pub poll: Duration,
}

/// Where a chaos schedule kills the worker, simulating the observable
/// on-disk/wire state of a SIGKILL at that phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkPhase {
    /// Killed before requesting any lease: the dispatcher never hears
    /// from this worker at all.
    PreLease,
    /// Killed mid-capture: a partial local journal exists, no submit,
    /// no `WorkDone` — the lease expires and re-dispatches.
    MidCapture,
    /// Killed after capture, before submit: a complete local journal
    /// exists but the collector got nothing from it.
    PreSubmit,
}

/// A worker's final accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker id.
    pub worker: u64,
    /// Shards completed (`WorkDone` acknowledged), in completion
    /// order.
    pub completed: Vec<u64>,
    /// Leases granted to this worker.
    pub leases: u64,
    /// Fenced refusals received (zombie detections).
    pub fenced: u64,
    /// The chaos phase that killed the worker, if any.
    pub killed: Option<WorkPhase>,
}

/// The name of a worker's local journal for one shard — stable so a
/// resumed or zombie worker finds its own bytes.
pub fn worker_journal_name(worker: u64, shards: u64, shard: u64) -> String {
    format!("worker-{worker}-shard-{shards}-{shard}.journal")
}

/// One framed request/reply round against the dispatcher, reporting a
/// refused connection distinctly from other transport trouble: the
/// dispatcher exits the moment every shard completes, so on a worker
/// that has already spoken to it, "connection refused" is the
/// signature of a *finished* dispatcher — not a slow one.
enum CallOutcome {
    Reply(WireMessage),
    Gone,
    Fault(ServiceFault),
}

fn call_once(addr: &str, retry: &RetryPolicy, frame: &WireMessage) -> CallOutcome {
    let mut stream = match std::net::TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => return CallOutcome::Gone,
        Err(e) => {
            return CallOutcome::Fault(ServiceFault::Io {
                detail: format!("connect {addr}: {e}"),
            })
        }
    };
    let _ = stream.set_read_timeout(Some(retry.io_timeout));
    let _ = stream.set_write_timeout(Some(retry.io_timeout));
    let _ = stream.set_nodelay(true);
    if let Err(fault) = write_frame(&mut stream, &frame.encode()) {
        return CallOutcome::Fault(fault);
    }
    match read_reply(&mut stream) {
        Ok(reply) => CallOutcome::Reply(reply),
        Err(fault) => CallOutcome::Fault(fault),
    }
}

/// Ask the dispatcher for a lease, retrying transport faults until
/// the policy deadline.
///
/// # Errors
///
/// Non-retryable refusals immediately; [`ServiceFault::Unavailable`]
/// when the deadline elapses.
pub fn request_lease(
    addr: &str,
    retry: &RetryPolicy,
    worker: u64,
) -> Result<LeaseOffer, ServiceFault> {
    lease_round(addr, retry, worker, false)
}

/// The retry loop behind [`request_lease`]. With `contacted` set — the
/// worker has completed at least one round against this dispatcher —
/// a refused connection resolves to [`LeaseOffer::Complete`]: the
/// dispatcher exits once every shard's range is persisted, all
/// captured state is durable in journals either way, and a worker
/// whose supervisor vanished has nothing left to do but stop.
fn lease_round(
    addr: &str,
    retry: &RetryPolicy,
    worker: u64,
    contacted: bool,
) -> Result<LeaseOffer, ServiceFault> {
    let start = now();
    let mut attempt = 0u64;
    loop {
        let fault = match call_once(addr, retry, &WireMessage::LeaseRequest { worker }) {
            CallOutcome::Reply(WireMessage::LeaseGrant(offer)) => return Ok(offer),
            CallOutcome::Reply(other) => ServiceFault::Protocol {
                detail: format!("expected LeaseGrant, got {}", frame_name(&other)),
            },
            CallOutcome::Gone if contacted => return Ok(LeaseOffer::Complete),
            CallOutcome::Gone => ServiceFault::Io {
                detail: format!("connect {addr}: connection refused"),
            },
            CallOutcome::Fault(fault) => fault,
        };
        if !fault.retryable() {
            return Err(fault);
        }
        if start.elapsed() >= retry.deadline {
            return Err(ServiceFault::Unavailable {
                detail: format!("retry deadline elapsed; last fault: {fault}"),
            });
        }
        std::thread::sleep(retry.backoff(attempt));
        attempt += 1;
    }
}

/// One heartbeat: single attempt (a missed beat is recoverable by the
/// next one; only fencing is terminal). Returns the renewed lease in
/// milliseconds.
///
/// # Errors
///
/// [`ServiceFault::Remote`] with wire code 16 (refusal class
/// [`RefusalClass::Fenced`]) when the lease was fenced; transport
/// faults otherwise.
pub fn send_heartbeat(
    addr: &str,
    retry: &RetryPolicy,
    worker: u64,
    shard: u64,
    fence: u64,
) -> Result<u64, ServiceFault> {
    let mut stream = connect(addr, retry)?;
    write_frame(
        &mut stream,
        &WireMessage::Heartbeat {
            worker,
            shard,
            fence,
        }
        .encode(),
    )?;
    match read_reply(&mut stream)? {
        WireMessage::LeaseRenew { deadline_ms, .. } => Ok(deadline_ms),
        other => Err(ServiceFault::Protocol {
            detail: format!("expected LeaseRenew, got {}", frame_name(&other)),
        }),
    }
}

/// Tell the dispatcher a leased range is fully submitted, retrying
/// transport faults until the policy deadline.
///
/// # Errors
///
/// The fenced refusal and other non-retryable faults immediately;
/// [`ServiceFault::Unavailable`] when the deadline elapses.
pub fn send_work_done(
    addr: &str,
    retry: &RetryPolicy,
    worker: u64,
    shard: u64,
    fence: u64,
) -> Result<(), ServiceFault> {
    work_done_round(addr, retry, worker, shard, fence, false)
}

/// The retry loop behind [`send_work_done`]. With `submitted` set —
/// the caller's journal submission already succeeded — a refused
/// connection resolves to `Ok(())`: the windows are durable
/// server-side (that acceptance is what let the dispatcher finish and
/// exit), and `WorkDone` only transfers completion credit.
fn work_done_round(
    addr: &str,
    retry: &RetryPolicy,
    worker: u64,
    shard: u64,
    fence: u64,
    submitted: bool,
) -> Result<(), ServiceFault> {
    let start = now();
    let mut attempt = 0u64;
    loop {
        let frame = WireMessage::WorkDone {
            worker,
            shard,
            fence,
        };
        let fault = match call_once(addr, retry, &frame) {
            CallOutcome::Reply(WireMessage::LeaseRenew { .. }) => return Ok(()),
            CallOutcome::Reply(other) => ServiceFault::Protocol {
                detail: format!("expected WorkDone ack, got {}", frame_name(&other)),
            },
            CallOutcome::Gone if submitted => return Ok(()),
            CallOutcome::Gone => ServiceFault::Io {
                detail: format!("connect {addr}: connection refused"),
            },
            CallOutcome::Fault(fault) => fault,
        };
        if !fault.retryable() {
            return Err(fault);
        }
        if start.elapsed() >= retry.deadline {
            return Err(ServiceFault::Unavailable {
                detail: format!("retry deadline elapsed; last fault: {fault}"),
            });
        }
        std::thread::sleep(retry.backoff(attempt));
        attempt += 1;
    }
}

/// Serve leases until the dispatcher reports the capture complete.
///
/// Per lease: open (or resume) the worker's local journal for the
/// granted range, heartbeat on a jittered interval from a background
/// scope thread while `capture` fills the journal, then submit the
/// journal through the PR 9 collector path and close with `WorkDone`.
/// A fenced heartbeat stops the lease (no submit, no `WorkDone`) —
/// the range now belongs to someone else. `on_grant` runs right after
/// each grant (the CLI persists its zombie-resume state there).
///
/// `capture` receives the ticket, the journal, and an optional window
/// cap (used by the [`WorkPhase::MidCapture`] chaos schedule to leave
/// the exact partial-journal state of a mid-capture SIGKILL).
///
/// # Errors
///
/// Identity skew between `cfg.expect` and a granted ticket, capture
/// failures, and transport exhaustion. Fencing is *not* an error —
/// it is counted in the report and the worker moves on.
pub fn run_worker<C, G>(
    cfg: &WorkerConfig,
    injector: &WireInjector,
    chaos: Option<WorkPhase>,
    mut capture: C,
    mut on_grant: G,
) -> Result<WorkerReport, ServiceFault>
where
    C: FnMut(&LeaseTicket, &Journal, Option<u64>) -> Result<(), FederationError>,
    G: FnMut(&LeaseTicket),
{
    let mut report = WorkerReport {
        worker: cfg.worker,
        completed: Vec::new(),
        leases: 0,
        fenced: 0,
        killed: None,
    };
    if chaos == Some(WorkPhase::PreLease) {
        report.killed = Some(WorkPhase::PreLease);
        return Ok(report);
    }
    let start = now();
    let mut contacted = false;
    loop {
        let offer = lease_round(&cfg.addr, &cfg.retry, cfg.worker, contacted)?;
        contacted = true;
        match offer {
            LeaseOffer::Complete => return Ok(report),
            LeaseOffer::Wait => {
                if start.elapsed() >= cfg.retry.deadline {
                    return Err(ServiceFault::Unavailable {
                        detail: "dispatcher kept the worker waiting past the retry deadline"
                            .to_string(),
                    });
                }
                std::thread::sleep(cfg.poll);
            }
            LeaseOffer::Granted(ticket) => {
                report.leases += 1;
                if ticket.fingerprint != cfg.expect.fingerprint {
                    return Err(ServiceFault::IdentitySkew {
                        fault: JournalFault::ConfigMismatch {
                            field: "fingerprint".to_string(),
                            journal: format!("{:#018x}", ticket.fingerprint),
                            run: format!("{:#018x}", cfg.expect.fingerprint),
                        },
                    });
                }
                on_grant(&ticket);
                match serve_lease(cfg, injector, chaos, &ticket, &mut capture)? {
                    LeaseEnd::Completed => report.completed.push(ticket.shard),
                    LeaseEnd::Fenced => report.fenced += 1,
                    LeaseEnd::Killed(phase) => {
                        report.killed = Some(phase);
                        return Ok(report);
                    }
                }
            }
        }
    }
}

enum LeaseEnd {
    Completed,
    Fenced,
    Killed(WorkPhase),
}

/// Run one granted lease to its end state.
fn serve_lease<C>(
    cfg: &WorkerConfig,
    injector: &WireInjector,
    chaos: Option<WorkPhase>,
    ticket: &LeaseTicket,
    capture: &mut C,
) -> Result<LeaseEnd, ServiceFault>
where
    C: FnMut(&LeaseTicket, &Journal, Option<u64>) -> Result<(), FederationError>,
{
    let path = cfg
        .journal_dir
        .join(worker_journal_name(cfg.worker, ticket.shards, ticket.shard));
    // Resume a journal a previous lease (or incarnation) left behind;
    // byte-idempotent submission makes overlap harmless.
    let journal = if path.exists() {
        Journal::resume(&path, cfg.expect.clone())
            .map(|(journal, _recovery)| journal)
            .map_err(journal_fault_to_service)?
    } else {
        Journal::create(&path, cfg.expect.clone()).map_err(journal_fault_to_service)?
    };
    // The mid-capture kill journals only half the range.
    let limit = (chaos == Some(WorkPhase::MidCapture))
        .then(|| (ticket.hi - ticket.lo) / 2)
        .filter(|n| *n > 0);
    let fenced = AtomicBool::new(false);
    // The capture side drops `done` when it returns, which wakes the
    // heartbeat thread out of its wait at once.
    let (done, capture_ended) = mpsc::channel::<()>();
    let captured: Result<(), FederationError> = std::thread::scope(|scope| {
        let fenced = &fenced;
        scope.spawn(move || {
            let mut rng = SeedSequence::new(cfg.retry.seed).rng(ticket.fence);
            loop {
                // Jittered interval in [0.5, 1.0) × heartbeat_ms.
                let beat = Duration::from_millis(ticket.heartbeat_ms)
                    .mul_f64(0.5 + 0.5 * rng.gen::<f64>());
                if capture_ended.recv_timeout(beat) != Err(RecvTimeoutError::Timeout) {
                    return;
                }
                match send_heartbeat(
                    &cfg.addr,
                    &cfg.retry,
                    ticket.worker,
                    ticket.shard,
                    ticket.fence,
                ) {
                    Ok(_) => {}
                    Err(fault) if fault.refusal() == RefusalClass::Fenced => {
                        fenced.store(true, Ordering::SeqCst);
                        return;
                    }
                    // Transient transport trouble: the next beat (or
                    // the lease deadline) decides.
                    Err(_) => {}
                }
            }
        });
        let out = capture(ticket, &journal, limit);
        drop(done);
        out
    });
    captured.map_err(|e| ServiceFault::Unavailable {
        detail: format!("shard capture failed: {e}"),
    })?;
    if matches!(chaos, Some(WorkPhase::MidCapture | WorkPhase::PreSubmit)) {
        // SIGKILL here: journal is on disk (partial for mid-capture),
        // nothing submitted, lease left to expire.
        return Ok(LeaseEnd::Killed(match chaos {
            Some(phase) => phase,
            None => WorkPhase::PreSubmit,
        }));
    }
    if fenced.load(Ordering::SeqCst) {
        return Ok(LeaseEnd::Fenced);
    }
    let _outcome: SubmitOutcome = submit_journal(
        &cfg.addr,
        &path,
        ticket.shard,
        ticket.shards,
        &cfg.expect,
        &cfg.retry,
        injector,
    )?;
    match work_done_round(
        &cfg.addr,
        &cfg.retry,
        ticket.worker,
        ticket.shard,
        ticket.fence,
        true,
    ) {
        Ok(()) => Ok(LeaseEnd::Completed),
        // Fenced between submit and WorkDone: the submitted bytes are
        // byte-idempotent with whoever now owns the range, so the only
        // loss is this worker's credit.
        Err(fault) if fault.refusal() == RefusalClass::Fenced => Ok(LeaseEnd::Fenced),
        Err(fault) => Err(fault),
    }
}

/// What a woken zombie achieved: the typed refusal it received, and
/// whether its local journal still resubmitted cleanly (it always
/// does — the collector's `accept_window` is byte-idempotent, which
/// is the structural reason a zombie cannot corrupt coverage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZombieOutcome {
    /// True when the dispatcher answered with the fenced refusal.
    pub fenced: bool,
    /// Windows the resubmission confirmed persisted server-side.
    pub resubmitted: u64,
}

/// Wake up as a zombie: heartbeat with a (presumably stale) fence,
/// then resubmit the local journal regardless. Used by the chaos
/// tests and `palu-cli work --resume-lease` to prove the
/// fencing/idempotency contract end to end.
///
/// # Errors
///
/// Transport exhaustion, local journal corruption, or identity skew;
/// a fenced refusal is the *expected* outcome, not an error.
pub fn resume_zombie(
    cfg: &WorkerConfig,
    injector: &WireInjector,
    shard: u64,
    shards: u64,
    fence: u64,
) -> Result<ZombieOutcome, ServiceFault> {
    let fenced = match send_heartbeat(&cfg.addr, &cfg.retry, cfg.worker, shard, fence) {
        Ok(_) => false,
        Err(fault) if fault.refusal() == RefusalClass::Fenced => true,
        Err(fault) => return Err(fault),
    };
    let path = cfg
        .journal_dir
        .join(worker_journal_name(cfg.worker, shards, shard));
    let resubmitted = if path.exists() {
        submit_journal(
            &cfg.addr,
            &path,
            shard,
            shards,
            &cfg.expect,
            &cfg.retry,
            injector,
        )?
        .accepted
    } else {
        0
    };
    Ok(ZombieOutcome {
        fenced,
        resubmitted,
    })
}
