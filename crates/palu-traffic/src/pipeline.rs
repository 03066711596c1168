//! Multi-window measurement pipeline.
//!
//! Section II-A: each window `t` yields a pooled distribution
//! `D_t(d_i)`; "the corresponding mean and standard deviation of
//! `D_t(d_i)` over many different consecutive values of t for a given
//! data set are denoted `D(d_i)` and `σ(d_i)`". Every Figure 3 panel is
//! one [`PooledDistribution`] produced by this pipeline.
//!
//! One capture engine, [`Pipeline::pool_observatory_governed`], runs
//! the expensive synthesize → histogram → bin stages on one
//! work-stealing executor, each window drawing from its own splittable
//! RNG stream ([`palu_stats::rng::SeedSequence::window_rng`]). The
//! per-window [`BinStats`] results are merged on the calling thread
//! *deterministically in window order* via `BinStats::merge` (whose
//! single-window path replays the exact float-op sequence of a serial
//! push), so the pooled result is **bit-identical** to the serial fold
//! for any thread count.

use crate::budget::{
    coarsen_degree, coarsen_histogram, CostModel, DegradationEvent, DegradationRung, Governor,
    ResourceBudget, BALLAST_WINDOW_MULTIPLIER,
};
use crate::fault::{
    FailurePolicy, FaultAction, FaultKind, FaultRecord, FaultReport, InjectedFault, Injector,
    PipelineError, WindowFault, WindowOutcome,
};
use crate::journal::{Journal, Recovery, WindowEntry, WindowResult};
use crate::metrics::{time_stage, Metrics, Stage};
use crate::observatory::Observatory;
use crate::packets::{Packet, PacketSynthesizer};
use crate::window::PacketWindow;
use palu_sparse::quantities::NetworkQuantity;
use palu_sparse::{DegreeScratch, EdgeKeys, Marking};
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::summary::BinStats;

/// Which degree-like measurement the pipeline pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// One of the five directed Figure 1 quantities.
    Quantity(NetworkQuantity),
    /// The undirected host degree (distinct partners) — the quantity
    /// the PALU model's analysis describes.
    UndirectedDegree,
    /// The *weighted* undirected degree: total packets a host touched
    /// (sent + received). The paper's future-work weighted-edge view,
    /// "where potential weights could be the number of packets …
    /// sent over a link".
    NodeVolume,
}

impl Measurement {
    /// Extract this measurement's histogram from a window.
    pub fn histogram(&self, w: &PacketWindow) -> palu_stats::histogram::DegreeHistogram {
        match self {
            Measurement::Quantity(q) => q.histogram(w.matrix()),
            Measurement::UndirectedDegree => w.undirected_degree_histogram(),
            Measurement::NodeVolume => w.node_volume_histogram(),
        }
    }

    /// Extract this measurement's histogram through reusable scratch
    /// buffers. Produces a histogram **equal** to
    /// [`Measurement::histogram`] — the scratch paths are exact
    /// drop-in replacements — but performs no steady-state heap
    /// allocation, which is what lets a pipeline worker process
    /// windows back-to-back without serializing on the allocator.
    pub fn histogram_with(
        &self,
        w: &PacketWindow,
        scratch: &mut DegreeScratch,
    ) -> palu_stats::histogram::DegreeHistogram {
        match self {
            Measurement::Quantity(q) => scratch.quantity_histogram(*q, w.matrix()),
            Measurement::UndirectedDegree => w.undirected_degree_histogram_with(scratch),
            Measurement::NodeVolume => w.node_volume_histogram_with(scratch),
        }
    }

    /// The packet-level window kernel: this measurement's histogram
    /// straight from a window's packets, with no COO or CSR. For every
    /// packet slice the result **equals**
    /// `self.histogram(&PacketWindow::from_packets(t, packets))`, with
    /// no steady-state allocation, in expected `O(N_V)` work for the
    /// undirected degree and node volume (`O(N_V log N_V)` for the
    /// Figure 1 quantities, whose directed keys are sorted).
    pub fn histogram_of_packets(
        &self,
        packets: &[Packet],
        scratch: &mut DegreeScratch,
    ) -> DegreeHistogram {
        self.histogram_of_packets_timed(packets, scratch, None)
    }

    /// [`Measurement::histogram_of_packets`], timing the keying phase
    /// (the window's edge set) as [`Stage::Window`] and the counting
    /// phase as [`Stage::Histogram`].
    pub(crate) fn histogram_of_packets_timed(
        &self,
        packets: &[Packet],
        scratch: &mut DegreeScratch,
        metrics: Option<&Metrics>,
    ) -> DegreeHistogram {
        let keys = match self {
            Measurement::Quantity(_) => EdgeKeys::Directed,
            Measurement::UndirectedDegree => EdgeKeys::Undirected,
            Measurement::NodeVolume => EdgeKeys::Packets,
        };
        time_stage(metrics, Stage::Window, || {
            scratch.key_pairs(keys, packets.iter().map(|p| (p.src, p.dst)))
        });
        time_stage(metrics, Stage::Histogram, || match self {
            Measurement::Quantity(q) => scratch.quantity_of_keys(*q),
            Measurement::UndirectedDegree => scratch.undirected_degree_of_keys(),
            Measurement::NodeVolume => scratch.node_volume_of_keys(),
        })
    }

    /// The fused window kernel: this measurement's histogram of window
    /// `t`'s `attempt`-th draw, with no packet buffer. Each packet is
    /// recorded as it is drawn, by its canonical edge or directed pair
    /// (`Observatory::mark_window_into`), and a count pass then reads
    /// the window's distinct edges. The result **equals**
    /// `self.histogram_of_packets(&obs.packets_at_retry(t, attempt)?, _)`.
    ///
    /// # Errors
    ///
    /// The synthesizer's fault, as [`Observatory::packets_at_retry`].
    pub fn histogram_of_window(
        &self,
        obs: &Observatory,
        t: u64,
        attempt: u32,
        scratch: &mut DegreeScratch,
    ) -> Result<DegreeHistogram, WindowFault> {
        obs.mark_window_into(t, attempt, self.marking(), scratch)?;
        Ok(self.count_marks(obs.synthesizer(), scratch))
    }

    /// What the fused kernel's mark pass records for this measurement.
    fn marking(&self) -> Marking {
        match self {
            Measurement::UndirectedDegree => Marking::Edges,
            Measurement::NodeVolume | Measurement::Quantity(_) => Marking::Pairs,
        }
    }

    /// The fused kernel's count pass over a window marked with
    /// [`Measurement::marking`] by `syn`.
    fn count_marks(&self, syn: &PacketSynthesizer, scratch: &mut DegreeScratch) -> DegreeHistogram {
        match self {
            Measurement::Quantity(q) => scratch.quantity_of_marks(*q, syn),
            Measurement::UndirectedDegree => scratch.undirected_degree_of_marks(syn),
            Measurement::NodeVolume => scratch.node_volume_of_marks(syn),
        }
    }
}

/// The pooled multi-window result: `D(d_i)`, `σ(d_i)`, and support
/// metadata.
#[derive(Debug, Clone)]
pub struct PooledDistribution {
    /// Per-bin mean `D(d_i)`.
    pub mean: DifferentialCumulative,
    /// Per-bin standard deviation `σ(d_i)`.
    pub sigma: Vec<f64>,
    /// Number of windows pooled.
    pub windows: u64,
    /// Largest degree observed in any window (`d_max`, Equation 1).
    pub d_max: u64,
}

impl PooledDistribution {
    /// Inverse-variance weights for weighted fitting. Constant bins
    /// get `default_weight`.
    ///
    /// When *every* bin has zero sigma — a single pooled window, or
    /// bit-identical windows — there is no variance information at
    /// all, and the weights degenerate to uniform `1.0` (not
    /// `default_weight`), so a weighted fit coincides exactly with the
    /// unweighted one instead of silently scaling its objective by an
    /// arbitrary constant.
    pub fn weights(&self, default_weight: f64) -> Vec<f64> {
        if self.sigma.iter().all(|&s| s <= 0.0) {
            return vec![1.0; self.sigma.len()];
        }
        self.sigma
            .iter()
            .map(|&s| {
                if s > 0.0 {
                    1.0 / (s * s)
                } else {
                    default_weight
                }
            })
            .collect()
    }
}

/// Accumulates windows into a pooled distribution for one measurement.
#[derive(Debug, Clone)]
pub struct Pipeline {
    measurement: Measurement,
    stats: BinStats,
    d_max: u64,
}

impl Pipeline {
    /// Create a pipeline pooling `measurement`.
    pub fn new(measurement: Measurement) -> Self {
        Pipeline {
            measurement,
            stats: BinStats::new(),
            d_max: 0,
        }
    }

    /// The measurement being pooled.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Fold in one window.
    pub fn push_window(&mut self, w: &PacketWindow) {
        let h = self.measurement.histogram(w);
        self.push_binned(&DifferentialCumulative::from_histogram(&h), h.d_max());
    }

    /// Fold in one window's already-binned distribution `D_t(d_i)`
    /// plus that window's largest observed degree.
    /// [`Pipeline::push_window`] is exactly `push_binned` of the
    /// window's own histogram; the capture engine bins on worker
    /// threads and replays this fold in window order, which is why its
    /// output is bit-identical to the serial path.
    pub fn push_binned(&mut self, binned: &DifferentialCumulative, d_max: Option<u64>) {
        if let Some(d) = d_max {
            self.d_max = self.d_max.max(d);
        }
        self.stats.push(binned);
    }

    /// Fold in many windows.
    pub fn push_windows(&mut self, windows: &[PacketWindow]) {
        for w in windows {
            self.push_window(w);
        }
    }

    /// Number of windows folded in so far.
    pub fn windows(&self) -> u64 {
        self.stats.windows()
    }

    /// Finish: the pooled `D(d_i) ± σ(d_i)`.
    pub fn finish(&self) -> PooledDistribution {
        PooledDistribution {
            mean: self.stats.mean_distribution(),
            sigma: self.stats.std_devs(),
            windows: self.stats.windows(),
            d_max: self.d_max,
        }
    }

    /// One-shot convenience: pool `windows` for `measurement`.
    pub fn pool(measurement: Measurement, windows: &[PacketWindow]) -> PooledDistribution {
        let mut p = Pipeline::new(measurement);
        p.push_windows(windows);
        p.finish()
    }

    /// [`Pipeline::pool_observatory_governed`] with no budget.
    #[allow(clippy::too_many_arguments)]
    pub fn pool_observatory_durable(
        measurement: Measurement,
        obs: &mut Observatory,
        n: usize,
        threads: usize,
        metrics: Option<&Metrics>,
        policy: &FailurePolicy,
        injector: Option<&Injector>,
        journal: Option<&Journal>,
        recovery: Option<&Recovery>,
    ) -> Result<FaultTolerantPool, PipelineError> {
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
            None,
        )
    }

    /// The capture engine: pool the next `n` consecutive windows of
    /// `obs` with the synthesize → histogram → bin stages run
    /// on up to `threads` workers (DESIGN.md §4d–§4g).
    ///
    /// **Determinism.** Each window draws from its own splittable RNG
    /// stream ([`palu_stats::rng::SeedSequence::window_rng`]) and the
    /// per-window results merge on the calling thread strictly in
    /// window order through [`BinStats::merge`], whose single-window
    /// path replays the float-op sequence of a serial
    /// [`Pipeline::push_window`]. The pooled result is therefore
    /// **bit-identical** to [`Pipeline::pool`] over
    /// [`Observatory::windows`] for any thread count and any budget,
    /// and the observatory's window counter advances as if the windows
    /// had been captured serially.
    ///
    /// **Fault tolerance (§4e).** Each window runs isolated on its
    /// worker: panics are contained with `catch_unwind`, typed
    /// [`WindowFault`]s are captured, and a failed window is retried up
    /// to `policy.max_retries` times — retry `k` of window `t` always
    /// draws from the same derived seed
    /// ([`Observatory::packets_at_retry`]). A window that exhausts its
    /// retries is aborted, quarantined or substituted per
    /// `policy.on_fault`. `injector`, when supplied, deterministically
    /// plants faults per its [`crate::fault::InjectionSpec`].
    ///
    /// **Durability (§4f).** With `journal` supplied every finished
    /// window except an abort is appended in window order, as soon as
    /// every earlier window has finished, so a killed process loses at
    /// most a few windows per worker, and the journal's bytes are the
    /// same at any thread count. With `recovery`
    /// supplied (from [`Journal::resume`]) journaled windows are
    /// replayed byte-exactly instead of recomputed, so a resumed
    /// capture is bit-identical to an uninterrupted one at any thread
    /// count and any kill point. Stall verdicts read the wall clock, so
    /// a watchdog-armed run is only crash-equivalent when no stall
    /// fires.
    ///
    /// **Budget (§4g).** `governor: None` is a governor over
    /// [`ResourceBudget::unbounded`]: the ledger runs, nothing trips.
    /// Admission control projects the peak accounted footprint before
    /// any window is synthesized and refuses an infeasible capture
    /// with [`BudgetFault::AdmissionRefused`](crate::budget::BudgetFault).
    /// Every batch of in-flight windows acquires its projected
    /// transient footprint, and soft-watermark breaches engage the
    /// [`DegradationRung`] ladder, each engagement recorded as a typed
    /// [`DegradationEvent`]. A hard-watermark breach that survives
    /// draining aborts with [`PipelineError::Budget`], never an OOM
    /// kill. The ledger is touched only by the calling thread at window
    /// boundaries, so the schedule and every event are a pure function
    /// of `(configuration, budget, threads)`.
    ///
    /// `metrics`, when supplied, accumulates per-stage wall-times
    /// (summed across workers) and packet/window/thread counters.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ZeroWindows`] when `n == 0`;
    /// [`PipelineError::WindowAborted`] under [`FaultAction::Abort`];
    /// [`PipelineError::QuarantineOverflow`] when the quarantined
    /// fraction exceeds `policy.quarantine_threshold`;
    /// [`PipelineError::Journal`] when an append fails;
    /// [`PipelineError::Budget`] on admission refusal or a hard
    /// watermark breach.
    // lint:hot
    #[allow(clippy::too_many_arguments)]
    pub fn pool_observatory_governed(
        measurement: Measurement,
        obs: &mut Observatory,
        n: usize,
        threads: usize,
        metrics: Option<&Metrics>,
        policy: &FailurePolicy,
        injector: Option<&Injector>,
        journal: Option<&Journal>,
        recovery: Option<&Recovery>,
        governor: Option<&Governor<'_>>,
    ) -> Result<FaultTolerantPool, PipelineError> {
        if n == 0 {
            return Err(PipelineError::ZeroWindows);
        }
        // Wall-clock over the whole capture, feeding the packets/sec
        // throughput metric. Observability only — the reading never
        // influences a numerical result. lint:allow(R2)
        let capture_start = std::time::Instant::now();
        let threads = threads.clamp(1, n);
        let unbounded = ResourceBudget::unbounded();
        let gov = governor.copied().unwrap_or(Governor {
            budget: &unbounded,
            strict_admission: false,
        });
        let budget = gov.budget;
        // Admission control: refuse an infeasible capture *before* the
        // observatory advances or any window is synthesized.
        let model = CostModel {
            n_v: obs.config().n_v,
            n_nodes: obs.underlying().n_nodes() as u64,
            windows: n as u64,
            threads: threads as u64,
        };
        let estimate = model
            .admit(budget, gov.strict_admission)
            .map_err(PipelineError::Budget)?;
        let start_t = obs.advance(n);
        if let Some(m) = metrics {
            m.set_admission_estimate_bytes(estimate);
            m.set_threads(threads as u64);
            m.add_windows(n as u64);
        }
        let mut pending = Pending {
            acc: MergeAcc::new(measurement, n),
            slots: (0..n).map(|_| None).collect(),
            retained: vec![0u64; n],
            next_merge: 0,
            budget,
            metrics,
        };
        // Replay journaled windows up front: their slots are filled
        // from the recovered byte-exact state, and only the complement
        // is computed.
        if let Some(rec) = recovery {
            let mut replayed = 0u64;
            for (i, slot) in pending.slots.iter_mut().enumerate() {
                if let Some(entry) = rec.windows.get(&(start_t + i as u64)) {
                    *slot = Some(WindowSlot::from_entry(entry));
                    replayed += 1;
                }
            }
            if let Some(m) = metrics {
                m.add_windows_recovered(replayed);
                m.add_journal_bytes_replayed(rec.bytes_replayed);
                m.add_journal_torn_dropped(rec.torn_records_dropped);
            }
        }
        // Account replayed slots before computing anything: a resume
        // of a huge journal under a tight budget must degrade (or abort
        // cleanly) exactly like a live capture would.
        for b in 0..n {
            pending.retain(b, start_t + b as u64)?;
        }
        // Batch width. A budget with neither watermark can never trip,
        // so its whole to-do list is one batch: batching it at
        // `threads` would only add joins (DESIGN.md §4g measures the
        // cost). A watermarked budget starts `threads` wide and halves
        // on `ShrinkWorkers` — part of the deterministic ledger
        // schedule, independent of the worker count below.
        let mut width = if budget.soft().is_none() && budget.hard().is_none() {
            n
        } else {
            threads
        };
        let mut engaged = 0usize;
        if budget.soft_breached() {
            pending.checkpoint(start_t, &mut width, &mut engaged);
        }
        // Workers are capped at the machine's effective parallelism:
        // oversubscribed workers only add context-switch and arena
        // cost, and the window-ordered merge makes the count invisible
        // in the output. The floor of 2 keeps execution concurrent on a
        // one-core host so scheduling-sensitive contracts stay
        // exercised. One arena per worker, hoisted across batches.
        let workers = threads.min(
            std::thread::available_parallelism()
                .map(|p| p.get().max(2))
                .unwrap_or(threads),
        );
        let mut arenas: Vec<DegreeScratch> = (0..workers).map(|_| DegreeScratch::new()).collect();
        let capture = Capture {
            measurement,
            obs: &*obs,
            start_t,
            metrics,
            policy,
            injector,
            journal,
        };
        let window_bytes = model.window_bytes();
        let mut merged_accounted = 0u64;
        let mut i = 0usize;
        // Reused across batches: cleared, capacity kept.
        let mut batch: Vec<usize> = Vec::new();
        while i < n {
            // The next batch: up to `width` not-yet-computed windows
            // (replayed slots are skipped — already accounted).
            batch.clear();
            batch.extend(
                (i..n)
                    .filter(|&b| matches!(pending.slots.get(b), Some(None)))
                    .take(width),
            );
            i = batch.last().map_or(n, |&b| b + 1);
            let Some(&first) = batch.first() else {
                continue;
            };
            let t0 = start_t + first as u64;
            // Acquire the batch's projected transient footprint up
            // front. A ballast-injected window accounts for extra
            // multiples of the window footprint — simulated memory
            // pressure that exercises the ladder without allocating.
            // Under hard pressure the batch *shrinks* instead of
            // aborting: admission guaranteed one window at a time fits,
            // so only an overcommitted ledger (e.g. a replay-heavy
            // resume) can still abort here.
            let transient = loop {
                let mut transient = 0u64;
                for &b in &batch {
                    let mult = match injector.and_then(|inj| inj.plan(start_t + b as u64, 0)) {
                        Some(InjectedFault::Ballast) => 1 + BALLAST_WINDOW_MULTIPLIER,
                        _ => 1,
                    };
                    transient = transient.saturating_add(window_bytes.saturating_mul(mult));
                }
                match pending.acquire(transient, t0) {
                    Ok(()) => break transient,
                    // Backpressure: defer the batch's tail window to a
                    // later batch and retry with fewer in flight.
                    Err(_) if batch.len() > 1 => {
                        if let Some(popped) = batch.pop() {
                            i = popped;
                        }
                    }
                    Err(e) => return Err(e),
                }
            };
            execute(&capture, &batch, &mut arenas, &mut pending.slots);
            if let Some(fault) = journal.and_then(Journal::take_fault) {
                return Err(PipelineError::Journal(fault));
            }
            // Checkpoint while the batch's transient footprint is still
            // accounted — the soft watermark must see the pressure the
            // batch actually exerted (transients dominate the retained
            // state).
            let t_last = start_t + batch.last().map_or(first, |&b| b) as u64;
            pending.checkpoint(t_last, &mut width, &mut engaged);
            budget.release(transient);
            // Swap the transient footprint for each slot's measured
            // retained size.
            for &b in &batch {
                pending.retain(b, start_t + b as u64)?;
            }
            // Re-account the merge-side state the checkpoint and drains
            // may have grown.
            let merged_now = pending
                .acc
                .merged
                .approx_bytes()
                .saturating_add(pending.acc.p.stats.approx_bytes());
            if merged_now > merged_accounted {
                pending.acquire(merged_now - merged_accounted, t_last)?;
            } else {
                budget.release(merged_accounted - merged_now);
            }
            merged_accounted = merged_now;
            if let Some(m) = metrics {
                m.record_peak_accounted_bytes(budget.peak());
            }
        }
        // Every slot is filled, so the final drain folds the whole
        // capture in window order.
        pending.drain();
        debug_assert_eq!(pending.next_merge, n);
        budget.release(merged_accounted);
        if let Some(m) = metrics {
            m.record_peak_accounted_bytes(budget.peak());
            m.add_capture_wall_ns(
                u64::try_from(capture_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        pending.acc.finish(policy, n, metrics)
    }
}

/// The outcome of a capture ([`Pipeline::pool_observatory_governed`]).
#[derive(Debug, Clone)]
pub struct FaultTolerantPool {
    /// Pooled `D(d_i) ± σ(d_i)` over the surviving windows.
    pub pooled: PooledDistribution,
    /// Per-window fault accounting (empty records on a clean run).
    pub report: FaultReport,
    /// Degree histogram summed over the surviving windows in window
    /// order — the input for downstream tail fits.
    pub histogram: DegreeHistogram,
}

/// One window's result as filled in by a worker: the binned stats (or
/// `None` when quarantined/aborted) plus its fault accounting.
pub(crate) struct WindowSlot {
    result: Option<(BinStats, Option<u64>, DegreeHistogram)>,
    record: Option<FaultRecord>,
    injected: u64,
    retries: u64,
    abort_fault: Option<WindowFault>,
}

impl WindowSlot {
    /// Rehydrate a slot from a journaled window: the byte-exact state
    /// drops into the merge exactly as if the window had just been
    /// computed.
    pub(crate) fn from_entry(entry: &WindowEntry) -> WindowSlot {
        WindowSlot {
            result: entry
                .result
                .as_ref()
                .map(|r| (r.stats.clone(), r.d_max, r.histogram.clone())),
            record: entry.record.clone(),
            injected: entry.injected,
            retries: entry.retries,
            abort_fault: None,
        }
    }

    /// A synthetic slot for a window no shard delivered: quarantined
    /// with a [`FaultKind::ShardLost`] record, so the federation
    /// merge recounts lost windows through the exact same fold as
    /// capture-time quarantines.
    pub(crate) fn shard_lost(window: u64) -> WindowSlot {
        WindowSlot {
            result: None,
            record: Some(FaultRecord {
                window,
                kind: FaultKind::ShardLost,
                attempts: 0,
                outcome: WindowOutcome::Quarantined,
            }),
            injected: 0,
            retries: 0,
            abort_fault: None,
        }
    }

    /// The journal record for this slot's window.
    fn to_entry(&self, window: u64) -> WindowEntry {
        WindowEntry {
            window,
            injected: self.injected,
            retries: self.retries,
            record: self.record.clone(),
            result: self.result.as_ref().map(|(stats, d_max, h)| WindowResult {
                stats: stats.clone(),
                d_max: *d_max,
                histogram: h.clone(),
            }),
        }
    }
}

/// The strictly window-ordered merge fold shared by the capture engine
/// and the federation merge. Folding slots one at a time in window
/// order replays the exact statement sequence of a serial fold, so both
/// produce bit-identical pooled output for the same slots regardless of
/// how the windows were scheduled.
pub(crate) struct MergeAcc {
    p: Pipeline,
    merged: DegreeHistogram,
    report: FaultReport,
    abort: Option<(u64, u32, WindowFault)>,
    /// Set when the `CoarsenBins` degradation rung engages: subsequent
    /// folds collapse merged-histogram keys to their log-bin
    /// representatives. The pooled `BinStats` is never coarsened.
    coarsen: bool,
}

impl MergeAcc {
    pub(crate) fn new(measurement: Measurement, n: usize) -> MergeAcc {
        let mut report = FaultReport::new(n as u64);
        report.survivors = 0;
        MergeAcc {
            p: Pipeline::new(measurement),
            merged: DegreeHistogram::new(),
            report,
            abort: None,
            coarsen: false,
        }
    }

    /// Fold one completed window into the pooled state and the fault
    /// report — the historical per-slot merge body, verbatim.
    pub(crate) fn fold(&mut self, slot: WindowSlot) {
        self.report.injected += slot.injected;
        self.report.retries += slot.retries;
        if let Some(rec) = slot.record {
            match rec.outcome {
                WindowOutcome::Recovered => self.report.recovered += 1,
                WindowOutcome::Quarantined => self.report.quarantined += 1,
                WindowOutcome::Substituted => self.report.substituted += 1,
                WindowOutcome::Aborted => {
                    if self.abort.is_none() {
                        if let Some(fault) = slot.abort_fault {
                            self.abort = Some((rec.window, rec.attempts, fault));
                        }
                    }
                }
            }
            self.report.records.push(rec);
        }
        if let Some((one, d_max, h)) = slot.result {
            self.report.survivors += 1;
            if let Some(d) = d_max {
                self.p.d_max = self.p.d_max.max(d);
            }
            self.p.stats.merge(&one);
            for (d, c) in h.iter() {
                let key = if self.coarsen { coarsen_degree(d) } else { d };
                self.merged.increment(key, c);
            }
        }
    }

    /// The historical post-merge tail: surface an abort, check the
    /// quarantine threshold, flush counters, package the pool.
    pub(crate) fn finish(
        self,
        policy: &FailurePolicy,
        n: usize,
        metrics: Option<&Metrics>,
    ) -> Result<FaultTolerantPool, PipelineError> {
        if let Some((window, attempts, fault)) = self.abort {
            return Err(PipelineError::WindowAborted {
                window,
                attempts,
                fault,
            });
        }
        if policy.overflows(self.report.quarantined, n as u64) {
            return Err(PipelineError::QuarantineOverflow {
                quarantined: self.report.quarantined,
                windows: n as u64,
                threshold: policy.quarantine_threshold,
            });
        }
        if let Some(m) = metrics {
            m.add_retries(self.report.retries);
            m.add_quarantined(self.report.quarantined);
        }
        Ok(FaultTolerantPool {
            pooled: self.p.finish(),
            report: self.report,
            histogram: self.merged,
        })
    }
}

/// Measured bytes a completed slot retains until it drains into the
/// merge: the binned stats plus the (possibly coarsened) histogram.
/// Always dominated by [`CostModel::slot_bytes`] — the histogram
/// support obeys the distinct-value bound and the `BinStats` vector
/// the 64-bin cap — which is what makes the admission estimate an
/// upper bound on the accounted peak.
fn slot_measured_bytes(slot: &WindowSlot) -> u64 {
    const SLOT_HEADER_BYTES: u64 = 256;
    match &slot.result {
        Some((stats, _, h)) => SLOT_HEADER_BYTES
            .saturating_add(stats.approx_bytes())
            .saturating_add(h.approx_bytes()),
        None => SLOT_HEADER_BYTES,
    }
}

/// Completed window slots awaiting the strictly window-ordered merge,
/// each held in the budget ledger at its measured size until it
/// drains. Only the calling thread touches it, at window boundaries.
struct Pending<'a> {
    acc: MergeAcc,
    slots: Vec<Option<WindowSlot>>,
    /// Ledger bytes each retained slot holds.
    retained: Vec<u64>,
    /// The first window not yet folded into `acc`.
    next_merge: usize,
    budget: &'a ResourceBudget,
    metrics: Option<&'a Metrics>,
}

impl Pending<'_> {
    /// Fold every contiguous completed slot from the front of the
    /// capture into the merge, releasing its retained bytes. Only the
    /// prefix up to the first still-computing window can drain.
    fn drain(&mut self) {
        time_stage(self.metrics, Stage::Merge, || {
            while let Some(slot) = self.slots.get_mut(self.next_merge).and_then(Option::take) {
                self.acc.fold(slot);
                if let Some(r) = self.retained.get_mut(self.next_merge) {
                    self.budget.release(std::mem::take(r));
                }
                self.next_merge += 1;
            }
        });
    }

    /// Acquire `bytes` from the ledger; on a hard-watermark refusal
    /// drain the mergeable prefix and retry once. The second refusal
    /// is final — the typed fault propagates and the capture aborts
    /// cleanly instead of overcommitting.
    fn acquire(&mut self, bytes: u64, window: u64) -> Result<(), PipelineError> {
        if self.budget.try_acquire(bytes, window).is_ok() {
            return Ok(());
        }
        self.drain();
        self.budget
            .try_acquire(bytes, window)
            .map(|_| ())
            .map_err(PipelineError::Budget)
    }

    /// Hold slot `b`'s measured bytes until it drains; an empty slot
    /// holds nothing, and neither does one the fallback drain of
    /// [`Pending::acquire`] has already folded.
    fn retain(&mut self, b: usize, window: u64) -> Result<(), PipelineError> {
        let Some(bytes) = self
            .slots
            .get(b)
            .and_then(Option::as_ref)
            .map(slot_measured_bytes)
        else {
            return Ok(());
        };
        self.acquire(bytes, window)?;
        if self.next_merge > b {
            self.budget.release(bytes);
        } else if let Some(r) = self.retained.get_mut(b) {
            *r = bytes;
        }
        Ok(())
    }

    /// While the soft watermark is breached, engage the next
    /// [`DegradationRung`] in ladder order (`engaged` counts the rungs
    /// already engaged), recording each engagement as a typed event.
    /// Once `SpillPooled`, the last rung, has engaged the capture stays
    /// in drain mode: every checkpoint folds the completed prefix.
    fn checkpoint(&mut self, window: u64, width: &mut usize, engaged: &mut usize) {
        while self.budget.soft_breached() {
            let Some(&rung) = DegradationRung::ALL.get(*engaged) else {
                break;
            };
            *engaged += 1;
            self.acc.report.degradations.push(DegradationEvent {
                rung,
                window,
                accounted_bytes: self.budget.accounted(),
            });
            if let Some(m) = self.metrics {
                m.add_budget_degradation();
            }
            match rung {
                DegradationRung::CoarsenBins => {
                    self.acc.coarsen = true;
                    self.acc.merged = coarsen_histogram(&self.acc.merged);
                    // Coarsen retained, not-yet-drained slot histograms
                    // in place and release the shrinkage. Coarsening
                    // commutes with summation and is idempotent, so the
                    // final merged histogram is independent of *when*
                    // this rung engaged. Workers journal a window before
                    // any checkpoint runs, so the journal always stores
                    // the fine-grained state.
                    for (slot, ret) in self.slots.iter_mut().zip(self.retained.iter_mut()) {
                        if let Some(s) = slot.as_mut() {
                            if let Some((_, _, h)) = s.result.as_mut() {
                                *h = coarsen_histogram(h);
                            }
                            let now = slot_measured_bytes(s);
                            if now < *ret {
                                self.budget.release(*ret - now);
                                *ret = now;
                            }
                        }
                    }
                }
                DegradationRung::ShrinkWorkers => *width = (*width / 2).max(1),
                DegradationRung::SpillPooled => self.drain(),
            }
        }
        // Drain mode: once slots spill, they keep spilling.
        if *engaged == DegradationRung::ALL.len() {
            self.drain();
        }
    }
}

/// Default thread count for a capture that names none: one per
/// available CPU, capped at 16, or 1 when the count is unknown. The
/// engine still caps its workers at the machine's effective
/// parallelism (floor 2) and at one per window.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// What every window of one capture shares, read-only on the workers.
struct Capture<'a> {
    measurement: Measurement,
    obs: &'a Observatory,
    /// Absolute index of the capture's first window.
    start_t: u64,
    metrics: Option<&'a Metrics>,
    policy: &'a FailurePolicy,
    injector: Option<&'a Injector>,
    journal: Option<&'a Journal>,
}

/// The executor, the capture's only worker-spawning site: run every
/// window of `batch` (indices relative to `capture.start_t`) on one
/// scoped worker per arena, at most one per window. Workers claim
/// windows through an atomic cursor the moment they finish one, so an
/// expensive window (retries, a stall, a fault plan) never idles the
/// rest of the pool: a journaling capture lets a worker run up to
/// [`RUN_AHEAD`] windows per worker past the first unfinished one while
/// [`InOrder`] appends in window order. An aborted window is never
/// journaled: a resume must recompute it to reach the same verdict.
/// Append errors latch inside the journal for the caller. Results land
/// in `slots` after the scope joins. Scheduling freedom is safe because
/// each window's outcome is pure in `t` and the merge is strictly
/// window-ordered.
// lint:hot
fn execute(
    capture: &Capture<'_>,
    batch: &[usize],
    arenas: &mut [DegreeScratch],
    slots: &mut [Option<WindowSlot>],
) {
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = arenas.len().min(batch.len());
    let in_order = capture
        .journal
        .map(|journal| InOrder::new(journal, workers));
    let order = in_order.as_ref();
    std::thread::scope(|s| {
        let handles: Vec<_> = arenas
            .iter_mut()
            .take(workers)
            .map(|arena| {
                let cursor = &cursor;
                s.spawn(move || {
                    let _release = order.map(Release);
                    let mut out: Vec<(usize, WindowSlot)> = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&b) = batch.get(k) else { break };
                        if let Some(order) = order {
                            order.admit(k);
                        }
                        let t = capture.start_t + b as u64;
                        let computed = process_window(capture, t, arena);
                        if let Some(order) = order {
                            let entry =
                                computed.abort_fault.is_none().then(|| computed.to_entry(t));
                            order.finish(k, entry);
                        }
                        out.push((b, computed));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (b, computed) in out {
                if let Some(slot) = slots.get_mut(b) {
                    *slot = Some(computed);
                }
            }
        }
    });
}

/// Windows per worker a journaling capture may start past the first
/// unfinished window of its batch. One per worker made a worker that
/// finished early wait for each slower window, and the wait and wake-up
/// cost `narrow` (2 048 windows of 2 000 packets, 2 workers) 10 % of its
/// throughput on a shared 2-vCPU host; at 16 it read as without a cap.
const RUN_AHEAD: usize = 16;

/// Appends one batch's finished windows to the journal in window order,
/// so a capture's journal bytes do not depend on its thread count or on
/// which worker finishes first. A window's record is held until every
/// earlier window of the batch is appended, or skipped as aborted. A
/// worker may start a window only while it lies fewer than `ahead`
/// windows past the first unfinished one, so at most `ahead − 1`
/// finished records are held, and a killed capture loses at most
/// `ahead` windows.
struct InOrder<'a> {
    journal: &'a Journal,
    /// [`RUN_AHEAD`] windows per worker.
    ahead: usize,
    frontier: std::sync::Mutex<Frontier>,
    /// Signalled when the frontier moves.
    moved: std::sync::Condvar,
}

/// The appended prefix of one batch and the records held past it.
#[derive(Default)]
struct Frontier {
    /// Batch position of the first window not yet appended or skipped.
    next: usize,
    /// Finished windows past `next`: batch position and record, `None`
    /// for an aborted window.
    held: Vec<(usize, Option<WindowEntry>)>,
    /// Set when a worker unwound: nothing more is appended, and no
    /// worker waits.
    broken: bool,
}

impl<'a> InOrder<'a> {
    fn new(journal: &'a Journal, workers: usize) -> Self {
        InOrder {
            journal,
            ahead: workers.max(1).saturating_mul(RUN_AHEAD),
            frontier: std::sync::Mutex::new(Frontier::default()),
            moved: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Frontier> {
        self.frontier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wait until the window at batch position `k` may start. The first
    /// unfinished window's worker never waits, so the frontier moves.
    fn admit(&self, k: usize) {
        let mut f = self.lock();
        while !f.broken && k >= f.next + self.ahead {
            f = self
                .moved
                .wait(f)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Hand over the finished window at batch position `k`, with its
    /// record unless it aborted, and append every record the frontier
    /// then passes.
    fn finish(&self, k: usize, entry: Option<WindowEntry>) {
        let mut f = self.lock();
        if f.broken {
            return;
        }
        f.held.push((k, entry));
        while let Some(i) = f.held.iter().position(|&(p, _)| p == f.next) {
            if let (_, Some(entry)) = f.held.swap_remove(i) {
                // A failed append latches in the journal: the capture
                // reports it as `PipelineError::Journal` after the batch.
                let _ = self.journal.append(&entry);
            }
            f.next += 1;
        }
        drop(f);
        self.moved.notify_all();
    }
}

/// Held by each journaling worker: a worker that unwinds breaks its
/// batch's [`InOrder`], so no other worker waits for the window it
/// never finishes, and the panic reaches the join.
struct Release<'r, 'a>(&'r InOrder<'a>);

impl Drop for Release<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken = true;
            self.0.moved.notify_all();
        }
    }
}

/// Drive one window through its attempt loop and dispose of it per the
/// policy. Pure in `(t, attempt)` given the observatory seed and the
/// injector, so the outcome is independent of thread placement.
/// `arena` is the worker's scratch, which it keeps for the whole
/// capture (the fused kernel's marks and counting buffers, so the
/// steady state allocates nothing but the result histograms); every
/// attempt starts by clearing what it uses, so its incoming contents
/// never matter.
// lint:hot
fn process_window(capture: &Capture<'_>, t: u64, arena: &mut DegreeScratch) -> WindowSlot {
    let policy = capture.policy;
    let mut last_fault: Option<WindowFault> = None;
    let mut injected = 0u64;
    let mut attempts = 0u32;
    let mut result: Option<(BinStats, Option<u64>, DegreeHistogram)> = None;
    let deadline_ms = policy.window_deadline_ms;
    for attempt in 0..=policy.max_retries {
        let plan = capture.injector.and_then(|inj| inj.plan(t, attempt));
        if plan.is_some() {
            injected += 1;
        }
        attempts += 1;
        // Stall watchdog: an armed deadline races the monotonic clock
        // against each attempt. Scoped threads cannot be killed, so
        // the verdict lands when the attempt returns — an attempt that
        // *succeeded* but overran is demoted to a Stalled fault and
        // flows through the normal retry/quarantine machinery; a
        // failed attempt keeps its original, more specific fault.
        // Observability-style clock read, never feeds a numerical
        // result. lint:allow(R2)
        let started = std::time::Instant::now();
        let outcome = attempt_window(capture, t, attempt, plan, deadline_ms, arena);
        let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let outcome = match (outcome, deadline_ms) {
            (Ok(_), Some(deadline)) if elapsed_ms > deadline => Err(WindowFault::Stalled {
                elapsed_ms,
                deadline_ms: deadline,
            }),
            (o, _) => o,
        };
        match outcome {
            Ok(r) => {
                result = Some(r);
                break;
            }
            Err(f) => last_fault = Some(f),
        }
    }
    if let Some(r) = result {
        // Clean first attempt ⇒ no record at all; a rescued window is
        // recorded with the fault its failed attempt(s) exhibited.
        let record = if attempts > 1 {
            last_fault.as_ref().map(|f| FaultRecord {
                window: t,
                kind: f.kind(),
                attempts,
                outcome: WindowOutcome::Recovered,
            })
        } else {
            None
        };
        return WindowSlot {
            result: Some(r),
            record,
            injected,
            retries: (attempts - 1) as u64,
            abort_fault: None,
        };
    }
    // Retry budget exhausted: dispose per policy. The loop ran at
    // least once and every attempt failed, so a fault was captured.
    let fault = match last_fault {
        Some(f) => f,
        None => WindowFault::EmptyHistogram,
    };
    match policy.on_fault {
        FaultAction::Abort => WindowSlot {
            result: None,
            record: Some(FaultRecord {
                window: t,
                kind: fault.kind(),
                attempts,
                outcome: WindowOutcome::Aborted,
            }),
            injected,
            retries: (attempts - 1) as u64,
            abort_fault: Some(fault),
        },
        FaultAction::Quarantine => WindowSlot {
            result: None,
            record: Some(FaultRecord {
                window: t,
                kind: fault.kind(),
                attempts,
                outcome: WindowOutcome::Quarantined,
            }),
            injected,
            retries: (attempts - 1) as u64,
            abort_fault: None,
        },
        FaultAction::Substitute => {
            // One extra deterministic re-synthesis, never injected and
            // never watchdogged — it is the last resort.
            attempts += 1;
            match attempt_window(capture, t, policy.max_retries + 1, None, None, arena) {
                Ok(r) => WindowSlot {
                    result: Some(r),
                    record: Some(FaultRecord {
                        window: t,
                        kind: fault.kind(),
                        attempts,
                        outcome: WindowOutcome::Substituted,
                    }),
                    injected,
                    retries: (attempts - 1) as u64,
                    abort_fault: None,
                },
                Err(f2) => WindowSlot {
                    result: None,
                    record: Some(FaultRecord {
                        window: t,
                        kind: f2.kind(),
                        attempts,
                        outcome: WindowOutcome::Quarantined,
                    }),
                    injected,
                    retries: (attempts - 1) as u64,
                    abort_fault: None,
                },
            }
        }
    }
}

/// One panic-contained attempt at a window. The arena crossing the
/// `catch_unwind` boundary is sound: a panicked attempt can only
/// leave stale marks and counts behind (never a broken invariant), and
/// the next attempt's mark pass clears them before marking.
fn attempt_window(
    capture: &Capture<'_>,
    t: u64,
    attempt: u32,
    plan: Option<InjectedFault>,
    deadline_ms: Option<u64>,
    arena: &mut DegreeScratch,
) -> Result<(BinStats, Option<u64>, DegreeHistogram), WindowFault> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_window_attempt(capture, t, attempt, plan, deadline_ms, arena)
    })) {
        Ok(r) => r,
        Err(payload) => Err(WindowFault::Panic {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The mark → count → bin stages of the fused window kernel
/// ([`Measurement::histogram_of_window`]) for one attempt at window
/// `t`, with fault classification and (optional) injection. The mark
/// pass reports as [`Stage::Synthesize`] and the count pass as
/// [`Stage::Histogram`]; nothing runs as [`Stage::Window`]. With
/// `plan = None` and a healthy window this replays the exact float-op
/// sequence of the pre-fault-tolerance worker, preserving the
/// bit-identity contract.
// lint:hot
fn run_window_attempt(
    capture: &Capture<'_>,
    t: u64,
    attempt: u32,
    plan: Option<InjectedFault>,
    deadline_ms: Option<u64>,
    arena: &mut DegreeScratch,
) -> Result<(BinStats, Option<u64>, DegreeHistogram), WindowFault> {
    let Capture {
        measurement,
        obs,
        metrics,
        ..
    } = *capture;
    if plan == Some(InjectedFault::Stall) {
        // Oversleep the watchdog deadline so the attempt is classified
        // Stalled; with no deadline armed the delay is benign (the
        // window still completes correctly), mirroring a real slow
        // worker under an unwatched capture.
        let ms = deadline_ms.map_or(30, |d| d.saturating_add(25));
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let marking = measurement.marking();
    time_stage(metrics, Stage::Synthesize, || {
        if plan == Some(InjectedFault::DuplicateStorm) {
            obs.mark_storm_into(t, attempt, marking, arena)
        } else {
            obs.mark_window_into(t, attempt, marking, arena)
        }
    })?;
    let n_v = obs.config().n_v;
    if let Some(m) = metrics {
        m.add_packets(n_v);
    }
    if plan == Some(InjectedFault::Truncate) && n_v / 2 != n_v {
        return Err(WindowFault::Truncated {
            expected: n_v,
            actual: n_v / 2,
        });
    }
    if plan == Some(InjectedFault::WorkerPanic) {
        // Deliberate fault injection: contained by `attempt_window`'s
        // `catch_unwind` and classified as `WindowFault::Panic`.
        // lint:allow(R8)
        panic!("injected fault: worker panic in window {t} (attempt {attempt})");
    }
    let h = time_stage(metrics, Stage::Histogram, || {
        measurement.count_marks(obs.synthesizer(), arena)
    });
    bin_window(h, n_v, t, plan, metrics)
}

/// Classify the histogram `h` of window `t` (`n_v` packets, injection
/// `plan`) and bin it: the stages after the count.
fn bin_window(
    h: DegreeHistogram,
    n_v: u64,
    t: u64,
    plan: Option<InjectedFault>,
    metrics: Option<&Metrics>,
) -> Result<(BinStats, Option<u64>, DegreeHistogram), WindowFault> {
    if n_v > 0 && h.is_empty() {
        return Err(WindowFault::EmptyHistogram);
    }
    // Support-collapse heuristic: a real window of ≥ 16 packets never
    // concentrates on ≤ 2 histogram entries; a duplicate-edge storm
    // does.
    if n_v >= 16 && h.total() <= 2 {
        return Err(WindowFault::Degenerate { support: h.total() });
    }
    let one = time_stage(metrics, Stage::Bin, || -> Result<BinStats, WindowFault> {
        let mut dc = DifferentialCumulative::from_histogram(&h);
        if plan == Some(InjectedFault::NanBin) && dc.n_bins() > 0 {
            let mut values: Vec<f64> = (0..dc.n_bins()).map(|i| dc.value(i)).collect();
            let poison = t as usize % values.len();
            values[poison] = f64::NAN;
            dc = DifferentialCumulative::from_values(values);
        }
        for i in 0..dc.n_bins() {
            if !dc.value(i).is_finite() {
                return Err(WindowFault::NonFiniteBin { bin: i });
            }
        }
        let mut one = BinStats::new();
        one.push(&dc);
        Ok(one)
    })?;
    Ok((one, h.d_max(), h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, InjectionSpec};
    use crate::journal::JournalHeader;
    use crate::observatory::{Observatory, ObservatoryConfig};
    use crate::packets::{EdgeIntensity, Packet};
    use palu_graph::palu_gen::PaluGenerator;
    use palu_sparse::Conversations;

    /// One unbudgeted, unjournaled capture of `n` windows.
    fn capture(
        obs: &mut Observatory,
        n: usize,
        threads: usize,
        metrics: Option<&Metrics>,
        policy: &FailurePolicy,
        injector: Option<&Injector>,
    ) -> Result<FaultTolerantPool, PipelineError> {
        Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            obs,
            n,
            threads,
            metrics,
            policy,
            injector,
            None,
            None,
        )
    }

    fn observatory(seed: u64) -> Observatory {
        Observatory::new(
            ObservatoryConfig {
                name: "pipeline-test".into(),
                date: "2026-07-06".into(),
                n_v: 4_000,
            },
            &PaluGenerator::new(2_000, 600, 400, 2.0, 1.5).unwrap(),
            EdgeIntensity::Uniform,
            seed,
        )
    }

    #[test]
    fn pooled_mass_is_one() {
        let mut obs = observatory(1);
        let windows = obs.windows(8);
        let pooled = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        assert_eq!(pooled.windows, 8);
        assert!((pooled.mean.total_mass() - 1.0).abs() < 1e-9);
        assert!(pooled.d_max >= 1);
        assert_eq!(pooled.sigma.len(), pooled.mean.n_bins());
    }

    #[test]
    fn sigma_is_zero_for_single_window() {
        let mut obs = observatory(2);
        let windows = obs.windows(1);
        let pooled = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        assert!(pooled.sigma.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn sigma_positive_for_varying_windows() {
        let mut obs = observatory(3);
        let windows = obs.windows(10);
        let pooled = Pipeline::pool(
            Measurement::Quantity(NetworkQuantity::SourceFanOut),
            &windows,
        );
        assert!(
            pooled.sigma.iter().any(|&s| s > 0.0),
            "some bin must fluctuate across windows"
        );
    }

    #[test]
    fn incremental_equals_batch() {
        let mut obs = observatory(4);
        let windows = obs.windows(5);
        let batch = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        let mut inc = Pipeline::new(Measurement::UndirectedDegree);
        for w in &windows {
            inc.push_window(w);
        }
        let inc = inc.finish();
        assert_eq!(batch.mean, inc.mean);
        assert_eq!(batch.sigma, inc.sigma);
        assert_eq!(batch.d_max, inc.d_max);
    }

    #[test]
    fn degree_one_bin_dominates_palu_traffic() {
        // PALU traffic at moderate p has its largest pooled mass in the
        // d = 1 bin (leaves + unattached links) — the headline
        // observation of the paper.
        let mut obs = observatory(6);
        let windows = obs.windows(6);
        let pooled = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        let d1 = pooled.mean.value(0);
        for i in 1..pooled.mean.n_bins() {
            assert!(d1 >= pooled.mean.value(i), "bin {i} exceeds the d=1 bin");
        }
        assert!(d1 > 0.2, "d=1 mass {d1} suspiciously small");
    }

    #[test]
    fn weights_invert_variance() {
        let pooled = PooledDistribution {
            mean: palu_stats::logbin::DifferentialCumulative::from_values(vec![0.5, 0.5]),
            sigma: vec![0.1, 0.0],
            windows: 2,
            d_max: 2,
        };
        let w = pooled.weights(7.0);
        assert!((w[0] - 100.0).abs() < 1e-9);
        assert_eq!(w[1], 7.0);
    }

    #[test]
    fn weights_degenerate_to_uniform_when_all_sigma_zero() {
        // Regression: a single pooled window has sigma = 0 in every
        // bin; the weights must be uniform 1.0, not default_weight.
        let mut obs = observatory(7);
        let windows = obs.windows(1);
        let pooled = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        assert!(pooled.sigma.iter().all(|&s| s == 0.0));
        let w = pooled.weights(100.0);
        assert!(!w.is_empty());
        assert!(w.iter().all(|&x| x == 1.0), "weights {w:?}");
        // Multi-window pooling keeps the inverse-variance behavior:
        // fluctuating bins get 1/σ², constant bins the default.
        let windows = obs.windows(10);
        let pooled = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        let w = pooled.weights(100.0);
        let varying = pooled
            .sigma
            .iter()
            .zip(&w)
            .filter(|&(&s, _)| s > 0.0)
            .count();
        assert!(varying > 0, "fixture must have fluctuating bins");
        for (&s, &wi) in pooled.sigma.iter().zip(&w) {
            if s > 0.0 {
                assert!((wi - 1.0 / (s * s)).abs() < 1e-9);
            } else {
                assert_eq!(wi, 100.0);
            }
        }
    }

    #[test]
    fn parallel_pool_bit_identical_to_serial() {
        // The tentpole contract: pooled mean, sigma, d_max, and window
        // count are bitwise equal to the serial fold for any thread
        // count, including thread counts that do not divide the window
        // count and exceed it.
        let mut serial_obs = observatory(8);
        let windows = serial_obs.windows(13);
        let serial = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        for threads in [1, 2, 3, 5, 7, 8, 32] {
            let mut par_obs = observatory(8);
            let parallel = capture(
                &mut par_obs,
                13,
                threads,
                None,
                &FailurePolicy::strict(),
                None,
            )
            .unwrap()
            .pooled;
            assert_eq!(parallel.windows, serial.windows, "threads {threads}");
            assert_eq!(parallel.d_max, serial.d_max, "threads {threads}");
            assert_eq!(
                parallel.mean.n_bins(),
                serial.mean.n_bins(),
                "threads {threads}"
            );
            for i in 0..serial.mean.n_bins() {
                assert_eq!(
                    parallel.mean.value(i).to_bits(),
                    serial.mean.value(i).to_bits(),
                    "mean bin {i}, threads {threads}"
                );
                assert_eq!(
                    parallel.sigma[i].to_bits(),
                    serial.sigma[i].to_bits(),
                    "sigma bin {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_pool_advances_the_observatory_like_serial() {
        let mut a = observatory(9);
        let mut b = observatory(9);
        let _ = a.windows(6);
        capture(&mut b, 6, 4, None, &FailurePolicy::strict(), None).unwrap();
        // Both observatories are now positioned at window 6.
        assert_eq!(a.next_window().matrix(), b.next_window().matrix());
    }

    #[test]
    fn parallel_pool_records_metrics() {
        let mut obs = observatory(10);
        let metrics = crate::metrics::Metrics::new();
        let pooled = capture(
            &mut obs,
            4,
            2,
            Some(&metrics),
            &FailurePolicy::strict(),
            None,
        )
        .unwrap()
        .pooled;
        assert_eq!(pooled.windows, 4);
        let snap = metrics.snapshot();
        assert_eq!(snap.windows, 4);
        assert_eq!(snap.threads, 2);
        assert_eq!(snap.packets, 4 * 4_000);
        // Every expensive stage ran and was timed.
        assert!(snap.synthesize_ns > 0, "{snap:?}");
        assert!(snap.histogram_ns > 0, "{snap:?}");
    }

    #[test]
    fn clean_capture_matches_the_serial_fold() {
        let mut serial_obs = observatory(11);
        let windows = serial_obs.windows(7);
        let serial = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        let mut obs = observatory(11);
        let ft = capture(&mut obs, 7, 3, None, &FailurePolicy::strict(), None).unwrap();
        assert!(ft.report.is_clean());
        assert_eq!(ft.report.survivors, 7);
        assert_eq!(ft.pooled.windows, serial.windows);
        assert_eq!(ft.pooled.d_max, serial.d_max);
        for i in 0..serial.mean.n_bins() {
            assert_eq!(
                ft.pooled.mean.value(i).to_bits(),
                serial.mean.value(i).to_bits(),
                "mean bin {i}"
            );
            assert_eq!(
                ft.pooled.sigma[i].to_bits(),
                serial.sigma[i].to_bits(),
                "sigma bin {i}"
            );
        }
        // The merged histogram is the sum of the survivors' histograms.
        let total: u64 = windows
            .iter()
            .map(|w| w.undirected_degree_histogram().total())
            .sum();
        assert_eq!(ft.histogram.total(), total);
    }

    #[test]
    fn default_threads_is_positive() {
        let t = default_threads();
        assert!((1..=16).contains(&t), "{t}");
    }

    #[test]
    fn zero_windows_are_refused() {
        let mut obs = observatory(12);
        let err = capture(&mut obs, 0, 4, None, &FailurePolicy::strict(), None).unwrap_err();
        assert_eq!(err, PipelineError::ZeroWindows);
        // The refused capture consumed no window index.
        assert_eq!(obs.next_window().t(), 0);
    }

    #[test]
    fn abort_policy_surfaces_the_first_faulted_window() {
        let mut obs = observatory(13);
        let inj = Injector::new(
            InjectionSpec {
                truncate: 1.0,
                ..InjectionSpec::none()
            },
            5,
        );
        let err = capture(&mut obs, 6, 2, None, &FailurePolicy::strict(), Some(&inj)).unwrap_err();
        match err {
            PipelineError::WindowAborted {
                window,
                attempts,
                fault,
            } => {
                assert_eq!(window, 0, "first faulted window in window order");
                assert_eq!(attempts, 1);
                assert!(matches!(fault, WindowFault::Truncated { .. }), "{fault:?}");
            }
            other => panic!("expected WindowAborted, got {other:?}"),
        }
    }

    #[test]
    fn stealing_schedule_matches_ordered_run_under_heavy_faults() {
        // The work-stealing queue hands windows to workers in a
        // timing-dependent order; under a 50% injection rate the
        // per-window costs vary wildly (retries, substitutions), which
        // is exactly when schedules diverge most. The pooled output,
        // merged histogram, and the full fault report (record order
        // included) must still be identical to the single-threaded
        // ordered run at every thread count.
        let run = |threads: usize| {
            let mut obs = observatory(33);
            let inj = Injector::new(InjectionSpec::uniform(0.5), 33);
            capture(
                &mut obs,
                12,
                threads,
                None,
                &FailurePolicy::quarantine(1),
                Some(&inj),
            )
            .unwrap()
        };
        let ordered = run(1);
        assert!(
            ordered.report.injected > 0,
            "the spec must actually fire: {:?}",
            ordered.report
        );
        for threads in [2, 3, 5, 8, 16] {
            let stolen = run(threads);
            assert_bitwise_equal(
                &stolen.pooled,
                &ordered.pooled,
                &format!("threads {threads}"),
            );
            assert_eq!(stolen.histogram, ordered.histogram, "threads {threads}");
            assert_eq!(stolen.report, ordered.report, "threads {threads}");
        }
    }

    #[test]
    fn quarantine_overflow_respects_the_threshold() {
        let inj = Injector::new(InjectionSpec::uniform(1.0), 6);
        let tight = FailurePolicy {
            quarantine_threshold: 0.25,
            ..FailurePolicy::quarantine(0)
        };
        let mut obs = observatory(14);
        let err = capture(&mut obs, 8, 4, None, &tight, Some(&inj)).unwrap_err();
        assert!(
            matches!(err, PipelineError::QuarantineOverflow { .. }),
            "{err:?}"
        );
    }

    fn assert_bitwise_equal(a: &PooledDistribution, b: &PooledDistribution, what: &str) {
        assert_eq!(a.windows, b.windows, "{what}: windows");
        assert_eq!(a.d_max, b.d_max, "{what}: d_max");
        assert_eq!(a.mean.n_bins(), b.mean.n_bins(), "{what}: bins");
        for i in 0..a.mean.n_bins() {
            assert_eq!(
                a.mean.value(i).to_bits(),
                b.mean.value(i).to_bits(),
                "{what}: mean bin {i}"
            );
            assert_eq!(
                a.sigma[i].to_bits(),
                b.sigma[i].to_bits(),
                "{what}: sigma bin {i}"
            );
        }
    }

    #[test]
    fn durable_capture_resumes_bit_identical() {
        let dir = std::env::temp_dir().join("palu-pipeline-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.journal");
        let header = JournalHeader {
            seed: 21,
            n_v: 4_000,
            windows: 8,
            fingerprint: 0xABC,
            params: vec![],
        };
        let mut obs = observatory(21);
        let baseline = capture(&mut obs, 8, 3, None, &FailurePolicy::strict(), None).unwrap();
        // Durable run writing the journal from scratch.
        let mut obs = observatory(21);
        let j = Journal::create(&path, header.clone()).unwrap();
        let full = Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            &mut obs,
            8,
            3,
            None,
            &FailurePolicy::strict(),
            None,
            Some(&j),
            None,
        )
        .unwrap();
        drop(j);
        assert_bitwise_equal(&full.pooled, &baseline.pooled, "durable full run");
        // Simulate a kill: chop the journal mid-record and resume at a
        // different thread count.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let (j2, rec) = Journal::resume(&path, header.clone()).unwrap();
        let replayed = rec.windows.len() as u64;
        assert!(replayed > 0 && replayed < 8, "replayed {replayed}");
        let metrics = Metrics::new();
        let mut obs = observatory(21);
        let resumed = Pipeline::pool_observatory_durable(
            Measurement::UndirectedDegree,
            &mut obs,
            8,
            5,
            Some(&metrics),
            &FailurePolicy::strict(),
            None,
            Some(&j2),
            Some(&rec),
        )
        .unwrap();
        assert_bitwise_equal(&resumed.pooled, &baseline.pooled, "resumed run");
        assert_eq!(resumed.histogram.total(), baseline.histogram.total());
        let snap = metrics.snapshot();
        assert_eq!(snap.windows_recovered, replayed);
        assert!(snap.journal_bytes_replayed > 0);
        // After the resumed run the journal holds all 8 windows again.
        drop(j2);
        let bytes = std::fs::read(&path).unwrap();
        let rec = crate::journal::Journal::recover_bytes(&bytes, &header).unwrap();
        assert_eq!(rec.windows.len(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stall_watchdog_classifies_and_recovers() {
        let mut obs = observatory(22);
        let inj = Injector::new(
            InjectionSpec {
                stall: 0.7,
                ..InjectionSpec::none()
            },
            9,
        );
        let policy = FailurePolicy {
            quarantine_threshold: 1.0,
            ..FailurePolicy::quarantine(2)
        }
        .with_deadline_ms(100);
        let ft = capture(&mut obs, 6, 3, None, &policy, Some(&inj)).unwrap();
        let stalled: Vec<_> = ft
            .report
            .records
            .iter()
            .filter(|r| r.kind == FaultKind::Stalled)
            .collect();
        assert!(!stalled.is_empty(), "no stalls with a 0.7 injection rate");
        for r in &stalled {
            assert!(
                matches!(
                    r.outcome,
                    WindowOutcome::Recovered | WindowOutcome::Quarantined
                ),
                "{r:?}"
            );
        }
        assert!(ft.report.retries > 0);
    }

    #[test]
    fn unwatched_stall_injection_is_benign() {
        // Without --window-deadline-ms the stall only delays; results
        // stay bit-identical to a clean run.
        let mut obs = observatory(23);
        let clean = capture(&mut obs, 3, 2, None, &FailurePolicy::strict(), None).unwrap();
        let inj = Injector::new(
            InjectionSpec {
                stall: 1.0,
                ..InjectionSpec::none()
            },
            9,
        );
        let mut obs = observatory(23);
        let stalled = capture(&mut obs, 3, 2, None, &FailurePolicy::strict(), Some(&inj)).unwrap();
        assert_bitwise_equal(&stalled.pooled, &clean.pooled, "unwatched stall");
        assert_eq!(stalled.report.survivors, 3);
    }

    fn governed(
        seed: u64,
        threads: usize,
        budget: &ResourceBudget,
        injector: Option<&Injector>,
        metrics: Option<&Metrics>,
    ) -> Result<FaultTolerantPool, PipelineError> {
        let mut obs = observatory(seed);
        let gov = Governor {
            budget,
            strict_admission: false,
        };
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            8,
            threads,
            metrics,
            &FailurePolicy::strict(),
            injector,
            None,
            None,
            Some(&gov),
        )
    }

    fn governed_cost_model(threads: u64) -> CostModel {
        let obs = observatory(0);
        CostModel {
            n_v: obs.config().n_v,
            n_nodes: obs.underlying().n_nodes() as u64,
            windows: 8,
            threads,
        }
    }

    #[test]
    fn governed_ample_budget_is_bit_identical_to_ungoverned() {
        let mut obs = observatory(31);
        let baseline = capture(&mut obs, 8, 4, None, &FailurePolicy::strict(), None).unwrap();
        let budget = ResourceBudget::with_limit(1 << 40);
        let metrics = Metrics::new();
        let ft = governed(31, 4, &budget, None, Some(&metrics)).unwrap();
        assert_bitwise_equal(&ft.pooled, &baseline.pooled, "governed ample");
        assert_eq!(ft.histogram, baseline.histogram, "merged histogram");
        assert!(ft.report.degradations.is_empty(), "no rungs under ample");
        let snap = metrics.snapshot();
        assert!(snap.peak_accounted_bytes > 0, "accounting ran");
        assert!(
            snap.admission_estimate_bytes >= snap.peak_accounted_bytes,
            "estimate {} < actual peak {}",
            snap.admission_estimate_bytes,
            snap.peak_accounted_bytes
        );
        assert_eq!(budget.accounted(), 0, "ledger fully released");
    }

    #[test]
    fn tight_budget_degrades_deterministically_and_completes() {
        let model = governed_cost_model(4);
        // Between the fully degraded floor and the undegraded peak:
        // admission passes, the ladder must engage.
        let limit = model.floor_bytes() + model.window_bytes();
        assert!(limit < model.peak_bytes(4), "budget genuinely tight");
        let mut obs = observatory(32);
        let baseline = capture(&mut obs, 8, 4, None, &FailurePolicy::strict(), None).unwrap();
        let budget = ResourceBudget::with_limit(limit);
        let ft = governed(32, 4, &budget, None, None).unwrap();
        assert!(
            !ft.report.degradations.is_empty(),
            "tight budget must engage the ladder"
        );
        // The pooled BinStats is never coarsened, so the pooled
        // distribution survives degradation bit-identically.
        assert_bitwise_equal(&ft.pooled, &baseline.pooled, "governed tight");
        // Reruns at the same budget reproduce the same events.
        let budget2 = ResourceBudget::with_limit(limit);
        let ft2 = governed(32, 4, &budget2, None, None).unwrap();
        assert_eq!(ft.report.degradations, ft2.report.degradations);
        assert_eq!(budget.peak(), budget2.peak());
        // Pooled output is thread-count independent even under
        // pressure (rung histories may differ; the pool may not).
        for threads in [1usize, 2, 8] {
            let b = ResourceBudget::with_limit(limit);
            let ft_t = governed(32, threads, &b, None, None).unwrap();
            assert_bitwise_equal(
                &ft_t.pooled,
                &baseline.pooled,
                &format!("governed tight, {threads} threads"),
            );
        }
    }

    #[test]
    fn infeasible_budget_is_refused_before_the_observatory_advances() {
        let model = governed_cost_model(4);
        let budget = ResourceBudget::with_limit(model.floor_bytes() / 2);
        let err = governed(33, 4, &budget, None, None).unwrap_err();
        match err {
            PipelineError::Budget(crate::budget::BudgetFault::AdmissionRefused {
                floor,
                limit,
                ..
            }) => {
                assert!(floor > limit, "refused because the floor exceeds the limit");
            }
            other => panic!("expected AdmissionRefused, got {other:?}"),
        }
        // The refusal happened before any window was synthesized: the
        // same observatory still produces the full capture from t = 0.
        let mut obs = observatory(33);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let refused = Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            8,
            4,
            None,
            &FailurePolicy::strict(),
            None,
            None,
            None,
            Some(&gov),
        );
        assert!(refused.is_err());
        let after = capture(&mut obs, 8, 4, None, &FailurePolicy::strict(), None).unwrap();
        let mut fresh = observatory(33);
        let fresh_run = capture(&mut fresh, 8, 4, None, &FailurePolicy::strict(), None).unwrap();
        assert_bitwise_equal(
            &after.pooled,
            &fresh_run.pooled,
            "window counter untouched by the refusal",
        );
    }

    #[test]
    fn ballast_injection_pressures_the_ladder_without_corrupting_data() {
        let model = governed_cost_model(4);
        // Soft watermark well above a clean 4-wide batch (≈ 4 window
        // footprints) but well below a ballasted one (≈ 16): the clean
        // capture never degrades, the ballasted one must.
        let wb = model.window_bytes();
        let soft = wb * 6;
        let hard = model.peak_bytes(4) * 4;
        let clean_budget = ResourceBudget::with_watermarks(Some(soft), Some(hard));
        let clean = governed(34, 4, &clean_budget, None, None).unwrap();
        assert!(clean.report.degradations.is_empty(), "clean run fits");
        // Certain ballast quadruples every window's accounted
        // transient, forcing the ladder.
        let inj = Injector::new(
            InjectionSpec {
                ballast: 1.0,
                ..InjectionSpec::none()
            },
            5,
        );
        let ballast_budget = ResourceBudget::with_watermarks(Some(soft), Some(hard));
        let metrics = Metrics::new();
        let ft = governed(34, 4, &ballast_budget, Some(&inj), Some(&metrics)).unwrap();
        assert!(
            !ft.report.degradations.is_empty(),
            "ballast must engage the ladder"
        );
        assert_eq!(
            metrics.snapshot().budget_degradations,
            ft.report.degradations.len() as u64
        );
        // Ballast is pure accounting pressure — the measured data is
        // untouched.
        assert_bitwise_equal(&ft.pooled, &clean.pooled, "ballast run");
        assert!(ft.report.injected > 0, "ballast plans are counted");
        assert_eq!(ft.report.survivors, 8);
    }

    #[test]
    fn measurement_histograms_dispatch() {
        let packets = vec![
            Packet { src: 0, dst: 1 },
            Packet { src: 1, dst: 0 },
            Packet { src: 0, dst: 2 },
        ];
        let w = PacketWindow::from_packets(0, &packets);
        let und = Measurement::UndirectedDegree.histogram(&w);
        // Partners: 0↔{1,2}, 1↔{0}, 2↔{0}.
        assert_eq!(und.count(2), 1);
        assert_eq!(und.count(1), 2);
        let fanout = Measurement::Quantity(NetworkQuantity::SourceFanOut).histogram(&w);
        // Sources 0 (→1,2) and 1 (→0).
        assert_eq!(fanout.count(2), 1);
        assert_eq!(fanout.count(1), 1);
    }

    /// Every measurement the engine pools.
    fn all_measurements() -> Vec<Measurement> {
        let mut all = vec![Measurement::UndirectedDegree, Measurement::NodeVolume];
        all.extend(NetworkQuantity::ALL.map(Measurement::Quantity));
        all
    }

    /// A multigraph over 60 nodes: 50 ordinary conversations (four of
    /// them reverse others), 10 parallel ones, 10 reversed duplicates
    /// and 6 self-loops, each doubled — 52 distinct edges in 82
    /// conversations.
    fn multigraph() -> palu_graph::graph::Graph {
        let mut g = palu_graph::graph::Graph::with_nodes(60);
        let partner = |i: u32| (i * 7 + 3) % 60;
        for i in 0..50 {
            g.add_edge(i, partner(i));
        }
        for i in 0..10 {
            g.add_edge(i, partner(i));
        }
        for i in 10..20 {
            g.add_edge(partner(i), i);
        }
        for i in 50..56 {
            g.add_edge(i, i);
            g.add_edge(i, i);
        }
        g
    }

    /// Window sizes sparser and denser than the multigraph's 52 edges,
    /// so the count pass walks its list and scans its edges.
    const WINDOW_SIZES: [u64; 3] = [8, 40, 400];

    #[test]
    fn fused_window_equals_the_packet_kernel() {
        let intensities = [EdgeIntensity::Uniform, EdgeIntensity::Pareto { shape: 1.2 }];
        // One fused scratch for every measurement and window, so the
        // residue of each count meets the next.
        let mut fused = DegreeScratch::new();
        let mut reference = DegreeScratch::new();
        for intensity in intensities {
            for n_v in WINDOW_SIZES {
                let obs = Observatory::over_graph(multigraph(), intensity, n_v, 21);
                let syn = obs.synthesizer();
                assert_eq!((syn.n_conversations(), syn.n_edges()), (82, 52));
                for t in 0..3 {
                    for attempt in 0..3 {
                        let packets = obs.packets_at_retry(t, attempt).unwrap();
                        for m in all_measurements() {
                            assert_eq!(
                                m.histogram_of_window(&obs, t, attempt, &mut fused),
                                Ok(m.histogram_of_packets(&packets, &mut reference)),
                                "{m:?}, {intensity:?}, N_V {n_v}, window {t}, attempt {attempt}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One attempt at window `t` the way the engine ran it over a packet
    /// buffer before the fused kernel: synthesize, apply the injected
    /// fault to the packets, count them with the packet-level kernel,
    /// then classify and bin.
    fn packet_buffer_attempt(
        obs: &Observatory,
        measurement: Measurement,
        t: u64,
        attempt: u32,
        plan: Option<InjectedFault>,
    ) -> Result<(BinStats, Option<u64>, DegreeHistogram), WindowFault> {
        let mut packets = obs.packets_at_retry(t, attempt)?;
        match plan {
            Some(InjectedFault::Truncate) => packets.truncate(packets.len() / 2),
            Some(InjectedFault::DuplicateStorm) => {
                if let Some(&first) = packets.first() {
                    packets.fill(first);
                }
            }
            _ => {}
        }
        let n_v = obs.config().n_v;
        if packets.len() as u64 != n_v {
            return Err(WindowFault::Truncated {
                expected: n_v,
                actual: packets.len() as u64,
            });
        }
        if plan == Some(InjectedFault::WorkerPanic) {
            panic!("injected fault: worker panic in window {t} (attempt {attempt})");
        }
        let h = measurement.histogram_of_packets(&packets, &mut DegreeScratch::new());
        bin_window(h, n_v, t, plan, None)
    }

    #[test]
    fn injected_faults_classify_the_same_as_over_a_packet_buffer() {
        let plans = [
            None,
            Some(InjectedFault::Truncate),
            Some(InjectedFault::NanBin),
            Some(InjectedFault::DuplicateStorm),
            Some(InjectedFault::WorkerPanic),
            Some(InjectedFault::Stall),
            Some(InjectedFault::Ballast),
        ];
        let policy = FailurePolicy::strict();
        // One arena throughout: a panicked attempt's marks meet the next
        // attempt.
        let mut arena = DegreeScratch::new();
        for n_v in WINDOW_SIZES {
            let obs = Observatory::over_graph(multigraph(), EdgeIntensity::Uniform, n_v, 22);
            for measurement in all_measurements() {
                let capture = Capture {
                    measurement,
                    obs: &obs,
                    start_t: 0,
                    metrics: None,
                    policy: &policy,
                    injector: None,
                    journal: None,
                };
                for plan in plans {
                    let (t, attempt) = (3, 1);
                    let fused = attempt_window(&capture, t, attempt, plan, None, &mut arena);
                    let reference = std::panic::catch_unwind(|| {
                        packet_buffer_attempt(&obs, measurement, t, attempt, plan)
                    })
                    .unwrap_or_else(|payload| {
                        Err(WindowFault::Panic {
                            message: panic_message(payload.as_ref()),
                        })
                    });
                    assert_eq!(fused, reference, "{measurement:?}, {plan:?}, N_V {n_v}");
                }
            }
        }
    }
}
