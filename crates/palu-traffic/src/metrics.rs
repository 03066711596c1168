//! Zero-dependency pipeline instrumentation.
//!
//! The ROADMAP's production goal is a system that "runs as fast as the
//! hardware allows" — which demands *measured* speedups, not asserted
//! ones. [`Metrics`] is a set of thread-safe counters the multi-window
//! pipeline threads through its synthesize → window → histogram → bin
//! → merge stages: workers on any thread attribute wall-time and
//! packet/window volume to a [`Stage`], and [`Metrics::snapshot`]
//! freezes everything into a plain [`MetricsSnapshot`] struct that the
//! CLI and bench binaries serialize.
//!
//! Timing reads the monotonic clock, which lint rule R2 bans from
//! result paths. Instrumentation is observability-only: nanosecond
//! counts never feed a numerical result, so the `Instant` uses below
//! carry explicit `lint:allow(R2)` pragmas (see DESIGN.md, "Parallel
//! pipeline & determinism").

use std::sync::atomic::{AtomicU64, Ordering};

/// One instrumented stage of the multi-window measurement pipeline,
/// in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Drawing a window's `N_V` packets from the synthesizer; in a
    /// capture, the fused kernel's mark pass, which marks each packet's
    /// edge as it is drawn.
    Synthesize,
    /// Building the window's edge set `A_t` from a packet buffer: the
    /// packet-level kernel's key packing, sort and dedup (plus, for a
    /// streamed capture, cutting the stream into the window). A capture
    /// stores no packets and runs no window stage.
    Window,
    /// Counting the edge set into the measurement's degree histogram;
    /// in a capture, the fused kernel's count pass.
    Histogram,
    /// Pooling the histogram into logarithmic bins `D_t(d_i)`.
    Bin,
    /// Window-ordered accumulation into the pooled mean/σ.
    Merge,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Synthesize,
        Stage::Window,
        Stage::Histogram,
        Stage::Bin,
        Stage::Merge,
    ];

    /// Stable lowercase name, used as a JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Synthesize => "synthesize",
            Stage::Window => "window",
            Stage::Histogram => "histogram",
            Stage::Bin => "bin",
            Stage::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Synthesize => 0,
            Stage::Window => 1,
            Stage::Histogram => 2,
            Stage::Bin => 3,
            Stage::Merge => 4,
        }
    }
}

/// A cache-line-padded relaxed atomic counter.
///
/// The hot per-window counters (`stage_ns`, `packets`) are hammered by
/// every worker thread; packed `AtomicU64`s land eight to a 64-byte
/// cache line, so updates to *different* counters from *different*
/// cores still ping-pong the same line (false sharing). Aligning each
/// counter to its own line makes the relaxed `fetch_add`s core-local.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Thread-safe wall-time and volume counters for one pipeline run.
///
/// All counters are relaxed atomics: workers on different threads add
/// into the same instance through a shared reference, and the totals
/// are read only after the scoped threads have joined. Each counter is
/// cache-line padded ([`PaddedU64`]) so concurrent workers never
/// false-share a line. Stage times are *summed across threads*, so
/// with `k` workers the per-stage total can exceed the elapsed
/// wall-clock by up to a factor of `k` — that ratio is exactly the
/// measured parallel speedup.
#[derive(Debug, Default)]
pub struct Metrics {
    stage_ns: [PaddedU64; 5],
    packets: PaddedU64,
    windows: PaddedU64,
    threads: PaddedU64,
    retries: PaddedU64,
    quarantined: PaddedU64,
    windows_recovered: PaddedU64,
    journal_bytes_replayed: PaddedU64,
    journal_torn_dropped: PaddedU64,
    peak_accounted_bytes: PaddedU64,
    budget_degradations: PaddedU64,
    admission_estimate_bytes: PaddedU64,
    capture_wall_ns: PaddedU64,
    setup_ns: PaddedU64,
    leases_granted: PaddedU64,
    leases_expired: PaddedU64,
    leases_fenced: PaddedU64,
    leases_redispatched: PaddedU64,
    heartbeats: PaddedU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, attributing its wall-time to `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        // Observability only: the clock reading never reaches a
        // numerical result. lint:allow(R2)
        let start = std::time::Instant::now();
        let out = f();
        self.add_stage_ns(stage, elapsed_ns(start));
        out
    }

    /// Add `ns` nanoseconds to `stage`'s accumulated wall-time.
    pub fn add_stage_ns(&self, stage: Stage, ns: u64) {
        // Stage::index() is enum-bounded. lint:allow(R8)
        self.stage_ns[stage.index()].add(ns);
    }

    /// Count `n` synthesized/consumed packets.
    pub fn add_packets(&self, n: u64) {
        self.packets.add(n);
    }

    /// Count `n` processed windows.
    pub fn add_windows(&self, n: u64) {
        self.windows.add(n);
    }

    /// Record the worker-thread count of the run (last write wins).
    pub fn set_threads(&self, threads: u64) {
        self.threads.store(threads);
    }

    /// Count `n` per-window retry attempts (fault recovery).
    pub fn add_retries(&self, n: u64) {
        self.retries.add(n);
    }

    /// Count `n` quarantined (dropped) windows.
    pub fn add_quarantined(&self, n: u64) {
        self.quarantined.add(n);
    }

    /// Count `n` windows replayed from a capture journal instead of
    /// recomputed.
    pub fn add_windows_recovered(&self, n: u64) {
        self.windows_recovered.add(n);
    }

    /// Count `n` journal bytes replayed on resume.
    pub fn add_journal_bytes_replayed(&self, n: u64) {
        self.journal_bytes_replayed.add(n);
    }

    /// Count `n` torn tail records dropped during journal recovery.
    pub fn add_journal_torn_dropped(&self, n: u64) {
        self.journal_torn_dropped.add(n);
    }

    /// Raise the high-water mark of budget-accounted bytes to at least
    /// `bytes` (monotone: lower observations are ignored).
    pub fn record_peak_accounted_bytes(&self, bytes: u64) {
        self.peak_accounted_bytes.max(bytes);
    }

    /// Count one degradation-ladder rung engagement.
    pub fn add_budget_degradation(&self) {
        self.budget_degradations.add(1);
    }

    /// Record admission control's projected peak footprint in bytes
    /// (last write wins).
    pub fn set_admission_estimate_bytes(&self, bytes: u64) {
        self.admission_estimate_bytes.store(bytes);
    }

    /// Add `ns` nanoseconds of *elapsed* capture wall-time (clock
    /// started before workers spawn, stopped after the merge). Unlike
    /// the per-stage times this is not summed across threads, so
    /// `packets / capture_wall_ns` is a true end-to-end throughput.
    pub fn add_capture_wall_ns(&self, ns: u64) {
        self.capture_wall_ns.add(ns);
    }

    /// Run `f`, adding its elapsed wall-time to the set-up time: what a
    /// process spends drawing its network and building the packet
    /// synthesizer before it captures anything.
    pub fn time_setup<T>(&self, f: impl FnOnce() -> T) -> T {
        // Observability only, like `time`. lint:allow(R2)
        let start = std::time::Instant::now();
        let out = f();
        self.setup_ns.add(elapsed_ns(start));
        out
    }

    /// Count `n` granted leases (dispatcher).
    pub fn add_leases_granted(&self, n: u64) {
        self.leases_granted.add(n);
    }

    /// Count `n` leases whose deadline elapsed (dispatcher).
    pub fn add_leases_expired(&self, n: u64) {
        self.leases_expired.add(n);
    }

    /// Count `n` fenced zombie refusals (dispatcher).
    pub fn add_leases_fenced(&self, n: u64) {
        self.leases_fenced.add(n);
    }

    /// Count `n` re-dispatches of a previously expired range
    /// (dispatcher).
    pub fn add_leases_redispatched(&self, n: u64) {
        self.leases_redispatched.add(n);
    }

    /// Count `n` accepted worker heartbeats (dispatcher).
    pub fn add_heartbeats(&self, n: u64) {
        self.heartbeats.add(n);
    }

    /// Freeze the counters into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Stage::index() is enum-bounded. lint:allow(R8)
        let ns = |s: Stage| self.stage_ns[s.index()].load();
        MetricsSnapshot {
            synthesize_ns: ns(Stage::Synthesize),
            window_ns: ns(Stage::Window),
            histogram_ns: ns(Stage::Histogram),
            bin_ns: ns(Stage::Bin),
            merge_ns: ns(Stage::Merge),
            packets: self.packets.load(),
            windows: self.windows.load(),
            threads: self.threads.load(),
            retries: self.retries.load(),
            quarantined: self.quarantined.load(),
            windows_recovered: self.windows_recovered.load(),
            journal_bytes_replayed: self.journal_bytes_replayed.load(),
            journal_torn_dropped: self.journal_torn_dropped.load(),
            peak_accounted_bytes: self.peak_accounted_bytes.load(),
            budget_degradations: self.budget_degradations.load(),
            admission_estimate_bytes: self.admission_estimate_bytes.load(),
            capture_wall_ns: self.capture_wall_ns.load(),
            setup_ns: self.setup_ns.load(),
            leases_granted: self.leases_granted.load(),
            leases_expired: self.leases_expired.load(),
            leases_fenced: self.leases_fenced.load(),
            leases_redispatched: self.leases_redispatched.load(),
            heartbeats: self.heartbeats.load(),
        }
    }
}

/// Run `f`, attributing its wall-time to `stage` when metrics are
/// enabled; with `None` the call is a plain invocation with no clock
/// reads at all.
pub fn time_stage<T>(metrics: Option<&Metrics>, stage: Stage, f: impl FnOnce() -> T) -> T {
    match metrics {
        Some(m) => m.time(stage, f),
        None => f(),
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX` (≈ 585 years).
// Observability only (see module docs). lint:allow(R2)
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A frozen copy of one run's [`Metrics`]: plain `u64` fields, `Copy`,
/// no atomics — safe to move across threads, store, or serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Wall-time in the synthesize stage, summed across threads (ns).
    pub synthesize_ns: u64,
    /// Wall-time in the window-assembly stage (ns).
    pub window_ns: u64,
    /// Wall-time in the histogram-reduction stage (ns).
    pub histogram_ns: u64,
    /// Wall-time in the log-binning stage (ns).
    pub bin_ns: u64,
    /// Wall-time in the window-ordered merge stage (ns).
    pub merge_ns: u64,
    /// Total packets synthesized/consumed.
    pub packets: u64,
    /// Total windows processed.
    pub windows: u64,
    /// Worker threads used by the run.
    pub threads: u64,
    /// Per-window retry attempts spent on fault recovery.
    pub retries: u64,
    /// Windows quarantined (dropped from the pooled result).
    pub quarantined: u64,
    /// Windows replayed from a capture journal instead of recomputed.
    pub windows_recovered: u64,
    /// Journal bytes replayed on resume.
    pub journal_bytes_replayed: u64,
    /// Torn tail records dropped during journal recovery.
    pub journal_torn_dropped: u64,
    /// High-water mark of budget-accounted bytes (0 without a budget).
    pub peak_accounted_bytes: u64,
    /// Degradation-ladder rung engagements by the budget governor.
    pub budget_degradations: u64,
    /// Admission control's projected peak footprint in bytes.
    pub admission_estimate_bytes: u64,
    /// Elapsed end-to-end capture wall-time (ns): workers spawned
    /// through merge finished, *not* summed across threads. Accumulates
    /// across captures sharing one `Metrics`.
    pub capture_wall_ns: u64,
    /// Elapsed set-up wall-time (ns) timed by [`Metrics::time_setup`]:
    /// network drawn and synthesizer built, before (and not part of)
    /// the capture wall-time. 0 when the process drew no network.
    pub setup_ns: u64,
    /// Leases granted by the dispatcher.
    pub leases_granted: u64,
    /// Leases whose deadline elapsed without completion.
    pub leases_expired: u64,
    /// Fenced zombie refusals issued.
    pub leases_fenced: u64,
    /// Re-dispatches of a previously expired range.
    pub leases_redispatched: u64,
    /// Worker heartbeats accepted.
    pub heartbeats: u64,
}

impl MetricsSnapshot {
    /// `(stage name, accumulated ns)` pairs in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 5] {
        [
            (Stage::Synthesize.name(), self.synthesize_ns),
            (Stage::Window.name(), self.window_ns),
            (Stage::Histogram.name(), self.histogram_ns),
            (Stage::Bin.name(), self.bin_ns),
            (Stage::Merge.name(), self.merge_ns),
        ]
    }

    /// Sum of all per-stage times (ns). With `k` worker threads this
    /// is CPU time, not elapsed time: `total_ns / wall_ns` ≈ the
    /// measured speedup.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|&(_, ns)| ns).sum()
    }

    /// End-to-end capture throughput in packets per second, from the
    /// elapsed (not thread-summed) capture wall-time. `0.0` when no
    /// capture wall-time was recorded.
    pub fn packets_per_sec(&self) -> f64 {
        if self.capture_wall_ns == 0 {
            return 0.0;
        }
        self.packets as f64 * 1e9 / self.capture_wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.add_stage_ns(Stage::Synthesize, 10);
        m.add_stage_ns(Stage::Synthesize, 5);
        m.add_stage_ns(Stage::Merge, 7);
        m.add_packets(100);
        m.add_packets(50);
        m.add_windows(2);
        m.set_threads(8);
        m.add_retries(3);
        m.add_retries(1);
        m.add_quarantined(2);
        m.add_windows_recovered(5);
        m.add_journal_bytes_replayed(640);
        m.add_journal_torn_dropped(1);
        m.record_peak_accounted_bytes(900);
        m.record_peak_accounted_bytes(400);
        m.add_budget_degradation();
        m.add_budget_degradation();
        m.set_admission_estimate_bytes(12_345);
        m.add_leases_granted(3);
        m.add_leases_expired(1);
        m.add_leases_fenced(1);
        m.add_leases_redispatched(1);
        m.add_heartbeats(9);
        let s = m.snapshot();
        assert_eq!(s.leases_granted, 3);
        assert_eq!(s.leases_expired, 1);
        assert_eq!(s.leases_fenced, 1);
        assert_eq!(s.leases_redispatched, 1);
        assert_eq!(s.heartbeats, 9);
        assert_eq!(s.windows_recovered, 5);
        assert_eq!(s.journal_bytes_replayed, 640);
        assert_eq!(s.journal_torn_dropped, 1);
        assert_eq!(s.peak_accounted_bytes, 900, "peak is monotone");
        assert_eq!(s.budget_degradations, 2);
        assert_eq!(s.admission_estimate_bytes, 12_345);
        assert_eq!(s.synthesize_ns, 15);
        assert_eq!(s.merge_ns, 7);
        assert_eq!(s.window_ns, 0);
        assert_eq!(s.packets, 150);
        assert_eq!(s.windows, 2);
        assert_eq!(s.threads, 8);
        assert_eq!(s.retries, 4);
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.total_ns(), 22);
    }

    #[test]
    fn packets_per_sec_uses_elapsed_wall_time() {
        let m = Metrics::new();
        m.add_packets(1_000_000);
        assert_eq!(m.snapshot().packets_per_sec(), 0.0, "no wall-time yet");
        m.add_capture_wall_ns(500_000_000); // 0.5 s
        let s = m.snapshot();
        assert_eq!(s.capture_wall_ns, 500_000_000);
        assert!((s.packets_per_sec() - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn set_up_time_accumulates_apart_from_capture_time() {
        let m = Metrics::new();
        let v = m.time_setup(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        let s = m.snapshot();
        assert!(s.setup_ns >= 2_000_000, "{}", s.setup_ns);
        assert_eq!(s.capture_wall_ns, 0);
        assert_eq!(s.total_ns(), 0);
    }

    #[test]
    fn padded_counters_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<PaddedU64>(), 64);
        assert_eq!(std::mem::size_of::<PaddedU64>(), 64);
    }

    #[test]
    fn time_attributes_to_the_right_stage() {
        let m = Metrics::new();
        let out = m.time(Stage::Histogram, || {
            // Something the optimizer can't erase but finishes fast.
            (0..1000u64).fold(0u64, |a, b| a.wrapping_add(b * b))
        });
        assert_eq!(out, (0..1000u64).fold(0u64, |a, b| a.wrapping_add(b * b)));
        let s = m.snapshot();
        assert!(s.histogram_ns > 0 || s.total_ns() == s.histogram_ns);
        assert_eq!(s.synthesize_ns, 0);
    }

    #[test]
    fn time_stage_none_is_a_plain_call() {
        assert_eq!(time_stage(None, Stage::Bin, || 41 + 1), 42);
        let m = Metrics::new();
        let _ = time_stage(Some(&m), Stage::Bin, || ());
        assert_eq!(m.snapshot().bin_ns, m.snapshot().bin_ns);
    }

    #[test]
    fn stage_names_are_stable_and_ordered() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["synthesize", "window", "histogram", "bin", "merge"]);
    }

    #[test]
    fn metrics_are_shareable_across_scoped_threads() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    m.add_windows(1);
                    m.add_packets(10);
                    m.add_stage_ns(Stage::Window, 3);
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.windows, 4);
        assert_eq!(snap.packets, 40);
        assert_eq!(snap.window_ns, 12);
    }
}
