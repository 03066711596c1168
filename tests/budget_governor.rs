//! Tier-1 contract for the resource-budget governor (DESIGN.md §4g):
//! bounded-memory capture without changing a single output bit.
//!
//! The guarantees under test:
//!
//! 1. **Byte-identity without a budget** — no governor, an explicit
//!    unbounded governor and an ample one produce bit-identical pooled
//!    `D(d_i)` through both entry points (`pool_observatory_durable`,
//!    `pool_observatory_governed`), and no governor *is* the unbounded
//!    one down to the last fault record.
//! 2. **Admission soundness** — across a sweep of configurations the
//!    projected peak upper-bounds the peak the ledger actually
//!    records, and a budget below the degraded floor is refused with
//!    a typed fault before the observatory advances.
//! 3. **Deterministic degradation** — one tight budget yields the
//!    same degradation events and the same pooled bits at 1, 2, and
//!    8 threads, run after run; the events themselves are pinned.
//! 4. **The ladder under ballast** — seeded ballast injection drives
//!    every rung in engagement order without corrupting the output.
//! 5. **Governed resume** — replaying a journal under a tight budget
//!    degrades instead of overrunning, and still reproduces the
//!    uninterrupted pooled result bit for bit.

use palu_suite::prelude::*;

use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::{
    BudgetFault, CostModel, DegradationRung, FailurePolicy, Governor, InjectionSpec, Injector,
    Journal, JournalHeader, PipelineError, ResourceBudget,
};

const WINDOWS: usize = 24;
const N_V: u64 = 2_000;
const SEED: u64 = 20260807;

fn generator() -> PaluGenerator {
    PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(3_000)
        .unwrap()
}

fn observatory(gen: &PaluGenerator, n_v: u64) -> Observatory {
    Observatory::new(
        ObservatoryConfig {
            name: "budget-governor test".to_string(),
            date: String::new(),
            n_v,
        },
        gen,
        EdgeIntensity::Uniform,
        SEED,
    )
}

fn cost_model(gen: &PaluGenerator, n_v: u64, windows: usize, threads: usize) -> CostModel {
    CostModel {
        n_v,
        n_nodes: observatory(gen, n_v).underlying().n_nodes() as u64,
        windows: windows as u64,
        threads: threads as u64,
    }
}

/// One governed capture over a fresh observatory.
fn run(
    gen: &PaluGenerator,
    threads: usize,
    governor: Option<&Governor<'_>>,
    injector: Option<&Injector>,
    metrics: Option<&Metrics>,
) -> Result<FaultTolerantPool, PipelineError> {
    let mut obs = observatory(gen, N_V);
    Pipeline::pool_observatory_governed(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        threads,
        metrics,
        &FailurePolicy::strict(),
        injector,
        None,
        None,
        governor,
    )
}

fn assert_bit_identical(a: &FaultTolerantPool, b: &FaultTolerantPool, what: &str) {
    assert_eq!(a.pooled.windows, b.pooled.windows, "{what}: window count");
    assert_eq!(a.pooled.d_max, b.pooled.d_max, "{what}: d_max");
    for (i, ((ga, wa), (gs, ws))) in a
        .pooled
        .mean
        .iter()
        .zip(b.pooled.mean.iter())
        .zip(a.pooled.sigma.iter().zip(b.pooled.sigma.iter()))
        .enumerate()
    {
        assert_eq!(ga.0, wa.0, "{what}: bin {i} degree");
        assert_eq!(ga.1.to_bits(), wa.1.to_bits(), "{what}: mean bin {i}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{what}: sigma bin {i}");
    }
}

/// A tight-but-feasible budget for this workload: a hard watermark of
/// the degraded floor plus one window of transient headroom, and a
/// soft watermark of one window — any batch in flight breaches it, so
/// the ladder engages deterministically at every width.
fn tight_budget(gen: &PaluGenerator, threads: usize) -> (ResourceBudget, u64) {
    let model = cost_model(gen, N_V, WINDOWS, threads);
    let hard = model.floor_bytes() + model.window_bytes();
    (
        ResourceBudget::with_watermarks(Some(model.window_bytes()), Some(hard)),
        hard,
    )
}

#[test]
fn every_entry_point_is_bit_identical_without_a_budget() {
    let gen = generator();
    let governed_none = run(&gen, 4, None, None, None).expect("governed, no governor");

    let mut obs = observatory(&gen, N_V);
    let durable = Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("durable");
    assert_bit_identical(&durable, &governed_none, "durable vs governed(None)");

    // An ample budget runs the ledger but must not change a bit.
    let ample = ResourceBudget::with_limit(1 << 40);
    let gov = Governor {
        budget: &ample,
        strict_admission: true,
    };
    let governed = run(&gen, 4, Some(&gov), None, None).expect("governed, ample");
    assert_bit_identical(&governed, &governed_none, "ample vs governed(None)");
    assert!(governed.report.degradations.is_empty());
}

#[test]
fn admission_estimate_bounds_the_actual_peak_across_configs() {
    let gen = generator();
    for (n_v, windows, threads) in [
        (200, 6, 1),
        (200, 24, 4),
        (2_000, 8, 2),
        (2_000, 24, 8),
        (10_000, 12, 4),
    ] {
        let budget = ResourceBudget::with_limit(1 << 40);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let metrics = Metrics::new();
        let mut obs = observatory(&gen, n_v);
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            windows,
            threads,
            Some(&metrics),
            &FailurePolicy::strict(),
            None,
            None,
            None,
            Some(&gov),
        )
        .expect("ample capture");
        let snap = metrics.snapshot();
        assert!(
            snap.admission_estimate_bytes >= snap.peak_accounted_bytes,
            "estimate {} < actual peak {} for n_v={n_v} windows={windows} threads={threads}",
            snap.admission_estimate_bytes,
            snap.peak_accounted_bytes,
        );
        assert!(snap.peak_accounted_bytes > 0, "ledger must have recorded");
        // The ledger must drain completely: every acquire released.
        assert_eq!(budget.accounted(), 0, "ledger leak");
    }
}

#[test]
fn infeasible_budgets_are_refused_with_a_typed_fault() {
    let gen = generator();
    let floor = cost_model(&gen, N_V, WINDOWS, 4).floor_bytes();
    let budget = ResourceBudget::with_limit(floor / 2);
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    match run(&gen, 4, Some(&gov), None, None) {
        Err(PipelineError::Budget(BudgetFault::AdmissionRefused {
            estimated,
            floor: f,
            limit,
            suggestion,
        })) => {
            assert!(f > limit, "refusal must cite an infeasible floor");
            assert!(estimated >= f, "estimate below the floor");
            if let Some(s) = suggestion {
                assert!(s.n_v <= N_V && s.threads >= 1, "suggestion {s:?}");
            }
        }
        other => panic!("expected AdmissionRefused, got {other:?}"),
    }
    // Refusal happens before any window is synthesized: a fresh
    // capture on the same seed still reproduces the baseline.
    let baseline = run(&gen, 4, None, None, None).expect("baseline");
    let retry = run(&gen, 4, None, None, None).expect("retry after refusal");
    assert_bit_identical(&retry, &baseline, "capture after refusal");
}

/// Per thread count: the window at which [`tight_budget`] engages all
/// three rungs, and the ledger's peak bytes. Pinned, so a change to the
/// executor or the batch schedule that moves the ledger fails here
/// rather than only comparing runs with each other.
const TIGHT_SCHEDULE: [(usize, u64, u64); 3] = [(1, 1, 132_744), (2, 1, 261_840), (8, 1, 262_480)];

/// `(rung, window)` for every rung engaged at `window`, in ladder order.
fn whole_ladder_at(window: u64) -> Vec<(DegradationRung, u64)> {
    DegradationRung::ALL.iter().map(|&r| (r, window)).collect()
}

#[test]
fn tight_budget_degrades_identically_at_every_thread_count() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");

    for (threads, window, peak) in TIGHT_SCHEDULE {
        let (budget, limit) = tight_budget(&gen, threads);
        let gov = Governor {
            budget: &budget,
            strict_admission: false,
        };
        let pool = run(&gen, threads, Some(&gov), None, None).expect("tight capture");
        assert_bit_identical(&pool, &baseline, "tight budget vs baseline");
        assert!(
            !pool.report.degradations.is_empty(),
            "a one-window soft watermark must engage the ladder at {threads} threads"
        );
        assert!(budget.peak() <= limit, "ledger peak overran the limit");
        let events: Vec<(DegradationRung, u64)> = pool
            .report
            .degradations
            .iter()
            .map(|d| (d.rung, d.window))
            .collect();
        assert_eq!(events, whole_ladder_at(window), "{threads} threads");
        assert_eq!(budget.peak(), peak, "ledger peak at {threads} threads");
        // The same budget at the same width is exactly repeatable.
        let (budget2, _) = tight_budget(&gen, threads);
        let gov2 = Governor {
            budget: &budget2,
            strict_admission: false,
        };
        let again = run(&gen, threads, Some(&gov2), None, None).expect("repeat");
        assert_bit_identical(&again, &pool, "repeat at same width");
        let again_events: Vec<(DegradationRung, u64)> = again
            .report
            .degradations
            .iter()
            .map(|d| (d.rung, d.window))
            .collect();
        assert_eq!(again_events, events, "degradations differ on rerun");
        assert_eq!(budget2.peak(), budget.peak(), "peaks differ on rerun");
    }
}

#[test]
fn ballast_injection_climbs_every_rung_in_order() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");
    let model = cost_model(&gen, N_V, WINDOWS, 4);
    // Headroom for clean 4-wide batches; ballasted windows (4x the
    // transient) must breach the soft watermark.
    let budget = ResourceBudget::with_watermarks(
        Some(6 * model.window_bytes()),
        Some(model.peak_bytes(4) * 4),
    );
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    let spec = InjectionSpec {
        ballast: 1.0,
        ..InjectionSpec::none()
    };
    let injector = Injector::new(spec, 5);
    let pool = run(&gen, 4, Some(&gov), Some(&injector), None).expect("ballasted capture");
    assert_bit_identical(&pool, &baseline, "ballast vs baseline");
    assert!(
        pool.report.injected > 0,
        "ballast must be counted as injected"
    );
    assert_eq!(pool.report.survivors, WINDOWS as u64);
    let events: Vec<(DegradationRung, u64)> = pool
        .report
        .degradations
        .iter()
        .map(|d| (d.rung, d.window))
        .collect();
    // Sustained ballast climbs the whole ladder, in order, at one
    // checkpoint (pinned).
    assert_eq!(events, whole_ladder_at(3), "ballast ladder");
}

#[test]
fn journal_resume_under_a_tight_budget_degrades_and_matches() {
    let gen = generator();
    let baseline = run(&gen, 4, None, None, None).expect("baseline");

    let dir = std::env::temp_dir().join("palu-budget-governor-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("governed-resume.journal");
    let _ = std::fs::remove_file(&path);
    let header = JournalHeader::with_params(
        SEED,
        N_V,
        WINDOWS as u64,
        vec!["test=budget-governor".to_string()],
    );

    // Full durable capture, no budget.
    let journal = Journal::create(&path, header.clone()).expect("create");
    let mut obs = observatory(&gen, N_V);
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        Some(&journal),
        None,
    )
    .expect("durable capture");
    drop(journal);

    // Resume the complete journal under a tight budget: the replay
    // buffers through the accountant, the retained slots breach the
    // soft watermark, and the ladder spills them into the merge
    // instead of overrunning. The soft watermark sits below the
    // replayed slots' aggregate footprint so degradation is certain.
    let model = cost_model(&gen, N_V, WINDOWS, 4);
    let limit = model.floor_bytes() + model.window_bytes();
    let (journal, recovery) = Journal::resume(&path, header).expect("resume");
    assert_eq!(recovery.windows.len(), WINDOWS, "journal must be complete");
    let budget = ResourceBudget::with_watermarks(Some(1024), Some(limit));
    let gov = Governor {
        budget: &budget,
        strict_admission: false,
    };
    let mut obs = observatory(&gen, N_V);
    let resumed = Pipeline::pool_observatory_governed(
        Measurement::UndirectedDegree,
        &mut obs,
        WINDOWS,
        4,
        None,
        &FailurePolicy::strict(),
        None,
        Some(&journal),
        Some(&recovery),
        Some(&gov),
    )
    .expect("governed resume");
    drop(journal);
    assert_bit_identical(&resumed, &baseline, "governed resume vs baseline");
    assert!(budget.peak() <= limit, "replay overran the budget");
    assert!(budget.peak() > 0, "replay must be accounted");
    assert!(
        !resumed.report.degradations.is_empty(),
        "replaying {WINDOWS} retained slots past a 1 KiB soft watermark must degrade"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn no_governor_is_an_unbounded_governor() {
    let gen = generator();
    let policy = FailurePolicy::quarantine(1);
    let capture = |threads: usize, governor: Option<&Governor<'_>>| {
        let mut obs = observatory(&gen, N_V);
        let injector = Injector::new(InjectionSpec::uniform(0.5), 17);
        Pipeline::pool_observatory_governed(
            Measurement::UndirectedDegree,
            &mut obs,
            WINDOWS,
            threads,
            None,
            &policy,
            Some(&injector),
            None,
            None,
            governor,
        )
        .expect("quarantining capture")
    };
    for threads in [1usize, 2, 8] {
        let none = capture(threads, None);
        assert!(none.report.injected > 0, "50% injection must fire");
        let unbounded = ResourceBudget::unbounded();
        let gov = Governor {
            budget: &unbounded,
            strict_admission: false,
        };
        let explicit = capture(threads, Some(&gov));
        assert_bit_identical(&explicit, &none, "unbounded vs None");
        assert_eq!(explicit.report, none.report, "{threads} threads");
        assert_eq!(explicit.histogram, none.histogram, "{threads} threads");
        assert_eq!(unbounded.accounted(), 0, "ledger fully released");
    }
}
