//! Tier-1 contract for the fault-tolerant measurement pipeline.
//!
//! The guarantees under test:
//!
//! 1. **Deterministic injection** — the same seed and injection spec
//!    produce the same `FaultReport` and bit-identical pooled
//!    `D(d_i)` at 1, 2, and 8 threads, and across reruns.
//! 2. **Exact accounting** — with zero retries, the report's injected
//!    count equals an independent recount of the injector's plans.
//! 3. **Substitution closure** — the substitute policy always delivers
//!    `n` surviving windows, whatever was injected.
//! 4. **Clean-path identity** — with no injector and a strict policy,
//!    the capture is bit-identical to the serial fold.
//! 5. **Panic containment** — injected worker panics are caught and
//!    classified, never propagated out of the pipeline.
//! 6. **Inclusive quarantine boundary** — a quarantined fraction
//!    exactly equal to `quarantine_threshold` passes; only strictly
//!    above fails.
//! 7. **Duplicate-storm path** — `dup` faults surface as degenerate
//!    histograms, are recounted exactly, and are retried back to
//!    health or quarantined, never silently pooled.

use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{FaultTolerantPool, Measurement};
use palu_traffic::{
    FailurePolicy, FaultKind, InjectionSpec, Injector, PipelineError, WindowOutcome,
};

fn observatory(seed: u64, n_v: u64) -> Observatory {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(30_000)
        .unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "fault-injection test".to_string(),
            date: String::new(),
            n_v,
        },
        &gen,
        EdgeIntensity::Uniform,
        seed,
    )
}

/// One unbudgeted, unjournaled capture of `windows` windows.
fn capture(
    obs: &mut Observatory,
    windows: usize,
    threads: usize,
    policy: &FailurePolicy,
    injector: Option<&Injector>,
) -> Result<FaultTolerantPool, PipelineError> {
    Pipeline::pool_observatory_durable(
        Measurement::UndirectedDegree,
        obs,
        windows,
        threads,
        None,
        policy,
        injector,
        None,
        None,
    )
}

#[test]
fn half_rate_injection_is_deterministic_across_threads_and_reruns() {
    const WINDOWS: usize = 64;
    let policy = FailurePolicy::quarantine(1);
    let spec = InjectionSpec::uniform(0.5);
    let mut reference = None;
    for (threads, seed_round) in [(1usize, 0), (2, 0), (8, 0), (8, 1)] {
        let mut obs = observatory(21, 2_000);
        let injector = Injector::new(spec, 77);
        let ft = capture(&mut obs, WINDOWS, threads, &policy, Some(&injector)).unwrap();
        assert!(ft.report.injected > 0, "50% rate over 64 windows");
        assert_eq!(
            ft.report.survivors + ft.report.quarantined,
            WINDOWS as u64,
            "every window is disposed exactly once (round {seed_round})"
        );
        match &reference {
            None => reference = Some(ft),
            Some(want) => {
                assert_eq!(ft.report, want.report, "threads = {threads}");
                assert_eq!(
                    ft.pooled.windows, want.pooled.windows,
                    "threads = {threads}"
                );
                for (i, ((_, got), (_, expect))) in ft
                    .pooled
                    .mean
                    .iter()
                    .zip(want.pooled.mean.iter())
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "mean bin {i} differs at {threads} threads"
                    );
                }
                for (i, (got, expect)) in ft
                    .pooled
                    .sigma
                    .iter()
                    .zip(want.pooled.sigma.iter())
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "sigma bin {i} differs at {threads} threads"
                    );
                }
                assert_eq!(ft.histogram, want.histogram, "threads = {threads}");
            }
        }
    }
}

#[test]
fn injected_count_matches_an_independent_plan_recount() {
    // With zero retries every window runs exactly one attempt, so the
    // report's injected counter must equal the number of windows whose
    // first-attempt plan is Some.
    const WINDOWS: usize = 32;
    let spec = InjectionSpec::uniform(0.4);
    let mut obs = observatory(5, 2_000);
    let injector = Injector::new(spec, 13);
    let ft = capture(
        &mut obs,
        WINDOWS,
        4,
        &FailurePolicy::quarantine(0),
        Some(&injector),
    )
    .unwrap();
    let recount = Injector::new(spec, 13);
    let expected = (0..WINDOWS as u64)
        .filter(|&t| recount.plan(t, 0).is_some())
        .count() as u64;
    assert_eq!(ft.report.injected, expected);
    // Each planted fault shows up as exactly one record, and nothing
    // else does.
    assert_eq!(ft.report.records.len() as u64, expected);
}

#[test]
fn substitute_policy_always_delivers_every_window() {
    const WINDOWS: usize = 16;
    let mut obs = observatory(9, 2_000);
    let injector = Injector::new(InjectionSpec::uniform(0.8), 3);
    let ft = capture(
        &mut obs,
        WINDOWS,
        4,
        &FailurePolicy::substitute(1),
        Some(&injector),
    )
    .unwrap();
    assert_eq!(ft.pooled.windows, WINDOWS as u64);
    assert_eq!(ft.report.survivors, WINDOWS as u64);
    assert_eq!(ft.report.quarantined, 0);
    assert!(
        ft.report.substituted > 0,
        "80% rate must force substitutions"
    );
    assert!(ft
        .report
        .records
        .iter()
        .all(|r| r.outcome != WindowOutcome::Quarantined));
}

#[test]
fn clean_checked_run_is_bit_identical_to_the_serial_fold() {
    const WINDOWS: usize = 12;
    let serial = {
        let obs = observatory(33, 3_000);
        let windows: Vec<PacketWindow> = (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect();
        Pipeline::pool(Measurement::UndirectedDegree, &windows)
    };
    let mut obs = observatory(33, 3_000);
    let ft = capture(&mut obs, WINDOWS, 8, &FailurePolicy::strict(), None).unwrap();
    assert!(ft.report.is_clean());
    assert_eq!(ft.pooled.windows, serial.windows);
    assert_eq!(ft.pooled.d_max, serial.d_max);
    for ((_, got), (_, want)) in ft.pooled.mean.iter().zip(serial.mean.iter()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    for (got, want) in ft.pooled.sigma.iter().zip(serial.sigma.iter()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
fn worker_panics_are_contained_and_classified() {
    const WINDOWS: usize = 6;
    let spec = InjectionSpec {
        panic: 1.0,
        ..InjectionSpec::none()
    };
    let mut obs = observatory(2, 2_000);
    let injector = Injector::new(spec, 1);
    let ft = capture(
        &mut obs,
        WINDOWS,
        3,
        &FailurePolicy::quarantine(0),
        Some(&injector),
    )
    .unwrap();
    assert_eq!(ft.report.quarantined, WINDOWS as u64);
    assert_eq!(ft.report.survivors, 0);
    assert!(ft
        .report
        .records
        .iter()
        .all(|r| r.kind == FaultKind::Panic && r.outcome == WindowOutcome::Quarantined));
    // An all-quarantined run still yields a well-formed (empty) pool.
    assert_eq!(ft.pooled.windows, 0);
}

#[test]
fn quarantine_threshold_boundary_is_inclusive() {
    // The overflow predicate compares the quarantined *fraction*
    // against the threshold: exactly-equal passes, only strictly-above
    // fails. The old formulation compared counts via
    // `threshold * windows`, and 0.3 * 10.0 rounds to
    // 2.9999999999999996 in binary, so a run with exactly 3 of 10
    // windows quarantined was spuriously rejected. Pin the fixed
    // boundary end to end through the pipeline.
    const WINDOWS: usize = 10;
    let spec = InjectionSpec {
        panic: 0.3,
        ..InjectionSpec::none()
    };
    // The injection plan is pure, so scan for a seed planting exactly
    // 3 faults across the 10 first attempts (zero retries ⇒ each one
    // quarantines its window).
    let seed = (0..10_000u64)
        .find(|&s| {
            let inj = Injector::new(spec, s);
            (0..WINDOWS as u64)
                .filter(|&t| inj.plan(t, 0).is_some())
                .count()
                == 3
        })
        .expect("some seed plants exactly 3 faults in 10 windows");

    let at_threshold = FailurePolicy {
        quarantine_threshold: 0.3,
        ..FailurePolicy::quarantine(0)
    };
    let mut obs = observatory(6, 2_000);
    let injector = Injector::new(spec, seed);
    let ft = capture(&mut obs, WINDOWS, 4, &at_threshold, Some(&injector))
        .expect("a quarantined fraction exactly at the threshold must pass");
    assert_eq!(ft.report.quarantined, 3);
    assert_eq!(ft.pooled.windows, 7);

    // One notch tighter and the same run is strictly above: refused.
    let below = FailurePolicy {
        quarantine_threshold: 0.2,
        ..at_threshold
    };
    let mut obs = observatory(6, 2_000);
    let injector = Injector::new(spec, seed);
    let err = capture(&mut obs, WINDOWS, 4, &below, Some(&injector)).unwrap_err();
    match err {
        PipelineError::QuarantineOverflow {
            quarantined,
            windows,
            threshold,
        } => {
            assert_eq!((quarantined, windows), (3, 10));
            assert_eq!(threshold, 0.2);
        }
        other => panic!("expected QuarantineOverflow, got {other:?}"),
    }
}

#[test]
fn duplicate_storm_faults_are_recounted_and_recovered_end_to_end() {
    // A duplicate-edge storm crushes every packet of a window onto one
    // conversation, which the pipeline detects as collapsed histogram
    // support. Drive the `dup` kind end to end: the report's injected
    // counter must equal an independent recount of executed faulted
    // attempts, and every storm window must be either retried back to
    // health or quarantined.
    const WINDOWS: usize = 24;
    const RETRIES: u32 = 2;
    let spec = InjectionSpec {
        duplicate: 0.6,
        ..InjectionSpec::none()
    };
    let mut obs = observatory(11, 2_000);
    let injector = Injector::new(spec, 41);
    let ft = capture(
        &mut obs,
        WINDOWS,
        4,
        &FailurePolicy::quarantine(RETRIES),
        Some(&injector),
    )
    .unwrap();

    // Replay the pure injection plan: attempts run until the first
    // clean one (which succeeds — dup is the only fault in play) or
    // the retry budget is spent.
    let recount = Injector::new(spec, 41);
    let (mut injected, mut recovered, mut quarantined) = (0u64, 0u64, 0u64);
    for t in 0..WINDOWS as u64 {
        let mut clean_at = None;
        for k in 0..=RETRIES {
            if recount.plan(t, k).is_some() {
                injected += 1;
            } else {
                clean_at = Some(k);
                break;
            }
        }
        match clean_at {
            Some(0) => {}
            Some(_) => recovered += 1,
            None => quarantined += 1,
        }
    }
    assert!(
        recovered > 0 && quarantined > 0,
        "seed must exercise both recovery outcomes \
         (recovered {recovered}, quarantined {quarantined})"
    );
    assert_eq!(ft.report.injected, injected);
    assert_eq!(ft.report.quarantined, quarantined);
    assert_eq!(ft.report.survivors, WINDOWS as u64 - quarantined);
    assert_eq!(ft.report.records.len() as u64, recovered + quarantined);
    for r in &ft.report.records {
        assert_eq!(r.kind, FaultKind::Degenerate, "window {}", r.window);
        assert!(matches!(
            r.outcome,
            WindowOutcome::Recovered | WindowOutcome::Quarantined
        ));
    }
    let got_recovered = ft
        .report
        .records
        .iter()
        .filter(|r| r.outcome == WindowOutcome::Recovered)
        .count() as u64;
    assert_eq!(got_recovered, recovered);
}
