//! Tier-1 contract for the sharded multi-window pipeline.
//!
//! Two guarantees the rest of the suite leans on:
//!
//! 1. **Determinism** — the capture engine
//!    (`Pipeline::pool_observatory_durable`) is bit-identical to the serial fold for any thread count, because
//!    per-window RNG streams are derived splittably by window index
//!    and single-window shards merge in window order through the
//!    `Welford::merge` n = 1 fast path (a literal replay of the
//!    serial push sequence).
//! 2. **Weights regression** — `PooledDistribution::weights` returns
//!    uniform 1.0 in the degenerate all-σ-zero case (e.g. a single
//!    window), so the weighted ZM fit coincides with the unweighted
//!    one instead of dividing by zero; with several windows the
//!    inverse-variance weighting is preserved.

use palu_sparse::{Conversations, NetworkQuantity};
use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::{Measurement, PooledDistribution};
use palu_traffic::FailurePolicy;

fn observatory(seed: u64, n_v: u64) -> Observatory {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(30_000)
        .unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "parallel-pipeline test".to_string(),
            date: String::new(),
            n_v,
        },
        &gen,
        EdgeIntensity::Uniform,
        seed,
    )
}

/// Pool `n` windows of `obs` on `threads` workers: a clean capture.
fn pool(
    obs: &mut Observatory,
    n: usize,
    threads: usize,
    metrics: Option<&Metrics>,
) -> PooledDistribution {
    pool_measurement(Measurement::UndirectedDegree, obs, n, threads, metrics)
}

/// [`pool`] for any measurement.
fn pool_measurement(
    measurement: Measurement,
    obs: &mut Observatory,
    n: usize,
    threads: usize,
    metrics: Option<&Metrics>,
) -> PooledDistribution {
    Pipeline::pool_observatory_durable(
        measurement,
        obs,
        n,
        threads,
        metrics,
        &FailurePolicy::strict(),
        None,
        None,
        None,
    )
    .expect("clean capture")
    .pooled
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial_at_1_2_8_threads() {
    const WINDOWS: usize = 64;
    let serial = {
        let obs = observatory(42, 5_000);
        let windows: Vec<PacketWindow> = (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect();
        Pipeline::pool(Measurement::UndirectedDegree, &windows)
    };
    // Odd thread counts exercise non-dividing work splits; 96 > 64
    // windows exercises the oversubscribed queue (idle workers must
    // exit cleanly without claiming anything).
    for threads in [1usize, 2, 3, 5, 7, 8, 96] {
        let mut obs = observatory(42, 5_000);
        let parallel = pool(&mut obs, WINDOWS, threads, None);
        assert_bitwise_equal(&parallel, &serial, &format!("threads = {threads}"));
    }
}

/// Every other window in this file is sparse on the test network
/// (`N_V < E′` distinct edges), so its mark pass lists first marks. A
/// dense window marks each packet's edge from its conversation's repeat
/// bit instead, and the engine must pool it bit for bit as the serial
/// fold of CSR windows does.
#[test]
fn dense_windows_are_bit_identical_to_serial_at_1_2_8_threads() {
    const WINDOWS: usize = 8;
    const N_V: u64 = 60_000;
    let serial = {
        let obs = observatory(5, N_V);
        let edges = obs.synthesizer().n_edges();
        assert!(N_V >= edges as u64, "N_V {N_V} < E′ {edges}: sparse");
        let windows: Vec<PacketWindow> = (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect();
        Pipeline::pool(Measurement::UndirectedDegree, &windows)
    };
    for threads in [1usize, 2, 8] {
        let mut obs = observatory(5, N_V);
        let parallel = pool(&mut obs, WINDOWS, threads, None);
        assert_bitwise_equal(&parallel, &serial, &format!("threads = {threads}"));
    }
}

/// Window count, `d_max`, and every mean and sigma bin compared by bits.
fn assert_bitwise_equal(got: &PooledDistribution, want: &PooledDistribution, what: &str) {
    assert_eq!(got.windows, want.windows, "{what}");
    assert_eq!(got.d_max, want.d_max, "{what}");
    assert_eq!(got.mean.n_bins(), want.mean.n_bins(), "{what}");
    assert_eq!(got.sigma.len(), want.sigma.len(), "{what}");
    for (i, ((_, g), (_, w))) in got.mean.iter().zip(want.mean.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "mean bin {i} differs, {what}");
    }
    for (i, (g, w)) in got.sigma.iter().zip(want.sigma.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "sigma bin {i} differs, {what}");
    }
}

/// The engine pools each window through the fused window kernel; the
/// serial reference pools CSR windows. They must agree bit for bit on
/// all seven measurements.
#[test]
fn engine_equals_the_csr_reference_for_every_measurement() {
    const WINDOWS: usize = 12;
    let windows: Vec<PacketWindow> = {
        let obs = observatory(21, 4_000);
        (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect()
    };
    let mut measurements = vec![Measurement::UndirectedDegree, Measurement::NodeVolume];
    measurements.extend(NetworkQuantity::ALL.map(Measurement::Quantity));
    for m in measurements {
        let serial = Pipeline::pool(m, &windows);
        for threads in [1usize, 2, 8] {
            let mut obs = observatory(21, 4_000);
            let parallel = pool_measurement(m, &mut obs, WINDOWS, threads, None);
            assert_bitwise_equal(&parallel, &serial, &format!("{m:?} at {threads} threads"));
        }
    }
}

/// Node volumes and source packets pass the window kernel's by-value
/// cutoff of 1024 on busy nodes, so their histograms merge by-value
/// counts with a sorted list of large degrees. Each window's
/// packet-level histogram must equal one computed from the window
/// matrix's row and column sums, and the engine must pool them bit for
/// bit as a serial fold of the packet-level kernel does.
#[test]
fn large_degree_measurements_are_bit_identical_to_serial_at_1_2_8_threads() {
    const WINDOWS: u64 = 16;
    const N_V: u64 = 20_000;
    for m in [
        Measurement::NodeVolume,
        Measurement::Quantity(NetworkQuantity::SourcePackets),
    ] {
        let serial = {
            let obs = observatory(7, N_V);
            let mut scratch = palu_sparse::scratch::DegreeScratch::new();
            let mut p = Pipeline::new(m);
            for t in 0..WINDOWS {
                let packets = obs.packets_at(t).expect("clean window");
                let h = m.histogram_of_packets(&packets, &mut scratch);
                assert_eq!(h, sums_histogram(m, &obs.window_at(t)), "{m:?}, window {t}");
                p.push_binned(&DifferentialCumulative::from_histogram(&h), h.d_max());
            }
            p.finish()
        };
        assert!(serial.d_max > 1024, "{m:?}: d_max {}", serial.d_max);
        for threads in [1usize, 2, 8] {
            let mut obs = observatory(7, N_V);
            let parallel = pool_measurement(m, &mut obs, WINDOWS as usize, threads, None);
            assert_bitwise_equal(&parallel, &serial, &format!("{m:?} at {threads} threads"));
        }
    }
}

/// Node volume (row plus column sums) or a Figure 1 quantity of `w`,
/// computed from the matrix alone.
fn sums_histogram(m: Measurement, w: &PacketWindow) -> DegreeHistogram {
    let a = w.matrix();
    match m {
        Measurement::Quantity(q) => q.histogram(a),
        _ => {
            let (sent, received) = (a.row_sums(), a.col_sums());
            let n = sent.len().max(received.len());
            let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
            let volumes = (0..n).map(|i| at(&sent, i) + at(&received, i));
            DegreeHistogram::from_degrees(volumes.filter(|&v| v > 0))
        }
    }
}

#[test]
fn metrics_snapshot_counts_the_parallel_workload() {
    let metrics = Metrics::new();
    let mut obs = observatory(7, 2_000);
    let pooled = pool(&mut obs, 8, 2, Some(&metrics));
    assert_eq!(pooled.windows, 8);
    let snap: MetricsSnapshot = metrics.snapshot();
    assert_eq!(snap.windows, 8);
    assert_eq!(snap.packets, 8 * 2_000);
    assert_eq!(snap.threads, 2);
    // The fused kernel's mark pass reports as synthesize and its count
    // pass as histogram; no window is assembled. Only the merge runs on
    // the main thread and may be too fast to register on a coarse clock.
    assert!(snap.synthesize_ns > 0);
    assert_eq!(snap.window_ns, 0);
    assert!(snap.histogram_ns > 0);
}

#[test]
fn single_window_weighted_fit_coincides_with_unweighted() {
    // One window ⇒ every σ is 0 ⇒ the old inverse-variance weights
    // were all-infinite/NaN. The regression contract: weights are
    // uniform 1.0 and the weighted ZM fit equals the plain
    // least-squares fit on the same observation.
    let mut obs = observatory(11, 20_000);
    let pooled = pool(&mut obs, 1, 1, None);
    let w = pooled.weights(100.0);
    assert!(!w.is_empty());
    assert!(w.iter().all(|&x| x == 1.0), "weights {w:?}");

    let weighted = ZmFitter::with_objective(FitObjective::WeightedLeastSquares)
        .fit(&pooled.mean, Some(&w))
        .unwrap();
    let plain = ZmFitter::with_objective(FitObjective::LeastSquares)
        .fit(&pooled.mean, None)
        .unwrap();
    assert_eq!(weighted.alpha.to_bits(), plain.alpha.to_bits());
    assert_eq!(weighted.delta.to_bits(), plain.delta.to_bits());
    assert_eq!(weighted.objective.to_bits(), plain.objective.to_bits());
}

#[test]
fn multi_window_weights_remain_inverse_variance() {
    // With several windows the σ's vary and the weights must still be
    // 1/σ² (capped at the constant-bin default), i.e. *not* flattened
    // by the degenerate-case guard.
    let mut obs = observatory(13, 5_000);
    let pooled = pool(&mut obs, 12, 4, None);
    let w = pooled.weights(100.0);
    let varying: Vec<(usize, f64)> = pooled
        .sigma
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s > 0.0)
        .map(|(i, &s)| (i, s))
        .collect();
    assert!(
        varying.len() >= 2,
        "fixture should produce varying bins, got σ = {:?}",
        pooled.sigma
    );
    for (i, s) in varying {
        let expected = 1.0 / (s * s);
        assert!(
            (w[i] - expected).abs() <= 1e-12 * expected,
            "bin {i}: weight {} vs 1/σ² {expected}",
            w[i]
        );
    }
    // And a multi-window pool is genuinely different from uniform.
    assert!(w.iter().any(|&x| x != 1.0));
}

// A deliberately serial reference for the determinism test above:
// pooling via the one-window-at-a-time streaming API must agree with
// both, closing the loop between the three pooling entry points.
#[test]
fn streaming_pool_agrees_with_parallel_pool() {
    const WINDOWS: usize = 16;
    let obs = observatory(99, 3_000);
    let packets: Vec<palu_traffic::packets::Packet> = (0..WINDOWS as u64)
        .flat_map(|t| obs.packets_at(t).unwrap())
        .collect();
    let streamed = palu_traffic::stream::StreamStats::new(Measurement::UndirectedDegree)
        .consume(packets.into_iter(), 3_000);
    let mut obs2 = observatory(99, 3_000);
    let parallel = pool(&mut obs2, WINDOWS, 8, None);
    assert_eq!(streamed.mean, parallel.mean);
    assert_eq!(streamed.sigma, parallel.sigma);
    assert_eq!(streamed.d_max, parallel.d_max);
}
