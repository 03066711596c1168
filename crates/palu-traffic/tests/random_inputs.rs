//! Randomized-input fallback for the gated proptest suite
//! (`tests/proptest_traffic.rs`): the same invariants, driven by the
//! in-repo deterministic RNG so they run in the offline build.

use palu_sparse::{DegreeScratch, NetworkQuantity};
use palu_stats::rng::{Rng, Xoshiro256pp};
use palu_traffic::packets::Packet;
use palu_traffic::pipeline::{Measurement, Pipeline};
use palu_traffic::stream::WindowStream;
use palu_traffic::window::PacketWindow;

const CASES: usize = 100;

/// Random packet stream over a bounded host space.
fn packets(rng: &mut Xoshiro256pp) -> Vec<Packet> {
    let len = rng.gen_range(1usize..600);
    (0..len)
        .map(|_| Packet {
            src: rng.gen_range(0u32..48),
            dst: rng.gen_range(0u32..48),
        })
        .collect()
}

#[test]
fn window_conservation_laws() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x7001);
    for _ in 0..CASES {
        let ps = packets(&mut rng);
        let w = PacketWindow::from_packets(0, &ps);
        let agg = w.aggregates();
        assert_eq!(agg.valid_packets, ps.len() as u64);
        let q = w.quantities();
        assert_eq!(q.source_packets.degree_sum(), agg.valid_packets);
        assert_eq!(q.destination_packets.degree_sum(), agg.valid_packets);
        assert_eq!(q.source_fan_out.degree_sum(), agg.unique_links);
        assert_eq!(q.destination_fan_in.degree_sum(), agg.unique_links);
        assert_eq!(
            w.node_volume_histogram().degree_sum(),
            2 * agg.valid_packets
        );
        assert!(w.undirected_degree_histogram().degree_sum() <= 2 * agg.unique_links);
    }
}

#[test]
fn streaming_segmentation_is_exact() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x7002);
    for _ in 0..CASES {
        let ps = packets(&mut rng);
        let n_v = rng.gen_range(1usize..100);
        let windows: Vec<_> = WindowStream::new(ps.iter().copied(), n_v).collect();
        assert_eq!(windows.len(), ps.len() / n_v);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.t(), i as u64);
            assert_eq!(w.n_v(), n_v as u64);
            let reference = PacketWindow::from_packets(i as u64, &ps[i * n_v..(i + 1) * n_v]);
            assert_eq!(w.matrix(), reference.matrix());
        }
    }
}

#[test]
fn pooled_mass_conserved_over_any_windows() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x7003);
    for _ in 0..CASES {
        let ps = packets(&mut rng);
        let n_v = rng.gen_range(5usize..60);
        if ps.len() < n_v {
            continue;
        }
        let windows: Vec<_> = WindowStream::new(ps.iter().copied(), n_v).collect();
        if windows.is_empty() {
            continue;
        }
        for m in [Measurement::UndirectedDegree, Measurement::NodeVolume] {
            let pooled = Pipeline::pool(m, &windows);
            assert!((pooled.mean.total_mass() - 1.0).abs() < 1e-9);
            assert_eq!(pooled.windows, windows.len() as u64);
            assert!(pooled.sigma.iter().all(|&s| s >= 0.0));
        }
    }
}

#[test]
fn compaction_preserves_all_statistics() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x7004);
    for _ in 0..CASES {
        let ps = packets(&mut rng);
        let offset = rng.gen_range(1u32..1_000_000);
        let shifted: Vec<Packet> = ps
            .iter()
            .map(|p| Packet {
                src: p.src * 7919 + offset,
                dst: p.dst * 7919 + offset,
            })
            .collect();
        let dense = PacketWindow::from_packets(0, &ps);
        let compact = PacketWindow::from_packets_compacted(0, &shifted).unwrap();
        assert_eq!(dense.aggregates(), compact.aggregates());
        assert_eq!(
            dense.undirected_degree_histogram(),
            compact.undirected_degree_histogram()
        );
        assert_eq!(
            dense.node_volume_histogram(),
            compact.node_volume_histogram()
        );
        assert_eq!(
            dense.quantities().link_packets,
            compact.quantities().link_packets
        );
    }
}

/// A shuffled window of exactly `distinct` distinct undirected edges,
/// each sent 1–3 times in a random direction.
fn distinct_edges(rng: &mut Xoshiro256pp, distinct: usize) -> Vec<Packet> {
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < distinct {
        let (a, b) = (rng.gen_range(0u32..3_000), rng.gen_range(0u32..3_000));
        edges.insert((a.min(b), a.max(b)));
    }
    let mut ps = Vec::new();
    for (a, b) in edges {
        for _ in 0..rng.gen_range(1usize..4) {
            let (src, dst) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            ps.push(Packet { src, dst });
        }
    }
    for i in (1..ps.len()).rev() {
        ps.swap(i, rng.gen_range(0..i + 1));
    }
    ps
}

/// The packet-level kernel equals the CSR path on every measurement,
/// on one scratch reused across windows of different sizes and
/// address spaces.
#[test]
fn packet_kernel_equals_the_csr_path() {
    let mut measurements = vec![Measurement::UndirectedDegree, Measurement::NodeVolume];
    measurements.extend(NetworkQuantity::ALL.map(Measurement::Quantity));
    let mut rng = Xoshiro256pp::seed_from_u64(0x7005);
    let mut inputs: Vec<Vec<Packet>> = vec![
        Vec::new(),
        vec![Packet { src: 3, dst: 3 }],
        vec![Packet { src: 5, dst: 9 }; 40],
    ];
    for case in 0..CASES {
        let mut ps = packets(&mut rng);
        // Every third case spreads ids up to ~10^5 (both paths size a
        // dense array to the largest id); the others keep the small
        // space, where self-loops are common.
        if case % 3 == 0 {
            let offset = rng.gen_range(0u32..5_000);
            for p in &mut ps {
                p.src = p.src * 2_003 + offset;
                p.dst = p.dst * 2_003 + offset;
            }
        }
        // A run of identical packets inside a random window.
        let at = rng.gen_range(0..ps.len());
        let repeat = ps[at];
        ps.splice(at..at, std::iter::repeat_n(repeat, 7));
        inputs.push(ps);
    }
    // The undirected keying's edge table starts at 1024 slots and
    // doubles once its distinct keys pass half of them: windows whose
    // distinct-edge counts land just below, at and above the first
    // growth boundaries, with 1–3 packets per edge.
    for boundary in [512, 1_024, 2_048, 4_096] {
        for distinct in [boundary - 1, boundary, boundary + 1] {
            inputs.push(distinct_edges(&mut rng, distinct));
        }
    }
    let mut scratch = DegreeScratch::new();
    for ps in &inputs {
        let w = PacketWindow::from_packets(0, ps);
        for m in &measurements {
            assert_eq!(
                m.histogram_of_packets(ps, &mut scratch),
                m.histogram(&w),
                "{m:?} over {} packets",
                ps.len()
            );
        }
    }
}
