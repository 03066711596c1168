//! Streaming window segmentation.
//!
//! Real observatories never hold a capture in memory: packets arrive
//! as an unbounded stream and are cut into fixed-`N_V` windows on the
//! fly ("at a given time t, N_V consecutive valid packets are
//! aggregated", Section II). [`WindowStream`] adapts any packet
//! iterator into an iterator of [`PacketWindow`]s with O(`N_V`)
//! memory, and [`StreamStats`] folds windows directly into pooled
//! statistics so arbitrarily long captures process in constant space.

use crate::metrics::{time_stage, Metrics, Stage};
use crate::packets::Packet;
use crate::pipeline::{Measurement, Pipeline, PooledDistribution};
use crate::window::PacketWindow;
use palu_sparse::DegreeScratch;
use palu_stats::logbin::DifferentialCumulative;

/// Iterator adapter: cuts a packet stream into consecutive
/// fixed-`N_V` windows. A trailing partial window (fewer than `N_V`
/// packets at stream end) is *discarded*, matching the paper's
/// same-`N_V` methodology.
pub struct WindowStream<I> {
    packets: I,
    n_v: usize,
    next_t: u64,
    buffer: Vec<Packet>,
}

impl<I: Iterator<Item = Packet>> WindowStream<I> {
    /// Wrap a packet iterator with window size `n_v ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_v == 0`.
    pub fn new(packets: I, n_v: usize) -> Self {
        assert!(n_v > 0, "window size must be positive");
        WindowStream {
            packets,
            n_v,
            next_t: 0,
            buffer: Vec::with_capacity(palu_sparse::admitted_capacity(n_v)),
        }
    }
}

impl<I: Iterator<Item = Packet>> Iterator for WindowStream<I> {
    type Item = PacketWindow;

    fn next(&mut self) -> Option<PacketWindow> {
        self.buffer.clear();
        for p in self.packets.by_ref() {
            self.buffer.push(p);
            if self.buffer.len() == self.n_v {
                let t = self.next_t;
                self.next_t += 1;
                return Some(PacketWindow::from_packets(t, &self.buffer));
            }
        }
        None // stream ended mid-window: discard the partial window
    }
}

/// Constant-space pooled statistics over a packet stream: the full
/// Section II pipeline (window → pool → mean/σ) without ever holding
/// more than one window. Each window's `N_V` packets go through the
/// packet-level kernel ([`Measurement::histogram_of_packets`]), so no
/// window matrix is built; the pooled result equals pooling the
/// [`WindowStream`] windows.
pub struct StreamStats {
    pipeline: Pipeline,
}

impl StreamStats {
    /// Create for one measurement.
    pub fn new(measurement: Measurement) -> Self {
        StreamStats {
            pipeline: Pipeline::new(measurement),
        }
    }

    /// Consume a packet stream, pooling every complete window.
    /// Returns the pooled `D(d_i) ± σ(d_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_v == 0`.
    pub fn consume<I: Iterator<Item = Packet>>(self, packets: I, n_v: usize) -> PooledDistribution {
        self.fold(packets, n_v, None)
    }

    /// [`StreamStats::consume`] with per-stage instrumentation: window
    /// assembly (cutting the stream and keying the window's edge set),
    /// histogram counting, binning, and merge wall-times plus
    /// packet/window counters accumulate into `metrics`. (The
    /// synthesize stage belongs to the caller's packet iterator and is
    /// folded into the window-assembly time here.) The pooled result
    /// is identical to the uninstrumented path.
    pub fn consume_with_metrics<I: Iterator<Item = Packet>>(
        self,
        packets: I,
        n_v: usize,
        metrics: &Metrics,
    ) -> PooledDistribution {
        metrics.set_threads(1);
        self.fold(packets, n_v, Some(metrics))
    }

    /// Cut `packets` into `n_v`-packet buffers, discarding a trailing
    /// partial window, and pool each through the packet-level kernel.
    fn fold<I: Iterator<Item = Packet>>(
        mut self,
        mut packets: I,
        n_v: usize,
        metrics: Option<&Metrics>,
    ) -> PooledDistribution {
        assert!(n_v > 0, "window size must be positive");
        let measurement = self.pipeline.measurement();
        let mut buffer = Vec::with_capacity(palu_sparse::admitted_capacity(n_v));
        let mut scratch = DegreeScratch::new();
        loop {
            let full = time_stage(metrics, Stage::Window, || {
                buffer.clear();
                buffer.extend(packets.by_ref().take(n_v));
                buffer.len() == n_v
            });
            if !full {
                break;
            }
            if let Some(m) = metrics {
                m.add_windows(1);
                m.add_packets(n_v as u64);
            }
            let h = measurement.histogram_of_packets_timed(&buffer, &mut scratch, metrics);
            let binned = time_stage(metrics, Stage::Bin, || {
                DifferentialCumulative::from_histogram(&h)
            });
            time_stage(metrics, Stage::Merge, || {
                self.pipeline.push_binned(&binned, h.d_max())
            });
        }
        self.pipeline.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::{EdgeIntensity, PacketSynthesizer};
    use palu_graph::palu_gen::PaluGenerator;
    use palu_stats::rng::Xoshiro256pp;

    fn synthetic_packets(n: usize, seed: u64) -> Vec<Packet> {
        let net = PaluGenerator::new(2_000, 500, 300, 2.0, 1.5)
            .unwrap()
            .generate(&mut Xoshiro256pp::seed_from_u64(seed));
        let mut rng = Xoshiro256pp::seed_from_u64(seed + 1);
        let syn = PacketSynthesizer::new(&net.graph, EdgeIntensity::Uniform, &mut rng);
        syn.draw_many(&mut rng, n).unwrap()
    }

    #[test]
    fn windows_are_exact_and_consecutive() {
        let packets = synthetic_packets(10_500, 1);
        let windows: Vec<_> = WindowStream::new(packets.iter().copied(), 2_000).collect();
        // 10500 / 2000 = 5 complete windows; the 500-packet remnant is
        // discarded.
        assert_eq!(windows.len(), 5);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.t(), i as u64);
            assert_eq!(w.n_v(), 2_000);
        }
    }

    #[test]
    fn streaming_matches_batch_segmentation() {
        let packets = synthetic_packets(8_000, 2);
        let streamed: Vec<_> = WindowStream::new(packets.iter().copied(), 2_000).collect();
        for (i, w) in streamed.iter().enumerate() {
            let batch = PacketWindow::from_packets(i as u64, &packets[i * 2000..(i + 1) * 2000]);
            assert_eq!(w.matrix(), batch.matrix(), "window {i}");
        }
    }

    #[test]
    fn empty_and_short_streams() {
        let none: Vec<_> = WindowStream::new(std::iter::empty(), 100).collect();
        assert!(none.is_empty());
        let short = synthetic_packets(99, 3);
        let none: Vec<_> = WindowStream::new(short.into_iter(), 100).collect();
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_size_panics() {
        let _ = WindowStream::new(std::iter::empty(), 0);
    }

    #[test]
    fn stream_stats_equals_batch_pipeline() {
        let packets = synthetic_packets(12_000, 4);
        let pooled_stream =
            StreamStats::new(Measurement::UndirectedDegree).consume(packets.iter().copied(), 3_000);
        // Batch reference.
        let windows: Vec<_> = packets
            .chunks_exact(3_000)
            .enumerate()
            .map(|(i, chunk)| PacketWindow::from_packets(i as u64, chunk))
            .collect();
        let pooled_batch = Pipeline::pool(Measurement::UndirectedDegree, &windows);
        assert_eq!(pooled_stream.mean, pooled_batch.mean);
        assert_eq!(pooled_stream.sigma, pooled_batch.sigma);
        assert_eq!(pooled_stream.windows, 4);
    }

    #[test]
    fn instrumented_consume_matches_plain_consume() {
        let packets = synthetic_packets(9_000, 5);
        let plain =
            StreamStats::new(Measurement::UndirectedDegree).consume(packets.iter().copied(), 3_000);
        let metrics = Metrics::new();
        let timed = StreamStats::new(Measurement::UndirectedDegree).consume_with_metrics(
            packets.iter().copied(),
            3_000,
            &metrics,
        );
        assert_eq!(plain.mean, timed.mean);
        assert_eq!(plain.sigma, timed.sigma);
        assert_eq!(plain.d_max, timed.d_max);
        let snap = metrics.snapshot();
        assert_eq!(snap.windows, 3);
        assert_eq!(snap.packets, 9_000);
        assert_eq!(snap.threads, 1);
        assert!(snap.window_ns > 0);
    }
}
