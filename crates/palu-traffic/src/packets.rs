//! Packet synthesis from an underlying network.
//!
//! Each edge of the underlying network is a *conversation*: a pair of
//! hosts that in general "feel like talking" (Section I). A packet is
//! one observed datagram on one conversation, in one direction. The
//! synthesizer draws packets by sampling conversations from an
//! intensity distribution; a window of `N_V` packets then contains a
//! conversation with probability `1 − (1 − w_e)^{N_V}` — which is how
//! the model's abstract edge-retention probability `p` emerges from a
//! concrete packet budget.
//!
//! **Cost per draw.** A packet costs two RNG outputs, one resolution
//! of the uniform `x ∈ [0, total]` to a conversation index, and one
//! gather from the conversation array. Every resolution returns
//! exactly `cumulative.partition_point(|&c| c < x).min(E − 1)` over
//! the cumulative intensity table, so the packets are the same byte
//! for byte as a binary search's.
//!
//! - Under uniform intensity that table is `1, 2, …, E`, and the
//!   index is `⌈x⌉ − 1` (0 at `x = 0`), computed in closed form with
//!   no table and no load.
//! - Under weighted intensity the lookup is Chen & Asau's (1974)
//!   indexed search: a guide table of one `u32` per conversation maps
//!   the uniform's bucket `⌊x · E / total⌋` to a start from which a
//!   short forward scan finds the conversation — O(1) expected steps
//!   and cache misses for any intensity, against the `log₂ E`
//!   dependent probes of a binary search.
//!
//! [`PacketSynthesizer::draw_many_into`] batches its draws in blocks
//! whose resolutions and conversation gathers each run as one pass of
//! independent loads, so their cache misses overlap. Measured on a
//! shared 2-vCPU x86-64 host, one thread, 225k conversations: 12–23 ns
//! per packet under uniform intensity in closed form, against 22–58 ns
//! through a guide table over the same uniform table, 36–67 ns under
//! Pareto(1.5) intensity, and 125–170 ns for the binary search.

use crate::fault::WindowFault;
use palu_graph::graph::Graph;
use palu_stats::rng::Rng;

/// One observed packet: a directed source → destination datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source host id.
    pub src: u32,
    /// Destination host id.
    pub dst: u32,
}

/// Per-conversation traffic intensity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeIntensity {
    /// Every conversation equally likely per packet. The cleanest
    /// realization of the paper's unweighted model.
    Uniform,
    /// Heavy-tailed per-conversation rates: `w_e ∝ Pareto(shape)`.
    /// Produces the heavy-tailed *link packets* distribution of
    /// Figure 1 (per-link packet counts are themselves power-law in
    /// real traffic).
    Pareto {
        /// Pareto shape (smaller = heavier tail); must be > 0.
        shape: f64,
    },
}

/// Packets per block in [`PacketSynthesizer::draw_many_into`]: the
/// draws of one block run phase by phase (uniforms, resolutions,
/// gathers) so each phase's independent loads overlap their cache
/// misses. The block lives in stack arrays.
/// `tests/packet_bytes.rs` checks `draw_many_into` against a `draw`
/// loop for every `n ≤ 300`, which covers the block edges while
/// `3 · BLOCK + 7 ≤ 300`.
const BLOCK: usize = 64;

/// Draws packets from a network's conversations.
#[derive(Debug, Clone)]
pub struct PacketSynthesizer {
    /// Conversation endpoints (one per underlying edge).
    conversations: Vec<(u32, u32)>,
    /// How a uniform `x ∈ [0, total]` resolves to a conversation.
    lookup: Lookup,
    /// Total intensity: the last cumulative value, `E` under uniform
    /// intensity (0 only for an empty test synthesizer).
    total: f64,
    intensity: EdgeIntensity,
}

/// The conversation lookup, fixed by the [`EdgeIntensity`] at
/// construction.
#[derive(Debug, Clone)]
enum Lookup {
    /// Uniform intensity: the cumulative table would be `1, 2, …, E`,
    /// so [`uniform_index`] resolves `x` in closed form. No
    /// per-conversation table.
    Uniform,
    /// Weighted intensity: the cumulative table and its guide.
    Weighted(GuideTable),
}

/// Chen–Asau indexed search over a cumulative intensity table.
#[derive(Debug, Clone)]
struct GuideTable {
    /// Cumulative intensity table (non-decreasing; empty only in
    /// tests).
    cumulative: Vec<f64>,
    /// `guide[j]` is the first `i` with `bucket(cumulative[i]) ≥ j`,
    /// one entry per conversation.
    guide: Vec<u32>,
    /// Bucket scale `s = E / total`, shared by build and lookup.
    scale: f64,
}

impl PacketSynthesizer {
    /// Build a synthesizer over `g`'s edges.
    ///
    /// For [`EdgeIntensity::Pareto`], per-edge weights are drawn once
    /// here (they are a property of the underlying network, constant
    /// across windows — the paper's premise that the underlying network
    /// is fixed while windows vary). [`EdgeIntensity::Uniform`] draws
    /// nothing and builds no table.
    ///
    /// # Panics
    ///
    /// Panics if `g` has no edges (no traffic to synthesize), has more
    /// than `u32::MAX` edges (the guide table indexes conversations
    /// with `u32`, and the uniform total `E` must be an exact `f64`),
    /// or the Pareto shape is not positive.
    pub fn new<R: Rng + ?Sized>(g: &Graph, intensity: EdgeIntensity, rng: &mut R) -> Self {
        assert!(
            g.n_edges() > 0,
            "cannot synthesize traffic from an edgeless network"
        );
        assert!(
            u32::try_from(g.n_edges()).is_ok(),
            "more conversations than the guide table can index"
        );
        let conversations: Vec<(u32, u32)> = g.edges().to_vec();
        let e = conversations.len();
        match intensity {
            EdgeIntensity::Uniform => PacketSynthesizer {
                total: e as f64,
                conversations,
                lookup: Lookup::Uniform,
                intensity,
            },
            EdgeIntensity::Pareto { shape } => {
                assert!(shape > 0.0, "Pareto shape must be positive");
                let mut cumulative = Vec::with_capacity(palu_sparse::admitted_capacity(e));
                let mut acc = 0.0;
                cumulative.extend((0..e).map(|_| {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    acc += u.powf(-1.0 / shape); // Pareto(scale=1, shape)
                    acc
                }));
                Self::from_cumulative(conversations, cumulative, intensity)
            }
        }
    }

    /// A weighted synthesizer: build the guide table over `cumulative`
    /// (non-decreasing; empty only in tests) in one forward pass.
    fn from_cumulative(
        conversations: Vec<(u32, u32)>,
        cumulative: Vec<f64>,
        intensity: EdgeIntensity,
    ) -> Self {
        let e = cumulative.len();
        let last = e.saturating_sub(1);
        let total = cumulative.last().copied().unwrap_or(0.0);
        let scale = e as f64 / total;
        let mut i = 0;
        let guide = (0..e)
            .map(|j| {
                while i < last
                    && cumulative
                        .get(i)
                        .is_some_and(|&c| bucket(c, scale, last) < j)
                {
                    i += 1;
                }
                i as u32
            })
            .collect();
        PacketSynthesizer {
            conversations,
            lookup: Lookup::Weighted(GuideTable {
                cumulative,
                guide,
                scale,
            }),
            total,
            intensity,
        }
    }

    /// Number of conversations (underlying edges).
    pub fn n_conversations(&self) -> usize {
        self.conversations.len()
    }

    /// The intensity model in use.
    pub fn intensity(&self) -> EdgeIntensity {
        self.intensity
    }

    /// The conversation a uniform `x ∈ [0, total]` selects: exactly
    /// `cumulative.partition_point(|&c| c < x).min(E − 1)`.
    // lint:hot
    fn pick(&self, x: f64) -> usize {
        match &self.lookup {
            Lookup::Uniform => uniform_index(x),
            Lookup::Weighted(table) => table.pick(x),
        }
    }

    /// [`PacketSynthesizer::pick`] over the first `len` entries of a
    /// block: `idx[k]` becomes the conversation `xs[k]` selects. The
    /// guide table runs its starts and its scans as two passes.
    // lint:hot
    fn resolve(&self, xs: &[f64; BLOCK], idx: &mut [usize; BLOCK], len: usize) {
        match &self.lookup {
            Lookup::Uniform => {
                for (i, &x) in idx.iter_mut().zip(xs).take(len) {
                    *i = uniform_index(x);
                }
            }
            Lookup::Weighted(table) => {
                for (i, &x) in idx.iter_mut().zip(xs).take(len) {
                    *i = table.start(x);
                }
                for (i, &x) in idx.iter_mut().zip(xs).take(len) {
                    *i = table.scan(*i, x);
                }
            }
        }
    }

    /// The packet conversation `idx` yields, oriented by `forward`.
    fn packet(&self, idx: usize, forward: bool) -> Result<Packet, WindowFault> {
        let &(u, v) = self
            .conversations
            .get(idx)
            .ok_or(WindowFault::EmptySynthesizer)?;
        Ok(if forward {
            Packet { src: u, dst: v }
        } else {
            Packet { src: v, dst: u }
        })
    }

    /// Draw one packet: pick a conversation by intensity, orient it
    /// uniformly (internet links carry traffic both ways; the paper's
    /// model is undirected so direction is symmetric noise).
    ///
    /// # Errors
    ///
    /// [`WindowFault::EmptySynthesizer`] when there are no
    /// conversations to draw from — a typed fault the pipeline's
    /// quarantine machinery can classify, rather than a panic.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Packet, WindowFault> {
        if self.conversations.is_empty() {
            return Err(WindowFault::EmptySynthesizer);
        }
        let x = rng.gen::<f64>() * self.total;
        let idx = self.pick(x);
        self.packet(idx, rng.gen::<bool>())
    }

    /// Draw `n` packets into a vector.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    pub fn draw_many<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
    ) -> Result<Vec<Packet>, WindowFault> {
        let mut out = Vec::new();
        self.draw_many_into(rng, n, &mut out)?;
        Ok(out)
    }

    /// Draw `n` packets into a caller-provided buffer, clearing it
    /// first. Consumes the RNG in exactly the same order as `n` calls
    /// of [`PacketSynthesizer::draw`] (an `f64` then a `bool` per
    /// packet) and yields the same packets, so a worker that reuses
    /// one buffer across windows produces bit-identical packets to one
    /// that allocates fresh vectors. On a fault the buffer holds the
    /// packets drawn so far; callers must not read it after an `Err`.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    // lint:hot
    pub fn draw_many_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        out: &mut Vec<Packet>,
    ) -> Result<(), WindowFault> {
        out.clear();
        if n == 0 {
            return Ok(());
        }
        if self.conversations.is_empty() {
            return Err(WindowFault::EmptySynthesizer);
        }
        out.reserve(palu_sparse::admitted_capacity(n));
        let mut xs = [0.0f64; BLOCK];
        let mut forward = [false; BLOCK];
        let mut idx = [0usize; BLOCK];
        let mut left = n;
        while left > 0 {
            let len = left.min(BLOCK);
            left -= len;
            for (x, f) in xs.iter_mut().zip(forward.iter_mut()).take(len) {
                *x = rng.gen::<f64>() * self.total;
                *f = rng.gen::<bool>();
            }
            self.resolve(&xs, &mut idx, len);
            for (&i, &f) in idx.iter().zip(forward.iter()).take(len) {
                out.push(self.packet(i, f)?);
            }
        }
        Ok(())
    }

    /// The effective edge-retention probability `p` a window of `n_v`
    /// packets realizes under *uniform* intensity:
    /// `p = 1 − (1 − 1/E)^{N_V} ≈ 1 − e^{−N_V/E}`.
    ///
    /// This is the bridge between the packet-budget view of Section II
    /// and the `p`-parameter view of Sections III–V.
    pub fn effective_p_uniform(&self, n_v: u64) -> f64 {
        let e = self.n_conversations() as f64;
        1.0 - (-(n_v as f64) / e).exp()
    }

    /// Number of packets needed for a target retention probability `p`
    /// under uniform intensity: `N_V = −E·ln(1 − p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn packets_for_p(&self, p: f64) -> u64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
        let e = self.n_conversations() as f64;
        (-e * (1.0 - p).ln()).ceil() as u64
    }
}

impl GuideTable {
    /// Exactly `cumulative.partition_point(|&c| c < x).min(E − 1)`.
    fn pick(&self, x: f64) -> usize {
        self.scan(self.start(x), x)
    }

    /// The guide table's start for `x`. Every conversation below it
    /// has `bucket(cumulative[i]) < bucket(x)`, hence (`bucket` being
    /// monotone) `cumulative[i] < x`: the start never passes the
    /// answer. Starting at 0 would be exact too, only slower.
    fn start(&self, x: f64) -> usize {
        let last = self.guide.len().saturating_sub(1);
        self.guide
            .get(bucket(x, self.scale, last))
            .map_or(0, |&i| i as usize)
    }

    /// Step forward from `i` to the first conversation whose
    /// cumulative intensity reaches `x`, stopping at the last one.
    // lint:hot
    fn scan(&self, mut i: usize, x: f64) -> usize {
        let last = self.cumulative.len().saturating_sub(1);
        while i < last && self.cumulative.get(i).is_some_and(|&c| c < x) {
            i += 1;
        }
        i
    }
}

/// The conversation a uniform `x ∈ [0, E]` selects under uniform
/// intensity: `⌈x⌉ − 1`, saturated at 0. That is the count of
/// `j ∈ 1..=E` with `j < x`, which is what `partition_point` returns
/// on the table `1, 2, …, E`; it is at most `E − 1`, so no clamp is
/// needed. For `x ≥ 0` the saturating cast floors, so the ceiling
/// needs no `f64::ceil` (a libm call on baseline x86-64). NaN maps to
/// 0, as it does for `partition_point`.
// lint:hot
fn uniform_index(x: f64) -> usize {
    let t = x as usize;
    if t as f64 == x {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Guide bucket of `x`: `min(⌊x · s⌋, E − 1)`, with `last = E − 1`.
/// Build and lookup evaluate this one f64 expression, so it is
/// monotone in `x` (a saturating cast floors non-negative values and
/// maps NaN to 0). `bucket(total) = E − 1`, the last bucket.
fn bucket(x: f64, scale: f64, last: usize) -> usize {
    ((x * scale) as usize).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_graph::graph::Graph;
    use palu_stats::rng::Xoshiro256pp;

    fn ring(n: u32) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    /// A guide-table synthesizer over raw weights (zeros allowed);
    /// conversation `i` is `(i, i + 1)`. The Pareto label only names a
    /// weighted model: the table is built from `weights` as given.
    fn from_weights(weights: &[f64]) -> PacketSynthesizer {
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        let conversations = (0..weights.len() as u32).map(|i| (i, i + 1)).collect();
        let syn = PacketSynthesizer::from_cumulative(
            conversations,
            cumulative,
            EdgeIntensity::Pareto { shape: 1.0 },
        );
        assert!(matches!(syn.lookup, Lookup::Weighted(_)));
        syn
    }

    /// A weighted synthesizer's guide table.
    fn table(syn: &PacketSynthesizer) -> &GuideTable {
        match &syn.lookup {
            Lookup::Weighted(table) => table,
            Lookup::Uniform => panic!("expected a guide table"),
        }
    }

    /// `syn.pick` against the binary-search reference over the
    /// cumulative table `cum` at random `x`, at 0 and `total`, and at,
    /// just below and just above every cumulative value. The closed
    /// form is checked up to `total` only, its domain: `draw`'s `x`
    /// is `u · total` with `u < 1`.
    fn assert_pick_matches(syn: &PacketSynthesizer, cum: &[f64], seed: u64) {
        let total = *cum.last().unwrap();
        assert_eq!(syn.total, total);
        let reference = |x: f64| cum.partition_point(|&c| c < x).min(cum.len() - 1);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let random = (0..2000).map(|_| rng.gen::<f64>() * total);
        let edges = cum
            .iter()
            .flat_map(|&c| [c, c.next_down(), c.next_up()])
            .filter(|&x| x <= total || matches!(syn.lookup, Lookup::Weighted(_)));
        for x in random.chain([0.0, total]).chain(edges) {
            assert_eq!(
                syn.pick(x),
                reference(x),
                "x = {x:e}, {} conversations",
                cum.len()
            );
        }
    }

    /// [`assert_pick_matches`] on the guide table built from `weights`.
    fn assert_pick_is_exact(weights: &[f64], seed: u64) {
        let syn = from_weights(weights);
        assert_pick_matches(&syn, &table(&syn).cumulative, seed);
    }

    #[test]
    fn pick_matches_partition_point_on_uniform_weights() {
        assert_pick_is_exact(&[1.0; 1000], 1);
    }

    #[test]
    fn pick_matches_partition_point_across_zero_weight_runs() {
        assert_pick_is_exact(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0], 2);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let sparse: Vec<f64> = (0..3000)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    0.0
                } else {
                    rng.gen::<f64>()
                }
            })
            .collect();
        assert_pick_is_exact(&sparse, 4);
    }

    #[test]
    fn pick_matches_partition_point_on_a_single_conversation() {
        assert_pick_is_exact(&[5.0], 5);
        assert_pick_is_exact(&[0.0], 6);
    }

    #[test]
    fn pick_matches_partition_point_on_a_skewed_table() {
        let mut weights = vec![1.0; 1000];
        weights[500] = 1e12;
        assert_pick_is_exact(&weights, 7);
        weights.swap(500, 0);
        assert_pick_is_exact(&weights, 8);
        weights.swap(0, 999);
        assert_pick_is_exact(&weights, 9);
    }

    #[test]
    fn pick_matches_partition_point_on_pareto_weights() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let weights: Vec<f64> = (0..5000)
            .map(|_| rng.gen::<f64>().max(f64::MIN_POSITIVE).powf(-1.0 / 1.2))
            .collect();
        assert_pick_is_exact(&weights, 11);
    }

    #[test]
    fn uniform_pick_matches_partition_point_on_the_unit_table() {
        for e in [1u32, 2, 3, 63, 64, 65, 1000, 225_141] {
            let mut rng = Xoshiro256pp::seed_from_u64(0);
            let syn = PacketSynthesizer::new(&ring(e), EdgeIntensity::Uniform, &mut rng);
            let unit: Vec<f64> = (1..=e).map(f64::from).collect();
            assert_pick_matches(&syn, &unit, u64::from(e));
        }
    }

    #[test]
    fn uniform_builds_no_table_and_pareto_builds_the_guide() {
        let g = ring(1000);
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let uni = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        assert!(matches!(uni.lookup, Lookup::Uniform));
        assert_eq!(uni.total, 1000.0);
        let par = PacketSynthesizer::new(&g, EdgeIntensity::Pareto { shape: 1.2 }, &mut rng);
        let t = table(&par);
        assert_eq!((t.cumulative.len(), t.guide.len()), (1000, 1000));
        assert_eq!(par.total, t.cumulative[999]);
    }

    #[test]
    fn an_empty_synthesizer_faults_only_when_asked_for_packets() {
        let empty_uniform = PacketSynthesizer {
            conversations: Vec::new(),
            lookup: Lookup::Uniform,
            total: 0.0,
            intensity: EdgeIntensity::Uniform,
        };
        for syn in [from_weights(&[]), empty_uniform] {
            let mut rng = Xoshiro256pp::seed_from_u64(13);
            let mut out = vec![Packet { src: 1, dst: 2 }];
            assert_eq!(syn.draw_many_into(&mut rng, 0, &mut out), Ok(()));
            assert!(out.is_empty());
            assert_eq!(
                syn.draw_many_into(&mut rng, 1, &mut out),
                Err(WindowFault::EmptySynthesizer)
            );
            assert_eq!(syn.draw(&mut rng), Err(WindowFault::EmptySynthesizer));
        }
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn edgeless_network_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        PacketSynthesizer::new(&Graph::with_nodes(5), EdgeIntensity::Uniform, &mut rng);
    }

    #[test]
    fn packets_use_real_conversations() {
        let g = ring(10);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        assert_eq!(syn.n_conversations(), 10);
        let edges: std::collections::HashSet<(u32, u32)> = g
            .edges()
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        for _ in 0..1000 {
            let p = syn.draw(&mut rng).unwrap();
            assert!(edges.contains(&(p.src, p.dst)), "{p:?} not an edge");
        }
    }

    #[test]
    fn uniform_intensity_is_uniform() {
        let g = ring(8);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let n = 80_000;
        let mut counts = [0u32; 8];
        for p in syn.draw_many(&mut rng, n).unwrap() {
            // Identify the ring edge by its lower endpoint (mod wrap).
            let key = if (p.src + 1) % 8 == p.dst {
                p.src
            } else {
                p.dst
            };
            counts[key as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            let se = (expected * (1.0 - 1.0 / 8.0)).sqrt();
            assert!(
                (c as f64 - expected).abs() < 5.0 * se,
                "edge {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn draw_many_into_matches_draw_many_and_clears() {
        let g = ring(16);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let mut a = Xoshiro256pp::seed_from_u64(10);
        let mut b = Xoshiro256pp::seed_from_u64(10);
        let fresh = syn.draw_many(&mut a, 500).unwrap();
        let mut reused = vec![Packet { src: 0, dst: 0 }; 7];
        syn.draw_many_into(&mut b, 500, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        // Reuse across calls stays seed-determined, stale contents
        // never leak through.
        let mut c = Xoshiro256pp::seed_from_u64(10);
        syn.draw_many_into(&mut c, 500, &mut reused).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn both_directions_occur() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let packets = syn.draw_many(&mut rng, 1000).unwrap();
        let forward = packets.iter().filter(|p| p.src == 0).count();
        assert!(forward > 400 && forward < 600, "forward {forward}");
    }

    #[test]
    fn pareto_intensity_skews_link_counts() {
        let g = ring(1000);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let uni = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let par = PacketSynthesizer::new(&g, EdgeIntensity::Pareto { shape: 1.2 }, &mut rng);
        let count_max = |syn: &PacketSynthesizer, rng: &mut Xoshiro256pp| {
            let mut counts = std::collections::HashMap::new();
            for p in syn.draw_many(rng, 50_000).unwrap() {
                *counts
                    .entry((p.src.min(p.dst), p.src.max(p.dst)))
                    .or_insert(0u32) += 1;
            }
            counts.values().copied().max().unwrap()
        };
        let m_uni = count_max(&uni, &mut rng);
        let m_par = count_max(&par, &mut rng);
        assert!(
            m_par > 3 * m_uni,
            "pareto max link count {m_par} should dwarf uniform {m_uni}"
        );
    }

    #[test]
    #[should_panic(expected = "Pareto shape")]
    fn pareto_shape_validated() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        PacketSynthesizer::new(&ring(4), EdgeIntensity::Pareto { shape: 0.0 }, &mut rng);
    }

    #[test]
    fn effective_p_round_trips_packet_budget() {
        let g = ring(5000);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        for &p in &[0.1, 0.5, 0.9] {
            let n_v = syn.packets_for_p(p);
            let realized = syn.effective_p_uniform(n_v);
            assert!((realized - p).abs() < 0.01, "p {p}: realized {realized}");
        }
    }

    #[test]
    fn effective_p_matches_empirical_coverage() {
        // Draw a window and check the fraction of distinct
        // conversations seen matches 1 − e^{−N_V/E}.
        let g = ring(2000);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let n_v = 3000u64;
        let packets = syn.draw_many(&mut rng, n_v as usize).unwrap();
        let distinct: std::collections::HashSet<_> = packets
            .iter()
            .map(|p| (p.src.min(p.dst), p.src.max(p.dst)))
            .collect();
        let coverage = distinct.len() as f64 / 2000.0;
        let predicted = syn.effective_p_uniform(n_v);
        assert!(
            (coverage - predicted).abs() < 0.03,
            "coverage {coverage} vs predicted {predicted}"
        );
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn packets_for_p_validates() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let syn = PacketSynthesizer::new(&ring(4), EdgeIntensity::Uniform, &mut rng);
        syn.packets_for_p(1.0);
    }
}
