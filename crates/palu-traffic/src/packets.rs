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
//! gather from the conversation array, 8 B a conversation. A dense
//! undirected-degree window (`N_V ≥ E′`) has no gather: a packet sets
//! its conversation's own bit, with no branch and no load. After the
//! draws, one pass over the repeat bits, `E / 8` bytes in all (28 KB on
//! the benchmark's shared spec, against its 1.8 MB store), moves each
//! drawn repeat's bit onto its canonical conversation, loading one
//! store word per distinct repeat drawn (13 % of the conversations
//! there are repeats). So that mark pass costs the draws and one bit
//! set a packet. Every resolution returns
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
//!
//! **The fused window kernel.** A capture never stores its packets.
//! `PacketSynthesizer::mark_into` replays `draw_many_into`'s draws,
//! RNG order included, and marks each packet's undirected edge (or
//! directed pair) in a `palu_sparse::DegreeScratch`, whose count pass
//! then reads the window's distinct edges: `O(N_V)` marks plus
//! `O(distinct edges)` counting, with no packet buffer, hash table or
//! sort. The underlying network is a multigraph, so
//! [`PacketSynthesizer::new`] names each undirected edge by its first
//! conversation (its *canonical* conversation) and stores every later
//! conversation over it, a *repeat*, with that name in place of its
//! second endpoint (`conversation_store`). Conversations over the
//! same `{min(u, v), max(u, v)}`, and only those, share a name, so the
//! marked set is exactly the window's edge set. A canonical
//! conversation names itself, so a dense window, which lists no
//! endpoints, marks each packet's own conversation and folds the
//! repeats it marked onto their canonical conversations once, after
//! the draws: an edge is marked exactly when any of its conversations
//! was drawn.

use crate::fault::WindowFault;
use palu_graph::graph::Graph;
use palu_sparse::{Conversations, DegreeScratch, EdgeBits, Marking};
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
    /// The conversations (one per underlying edge), as
    /// [`conversation_store`] words.
    conversations: Vec<(u32, u32)>,
    /// Bit `i` is set exactly when conversation `i`'s word carries
    /// [`REPEAT`]: `E / 8` bytes over which a dense window's mark pass
    /// folds its marked repeats, once per window.
    repeat_bits: Vec<u64>,
    /// Distinct undirected edges `E′` among the conversations.
    n_edges: usize,
    /// Largest endpoint among the conversations, plus one.
    n_ids: usize,
    /// How a uniform `x ∈ [0, total]` resolves to a conversation.
    lookup: Lookup,
    /// Total intensity: the last cumulative value, `E` under uniform
    /// intensity (0 only for an empty test synthesizer).
    total: f64,
    intensity: EdgeIntensity,
}

/// Flag bit of a conversation word's first half: a repeat.
const REPEAT: u32 = 1 << 31;

/// Flag bit of a repeat's second half: `u > v`.
const ABOVE: u32 = 1 << 31;

/// Flag bit of a repeat's second half: `u < v`.
const BELOW: u32 = 1 << 30;

/// Mask of a repeat's second half: its canonical conversation.
const CANONICAL: u32 = BELOW - 1;

/// The conversation store of `edges`, one word per conversation, its
/// repeat bits (bit `i` set when conversation `i` is a repeat), and the
/// number `E′` of distinct undirected edges.
///
/// The underlying graph is a multigraph: 225 141 conversations make
/// 195 777 edges on the benchmark's shared network. The first
/// conversation over an undirected edge `{min(u, v), max(u, v)}` is
/// the edge's *canonical* conversation and is stored as `(u, v)`. A
/// later one, parallel or reversed, is a *repeat*: stored as
/// `(u | REPEAT, r | ABOVE or BELOW)`, with the index `r < 2^30` of
/// the edge's canonical conversation in place of `v` (its other
/// endpoint), and how `u` compares with `v`. So a packet finds its
/// edge with no load beyond its conversation's word; node ids must lie
/// below `2^31`.
fn conversation_store(edges: &[(u32, u32)]) -> (Vec<(u32, u32)>, Vec<u64>, usize) {
    let (repeats, n_edges) = repeats(edges);
    let mut store = edges.to_vec();
    let mut repeat_bits = vec![0u64; edges.len().div_ceil(64)];
    for (i, r) in repeats {
        if let Some(bits) = repeat_bits.get_mut(i / 64) {
            *bits |= 1 << (i % 64);
        }
        if let Some(word) = store.get_mut(i) {
            let (u, v) = *word;
            let order = match u.cmp(&v) {
                std::cmp::Ordering::Greater => ABOVE,
                std::cmp::Ordering::Less => BELOW,
                std::cmp::Ordering::Equal => 0,
            };
            *word = (u | REPEAT, r | order);
        }
    }
    (store, repeat_bits, n_edges)
}

/// Every repeat among the conversations `edges`, as `(index, canonical
/// conversation)`, and the number `E′` of distinct undirected edges.
///
/// One stable bucket pass orders the conversations by their smaller
/// endpoint `lo`, first one first. Its bucket array, one slot per node
/// id, then keeps for each larger endpoint `hi` the position of its
/// first conversation in the current `lo` bucket, so a later one over
/// the same `{lo, hi}` finds it in one load. No comparison sort and no
/// hash: `O(E)` work, and `4 B` per node id of transient space, half of
/// what each window worker's degree accumulator holds for good.
fn repeats(edges: &[(u32, u32)]) -> (Vec<(usize, u32)>, usize) {
    let ends = |i: u32| {
        edges
            .get(i as usize)
            .map_or((0, 0), |&(u, v)| (u.min(v), u.max(v)))
    };
    let n_ids = edges.iter().fold(0, |n, &(u, v)| n.max(u).max(v)) as usize + 1;
    // `first[d]` counts, then places, bucket `d - 1`'s conversations.
    let mut first = vec![0u32; n_ids + 1];
    for i in 0..edges.len() as u32 {
        if let Some(c) = first.get_mut(ends(i).0 as usize + 1) {
            *c += 1;
        }
    }
    let mut sum = 0;
    for c in first.iter_mut() {
        sum += *c;
        *c = sum;
    }
    let mut order = vec![0u32; edges.len()];
    for i in 0..edges.len() as u32 {
        if let Some(c) = first.get_mut(ends(i).0 as usize) {
            if let Some(slot) = order.get_mut(*c as usize) {
                *slot = i;
            }
            *c += 1;
        }
    }
    // `first[hi]` becomes one past the position of the current bucket's
    // first conversation to `hi`, if past the bucket's start.
    first.fill(0);
    let mut bucket = (0, None);
    let mut repeats = Vec::new();
    for (p, &i) in order.iter().enumerate() {
        let (lo, hi) = ends(i);
        if bucket.1 != Some(lo) {
            bucket = (p, Some(lo));
        }
        if let Some(seen) = first.get_mut(hi as usize) {
            if *seen as usize > bucket.0 {
                let canonical = order.get(*seen as usize - 1).copied().unwrap_or(i);
                repeats.push((i as usize, canonical));
            } else {
                *seen = p as u32 + 1;
            }
        }
    }
    let n_edges = edges.len() - repeats.len();
    (repeats, n_edges)
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
    /// than `2^30` conversations (a repeat stores its canonical
    /// conversation's index in 30 bits, and the window kernel's
    /// directed pair ids, two per conversation, share a `u32` with a
    /// flag bit), has node ids of `2^31` or more (the conversation store
    /// flags repeats in the top bit), or the Pareto shape is not
    /// positive.
    pub fn new<R: Rng + ?Sized>(g: &Graph, intensity: EdgeIntensity, rng: &mut R) -> Self {
        assert!(
            g.n_edges() > 0,
            "cannot synthesize traffic from an edgeless network"
        );
        assert!(
            g.n_edges() <= palu_sparse::MAX_CONVERSATIONS,
            "more conversations than the window kernel can mark"
        );
        assert!(
            g.n_nodes() <= REPEAT,
            "node ids must lie below 2^31 (the conversation store flags repeats in the top bit)"
        );
        let e = g.n_edges();
        match intensity {
            EdgeIntensity::Uniform => {
                Self::with_lookup(g.edges(), Lookup::Uniform, e as f64, intensity)
            }
            EdgeIntensity::Pareto { shape } => {
                assert!(shape > 0.0, "Pareto shape must be positive");
                let mut cumulative = Vec::with_capacity(palu_sparse::admitted_capacity(e));
                let mut acc = 0.0;
                cumulative.extend((0..e).map(|_| {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    acc += u.powf(-1.0 / shape); // Pareto(scale=1, shape)
                    acc
                }));
                Self::from_cumulative(g.edges(), cumulative, intensity)
            }
        }
    }

    /// A synthesizer over the conversations `edges`, with `lookup`
    /// resolving uniforms up to `total`.
    fn with_lookup(
        edges: &[(u32, u32)],
        lookup: Lookup,
        total: f64,
        intensity: EdgeIntensity,
    ) -> Self {
        let (conversations, repeat_bits, n_edges) = conversation_store(edges);
        let n_ids = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        PacketSynthesizer {
            conversations,
            repeat_bits,
            n_edges,
            n_ids,
            lookup,
            total,
            intensity,
        }
    }

    /// A weighted synthesizer: build the guide table over `cumulative`
    /// (non-decreasing; empty only in tests) in one forward pass.
    fn from_cumulative(
        edges: &[(u32, u32)],
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
        let table = GuideTable {
            cumulative,
            guide,
            scale,
        };
        Self::with_lookup(edges, Lookup::Weighted(table), total, intensity)
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
        let &word = self
            .conversations
            .get(idx)
            .ok_or(WindowFault::EmptySynthesizer)?;
        let (u, v) = self.endpoints(word);
        Ok(oriented(u, v, forward))
    }

    /// The endpoints `(u, v)` of the conversation stored as `word`: a
    /// repeat's `v` is the other endpoint of its canonical
    /// conversation's edge.
    fn endpoints(&self, (u, w): (u32, u32)) -> (u32, u32) {
        if u & REPEAT == 0 {
            return (u, w);
        }
        let u = u & !REPEAT;
        let (lo, hi) = self.ends(w & CANONICAL);
        (u, lo ^ hi ^ u)
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
        if n > 0 && !self.conversations.is_empty() {
            out.reserve(palu_sparse::admitted_capacity(n));
        }
        self.for_each_draw(rng, n, |_, word, forward| {
            let (u, v) = self.endpoints(word);
            out.push(oriented(u, v, forward));
        })
    }

    /// The fused window kernel's mark pass: replay
    /// [`PacketSynthesizer::draw_many_into`]'s `n` draws, RNG order
    /// included, but instead of storing each packet mark its
    /// conversation or, for [`Marking::Pairs`], its directed pair in
    /// `scratch`, which starts a new window first. The window is sparse
    /// when `n` is below the number of distinct edges `E′`. A count pass
    /// (`DegreeScratch::*_of_marks` over this synthesizer's
    /// [`Conversations`]) then reads it.
    ///
    /// A dense [`Marking::Edges`] window lists nothing, so each packet
    /// sets its conversation's own bit, with no load; one pass over the
    /// repeat bits then folds the drawn repeats onto their edges
    /// ([`PacketSynthesizer::fold_repeats`]). Every other window gathers
    /// each drawn conversation's store word.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    pub(crate) fn mark_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        marking: Marking,
        scratch: &mut DegreeScratch,
    ) -> Result<(), WindowFault> {
        let mut marker = scratch.begin_marks(marking, self, n);
        if let Some(mut bits) = marker.dense_edges() {
            self.for_each_index(rng, n, |i, _| {
                bits.mark(i as u32);
                Ok(())
            })?;
            self.fold_repeats(&mut bits);
            return Ok(());
        }
        match marking {
            Marking::Edges => self.for_each_draw(rng, n, |i, (u, w), _| {
                let (id, known) = edge_of(i, (u, w));
                marker.mark_edge(id, u, w, known);
            }),
            Marking::Pairs => self.for_each_draw(rng, n, |i, word, forward| {
                let (id, reversed, p, known) = mark_of(i, word, forward);
                marker.mark_pair(id, reversed, p.src, p.dst, 1, known);
            }),
        }
    }

    /// Fold a dense window's marked conversations onto their edges: each
    /// marked repeat's bit moves to its canonical conversation, read from
    /// the repeat's store word, so a window loads one word per repeat it
    /// drew, not per packet.
    fn fold_repeats(&self, bits: &mut EdgeBits<'_>) {
        bits.fold(&self.repeat_bits, |r| {
            self.conversations
                .get(r)
                .map_or(u32::MAX, |&(_, w)| w & CANONICAL)
        });
    }

    /// [`PacketSynthesizer::mark_into`] for a window of `n` copies of
    /// the first packet `draw_many_into` would draw: the window a
    /// duplicate-edge storm leaves.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    pub(crate) fn mark_copies_of_first_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        marking: Marking,
        scratch: &mut DegreeScratch,
    ) -> Result<(), WindowFault> {
        let mut marker = scratch.begin_marks(marking, self, n.min(1));
        let mut first = None;
        self.for_each_draw(rng, n.min(1), |i, word, forward| {
            first = Some((i, word, forward));
        })?;
        if let Some((i, word, forward)) = first {
            let (id, reversed, p, known) = mark_of(i, word, forward);
            match marking {
                Marking::Edges => marker.mark_edge(id, p.src, p.dst, known),
                Marking::Pairs => marker.mark_pair(id, reversed, p.src, p.dst, n as u64, known),
            }
        }
        Ok(())
    }

    /// [`PacketSynthesizer::for_each_index`], gathering each drawn
    /// conversation's store word: calls `visit(i, word, forward)` on
    /// each conversation `i` drawn, in draw order.
    // lint:hot
    fn for_each_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        mut visit: impl FnMut(u32, (u32, u32), bool),
    ) -> Result<(), WindowFault> {
        self.for_each_index(rng, n, |i, forward| {
            let &word = self
                .conversations
                .get(i)
                .ok_or(WindowFault::EmptySynthesizer)?;
            visit(i as u32, word, forward);
            Ok(())
        })
    }

    /// Draw `n` conversations and directions, in blocks, calling
    /// `visit(i, forward)` on each conversation `i` drawn, in draw
    /// order, and stopping at its first fault. Consumes the RNG exactly
    /// as `n` calls of [`PacketSynthesizer::draw`] do: an `f64` then a
    /// `bool` per packet.
    // lint:hot
    fn for_each_index<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        mut visit: impl FnMut(usize, bool) -> Result<(), WindowFault>,
    ) -> Result<(), WindowFault> {
        if n == 0 {
            return Ok(());
        }
        if self.conversations.is_empty() {
            return Err(WindowFault::EmptySynthesizer);
        }
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
                visit(i, f)?;
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

/// The packet `(u, v)` when `forward`, `(v, u)` otherwise.
fn oriented(u: u32, v: u32, forward: bool) -> Packet {
    if forward {
        Packet { src: u, dst: v }
    } else {
        Packet { src: v, dst: u }
    }
}

impl Conversations for PacketSynthesizer {
    fn n_conversations(&self) -> usize {
        self.conversations.len()
    }

    fn n_edges(&self) -> usize {
        self.n_edges
    }

    fn n_ids(&self) -> usize {
        self.n_ids
    }

    fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let canonical = self.conversations.iter().enumerate();
        canonical
            .filter(|(_, &(u, _))| u & REPEAT == 0)
            .map(|(i, &(u, v))| (i as u32, u.min(v), u.max(v)))
    }

    fn ends(&self, i: u32) -> (u32, u32) {
        let (u, v) = self
            .conversations
            .get(i as usize)
            .copied()
            .unwrap_or((0, 0));
        (u.min(v), u.max(v))
    }
}

/// The edge conversation `i`, stored as `(u, w)`, runs over: `(id,
/// known)`, with `id` the edge's canonical conversation and `known`
/// whether `u` and `w` are its endpoints (a repeat's are not). No
/// branch: the select compiles to a conditional move.
// lint:hot
fn edge_of(i: u32, (u, w): (u32, u32)) -> (u32, bool) {
    let repeat = u & REPEAT != 0;
    (if repeat { w & CANONICAL } else { i }, !repeat)
}

/// What the packet drawn from conversation `i`, stored as `(u, w)`, in
/// direction `forward`, marks: `(id, reversed, packet, known)`, with
/// `(id, known)` as [`edge_of`] says, `reversed` whether the packet runs
/// from the edge's larger endpoint to its smaller, and `packet` right
/// only when `known`.
// lint:hot
fn mark_of(i: u32, (u, w): (u32, u32), forward: bool) -> (u32, bool, Packet, bool) {
    let (id, known) = edge_of(i, (u, w));
    let p = oriented(u, w, forward);
    let side = if forward { ABOVE } else { BELOW };
    let reversed = if known { p.src > p.dst } else { w & side != 0 };
    (id, reversed, p, known)
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
    use palu_stats::histogram::DegreeHistogram;
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
        let conversations: Vec<(u32, u32)> =
            (0..weights.len() as u32).map(|i| (i, i + 1)).collect();
        let syn = PacketSynthesizer::from_cumulative(
            &conversations,
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
        let empty_uniform =
            PacketSynthesizer::with_lookup(&[], Lookup::Uniform, 0.0, EdgeIntensity::Uniform);
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
            let mut scratch = DegreeScratch::new();
            for marking in [Marking::Edges, Marking::Pairs] {
                assert_eq!(syn.mark_into(&mut rng, 0, marking, &mut scratch), Ok(()));
                assert_eq!(
                    syn.mark_into(&mut rng, 1, marking, &mut scratch),
                    Err(WindowFault::EmptySynthesizer)
                );
                assert_eq!(
                    syn.mark_copies_of_first_into(&mut rng, 1, marking, &mut scratch),
                    Err(WindowFault::EmptySynthesizer)
                );
            }
        }
    }

    /// Conversations over 8 nodes with parallel edges, reversed
    /// duplicates and self-loops: 12 conversations over 6 edges.
    const MULTIGRAPH: [(u32, u32); 12] = [
        (0, 1),
        (1, 0),
        (0, 1),
        (2, 2),
        (2, 2),
        (3, 4),
        (1, 2),
        (4, 3),
        (5, 5),
        (2, 1),
        (6, 7),
        (0, 1),
    ];

    fn multigraph() -> Graph {
        let mut g = Graph::with_nodes(8);
        for (u, v) in MULTIGRAPH {
            g.add_edge(u, v);
        }
        g
    }

    /// Each conversation's first conversation over its undirected edge,
    /// found with a map.
    fn first_over_edge(edges: &[(u32, u32)]) -> Vec<u32> {
        let mut first = std::collections::BTreeMap::new();
        (0..edges.len() as u32)
            .map(|i| {
                let (u, v) = edges[i as usize];
                *first.entry((u.min(v), u.max(v))).or_insert(i)
            })
            .collect()
    }

    /// `repeats` against the map reference.
    fn assert_repeats(edges: &[(u32, u32)]) {
        let first = first_over_edge(edges);
        let expected: Vec<(usize, u32)> = first
            .iter()
            .enumerate()
            .filter(|&(i, &f)| f as usize != i)
            .map(|(i, &f)| (i, f))
            .collect();
        let distinct = first
            .iter()
            .enumerate()
            .filter(|&(i, &f)| f as usize == i)
            .count();
        let (mut found, n_edges) = repeats(edges);
        found.sort_unstable();
        assert_eq!(
            (found, n_edges),
            (expected, distinct),
            "{} conversations",
            edges.len()
        );
    }

    #[test]
    fn repeats_share_an_id_exactly_when_their_undirected_edge_is_the_same() {
        assert_repeats(&MULTIGRAPH);
        assert_repeats(&[]);
        assert_repeats(&[(3, 3)]);
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        for span in [2u32, 30, 1_000, 1 << 19] {
            let edges: Vec<(u32, u32)> = (0..3_000)
                .map(|_| (rng.gen_range(0..span), rng.gen_range(0..span)))
                .collect();
            assert_repeats(&edges);
        }
    }

    #[test]
    fn repeats_stay_exact_over_sparse_wide_node_ids() {
        // A few thousand conversations over ids spread across 2^22: most
        // buckets hold one conversation, and the bucket array is far
        // larger than the conversation list.
        let top = (1u32 << 22) - 1;
        let mut edges = vec![
            (top, top - 1),
            (top - 1, top),
            (0, top),
            (top, top),
            (top, 0),
            (top, top),
            (1 << 20, 5),
            (5, 1 << 20),
            (top - 65_536, top),
            (top, top - 65_536),
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        for _ in 0..2_000 {
            let u = top - rng.gen_range(0..70_000);
            let v = if rng.gen_bool(0.5) {
                rng.gen_range(0..100)
            } else {
                top - rng.gen_range(0..70_000)
            };
            edges.push((u, v));
        }
        assert_repeats(&edges);
    }

    #[test]
    fn the_store_keeps_every_conversation_and_names_its_edge() {
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        let syn = PacketSynthesizer::new(&multigraph(), EdgeIntensity::Uniform, &mut rng);
        let first = first_over_edge(&MULTIGRAPH);
        assert_eq!(syn.n_edges(), 6);
        assert_eq!(syn.n_ids(), 8);
        for (i, (&word, &(u, v))) in syn.conversations.iter().zip(&MULTIGRAPH).enumerate() {
            assert_eq!(
                dense_window(&syn, &[i as u32]).0,
                [first[i]],
                "conversation {i}"
            );
            let i = i as u32;
            assert_eq!(syn.endpoints(word), (u, v), "conversation {i}");
            for forward in [true, false] {
                let p = oriented(u, v, forward);
                let (id, reversed, q, known) = mark_of(i, word, forward);
                assert_eq!(id, first[i as usize], "conversation {i}");
                assert_eq!(known, id == i);
                assert_eq!(reversed, p.src > p.dst, "{i} {forward}");
                if known {
                    assert_eq!(q, p);
                }
            }
        }
        let edges: Vec<(u32, u32, u32)> = syn.edges().collect();
        let expected: Vec<(u32, u32, u32)> = (0..12u32)
            .filter(|&i| first[i as usize] == i)
            .map(|i| {
                let (u, v) = MULTIGRAPH[i as usize];
                (i, u.min(v), u.max(v))
            })
            .collect();
        assert_eq!(edges, expected);
        for (i, lo, hi) in edges {
            assert_eq!(syn.ends(i), (lo, hi));
        }
    }

    /// `syn`'s repeat bit of conversation `i`.
    fn repeat_bit(syn: &PacketSynthesizer, i: usize) -> bool {
        syn.repeat_bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// 130 conversations, not a multiple of 64: every one its own edge
    /// but three repeats, at either side of the first word edge and at
    /// the end, in the last (partial) word. Repeats 63, 64 and 129 run
    /// over the edges of conversations 0, 1 and 2.
    fn word_edge_synthesizer() -> (PacketSynthesizer, Vec<(u32, u32)>) {
        let mut edges: Vec<(u32, u32)> = (0..130).map(|i| (i, i + 200)).collect();
        edges[63] = (200, 0);
        edges[64] = (1, 201);
        edges[129] = (2, 202);
        let mut g = Graph::with_nodes(400);
        for &(u, v) in &edges {
            g.add_edge(u, v);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        (syn, edges)
    }

    /// A dense edge window of `syn` that drew the conversations `drawn`,
    /// marked and folded as `mark_into` does: the conversations it leaves
    /// marked, and its undirected-degree histogram.
    fn dense_window(syn: &PacketSynthesizer, drawn: &[u32]) -> (Vec<u32>, DegreeHistogram) {
        let mut scratch = DegreeScratch::new();
        let mut marker = scratch.begin_marks(Marking::Edges, syn, syn.n_edges());
        let mut bits = marker.dense_edges().expect("a dense edge window");
        for &i in drawn {
            bits.mark(i);
        }
        syn.fold_repeats(&mut bits);
        let marked = (0..syn.n_conversations() as u32)
            .filter(|&i| bits.is_marked(i))
            .collect();
        drop(marker);
        (marked, scratch.undirected_degree_of_marks(syn))
    }

    #[test]
    fn repeat_bits_flag_exactly_the_repeats_across_word_edges() {
        let (syn, _) = word_edge_synthesizer();
        assert_eq!(syn.repeat_bits.len(), 3);
        let repeats: Vec<usize> = (0..130).filter(|&i| repeat_bit(&syn, i)).collect();
        assert_eq!(repeats, [63, 64, 129]);
        for (i, &(u, _)) in syn.conversations.iter().enumerate() {
            assert_eq!(repeat_bit(&syn, i), u & REPEAT != 0, "conversation {i}");
        }
        // Past the last conversation, the last word holds no bit.
        assert_eq!(syn.repeat_bits[2] >> 2, 0);
    }

    #[test]
    fn a_dense_window_folds_its_repeats_onto_their_edges_across_word_edges() {
        let (syn, edges) = word_edge_synthesizer();
        let first = first_over_edge(&edges);
        let windows: [&[u32]; 8] = [
            &[63],
            &[64],
            &[129],
            &[63, 64, 129],
            &[0, 63],
            &[129, 128, 64, 65],
            &[],
            &[62, 63, 64, 127, 128, 129],
        ];
        for drawn in windows {
            let mut edges_of: Vec<u32> = drawn.iter().map(|&i| first[i as usize]).collect();
            edges_of.sort_unstable();
            edges_of.dedup();
            let packets = drawn.iter().map(|&i| edges[i as usize]);
            let mut reference = DegreeScratch::new();
            reference.key_pairs(palu_sparse::EdgeKeys::Undirected, packets);
            // Exactly the drawn conversations' edges stay marked, by
            // their canonical conversations: no repeat bit is left.
            assert_eq!(
                dense_window(&syn, drawn),
                (edges_of, reference.undirected_degree_of_keys()),
                "{drawn:?}"
            );
        }
    }

    #[test]
    fn multigraph_packets_are_its_conversations_in_draw_order() {
        for intensity in [EdgeIntensity::Uniform, EdgeIntensity::Pareto { shape: 1.2 }] {
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            let syn = PacketSynthesizer::new(&multigraph(), intensity, &mut rng);
            let mut a = Xoshiro256pp::seed_from_u64(18);
            let mut b = Xoshiro256pp::seed_from_u64(18);
            let looped: Vec<Packet> = (0..500).map(|_| syn.draw(&mut a).unwrap()).collect();
            assert_eq!(syn.draw_many(&mut b, 500).unwrap(), looped);
            for p in looped {
                assert!(
                    MULTIGRAPH.contains(&(p.src, p.dst)) || MULTIGRAPH.contains(&(p.dst, p.src)),
                    "{p:?}"
                );
            }
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
