//! Reusable per-worker scratch buffers for the window hot path.
//!
//! The pipeline measures one window per `N_V` packets — at
//! observatory scale, millions of times. Building each window from
//! fresh allocations (dense counting-sort buffers in
//! [`CooMatrix::to_csr`](crate::coo::CooMatrix::to_csr), a
//! `BTreeMap<_, BTreeSet<_>>` per undirected-degree histogram) turns
//! the workers into allocator benchmarks: under threads they serialize
//! on the global allocator and parallel speedup inverts. The types
//! here hold every such buffer once per worker and are threaded
//! through the per-window stages, so steady-state window processing
//! performs no heap allocation beyond the result histograms
//! themselves.
//!
//! [`DegreeScratch`] also holds the two window kernels, which pool a
//! measurement in the hypersparse style: they pay for the entries a
//! window holds, never for the size of the address space, and build no
//! matrix at all.
//!
//! - The **packet-level kernel** ([`DegreeScratch::key_pairs`], then a
//!   `*_of_keys` count) takes a window's packets. Its undirected keying
//!   finds the distinct edges in an open-addressing hash table of
//!   packed `u64` keys (power-of-two capacity, Fibonacci hash, linear
//!   probing) that the scratch keeps between windows. The table doubles
//!   once its distinct keys pass half its capacity, and it is emptied
//!   at the **start** of every keying, so a keying that panicked
//!   part-way cannot leak its keys into the next window. It is the
//!   reference for the fused kernel and serves arbitrary packet
//!   streams.
//! - The **fused kernel** ([`DegreeScratch::begin_marks`], one
//!   `mark_*` call per packet, then a `*_of_marks` count) never sees a
//!   packet buffer. Its caller, a [`Conversations`] implementation,
//!   names each distinct undirected edge by one *canonical*
//!   conversation, and each packet marks its edge's bit in a bit set
//!   over the conversations ([`Marking::Edges`]) or adds to its
//!   directed pair's count, pair `2·canonical + orientation`
//!   ([`Marking::Pairs`]). A window with fewer packets than there are
//!   distinct edges is *sparse*: the first mark of each edge or pair
//!   is also listed, with its endpoints when the mark pass knows them,
//!   and the count pass walks that list, looking the missing endpoints
//!   up first. A denser window lists nothing, and the count pass scans
//!   the caller's edges in order instead. A dense [`Marking::Edges`]
//!   window needs no name per packet either: it sets each drawn
//!   conversation's own bit, and one pass over the bit words then folds
//!   each marked repeat onto its canonical conversation
//!   ([`EdgeBits::fold`]). Either way each edge or pair is read once,
//!   so the count costs `O(distinct edges)`, and no hash table is
//!   involved. A window whose counts cover its node ids drains them by
//!   one sequential sweep, a sparser one through the list of nodes it
//!   touched. Degrees below 1024 are counted by value, so only the few
//!   larger ones are sorted. `begin_marks` clears whatever a window that
//!   was marked and never counted (it panicked) left behind.
//!
//! All scratch-based computations are exact drop-in replacements:
//! each produces a value **equal** to its allocating counterpart
//! (same `BTreeMap` contents for histograms, same CSR arrays), which
//! is what keeps the parallel pipeline's bit-identity contract intact.

use crate::csr::CsrMatrix;
use crate::quantities::NetworkQuantity;
use crate::{Count, NodeId};
use palu_stats::histogram::{sorted_runs, DegreeHistogram};

/// Reusable buffers for [`CooMatrix::try_to_csr_with`]
/// (counting-sort offsets, scatter arrays, per-row sort space, and
/// recycled CSR output arrays).
///
/// [`CooMatrix::try_to_csr_with`]: crate::coo::CooMatrix::try_to_csr_with
#[derive(Debug, Clone, Default)]
pub struct CsrScratch {
    /// Counting-sort row offsets (`n_rows + 1` entries).
    pub(crate) offsets: Vec<usize>,
    /// Per-row write cursors during the scatter pass.
    pub(crate) next: Vec<usize>,
    /// Row-grouped column indices (scatter output).
    pub(crate) scat_cols: Vec<NodeId>,
    /// Row-grouped values (scatter output).
    pub(crate) scat_vals: Vec<Count>,
    /// Per-row `(col, val)` sort-and-dedup space.
    pub(crate) pair: Vec<(NodeId, Count)>,
    /// Recycled CSR `row_ptr` (taken by the conversion, returned via
    /// [`CsrScratch::recycle`]).
    pub(crate) out_row_ptr: Vec<usize>,
    /// Recycled CSR column array.
    pub(crate) out_cols: Vec<NodeId>,
    /// Recycled CSR value array.
    pub(crate) out_vals: Vec<Count>,
}

impl CsrScratch {
    /// Create an empty scratch; buffers grow on first use and are
    /// retained across conversions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a spent matrix's backing arrays to the scratch so the
    /// next conversion reuses them instead of allocating. Purely an
    /// optimization — a matrix that is never recycled just costs the
    /// next conversion a fresh allocation.
    pub fn recycle(&mut self, m: CsrMatrix) {
        let (row_ptr, cols, vals, _) = m.into_raw_parts();
        self.out_row_ptr = row_ptr;
        self.out_cols = cols;
        self.out_vals = vals;
    }
}

/// How [`DegreeScratch::key_pairs`] keys a window's `(src, dst)`
/// packet pairs: the first phase of the packet-level kernel. Each
/// keying is read by one counting phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKeys {
    /// `(min << 32) | max`, deduplicated, in first-seen order: the
    /// window's undirected edge set, read by
    /// [`DegreeScratch::undirected_degree_of_keys`].
    Undirected,
    /// `(src << 32) | dst`, sorted: each run of equal keys is one of
    /// the CSR's `(src, dst, count)` entries, in the CSR's order. Read
    /// by [`DegreeScratch::quantity_of_keys`].
    Directed,
    /// `(src << 32) | dst` in packet order, read by
    /// [`DegreeScratch::node_volume_of_keys`]: volume adds per packet,
    /// so it needs no sort.
    Packets,
}

/// What the fused kernel's mark pass records per packet, chosen by the
/// measurement its count pass reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Marking {
    /// The packet's undirected edge, as one bit: the window's edge
    /// set, read by [`DegreeScratch::undirected_degree_of_marks`].
    #[default]
    Edges,
    /// One more packet on the packet's directed pair: the window's
    /// `(src, dst, count)` entries, read by
    /// [`DegreeScratch::node_volume_of_marks`] and
    /// [`DegreeScratch::quantity_of_marks`].
    Pairs,
}

/// A network's conversations as the fused kernel's count pass reads
/// them. Each conversation is numbered by its index and runs over one
/// undirected edge. The network is a multigraph, so several may run
/// over one edge; the first of them, the edge's *canonical*
/// conversation, stands for the edge, and marks name edges by their
/// canonical conversation's index.
pub trait Conversations {
    /// Number of conversations: indices lie below it.
    fn n_conversations(&self) -> usize;
    /// Number of distinct undirected edges `E′`.
    fn n_edges(&self) -> usize;
    /// Node ids lie below this.
    fn n_ids(&self) -> usize;
    /// Every edge's `(index, lo, hi)`, `lo ≤ hi`, by its canonical
    /// conversation's index, in index order.
    fn edges(&self) -> impl Iterator<Item = (u32, NodeId, NodeId)> + '_;
    /// The `(lo, hi)` endpoints, `lo ≤ hi`, of canonical conversation
    /// `i`'s edge.
    fn ends(&self, i: u32) -> (NodeId, NodeId);
}

/// A sparse window's first mark of one edge (`a, b` its endpoints, `id`
/// its canonical conversation) or directed pair (`a, b = src, dst`, `id`
/// the pair), with [`UNRESOLVED`] set in `id` when the mark pass did not
/// know the endpoints.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    a: NodeId,
    b: NodeId,
    id: u32,
}

/// Flag bit of a [`Mark`]'s id: the count pass looks the endpoints up.
/// Pair ids, two per conversation, lie below it.
const UNRESOLVED: u32 = 1 << 31;

/// Most conversations the fused kernel marks: their pair ids, two per
/// conversation, keep the top bit of a `u32` free for a flag, and a
/// window's distinct edges, each node's most partners, stay far below
/// the `u32` partner counts' range.
pub const MAX_CONVERSATIONS: usize = 1 << 30;

/// The fused kernel's per-window state.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// What the current window records.
    marking: Marking,
    /// Whether the current window lists its first marks.
    sparse: bool,
    /// Whether a window was marked and not yet counted.
    pending: bool,
    /// One bit per conversation ([`Marking::Edges`]), zero between
    /// windows; only canonical conversations are marked.
    bits: Vec<u64>,
    /// One count per directed pair ([`Marking::Pairs`]), zero between
    /// windows: pair `2·i` runs canonical conversation `i`'s edge from
    /// `lo` to `hi` (or is its self-loop), pair `2·i + 1` back.
    pairs: Vec<Count>,
    /// `marked[..live]` lists a sparse window's first marks; the rest
    /// is write space.
    marked: Vec<Mark>,
    /// Length of the live prefix of `marked`.
    live: usize,
}

/// One window's mark pass, borrowed from a [`DegreeScratch`] by
/// [`DegreeScratch::begin_marks`]. A sparse window's list has write
/// space for every mark, so listing a mark is a store and an add, with
/// the list's length in a local the mark loop keeps in a register; it
/// is written back when the marker is dropped, or unwinds.
pub struct Marker<'a> {
    bits: &'a mut [u64],
    pairs: &'a mut [Count],
    /// Whether this is a dense [`Marking::Edges`] window.
    dense_edge_window: bool,
    /// The list's write space: empty for a dense window.
    marked: &'a mut [Mark],
    live: usize,
    live_slot: &'a mut usize,
}

/// The bit set of a dense [`Marking::Edges`] window, one bit per
/// conversation, lent by [`Marker::dense_edges`]. The window lists
/// nothing, so a packet's mark is its conversation's own bit, set with
/// no load; after the last packet, [`EdgeBits::fold`] moves each
/// marked repeat's bit onto its edge's canonical conversation, and the
/// count pass scans every edge with its endpoints.
pub struct EdgeBits<'a> {
    bits: &'a mut [u64],
}

impl EdgeBits<'_> {
    /// Mark conversation `id`. Ids out of range are ignored.
    // lint:hot
    #[inline]
    pub fn mark(&mut self, id: u32) {
        if let Some(word) = self.bits.get_mut((id / 64) as usize) {
            *word |= 1u64 << (id % 64);
        }
    }

    /// Whether conversation `id` is marked.
    pub fn is_marked(&self, id: u32) -> bool {
        is_marked(self.bits, id)
    }

    /// Move every marked repeat's bit onto its edge: bit `i` of
    /// `repeats` is set when conversation `i` is a repeat, and
    /// `canonical_of(i)` names repeat `i`'s canonical conversation,
    /// which is no repeat itself. One pass over the words, calling
    /// `canonical_of` once per marked repeat, leaves only canonical
    /// conversations marked: an edge exactly when any of its
    /// conversations was.
    // lint:hot
    pub fn fold(&mut self, repeats: &[u64], mut canonical_of: impl FnMut(usize) -> u32) {
        for (w, &repeat) in repeats.iter().enumerate() {
            let Some(word) = self.bits.get_mut(w) else {
                return;
            };
            let mut hit = *word & repeat;
            *word &= !repeat;
            while hit != 0 {
                let i = w * 64 + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                self.mark(canonical_of(i));
            }
        }
    }
}

impl Marker<'_> {
    /// The bit set of a dense [`Marking::Edges`] window, which lists
    /// nothing and so needs no endpoints: mark each packet's
    /// conversation, then fold the repeats; `None` for a sparse window
    /// (mark it through [`Marker::mark_edge`]) or a
    /// [`Marking::Pairs`] one.
    pub fn dense_edges(&mut self) -> Option<EdgeBits<'_>> {
        let bits = &mut *self.bits;
        self.dense_edge_window.then_some(EdgeBits { bits })
    }

    /// Mark the edge whose canonical conversation is `id`, in a
    /// [`Marking::Edges`] window. `a` and `b` are its endpoints, in
    /// either order, when `known`; otherwise the count pass looks them
    /// up. Ids out of range are ignored.
    // lint:hot
    #[inline]
    pub fn mark_edge(&mut self, id: u32, a: NodeId, b: NodeId, known: bool) {
        if let Some(word) = self.bits.get_mut((id / 64) as usize) {
            let bit = 1u64 << (id % 64);
            let first = *word & bit == 0;
            *word |= bit;
            self.list(
                Mark {
                    a,
                    b,
                    id: tagged(id, known),
                },
                first,
            );
        }
    }

    /// Add `n > 0` packets `src → dst` over the edge whose canonical
    /// conversation is `id`, in a [`Marking::Pairs`] window: to its
    /// directed pair `2·id` from `lo` to `hi` (or its self-loop), or
    /// `2·id + 1` when `reversed`. `src` and `dst` are right when
    /// `known`; otherwise the count pass looks them up. Ids out of range
    /// are ignored.
    // lint:hot
    #[inline]
    pub fn mark_pair(
        &mut self,
        id: u32,
        reversed: bool,
        src: NodeId,
        dst: NodeId,
        n: Count,
        known: bool,
    ) {
        let pair = id.wrapping_mul(2) | u32::from(reversed);
        if let Some(c) = self.pairs.get_mut(pair as usize) {
            let first = *c == 0;
            *c += n;
            let mark = Mark {
                a: src,
                b: dst,
                id: tagged(pair, known),
            };
            self.list(mark, first);
        }
    }

    /// Store `mark` just past a sparse window's live prefix, and extend
    /// the prefix over it if it is a `first` mark: no branch the data
    /// cannot predict. A dense window has no write space.
    #[inline]
    fn list(&mut self, mark: Mark, first: bool) {
        if let Some(slot) = self.marked.get_mut(self.live) {
            *slot = mark;
            self.live += usize::from(first);
        }
    }
}

impl Drop for Marker<'_> {
    fn drop(&mut self) {
        *self.live_slot = self.live;
    }
}

/// Reusable buffers for allocation-free degree-histogram extraction.
///
/// Three entry points share one counting implementation per
/// measurement:
///
/// * the **fused kernel** — [`DegreeScratch::begin_marks`], a
///   `mark_edge` or `mark_pair` per packet, then `*_of_marks` — counts
///   a window whose packets were never stored, in `O(N_V)` marks plus
///   `O(distinct edges)` counting;
/// * the **packet-level kernel** — [`DegreeScratch::key_pairs`]
///   packs a window's packets into `u64` keys, then `*_of_keys`
///   counts them — turns a packet buffer straight into a histogram
///   with no COO or CSR, in expected `O(N_V)` per window for the
///   undirected degree and node volume, and `O(N_V log N_V)` for the
///   Figure 1 quantities, whose directed keys are sorted;
/// * the **CSR entry points** ([`DegreeScratch::undirected_degree_histogram`],
///   [`DegreeScratch::node_volume_histogram`],
///   [`DegreeScratch::quantity_histogram`]) feed an assembled matrix's
///   entries into the same counting code.
///
/// So for any packet slice `ps`, the kernels' histograms equal the CSR
/// entry point's on `ps` aggregated into a matrix.
///
/// Counts accumulate in a dense per-node array, sized once to the
/// largest node id seen: `u32` partner counts, as a partner count is at
/// most the window's distinct edges (fewer than 2³², enforced), and
/// `u64` packet counts. The window's geometry picks how it is drained:
///
/// * a window whose bumps cover its id space (`bumps ≥ n_ids`, so
///   `2·edges ≥ n_ids` for the undirected degree) bumps with no list
///   and drains by one sequential sweep of the accumulator;
/// * a sparser one lists each node on its first bump, through a view
///   that keeps the list's length in a register, and drains and resets
///   only the listed nodes, so it never pays an `O(n_nodes)` sweep.
///
/// The resulting degrees are counted by value below a cutoff of 1024,
/// and only the few above it are sorted, so the count state is the
/// accumulator, the touched list and a fixed 8 KB array of by-value
/// counts.
#[derive(Debug, Clone, Default)]
pub struct DegreeScratch {
    /// The keyed window: packed pairs, see [`EdgeKeys`].
    keys: Vec<u64>,
    /// The undirected keying's set of keys already in `keys`.
    table: EdgeTable,
    /// Largest node id among the keyed pairs, plus one.
    n_ids: usize,
    /// The counting buffers.
    tally: Tally,
    /// The fused kernel's marks.
    marks: Marks,
}

/// Slot value of an empty [`EdgeTable`] slot. It equals
/// `pack(u32::MAX, u32::MAX)`, so that one key is kept out of band.
const VACANT: u64 = u64::MAX;

/// log2 of a fresh [`EdgeTable`]'s slot count.
const INITIAL_BITS: u32 = 10;

/// An [`EdgeTable`] doubles once its keys pass `1 / LOAD_DIVISOR` of
/// its slots.
const LOAD_DIVISOR: usize = 2;

/// Fibonacci hashing multiplier: `2^64` over the golden ratio.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing hash set of packed undirected edge keys:
/// `1 << bits` slots, linear probing, doubled once the keys it holds
/// pass the load bound.
#[derive(Debug, Clone, Default)]
struct EdgeTable {
    /// Each slot holds a key or [`VACANT`].
    slots: Vec<u64>,
    /// log2 of `slots.len()`.
    bits: u32,
    /// Whether the key equal to [`VACANT`] (the self-loop at id
    /// `u32::MAX`) is in the set.
    holds_vacant: bool,
}

impl EdgeTable {
    /// Empty the set, allocating the initial slots on first use.
    fn reset(&mut self) {
        if self.slots.is_empty() {
            self.bits = INITIAL_BITS;
            self.slots.resize(1 << INITIAL_BITS, VACANT);
        } else {
            self.slots.fill(VACANT);
        }
        self.holds_vacant = false;
    }

    /// Whether `len` keys are past the load bound.
    fn is_over_loaded(&self, len: usize) -> bool {
        len > self.slots.len() / LOAD_DIVISOR
    }

    /// Add `key`; `true` if it was not in the set yet.
    // lint:hot
    fn insert(&mut self, key: u64) -> bool {
        if key == VACANT {
            return !std::mem::replace(&mut self.holds_vacant, true);
        }
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = (key.wrapping_mul(FIBONACCI) >> (64 - self.bits)) as usize;
        // `reset` makes the slot count `1 << bits`, so `i` stays in
        // range and a slot is always found.
        while let Some(slot) = self.slots.get_mut(i) {
            if *slot == key {
                return false;
            }
            if *slot == VACANT {
                *slot = key;
                return true;
            }
            i = (i + 1) & mask;
        }
        true
    }

    /// Double the slot count and re-insert `keys`, the set's contents.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, keys: &[u64]) {
        self.bits += 1;
        self.slots.clear();
        self.slots.resize(1 << self.bits, VACANT);
        for &key in keys {
            if key != VACANT {
                self.insert(key);
            }
        }
    }
}

/// Degrees below this are counted by value, in [`Tally::small`]; only
/// larger ones are listed and sorted.
const SMALL: usize = 1024;

/// The counting half of [`DegreeScratch`]: one method per
/// measurement, fed by every entry point.
///
/// A window's counts are bumped into the dense per-node accumulator of
/// their width, `partners` or `packets`. A *swept* window (its bumps
/// cover its id space) bumps them plainly and drains by a sweep of the
/// accumulator's first `n_ids` entries; any other window bumps through a
/// [`Bumps`] view that lists each node in `touched` on its first bump,
/// and drains the listed nodes only. Draining counts each node's degree
/// by value: one below [`SMALL`] adds one to `small[degree]`, a larger
/// one is listed in `degrees`. `finish` merges the two, so a window
/// sorts only its few large degrees.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// How many of the window's degrees equal each value below
    /// [`SMALL`] (`SMALL` entries once a window has begun), zero
    /// between windows.
    small: Vec<u64>,
    /// The window's degrees of [`SMALL`] and above; sorted before
    /// histogram construction.
    degrees: Vec<u64>,
    /// The dense per-node accumulators, zero between windows.
    acc: Accumulators,
    /// `touched[..live]` lists the node ids given an entry in the
    /// accumulator this window; the rest is write space, sized before
    /// each listed count so a first touch is a store, not a push.
    touched: Vec<NodeId>,
    /// Length of the live prefix of `touched`.
    live: usize,
    /// Whether the current window is swept: it lists nothing.
    swept: bool,
    /// Whether a window was begun and not yet finished, so `small` and,
    /// for a swept window, the accumulators may hold its counts.
    pending: bool,
}

/// A [`Tally`]'s per-node accumulators, one per count width.
#[derive(Debug, Clone, Default)]
struct Accumulators {
    /// Distinct partners per node (the undirected degree).
    partners: Vec<u32>,
    /// Packets, fan-outs or fan-ins per node.
    packets: Vec<u64>,
}

/// Most distinct edges an undirected-degree window may hold: a node's
/// partner count is at most the window's distinct edges, so its `u32`
/// count cannot wrap. The fused kernel's windows stay far below it
/// ([`MAX_CONVERSATIONS`]).
const MAX_PARTNER_EDGES: usize = u32::MAX as usize;

/// A per-node count a [`Tally`] accumulates, with the accumulator that
/// holds counts of its width.
trait Tallied: Copy + Default + PartialEq + std::ops::AddAssign + Into<u64> {
    /// This width's accumulator.
    fn accumulator(acc: &mut Accumulators) -> &mut Vec<Self>;
}

impl Tallied for u32 {
    fn accumulator(acc: &mut Accumulators) -> &mut Vec<u32> {
        &mut acc.partners
    }
}

impl Tallied for u64 {
    fn accumulator(acc: &mut Accumulators) -> &mut Vec<u64> {
        &mut acc.packets
    }
}

/// One listed window's bumps into a [`Tally`] accumulator: the
/// accumulator and the touched list's write space as slices, with the
/// list's length in a local the bump loop keeps in a register. It is
/// written back when the view is dropped, or unwinds.
struct Bumps<'a, C> {
    counts: &'a mut [C],
    touched: &'a mut [NodeId],
    live: usize,
    live_slot: &'a mut usize,
}

impl<C: Tallied> Bumps<'_, C> {
    /// Add `v` to `counts[id]`. Every bump stores `id` just past the
    /// live prefix of `touched` and extends the prefix over it on a
    /// first touch: a store and an add in place of a branch the data
    /// cannot predict. A bump by 0 is skipped: a count of 0 is no
    /// degree, and with it skipped each id is listed once, so the write
    /// space [`Tally::begin`] sized always has room. Out-of-range ids are
    /// ignored (callers size `counts` to the address space, so this is
    /// unreachable in practice — the guard replaces an indexing panic,
    /// not a behaviour).
    #[inline]
    fn bump(&mut self, id: NodeId, v: C) {
        if v == C::default() {
            return;
        }
        let c = self.counts.get_mut(id as usize);
        if let (Some(c), Some(slot)) = (c, self.touched.get_mut(self.live)) {
            *slot = id;
            self.live += usize::from(*c == C::default());
            *c += v;
        }
    }
}

impl<C> Drop for Bumps<'_, C> {
    fn drop(&mut self) {
        *self.live_slot = self.live;
    }
}

/// Pack two node ids into one key that sorts by `upper`, then `lower`.
fn pack(upper: NodeId, lower: NodeId) -> u64 {
    (u64::from(upper) << 32) | u64::from(lower)
}

/// Inverse of [`pack`].
fn unpack(key: u64) -> (NodeId, NodeId) {
    ((key >> 32) as NodeId, key as NodeId)
}

/// Run-length sorted directed keys into distinct `(src, dst, count)`
/// entries.
fn runs(keys: &[u64]) -> impl Iterator<Item = (NodeId, NodeId, Count)> + '_ {
    keys.chunk_by(|a, b| a == b).filter_map(|run| {
        let (src, dst) = unpack(*run.first()?);
        Some((src, dst, run.len() as Count))
    })
}

/// The address space a CSR's entries index into.
fn dims(a: &CsrMatrix) -> usize {
    a.n_rows().max(a.n_cols()) as usize
}

impl Tally {
    /// Start a window over `n_ids` node ids in which at most `bumps`
    /// counts are bumped: zero any residue, pick how the window drains,
    /// grow a listed window's write space, and clear the degree list.
    /// Returns whether the window is swept.
    ///
    /// A finished window leaves no residue, so the reset is free; it
    /// matters when a previous count on this scratch panicked
    /// mid-accumulation or mid-`finish` (the pipeline reuses arenas
    /// across `catch_unwind` boundaries) and stale counts would otherwise
    /// leak into the next window's histogram. A stranded listed window is
    /// reset through its list, a stranded swept one wholesale.
    fn begin(&mut self, n_ids: usize, bumps: usize) -> bool {
        if self.pending {
            if self.swept {
                self.acc.partners.fill(0);
                self.acc.packets.fill(0);
            }
            self.small.fill(0);
        }
        for &id in self.touched.iter().take(self.live) {
            if let Some(c) = self.acc.partners.get_mut(id as usize) {
                *c = 0;
            }
            if let Some(c) = self.acc.packets.get_mut(id as usize) {
                *c = 0;
            }
        }
        self.live = 0;
        self.pending = true;
        self.swept = bumps >= n_ids;
        grow(&mut self.small, SMALL);
        if !self.swept {
            // A window touches at most min(ids, bumps) ids; the extra
            // slot takes the store a repeat touch makes past the live
            // prefix.
            grow(&mut self.touched, n_ids.min(bumps) + 1);
        }
        self.degrees.clear();
        self.swept
    }

    /// Add each of at most `n_bumps` `(id, count)` bumps, ids below
    /// `n_ids`, to the accumulator of its width, count the bumped nodes'
    /// degrees by value while zeroing them, and build the histogram. No
    /// count of 0 becomes a degree.
    // lint:hot
    fn count<C: Tallied>(
        &mut self,
        bumps: impl Iterator<Item = (NodeId, C)>,
        n_bumps: usize,
        n_ids: usize,
    ) -> DegreeHistogram {
        let swept = self.begin(n_ids, n_bumps);
        let Self {
            small,
            degrees,
            acc,
            touched,
            live,
            ..
        } = self;
        let counts = C::accumulator(acc);
        grow(counts, n_ids);
        if swept {
            bumps.for_each(|(id, v)| {
                if let Some(c) = counts.get_mut(id as usize) {
                    *c += v;
                }
            });
            for c in counts.iter_mut().take(n_ids) {
                count_degree(small, degrees, std::mem::take(c).into());
            }
            // The sweep counted each id left at 0 as a degree 0: none
            // is one.
            if let Some(zeros) = small.first_mut() {
                *zeros = 0;
            }
        } else {
            let mut b = Bumps {
                counts: counts.as_mut_slice(),
                touched: touched.as_mut_slice(),
                live: 0,
                live_slot: &mut *live,
            };
            bumps.for_each(|(id, v)| b.bump(id, v));
            drop(b);
            for &id in touched.iter().take(*live) {
                if let Some(c) = counts.get_mut(id as usize) {
                    count_degree(small, degrees, std::mem::take(c).into());
                }
            }
            *live = 0;
        }
        self.finish()
    }

    /// Build the histogram in one bulk pass: the by-value counts in
    /// degree order, zeroing `small` as it is read, then the runs of the
    /// sorted large degrees, which all lie above them.
    // lint:hot
    fn finish(&mut self) -> DegreeHistogram {
        self.degrees.sort_unstable();
        let by_value = self
            .small
            .iter_mut()
            .zip(0u64..)
            .map(|(n, d)| (d, std::mem::take(n)));
        let h = DegreeHistogram::from_sorted_counts(by_value.chain(sorted_runs(&self.degrees)));
        self.pending = false;
        h
    }

    /// Distinct partners per node over at most `n_edges` deduplicated
    /// undirected edges, in any order. A self-loop is one partner (the
    /// node itself), matching partner-set semantics.
    ///
    /// # Panics
    ///
    /// Panics if `n_edges` passes [`MAX_PARTNER_EDGES`], so no `u32`
    /// partner count can wrap.
    // lint:hot
    fn undirected(
        &mut self,
        edges: impl Iterator<Item = (NodeId, NodeId)>,
        n_edges: usize,
        n_ids: usize,
    ) -> DegreeHistogram {
        assert!(
            n_edges <= MAX_PARTNER_EDGES,
            "{n_edges} distinct edges in one window: partner counts are u32"
        );
        let ends = edges.flat_map(|(lo, hi)| [(lo, 1), (hi, u32::from(hi != lo))]);
        self.count(ends, n_edges.saturating_mul(2), n_ids)
    }

    /// Packets each node sent or received over at most `n_entries`
    /// entries: every entry adds its count at both endpoints, so a
    /// self-loop counts twice.
    // lint:hot
    fn volume(
        &mut self,
        entries: impl Iterator<Item = (NodeId, NodeId, Count)>,
        n_entries: usize,
        n_ids: usize,
    ) -> DegreeHistogram {
        let ends = entries.flat_map(|(src, dst, v)| [(src, v), (dst, v)]);
        self.count(ends, n_entries.saturating_mul(2), n_ids)
    }

    /// One Figure 1 quantity over at most `n_entries` distinct
    /// `(src, dst, count)` entries, in any order. Link packets are the
    /// counts themselves, a count of 0 included; the other four add a
    /// count (packets) or 1 (fan-out, fan-in) per entry at its source
    /// or destination.
    // lint:hot
    fn quantity(
        &mut self,
        q: NetworkQuantity,
        entries: impl Iterator<Item = (NodeId, NodeId, Count)>,
        n_entries: usize,
        n_ids: usize,
    ) -> DegreeHistogram {
        if q == NetworkQuantity::LinkPackets {
            self.begin(0, 0);
            for (_, _, v) in entries {
                count_degree(&mut self.small, &mut self.degrees, v);
            }
            return self.finish();
        }
        let by_src = matches!(
            q,
            NetworkQuantity::SourcePackets | NetworkQuantity::SourceFanOut
        );
        let packets = matches!(
            q,
            NetworkQuantity::SourcePackets | NetworkQuantity::DestinationPackets
        );
        let ends = entries
            .map(|(src, dst, v)| (if by_src { src } else { dst }, if packets { v } else { 1 }));
        self.count(ends, n_entries, n_ids)
    }
}

/// Count degree `d` in a [`Tally`]: by value below [`SMALL`], else in
/// the list of large degrees.
#[inline]
fn count_degree(small: &mut [u64], degrees: &mut Vec<u64>, d: u64) {
    match usize::try_from(d).ok().and_then(|i| small.get_mut(i)) {
        Some(n) => *n += 1,
        None => degrees.push(d),
    }
}

impl Marks {
    /// Start a window of at most `n_marks` marks over
    /// `n_conversations` conversations: clear what a window that was
    /// marked and never counted left behind, size the marks, and lend
    /// them out.
    fn begin(
        &mut self,
        marking: Marking,
        n_conversations: usize,
        n_marks: usize,
        sparse: bool,
    ) -> Marker<'_> {
        if self.pending {
            self.clear();
        }
        self.marking = marking;
        self.sparse = sparse;
        self.pending = true;
        match marking {
            Marking::Edges => grow(&mut self.bits, n_conversations.div_ceil(64)),
            Marking::Pairs => grow(&mut self.pairs, n_conversations.saturating_mul(2)),
        }
        // A sparse window lists at most `n_marks` marks; the extra slot
        // takes the store a repeated mark makes past the live prefix.
        let space = if sparse { n_marks + 1 } else { 0 };
        grow(&mut self.marked, space);
        Marker {
            bits: &mut self.bits,
            pairs: &mut self.pairs,
            dense_edge_window: marking == Marking::Edges && !sparse,
            marked: self.marked.get_mut(..space).unwrap_or_default(),
            live: 0,
            live_slot: &mut self.live,
        }
    }

    /// The listed first marks.
    fn listed(&self) -> &[Mark] {
        self.marked.get(..self.live).unwrap_or_default()
    }

    /// Give every listed mark its endpoints, looking up those the mark
    /// pass did not know, in a pass of their own so the counting loop
    /// after it has no branch the data cannot predict.
    // lint:hot
    fn resolve(&mut self, net: &impl Conversations) {
        let edges = self.marking == Marking::Edges;
        let listed = self.marked.iter_mut().take(self.live);
        for m in listed.filter(|m| m.id & UNRESOLVED != 0) {
            m.id &= !UNRESOLVED;
            let canonical = if edges { m.id } else { m.id / 2 };
            let (lo, hi) = net.ends(canonical);
            (m.a, m.b) = if !edges && m.id & 1 == 1 {
                (hi, lo)
            } else {
                (lo, hi)
            };
        }
    }

    /// Zero every mark of the window and end it: through the list of a
    /// sparse window (a listed edge's whole bit word, as every bit set
    /// in it is listed too), wholesale for a dense one.
    // lint:hot
    fn clear(&mut self) {
        if self.sparse {
            for m in self.marked.iter().take(self.live) {
                let id = m.id & !UNRESOLVED;
                let slot = match self.marking {
                    Marking::Edges => self.bits.get_mut((id / 64) as usize),
                    Marking::Pairs => self.pairs.get_mut(id as usize),
                };
                if let Some(slot) = slot {
                    *slot = 0;
                }
            }
        } else {
            match self.marking {
                Marking::Edges => self.bits.fill(0),
                Marking::Pairs => self.pairs.fill(0),
            }
        }
        self.live = 0;
        self.pending = false;
    }
}

/// Grow `v` with defaults to at least `len` entries.
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// `id`, with [`UNRESOLVED`] set unless `known`.
fn tagged(id: u32, known: bool) -> u32 {
    id | (u32::from(!known) << 31)
}

/// Whether bit `id` is set.
fn is_marked(bits: &[u64], id: u32) -> bool {
    bits.get((id / 64) as usize)
        .is_some_and(|word| word >> (id % 64) & 1 == 1)
}

impl DegreeScratch {
    /// Create an empty scratch; buffers grow on first use and are
    /// retained across windows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase one of the packet-level kernel (the window's edge set):
    /// pack `pairs` into `u64` keys as `keys` says — for
    /// [`EdgeKeys::Undirected`] deduplicating them through the edge
    /// table, for [`EdgeKeys::Directed`] sorting them. The matching
    /// `*_of_keys` call then counts them.
    // lint:hot
    pub fn key_pairs(&mut self, keys: EdgeKeys, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) {
        self.keys.clear();
        self.n_ids = 0;
        if keys == EdgeKeys::Undirected {
            self.table.reset();
            for (src, dst) in pairs {
                let (lo, hi) = if src <= dst { (src, dst) } else { (dst, src) };
                self.n_ids = self.n_ids.max(hi as usize + 1);
                let key = pack(lo, hi);
                if self.table.insert(key) {
                    self.keys.push(key);
                    if self.table.is_over_loaded(self.keys.len()) {
                        self.table.grow(&self.keys);
                    }
                }
            }
            return;
        }
        for (src, dst) in pairs {
            self.n_ids = self.n_ids.max(src.max(dst) as usize + 1);
            self.keys.push(pack(src, dst));
        }
        if keys == EdgeKeys::Directed {
            self.keys.sort_unstable();
        }
    }

    /// Undirected-degree histogram of pairs keyed as
    /// [`EdgeKeys::Undirected`].
    ///
    /// # Panics
    ///
    /// Panics if the window holds 2³² or more distinct edges: partner
    /// counts are `u32`, and at most one per distinct edge.
    pub fn undirected_degree_of_keys(&mut self) -> DegreeHistogram {
        let edges = self.keys.iter().map(|&k| unpack(k));
        self.tally.undirected(edges, self.keys.len(), self.n_ids)
    }

    /// Node-volume histogram of pairs keyed as [`EdgeKeys::Packets`]
    /// (or [`EdgeKeys::Directed`]: volume ignores order).
    pub fn node_volume_of_keys(&mut self) -> DegreeHistogram {
        let entries = self.keys.iter().map(|&k| {
            let (src, dst) = unpack(k);
            (src, dst, 1)
        });
        self.tally.volume(entries, self.keys.len(), self.n_ids)
    }

    /// Figure 1 quantity histogram of pairs keyed as
    /// [`EdgeKeys::Directed`].
    pub fn quantity_of_keys(&mut self, q: NetworkQuantity) -> DegreeHistogram {
        self.tally
            .quantity(q, runs(&self.keys), self.keys.len(), self.n_ids)
    }

    /// Undirected-degree histogram of a window matrix: distinct
    /// partners per visible host. Equal to
    /// `PacketWindow::undirected_degree_histogram` output — a
    /// self-loop contributes exactly one partner (the host itself),
    /// matching the partner-set semantics.
    ///
    /// # Panics
    ///
    /// Panics if the window holds 2³² or more distinct edges: partner
    /// counts are `u32`, and at most one per distinct edge.
    pub fn undirected_degree_histogram(&mut self, a: &CsrMatrix) -> DegreeHistogram {
        self.key_pairs(
            EdgeKeys::Undirected,
            a.iter().map(|(src, dst, _)| (src, dst)),
        );
        self.undirected_degree_of_keys()
    }

    /// Node-volume histogram: total packets each visible host sent or
    /// received. Equal to `PacketWindow::node_volume_histogram`
    /// output.
    pub fn node_volume_histogram(&mut self, a: &CsrMatrix) -> DegreeHistogram {
        self.tally.volume(a.iter(), a.nnz(), dims(a))
    }

    /// One Figure 1 quantity histogram, equal to
    /// [`NetworkQuantity::histogram`] on the same matrix but reusing
    /// this scratch's buffers.
    pub fn quantity_histogram(&mut self, q: NetworkQuantity, a: &CsrMatrix) -> DegreeHistogram {
        self.tally.quantity(q, a.iter(), a.nnz(), dims(a))
    }

    /// Start one window of the fused kernel over `net`'s conversations,
    /// recording `marking` for at most `n_marks` packets: the returned
    /// [`Marker`] takes one `mark_*` call per packet. Clears what a
    /// window that was marked and never counted (it panicked) left
    /// behind. The window is sparse when `n_marks < net.n_edges()`: it
    /// lists each edge or pair as it is first marked, and its count pass
    /// walks the list. A dense window lists nothing, and its count pass
    /// scans every edge; a dense [`Marking::Edges`] window lends its bit
    /// set through [`Marker::dense_edges`], to be marked per packet and
    /// folded once.
    pub fn begin_marks(
        &mut self,
        marking: Marking,
        net: &impl Conversations,
        n_marks: usize,
    ) -> Marker<'_> {
        let sparse = n_marks < net.n_edges();
        self.marks
            .begin(marking, net.n_conversations(), n_marks, sparse)
    }

    /// Undirected-degree histogram of a [`Marking::Edges`] window over
    /// `net`'s conversations. Its partner counts are `u32`, at most one
    /// per distinct edge.
    ///
    /// # Panics
    ///
    /// Panics if `net` has 2³² or more distinct edges.
    // lint:hot
    pub fn undirected_degree_of_marks(&mut self, net: &impl Conversations) -> DegreeHistogram {
        let Self { tally, marks, .. } = self;
        let h = if marks.sparse {
            marks.resolve(net);
            let listed = marks.listed();
            let edges = listed.iter().map(|m| (m.a, m.b));
            tally.undirected(edges, listed.len(), net.n_ids())
        } else {
            let bits = &marks.bits;
            let edges = net
                .edges()
                .filter_map(|(i, lo, hi)| is_marked(bits, i).then_some((lo, hi)));
            tally.undirected(edges, net.n_edges(), net.n_ids())
        };
        marks.clear();
        h
    }

    /// Node-volume histogram of a [`Marking::Pairs`] window over `net`'s
    /// conversations.
    pub fn node_volume_of_marks(&mut self, net: &impl Conversations) -> DegreeHistogram {
        let Self { tally, marks, .. } = self;
        let h = if marks.sparse {
            marks.resolve(net);
            let n = marks.live;
            tally.volume(sparse_pairs(marks), n, net.n_ids())
        } else {
            let n = net.n_edges().saturating_mul(2);
            tally.volume(dense_pairs(&marks.pairs, net), n, net.n_ids())
        };
        marks.clear();
        h
    }

    /// Figure 1 quantity histogram of a [`Marking::Pairs`] window over
    /// `net`'s conversations.
    pub fn quantity_of_marks(
        &mut self,
        q: NetworkQuantity,
        net: &impl Conversations,
    ) -> DegreeHistogram {
        let Self { tally, marks, .. } = self;
        let h = if marks.sparse {
            marks.resolve(net);
            let n = marks.live;
            tally.quantity(q, sparse_pairs(marks), n, net.n_ids())
        } else {
            let n = net.n_edges().saturating_mul(2);
            tally.quantity(q, dense_pairs(&marks.pairs, net), n, net.n_ids())
        };
        marks.clear();
        h
    }
}

/// A sparse window's listed pairs as `(src, dst, count)` entries.
fn sparse_pairs(marks: &Marks) -> impl Iterator<Item = (NodeId, NodeId, Count)> + '_ {
    let pairs = &marks.pairs;
    marks.listed().iter().map(|m| {
        let v = pairs.get(m.id as usize).copied().unwrap_or(0);
        (m.a, m.b, v)
    })
}

/// A dense window's `(src, dst, count)` entries over `net`'s edges.
fn dense_pairs<'a>(
    pairs: &'a [Count],
    net: &'a impl Conversations,
) -> impl Iterator<Item = (NodeId, NodeId, Count)> + 'a {
    net.edges().flat_map(move |(i, lo, hi)| {
        let pair = i.wrapping_mul(2) as usize;
        let count = |p: usize| pairs.get(p).copied().unwrap_or(0);
        [(lo, hi, count(pair)), (hi, lo, count(pair + 1))]
            .into_iter()
            .filter(|&(_, _, v)| v > 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Window: 0→1 ×3, 0→2 ×1, 5→1 ×2, 5→5 ×1 (self-loop).
    fn window() -> CsrMatrix {
        let mut m = CooMatrix::new();
        m.push(0, 1, 3);
        m.push(0, 2, 1);
        m.push(5, 1, 2);
        m.push(5, 5, 1);
        m.to_csr()
    }

    fn reference_undirected(a: &CsrMatrix) -> DegreeHistogram {
        let mut partners: std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>> =
            std::collections::BTreeMap::new();
        for (src, dst, _) in a.iter() {
            partners.entry(src).or_default().insert(dst);
            partners.entry(dst).or_default().insert(src);
        }
        DegreeHistogram::from_degrees(partners.values().map(|s| s.len() as u64))
    }

    #[test]
    fn undirected_matches_partner_set_reference() {
        let a = window();
        let mut s = DegreeScratch::new();
        assert_eq!(s.undirected_degree_histogram(&a), reference_undirected(&a));
        // Reuse across windows: a second, different matrix on the
        // same scratch must still be exact.
        let mut m = CooMatrix::new();
        for &(x, y) in &[(0u32, 0u32), (1, 2), (2, 1), (7, 3)] {
            m.push_packet(x, y);
        }
        let b = m.to_csr();
        assert_eq!(s.undirected_degree_histogram(&b), reference_undirected(&b));
        // And re-running the first matrix is unaffected by residue.
        assert_eq!(s.undirected_degree_histogram(&a), reference_undirected(&a));
    }

    #[test]
    fn self_loop_counts_one_partner() {
        let mut m = CooMatrix::new();
        m.push(4, 4, 9);
        let a = m.to_csr();
        let h = DegreeScratch::new().undirected_degree_histogram(&a);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn node_volume_matches_row_plus_col_sums() {
        let a = window();
        let sent = a.row_sums();
        let received = a.col_sums();
        let n = sent.len().max(received.len());
        let reference = DegreeHistogram::from_degrees((0..n).filter_map(|i| {
            let t = sent.get(i).copied().unwrap_or(0) + received.get(i).copied().unwrap_or(0);
            (t > 0).then_some(t)
        }));
        let mut s = DegreeScratch::new();
        assert_eq!(s.node_volume_histogram(&a), reference);
        assert_eq!(s.node_volume_histogram(&a), reference);
    }

    #[test]
    fn quantities_match_allocating_path() {
        let a = window();
        let mut s = DegreeScratch::new();
        for q in NetworkQuantity::ALL {
            assert_eq!(s.quantity_histogram(q, &a), q.histogram(&a), "{}", q.name());
            // Twice: buffer residue must not leak between calls.
            assert_eq!(s.quantity_histogram(q, &a), q.histogram(&a), "{}", q.name());
        }
    }

    /// Every measurement through the packet-level kernel, in the
    /// order `key_pairs` then `*_of_keys`.
    fn kernel_histograms(s: &mut DegreeScratch, pairs: &[(u32, u32)]) -> Vec<DegreeHistogram> {
        let pairs = || pairs.iter().copied();
        s.key_pairs(EdgeKeys::Undirected, pairs());
        let mut out = vec![s.undirected_degree_of_keys()];
        s.key_pairs(EdgeKeys::Packets, pairs());
        out.push(s.node_volume_of_keys());
        for q in NetworkQuantity::ALL {
            s.key_pairs(EdgeKeys::Directed, pairs());
            out.push(s.quantity_of_keys(q));
        }
        out
    }

    /// The same measurements through the CSR entry points.
    fn csr_histograms(pairs: &[(u32, u32)]) -> Vec<DegreeHistogram> {
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let mut s = DegreeScratch::new();
        let mut out = vec![
            s.undirected_degree_histogram(&a),
            s.node_volume_histogram(&a),
        ];
        out.extend(NetworkQuantity::ALL.map(|q| q.histogram(&a)));
        out
    }

    #[test]
    fn packet_kernel_matches_csr_entry_points() {
        let mut s = DegreeScratch::new();
        let windows: [&[(u32, u32)]; 5] = [
            &[(0, 1), (0, 1), (0, 1), (0, 2), (5, 1), (5, 1), (5, 5)],
            &[(9, 9), (9, 9), (1, 4), (4, 1)],
            &[(3, 7)],
            &[],
            &[(0, 2_000_000), (2_000_000, 0), (17, 17)],
        ];
        for pairs in windows {
            assert_eq!(
                kernel_histograms(&mut s, pairs),
                csr_histograms(pairs),
                "{pairs:?}"
            );
        }
    }

    #[test]
    fn panic_mid_kernel_leaves_the_next_histogram_exact() {
        let pairs = [(0u32, 1u32), (0, 1), (2, 1), (3, 3), (4, 0)];
        let expected = csr_histograms(&pairs);
        let mut s = DegreeScratch::new();
        kernel_histograms(&mut s, &[(6, 6), (7, 6)]);
        // A panic part-way through a sorted and a hashed keying: three
        // of the five pairs are packed (and, undirected, inserted in
        // the edge table), and the next window keys the same pairs, so
        // it meets keys the table already held.
        for keys in [EdgeKeys::Directed, EdgeKeys::Undirected] {
            let keyed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut n = 0;
                s.key_pairs(
                    keys,
                    pairs.iter().copied().inspect(|_| {
                        n += 1;
                        assert!(n < 4, "injected panic while keying");
                    }),
                );
            }));
            assert!(keyed.is_err());
            assert!(!s.keys.is_empty());
            assert_eq!(kernel_histograms(&mut s, &pairs), expected, "{keys:?}");
        }
        // A panic while counting: the dense accumulator holds touched
        // counts that were never drained.
        let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = (0..10u32).map(|i| {
                assert!(i < 6, "injected panic while counting");
                (i % 4, 5 - i % 4, 1)
            });
            s.tally.volume(entries, 10, 6)
        }));
        assert!(counted.is_err());
        assert!(stranded(&s.tally));
        assert_eq!(kernel_histograms(&mut s, &pairs), expected);
        // A window with degrees on both sides of the by-value cutoff,
        // after a count that panicked with nodes bumped on both sides
        // of it, and after a `finish` that panicked.
        let stars = cutoff_stars();
        let expected = csr_histograms(&stars);
        let bumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = (0..10u32).map(|i| {
                assert!(i < 8, "injected panic while counting");
                (i % 4, 4 + i % 4, [1, 1023, 1024, 1025][(i % 4) as usize])
            });
            s.tally.volume(entries, 10, 8)
        }));
        assert!(bumped.is_err());
        assert!(stranded(&s.tally));
        assert_eq!(kernel_histograms(&mut s, &stars), expected);
        strand_a_finish(&mut s);
        assert_eq!(kernel_histograms(&mut s, &stars), expected);
    }

    /// Whether `t` holds counts of a window that was begun and never
    /// drained: a listed window's touched ids, or a swept window's
    /// nonzero accumulator entries.
    fn stranded(t: &Tally) -> bool {
        let nonzero = t.acc.partners.iter().any(|&c| c > 0) || t.acc.packets.iter().any(|&c| c > 0);
        t.live > 0 || (t.pending && t.swept && nonzero)
    }

    /// Leave `s` as a `finish` that panicked would: a begun window's
    /// by-value counts and large degrees, never read.
    fn strand_a_finish(s: &mut DegreeScratch) {
        let t = &mut s.tally;
        t.begin(0, 0);
        for d in [1, 7, 1023, 1024, 5_000] {
            count_degree(&mut t.small, &mut t.degrees, d);
        }
        assert!(t.pending);
    }

    /// Undirected degrees on both sides of the by-value cutoff: stars
    /// of 1023, 1024 and 1025 leaves, and a lone edge.
    fn cutoff_stars() -> Vec<(u32, u32)> {
        let mut pairs = vec![(3, 4)];
        for (center, leaves, first) in [(0u32, 1023u32, 10u32), (1, 1024, 2_000), (2, 1025, 4_000)]
        {
            pairs.extend((first..first + leaves).map(|leaf| (center, leaf)));
        }
        pairs
    }

    #[test]
    fn degrees_on_both_sides_of_the_cutoff_match_the_reference() {
        use NetworkQuantity::{DestinationPackets, LinkPackets, SourcePackets};
        let mut s = DegreeScratch::new();
        // Undirected degrees 1, 1023, 1024 and 1025, through all three
        // entry points.
        let stars = cutoff_stars();
        let leaves = 2 + 1023 + 1024 + 1025;
        let want = DegreeHistogram::from_degrees(
            [1023, 1024, 1025]
                .into_iter()
                .chain(std::iter::repeat_n(1, leaves)),
        );
        s.key_pairs(EdgeKeys::Undirected, stars.iter().copied());
        assert_eq!(s.undirected_degree_of_keys(), want);
        let a = CooMatrix::from_packet_pairs(stars.iter().copied()).to_csr();
        assert_eq!(s.undirected_degree_histogram(&a), want);
        let net = Net::new(&stars);
        let once: Vec<(usize, bool)> = (0..stars.len()).map(|j| (j, j % 2 == 0)).collect();
        net.mark(&mut s, Marking::Edges, &once);
        assert_eq!(s.undirected_degree_of_marks(&net), want);

        // Volumes 1, 1023, 1024, 1025 and one above `u32::MAX`, one
        // link each: a node's volume is its link's packets, and so is
        // its source or destination packets.
        let big = u64::from(u32::MAX) + 3;
        let counts = [1, 1023, 1024, 1025, big];
        let links: Vec<(u32, u32)> = (0..counts.len() as u32)
            .map(|i| (2 * i, 2 * i + 1))
            .collect();
        let volumes = DegreeHistogram::from_degrees(counts.iter().flat_map(|&c| [c, c]));
        let links_of = |counts: &[u64]| DegreeHistogram::from_degrees(counts.iter().copied());
        let mut m = CooMatrix::new();
        for (&(src, dst), &c) in links.iter().zip(&counts) {
            m.push(src, dst, c);
        }
        let a = m.to_csr();
        assert_eq!(s.node_volume_histogram(&a), volumes);
        for q in [SourcePackets, LinkPackets, DestinationPackets] {
            assert_eq!(
                s.quantity_histogram(q, &a),
                links_of(&counts),
                "{}",
                q.name()
            );
        }
        // Each link's packets marked at once, in a dense window and in
        // a sparse one (unmarked edges outnumber the marks).
        for spare in [0, 8] {
            let mut conversations = links.clone();
            conversations.extend((0..spare).map(|i| (100 + i, 101 + i)));
            let net = Net::new(&conversations);
            let mark = |s: &mut DegreeScratch| {
                let mut marker = s.begin_marks(Marking::Pairs, &net, links.len());
                for (i, (&(src, dst), &c)) in links.iter().zip(&counts).enumerate() {
                    marker.mark_pair(i as u32, false, src, dst, c, true);
                }
            };
            mark(&mut s);
            assert_eq!(s.node_volume_of_marks(&net), volumes, "{spare}");
            for q in [SourcePackets, LinkPackets, DestinationPackets] {
                mark(&mut s);
                let h = s.quantity_of_marks(q, &net);
                assert_eq!(h, links_of(&counts), "{} {spare}", q.name());
            }
        }
        // The packet-level kernel takes packets, so only the volumes
        // below `u32::MAX`.
        let small = counts.get(..4).unwrap_or_default();
        let packets: Vec<(u32, u32)> = links
            .iter()
            .zip(small)
            .flat_map(|(&link, &c)| std::iter::repeat_n(link, c as usize))
            .collect();
        s.key_pairs(EdgeKeys::Packets, packets.iter().copied());
        let doubled = DegreeHistogram::from_degrees(small.iter().flat_map(|&c| [c, c]));
        assert_eq!(s.node_volume_of_keys(), doubled);
        for q in [SourcePackets, LinkPackets, DestinationPackets] {
            s.key_pairs(EdgeKeys::Directed, packets.iter().copied());
            assert_eq!(s.quantity_of_keys(q), links_of(small), "{}", q.name());
        }

        // The zero rules, on the count code every entry point feeds: a
        // volume of 0 is no degree, a link of 0 packets is one. (A CSR
        // cannot store a zero and a mark adds `n > 0` packets, so no
        // entry point passes a zero today.)
        let zero = [(0u32, 1u32, 0u64), (2, 3, 1024)];
        let h = s.tally.volume(zero.into_iter(), 2, 4);
        assert_eq!(h, DegreeHistogram::from_degrees([1024, 1024]));
        let h = s.tally.quantity(LinkPackets, zero.into_iter(), 2, 4);
        assert_eq!(h, DegreeHistogram::from_degrees([0, 1024]));
        let h = s.tally.quantity(SourcePackets, zero.into_iter(), 2, 4);
        assert_eq!(h, DegreeHistogram::from_degrees([1024]));
    }

    /// A test network for the fused kernel: conversations `edges`, each
    /// edge named by its first conversation, with a trap that panics
    /// inside the count pass's `trap`-th lookup or scanned edge.
    struct Net {
        edges: Vec<(u32, u32)>,
        first: Vec<u32>,
        /// Bit `j` is set when conversation `j` is a repeat.
        repeats: Vec<u64>,
        trap: std::cell::Cell<Option<usize>>,
    }

    impl Net {
        fn new(edges: &[(u32, u32)]) -> Net {
            let mut seen = std::collections::BTreeMap::new();
            let first = (0..edges.len() as u32)
                .map(|i| {
                    let (u, v) = edges[i as usize];
                    *seen.entry((u.min(v), u.max(v))).or_insert(i)
                })
                .collect::<Vec<u32>>();
            let mut repeats = vec![0u64; edges.len().div_ceil(64)];
            for (j, &f) in first.iter().enumerate() {
                if f as usize != j {
                    repeats[j / 64] |= 1 << (j % 64);
                }
            }
            Net {
                edges: edges.to_vec(),
                first,
                repeats,
                trap: std::cell::Cell::new(None),
            }
        }

        fn spring(&self) {
            if let Some(n) = self.trap.get() {
                assert!(n > 0, "injected panic while counting");
                self.trap.set(Some(n - 1));
            }
        }

        /// Mark `packets`, `(conversation, forward)`, as the synthesizer
        /// does: a repeat by its edge's first conversation, with its
        /// endpoints left to the count pass, and a dense edge window's
        /// conversations by their own bits, folded once after the last.
        fn mark(&self, s: &mut DegreeScratch, marking: Marking, packets: &[(usize, bool)]) {
            let mut marker = s.begin_marks(marking, self, packets.len());
            if let Some(mut bits) = marker.dense_edges() {
                for &(j, _) in packets {
                    bits.mark(j as u32);
                }
                bits.fold(&self.repeats, |j| self.first[j]);
                return;
            }
            for &(j, forward) in packets {
                let (u, v) = self.edges[j];
                let (src, dst) = if forward { (u, v) } else { (v, u) };
                let id = self.first[j];
                let known = id as usize == j;
                match marking {
                    Marking::Edges => marker.mark_edge(id, src, dst, known),
                    Marking::Pairs => marker.mark_pair(id, src > dst, src, dst, 1, known),
                }
            }
        }

        /// Every measurement through the fused kernel.
        fn histograms(
            &self,
            s: &mut DegreeScratch,
            packets: &[(usize, bool)],
        ) -> Vec<DegreeHistogram> {
            self.mark(s, Marking::Edges, packets);
            let mut out = vec![s.undirected_degree_of_marks(self)];
            self.mark(s, Marking::Pairs, packets);
            out.push(s.node_volume_of_marks(self));
            for q in NetworkQuantity::ALL {
                self.mark(s, Marking::Pairs, packets);
                out.push(s.quantity_of_marks(q, self));
            }
            out
        }

        /// The same measurements through the packet-level kernel.
        fn reference(&self, packets: &[(usize, bool)]) -> Vec<DegreeHistogram> {
            let pairs: Vec<(u32, u32)> = packets
                .iter()
                .map(|&(j, forward)| {
                    let (u, v) = self.edges[j];
                    if forward {
                        (u, v)
                    } else {
                        (v, u)
                    }
                })
                .collect();
            kernel_histograms(&mut DegreeScratch::new(), &pairs)
        }
    }

    impl Conversations for Net {
        fn n_conversations(&self) -> usize {
            self.edges.len()
        }

        fn n_edges(&self) -> usize {
            (0..self.edges.len())
                .filter(|&j| self.first[j] as usize == j)
                .count()
        }

        fn n_ids(&self) -> usize {
            self.edges
                .iter()
                .map(|&(u, v)| u.max(v) as usize + 1)
                .max()
                .unwrap_or(0)
        }

        fn edges(&self) -> impl Iterator<Item = (u32, NodeId, NodeId)> + '_ {
            (0..self.edges.len() as u32)
                .filter(|&j| self.first[j as usize] == j)
                .map(|j| {
                    self.spring();
                    let (u, v) = self.edges[j as usize];
                    (j, u.min(v), u.max(v))
                })
        }

        fn ends(&self, i: u32) -> (NodeId, NodeId) {
            self.spring();
            let (u, v) = self.edges[i as usize];
            (u.min(v), u.max(v))
        }
    }

    /// Parallel conversations, reversed duplicates and self-loops: 11
    /// conversations over 6 edges.
    const MULTIGRAPH: [(u32, u32); 11] = [
        (0, 1),
        (1, 0),
        (2, 2),
        (0, 1),
        (3, 1),
        (2, 2),
        (1, 3),
        (4, 0),
        (5, 5),
        (0, 4),
        (2, 3),
    ];

    /// `n` packets drawn at random from `n_conversations`.
    fn random_packets(
        rng: &mut palu_stats::rng::Xoshiro256pp,
        n: usize,
        n_conversations: usize,
    ) -> Vec<(usize, bool)> {
        use palu_stats::rng::Rng;
        (0..n)
            .map(|_| (rng.gen_range(0..n_conversations), rng.gen_bool(0.5)))
            .collect()
    }

    #[test]
    fn fused_kernel_matches_the_packet_kernel() {
        let net = Net::new(&MULTIGRAPH);
        assert_eq!(net.n_edges(), 6);
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(0xf0);
        let mut s = DegreeScratch::new();
        // Windows sparser and denser than the 6 edges, on one scratch.
        for n in [0, 1, 2, 5, 6, 7, 30, 3, 200] {
            for _ in 0..20 {
                let packets = random_packets(&mut rng, n, MULTIGRAPH.len());
                assert_eq!(
                    net.histograms(&mut s, &packets),
                    net.reference(&packets),
                    "{packets:?}"
                );
            }
        }
        // Eight copies of a repeat's packet `1 → 0`, marked at once as
        // a duplicate-edge storm marks them.
        let mut marker = s.begin_marks(Marking::Pairs, &net, 1);
        marker.mark_pair(0, true, 1, 0, 8, false);
        drop(marker);
        let mut reference = DegreeScratch::new();
        reference.key_pairs(EdgeKeys::Directed, std::iter::repeat_n((1, 0), 8));
        assert_eq!(
            s.quantity_of_marks(NetworkQuantity::LinkPackets, &net),
            reference.quantity_of_keys(NetworkQuantity::LinkPackets)
        );
    }

    #[test]
    fn only_a_dense_edge_window_lends_its_bit_set() {
        let net = Net::new(&MULTIGRAPH);
        let mut s = DegreeScratch::new();
        for (marking, n, dense) in [
            (Marking::Edges, 5, false),
            (Marking::Edges, 6, true),
            (Marking::Edges, 200, true),
            (Marking::Pairs, 200, false),
            (Marking::Pairs, 5, false),
        ] {
            let mut marker = s.begin_marks(marking, &net, n);
            assert_eq!(marker.dense_edges().is_some(), dense, "{marking:?}, {n}");
        }
    }

    #[test]
    fn panic_mid_mark_or_count_leaves_the_next_window_exact() {
        let net = Net::new(&MULTIGRAPH);
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(0xf1);
        let mut s = DegreeScratch::new();
        let mut count_panics = 0;
        for n in [3, 40] {
            let next = random_packets(&mut rng, n, MULTIGRAPH.len());
            let expected = net.reference(&next);
            for marking in [Marking::Edges, Marking::Pairs] {
                // Mid-mark: half the window marked, never counted.
                let marked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    net.mark(&mut s, marking, &next[..n / 2]);
                    panic!("injected panic while marking");
                }));
                assert!(marked.is_err());
                assert_eq!(
                    net.histograms(&mut s, &next),
                    expected,
                    "mark {marking:?}, {n}"
                );
                // Mid-count: the second lookup or scanned edge panics,
                // with marks, tally counts and cleared marks part-way.
                for trap in [0, 1, 2] {
                    net.trap.set(Some(trap));
                    let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        net.mark(&mut s, marking, &next);
                        match marking {
                            Marking::Edges => s.undirected_degree_of_marks(&net),
                            Marking::Pairs => s.node_volume_of_marks(&net),
                        }
                    }));
                    net.trap.set(None);
                    if counted.is_ok() {
                        continue;
                    }
                    count_panics += 1;
                    assert_eq!(
                        net.histograms(&mut s, &next),
                        expected,
                        "count {marking:?}, {n}, {trap}"
                    );
                }
            }
        }
        assert!(count_panics >= 6, "{count_panics} counts panicked");
        // A window with degrees on both sides of the by-value cutoff:
        // a count that panics part-way through the scan of its 3 073
        // edges, with nodes bumped on both sides of it, or in `finish`,
        // leaves nothing behind.
        let stars = cutoff_stars();
        let net = Net::new(&stars);
        let mut next: Vec<(usize, bool)> = (0..stars.len()).map(|j| (j, j % 2 == 0)).collect();
        next.extend(std::iter::repeat_n((0, false), 1025));
        let expected = net.reference(&next);
        for marking in [Marking::Edges, Marking::Pairs] {
            for trap in [1, 1_500, 3_000] {
                net.trap.set(Some(trap));
                let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    net.mark(&mut s, marking, &next);
                    match marking {
                        Marking::Edges => s.undirected_degree_of_marks(&net),
                        Marking::Pairs => s.node_volume_of_marks(&net),
                    }
                }));
                net.trap.set(None);
                assert!(counted.is_err(), "{marking:?}, {trap}");
                assert!(stranded(&s.tally), "{marking:?}, {trap}");
                let got = net.histograms(&mut s, &next);
                assert_eq!(got, expected, "count {marking:?}, {trap}");
            }
            strand_a_finish(&mut s);
            let got = net.histograms(&mut s, &next);
            assert_eq!(got, expected, "finish {marking:?}");
        }
    }

    /// `pairs`' undirected degree, node volume and Figure 1 quantities,
    /// in [`kernel_histograms`]' order, by allocating references that do
    /// not count through a [`Tally`].
    fn references(pairs: &[(u32, u32)]) -> Vec<DegreeHistogram> {
        let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
        let mut out = vec![reference_undirected(&a), reference_volume(&a)];
        out.extend(NetworkQuantity::ALL.map(|q| q.histogram(&a)));
        out
    }

    /// Packets each node of `a` sent or received, from its row and
    /// column sums.
    fn reference_volume(a: &CsrMatrix) -> DegreeHistogram {
        let (sent, received) = (a.row_sums(), a.col_sums());
        let n = sent.len().max(received.len());
        DegreeHistogram::from_degrees((0..n).filter_map(|i| {
            let t = sent.get(i).copied().unwrap_or(0) + received.get(i).copied().unwrap_or(0);
            (t > 0).then_some(t)
        }))
    }

    #[test]
    fn windows_either_side_of_the_sweep_threshold_match_the_references() {
        let mut s = DegreeScratch::new();
        for n_edges in [1u32, 2, 3, 64, 500] {
            for n_ids in [2 * n_edges - 1, 2 * n_edges, 2 * n_edges + 1] {
                // A path over the first ids and one edge to the last id:
                // `n_edges` distinct edges over ids below `n_ids`.
                let mut edges: Vec<(u32, u32)> = (0..n_edges - 1).map(|k| (k, k + 1)).collect();
                edges.push((0, n_ids - 1));
                let packets: Vec<(usize, bool)> = (0..edges.len())
                    .flat_map(|k| std::iter::repeat_n((k, k % 2 == 0), k % 3 + 1))
                    .collect();
                let pairs: Vec<(u32, u32)> = packets
                    .iter()
                    .map(|&(k, forward)| {
                        let (u, v) = edges[k];
                        if forward {
                            (u, v)
                        } else {
                            (v, u)
                        }
                    })
                    .collect();
                let want = references(&pairs);
                let sweeps = 2 * n_edges >= n_ids;
                let label = format!("{n_edges} edges, {n_ids} ids");
                s.key_pairs(EdgeKeys::Undirected, pairs.iter().copied());
                assert_eq!(s.undirected_degree_of_keys(), want[0], "{label}");
                assert_eq!(s.tally.swept, sweeps, "{label}");
                let net = Net::new(&edges);
                net.mark(&mut s, Marking::Edges, &packets);
                assert_eq!(s.undirected_degree_of_marks(&net), want[0], "{label}");
                assert_eq!(s.tally.swept, sweeps, "{label}");
                assert_eq!(kernel_histograms(&mut s, &pairs), want, "{label}");
                assert_eq!(net.histograms(&mut s, &packets), want, "{label}");
                let a = CooMatrix::from_packet_pairs(pairs.iter().copied()).to_csr();
                assert_eq!(s.undirected_degree_histogram(&a), want[0], "{label}");
                assert_eq!(s.node_volume_histogram(&a), want[1], "{label}");
            }
        }
    }

    #[test]
    fn a_panic_in_a_swept_or_listed_count_leaves_the_next_window_exact() {
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(0x5ee9);
        // The next window sweeps (80 edge ends over 30 ids) or lists
        // (6 edge ends over 1 001 ids).
        let dense = window_of(&mut rng, 40, 2, 30);
        let sparse = [(0u32, 1000u32), (5, 7), (7, 7)];
        // Ten bumps over ids below 6, the seventh of which panics, into
        // the partner or the packet accumulator, swept (8 ids) or listed
        // (100 ids).
        let partners = |s: &mut DegreeScratch, n_ids| {
            let edges = (0..10u32).map(|i| {
                assert!(i < 6, "injected panic while counting");
                (i % 4, 5 - i % 4)
            });
            s.tally.undirected(edges, 10, n_ids)
        };
        let packets = |s: &mut DegreeScratch, n_ids| {
            let entries = (0..10u32).map(|i| {
                assert!(i < 6, "injected panic while counting");
                (i % 4, 5 - i % 4, 1024)
            });
            s.tally.volume(entries, 10, n_ids)
        };
        let mut s = DegreeScratch::new();
        for next in [&dense[..], &sparse[..]] {
            let want = references(next);
            for strand in [partners, packets] {
                for (n_ids, swept) in [(8, true), (100, false)] {
                    let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        strand(&mut s, n_ids)
                    }));
                    assert!(counted.is_err());
                    assert_eq!(s.tally.swept, swept);
                    assert!(stranded(&s.tally), "{n_ids} ids");
                    assert_eq!(kernel_histograms(&mut s, next), want, "{n_ids} ids");
                    assert!(!stranded(&s.tally));
                }
            }
        }
    }

    #[test]
    fn packet_counts_past_u32_stay_exact_swept_or_listed() {
        use NetworkQuantity::SourcePackets;
        // Node 0 sends 2^31 + 1 packets on each of two links: 2^32 + 2.
        let half = (1u64 << 31) + 1;
        for far in [None, Some(5_000u32)] {
            let mut m = CooMatrix::new();
            m.push(0, 1, half);
            m.push(0, 2, half);
            let mut volumes = vec![2 * half, half, half];
            let mut sent = vec![2 * half];
            if let Some(far) = far {
                m.push(far, far + 1, 1);
                volumes.extend([1, 1]);
                sent.push(1);
            }
            let a = m.to_csr();
            let mut s = DegreeScratch::new();
            assert_eq!(
                s.node_volume_histogram(&a),
                DegreeHistogram::from_degrees(volumes),
                "{far:?}"
            );
            assert_eq!(s.tally.swept, far.is_none());
            assert_eq!(
                s.quantity_histogram(SourcePackets, &a),
                DegreeHistogram::from_degrees(sent),
                "{far:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "partner counts are u32")]
    fn partner_counts_refuse_a_window_past_their_range() {
        let edges = std::iter::empty();
        DegreeScratch::new()
            .tally
            .undirected(edges, MAX_PARTNER_EDGES + 1, 4);
    }

    /// The window's distinct undirected keys in first-seen order.
    fn first_seen_keys(pairs: &[(u32, u32)]) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        pairs
            .iter()
            .map(|&(a, b)| pack(a.min(b), a.max(b)))
            .filter(|&k| seen.insert(k))
            .collect()
    }

    /// Key `pairs` undirected on `s` and check the edge set against a
    /// sort + dedup reference and the first-seen order.
    fn assert_edge_set(s: &mut DegreeScratch, pairs: &[(u32, u32)]) {
        s.key_pairs(EdgeKeys::Undirected, pairs.iter().copied());
        let mut reference: Vec<u64> = pairs
            .iter()
            .map(|&(a, b)| pack(a.min(b), a.max(b)))
            .collect();
        reference.sort_unstable();
        reference.dedup();
        let mut got = s.keys.clone();
        got.sort_unstable();
        assert_eq!(got, reference, "{} pairs", pairs.len());
        assert_eq!(s.keys, first_seen_keys(pairs), "{} pairs", pairs.len());
    }

    /// A window of `distinct` distinct undirected edges over ids below
    /// `span`, each sent `copies` times in a random direction, in a
    /// shuffled order.
    fn window_of(
        rng: &mut palu_stats::rng::Xoshiro256pp,
        distinct: usize,
        copies: usize,
        span: u32,
    ) -> Vec<(u32, u32)> {
        use palu_stats::rng::Rng;
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < distinct {
            let (a, b) = (rng.gen_range(0..span), rng.gen_range(0..span));
            edges.insert((a.min(b), a.max(b)));
        }
        let mut pairs: Vec<(u32, u32)> = edges
            .iter()
            .flat_map(|&e| std::iter::repeat_n(e, copies))
            .map(|(a, b)| if rng.gen_bool(0.5) { (a, b) } else { (b, a) })
            .collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..i + 1));
        }
        pairs
    }

    #[test]
    fn edge_table_matches_sort_dedup_across_growth() {
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(0x5eed);
        let mut s = DegreeScratch::new();
        let bound = (1usize << INITIAL_BITS) / LOAD_DIVISOR;
        // Distinct counts from 0 through several doublings of the
        // table (it grows past the load bound), then small again.
        let mut sweep = vec![0, 1, 2, 7];
        for b in [bound, 2 * bound, 4 * bound, 8 * bound] {
            sweep.extend([b - 1, b, b + 1]);
        }
        sweep.extend([40_000, 5, 0, 1, bound + 1, 3]);
        for &d in &sweep {
            let pairs = window_of(&mut rng, d, 1, 4_096);
            assert_edge_set(&mut s, &pairs);
            if d < 5_000 {
                assert_eq!(kernel_histograms(&mut s, &pairs), csr_histograms(&pairs));
            }
        }
        // Duplicate-heavy windows: about 4 packets per edge.
        for d in [300, 3_000, 20_000] {
            let pairs = window_of(&mut rng, d, 4, 6_000);
            assert_edge_set(&mut s, &pairs);
            assert_eq!(kernel_histograms(&mut s, &pairs), csr_histograms(&pairs));
        }
        // Self-loops, alone and among other edges.
        let loops: Vec<(u32, u32)> = (0..2_000u32).map(|i| (i % 700, i % 700)).collect();
        assert_edge_set(&mut s, &loops);
        assert_eq!(kernel_histograms(&mut s, &loops), csr_histograms(&loops));
        let mut mixed = window_of(&mut rng, 900, 2, 1_000);
        mixed.extend(loops.iter().take(600));
        assert_edge_set(&mut s, &mixed);
        assert_eq!(kernel_histograms(&mut s, &mixed), csr_histograms(&mixed));
    }

    #[test]
    fn edge_table_keeps_the_vacant_key_out_of_band() {
        // `pack(u32::MAX, u32::MAX)` equals the empty-slot value. Only
        // the keying is checked: 2^32 ids cannot size the accumulator.
        let top = u32::MAX;
        let mut s = DegreeScratch::new();
        assert_edge_set(&mut s, &[(top, top), (top, top)]);
        assert_eq!(s.keys, [VACANT]);
        assert_eq!(s.n_ids, 1 << 32);
        let mut rng = palu_stats::rng::Xoshiro256pp::seed_from_u64(0xface);
        let mut pairs = window_of(&mut rng, 1_500, 1, 1 << 30);
        pairs.insert(700, (top, top));
        pairs.insert(20, (top, top));
        pairs.push((top, 0));
        pairs.push((0, top));
        assert_edge_set(&mut s, &pairs);
        // The next window starts without it.
        assert_edge_set(&mut s, &[(1, 2), (2, 1)]);
        assert_eq!(s.keys, [pack(1, 2)]);
    }

    #[test]
    fn empty_matrix_yields_empty_histograms() {
        let a = CooMatrix::new().to_csr();
        let mut s = DegreeScratch::new();
        assert!(s.undirected_degree_histogram(&a).is_empty());
        assert!(s.node_volume_histogram(&a).is_empty());
        for q in NetworkQuantity::ALL {
            assert!(s.quantity_histogram(q, &a).is_empty());
        }
    }
}
