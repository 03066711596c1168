//! Coordinate-format (COO) sparse matrix builder.
//!
//! Packet windows arrive as a stream of `(source, destination)` pairs;
//! the COO builder accumulates them (duplicates summed — a link crossed
//! by `k` packets has value `k`) and converts to [`CsrMatrix`] for the
//! reductions.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scratch::CsrScratch;
use crate::{Count, NodeId};

/// Validate that `elems` elements of `elem_size` bytes fit one
/// allocation (`usize` count, ≤ `isize::MAX` bytes); returns the count
/// as `usize` on success. All geometry-derived buffer sizing in this
/// module funnels through here so an adversarial dimension surfaces as
/// a typed [`SparseError`] instead of a capacity-overflow panic.
fn checked_buffer(what: &'static str, elems: u128, elem_size: usize) -> Result<usize, SparseError> {
    let overflow = SparseError::CapacityOverflow {
        what,
        requested: elems,
    };
    let bytes = elems
        .checked_mul(elem_size as u128)
        .ok_or(overflow.clone())?;
    if elems > usize::MAX as u128 || bytes > isize::MAX as u128 {
        return Err(overflow);
    }
    Ok(elems as usize)
}

/// A sparse matrix under construction: unsorted `(row, col, value)`
/// triplets with duplicates allowed (they accumulate on conversion).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CooMatrix {
    rows: Vec<NodeId>,
    cols: Vec<NodeId>,
    vals: Vec<Count>,
    n_rows: NodeId,
    n_cols: NodeId,
}

impl CooMatrix {
    /// Create an empty builder. Dimensions grow automatically as
    /// entries arrive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty builder with reserved capacity for `nnz`
    /// triplets. Panics if the reservation itself cannot fit an
    /// allocation; see [`CooMatrix::try_with_capacity`] for the
    /// checked variant.
    pub fn with_capacity(nnz: usize) -> Self {
        match Self::try_with_capacity(nnz) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CooMatrix::with_capacity`] with checked sizing: `nnz` is
    /// typically derived from untrusted window geometry, so the byte
    /// arithmetic is validated and reported as a typed error instead
    /// of a capacity-overflow panic.
    pub fn try_with_capacity(nnz: usize) -> Result<Self, SparseError> {
        let nnz = checked_buffer("coo triplets", nnz as u128, size_of::<Count>())?;
        Ok(CooMatrix {
            rows: Vec::with_capacity(nnz), // sized via checked_buffer — lint:allow(R7)
            cols: Vec::with_capacity(nnz), // sized via checked_buffer — lint:allow(R7)
            vals: Vec::with_capacity(nnz), // sized via checked_buffer — lint:allow(R7)
            n_rows: 0,
            n_cols: 0,
        })
    }

    /// Record `count` packets from `src` to `dst`.
    pub fn push(&mut self, src: NodeId, dst: NodeId, count: Count) {
        if count == 0 {
            return;
        }
        self.rows.push(src);
        self.cols.push(dst);
        self.vals.push(count);
        self.n_rows = self.n_rows.max(src + 1);
        self.n_cols = self.n_cols.max(dst + 1);
    }

    /// Record one packet from `src` to `dst`.
    pub fn push_packet(&mut self, src: NodeId, dst: NodeId) {
        self.push(src, dst, 1);
    }

    /// Build from an iterator of `(src, dst)` packet pairs.
    pub fn from_packet_pairs<I: IntoIterator<Item = (NodeId, NodeId)>>(pairs: I) -> Self {
        let mut m = Self::new();
        for (s, d) in pairs {
            m.push_packet(s, d);
        }
        m
    }

    /// Number of raw triplets recorded (≥ the number of unique links).
    pub fn triplet_count(&self) -> usize {
        self.vals.len()
    }

    /// Total packets recorded so far — this will equal the matrix sum
    /// `Σ_{ij} A(i,j) = N_V` after conversion.
    pub fn total_count(&self) -> Count {
        self.vals.iter().sum()
    }

    /// Current row dimension (1 + max source id seen).
    pub fn n_rows(&self) -> NodeId {
        self.n_rows
    }

    /// Current column dimension (1 + max destination id seen).
    pub fn n_cols(&self) -> NodeId {
        self.n_cols
    }

    /// Force the matrix dimensions to at least `(n_rows, n_cols)` —
    /// needed when a window's address space is fixed externally (e.g.
    /// the underlying network's node count) so that empty trailing
    /// rows/columns survive.
    pub fn reserve_dims(&mut self, n_rows: NodeId, n_cols: NodeId) {
        self.n_rows = self.n_rows.max(n_rows);
        self.n_cols = self.n_cols.max(n_cols);
    }

    /// Reset to an empty builder, keeping the triplet buffers'
    /// capacity — the per-worker reuse path: one builder per worker,
    /// cleared between windows, so steady-state window assembly
    /// allocates nothing.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
        self.n_rows = 0;
        self.n_cols = 0;
    }

    /// Convert to CSR, accumulating duplicate `(row, col)` entries.
    ///
    /// Runs in `O(nnz + n_rows)` using a two-pass counting sort on
    /// rows followed by per-row sorting on columns. Panics if buffer
    /// sizing overflows; see [`CooMatrix::try_to_csr`] for the checked
    /// variant.
    pub fn to_csr(&self) -> CsrMatrix {
        match self.try_to_csr() {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CooMatrix::to_csr`] with checked sizing: `n_rows` can be
    /// forced arbitrarily high by [`CooMatrix::reserve_dims`] from
    /// untrusted configuration, so every buffer size is validated
    /// before allocation and an infeasible conversion is reported as a
    /// typed [`SparseError`] instead of a capacity-overflow panic.
    pub fn try_to_csr(&self) -> Result<CsrMatrix, SparseError> {
        let nnz = self.vals.len();
        let n_rows_plus =
            checked_buffer("csr row_ptr", self.n_rows as u128 + 1, size_of::<usize>())?;
        let n_rows = n_rows_plus - 1;
        checked_buffer(
            "csr entries",
            nnz as u128,
            size_of::<NodeId>() + size_of::<Count>(),
        )?;

        // Pass 1: count triplets per row.
        let mut row_counts = vec![0usize; n_rows_plus];
        for &r in &self.rows {
            row_counts[r as usize + 1] += 1;
        }
        // Prefix-sum into provisional row offsets.
        for i in 0..n_rows {
            row_counts[i + 1] += row_counts[i];
        }

        // Pass 2: scatter triplets into row-grouped order.
        let mut cols = vec![0 as NodeId; nnz];
        let mut vals = vec![0 as Count; nnz];
        let mut next = row_counts.clone();
        for i in 0..nnz {
            let r = self.rows[i] as usize;
            let slot = next[r];
            next[r] += 1;
            cols[slot] = self.cols[i];
            vals[slot] = self.vals[i];
        }

        // Pass 3: per row, sort by column and accumulate duplicates
        // in place, building the final compacted arrays.
        let mut out_cols = Vec::with_capacity(nnz); // sized via checked_buffer — lint:allow(R7)
        let mut out_vals = Vec::with_capacity(nnz); // sized via checked_buffer — lint:allow(R7)
        let mut row_ptr = Vec::with_capacity(n_rows_plus); // sized via checked_buffer — lint:allow(R7)
        row_ptr.push(0usize);
        let mut scratch: Vec<(NodeId, Count)> = Vec::new();
        for r in 0..n_rows {
            let (start, end) = (row_counts[r], row_counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[start..end]
                    .iter()
                    .copied()
                    .zip(vals[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = scratch.iter().copied();
            if let Some((mut cur_c, mut cur_v)) = iter.next() {
                for (c, v) in iter {
                    if c == cur_c {
                        cur_v += v;
                    } else {
                        out_cols.push(cur_c);
                        out_vals.push(cur_v);
                        cur_c = c;
                        cur_v = v;
                    }
                }
                out_cols.push(cur_c);
                out_vals.push(cur_v);
            }
            row_ptr.push(out_cols.len());
        }

        Ok(CsrMatrix::from_raw_parts(
            row_ptr,
            out_cols,
            out_vals,
            self.n_cols,
        ))
    }

    /// [`CooMatrix::try_to_csr`] on reusable scratch buffers: the
    /// counting-sort offsets, scatter arrays, and per-row sort space
    /// live in `scratch` and are retained across conversions, and the
    /// output arrays are taken from `scratch`'s recycled pool (see
    /// [`CsrScratch::recycle`]) — so a worker converting one window
    /// after another reaches a steady state with **zero** heap
    /// allocation per conversion. Produces a matrix equal to
    /// [`CooMatrix::try_to_csr`]'s.
    ///
    /// Written index-free (`get`/`get_mut` with benign fallbacks on
    /// ranges that are in-bounds by construction) so the capture path
    /// gains no reachable panic sites.
    pub fn try_to_csr_with(&self, scratch: &mut CsrScratch) -> Result<CsrMatrix, SparseError> {
        let nnz = self.vals.len();
        let n_rows_plus =
            checked_buffer("csr row_ptr", self.n_rows as u128 + 1, size_of::<usize>())?;
        checked_buffer(
            "csr entries",
            nnz as u128,
            size_of::<NodeId>() + size_of::<Count>(),
        )?;

        // Pass 1: count triplets per row, then prefix-sum so
        // `offsets[r]` is row `r`'s start in the scattered arrays.
        scratch.offsets.clear();
        scratch.offsets.resize(n_rows_plus, 0);
        for &r in &self.rows {
            if let Some(c) = scratch.offsets.get_mut(r as usize + 1) {
                *c += 1;
            }
        }
        let mut acc = 0usize;
        for o in scratch.offsets.iter_mut() {
            acc += *o;
            *o = acc;
        }

        // Pass 2: scatter triplets into row-grouped order, advancing
        // per-row write cursors.
        scratch.next.clear();
        scratch.next.extend_from_slice(&scratch.offsets);
        scratch.scat_cols.clear();
        scratch.scat_cols.resize(nnz, 0);
        scratch.scat_vals.clear();
        scratch.scat_vals.resize(nnz, 0);
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            if let Some(cursor) = scratch.next.get_mut(r as usize) {
                let slot = *cursor;
                *cursor += 1;
                if let Some(dst) = scratch.scat_cols.get_mut(slot) {
                    *dst = c;
                }
                if let Some(dst) = scratch.scat_vals.get_mut(slot) {
                    *dst = v;
                }
            }
        }

        // Pass 3: per row, sort by column and accumulate duplicates
        // into the recycled output arrays.
        let mut row_ptr = std::mem::take(&mut scratch.out_row_ptr);
        let mut out_cols = std::mem::take(&mut scratch.out_cols);
        let mut out_vals = std::mem::take(&mut scratch.out_vals);
        row_ptr.clear();
        out_cols.clear();
        out_vals.clear();
        row_ptr.push(0usize);
        for w in scratch.offsets.windows(2) {
            let &[start, end] = w else { continue };
            let run_cols = scratch.scat_cols.get(start..end).unwrap_or(&[]);
            let run_vals = scratch.scat_vals.get(start..end).unwrap_or(&[]);
            scratch.pair.clear();
            scratch
                .pair
                .extend(run_cols.iter().copied().zip(run_vals.iter().copied()));
            scratch.pair.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = scratch.pair.iter().copied();
            if let Some((mut cur_c, mut cur_v)) = iter.next() {
                for (c, v) in iter {
                    if c == cur_c {
                        cur_v += v;
                    } else {
                        out_cols.push(cur_c);
                        out_vals.push(cur_v);
                        cur_c = c;
                        cur_v = v;
                    }
                }
                out_cols.push(cur_c);
                out_vals.push(cur_v);
            }
            row_ptr.push(out_cols.len());
        }

        Ok(CsrMatrix::from_raw_parts(
            row_ptr,
            out_cols,
            out_vals,
            self.n_cols,
        ))
    }
}

impl FromIterator<(NodeId, NodeId)> for CooMatrix {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        Self::from_packet_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder() {
        let m = CooMatrix::new();
        assert_eq!(m.triplet_count(), 0);
        assert_eq!(m.total_count(), 0);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 0);
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.n_rows(), 0);
    }

    #[test]
    fn dimensions_track_max_ids() {
        let mut m = CooMatrix::new();
        m.push_packet(3, 7);
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 8);
        m.push_packet(10, 2);
        assert_eq!(m.n_rows(), 11);
        assert_eq!(m.n_cols(), 8);
    }

    #[test]
    fn zero_count_push_is_noop() {
        let mut m = CooMatrix::new();
        m.push(5, 5, 0);
        assert_eq!(m.triplet_count(), 0);
        assert_eq!(m.n_rows(), 0);
    }

    #[test]
    fn duplicates_accumulate_in_csr() {
        let mut m = CooMatrix::new();
        m.push_packet(0, 1);
        m.push_packet(0, 1);
        m.push(0, 1, 3);
        m.push_packet(0, 2);
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 5);
        assert_eq!(csr.get(0, 2), 1);
        assert_eq!(csr.total(), 6);
    }

    #[test]
    fn csr_rows_are_sorted_by_column() {
        let mut m = CooMatrix::new();
        for &(s, d) in &[(1u32, 9u32), (1, 3), (1, 7), (1, 3), (0, 5), (2, 0)] {
            m.push_packet(s, d);
        }
        let csr = m.to_csr();
        for r in 0..csr.n_rows() {
            let cols: Vec<_> = csr.row(r).map(|(c, _)| c).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(cols, sorted, "row {r}");
        }
        assert_eq!(csr.get(1, 3), 2);
    }

    #[test]
    fn total_count_is_preserved_through_conversion() {
        let pairs: Vec<(NodeId, NodeId)> = (0..1000)
            .map(|i| ((i * 7 % 50) as NodeId, (i * 13 % 60) as NodeId))
            .collect();
        let m = CooMatrix::from_packet_pairs(pairs);
        assert_eq!(m.total_count(), 1000);
        let csr = m.to_csr();
        assert_eq!(csr.total(), 1000);
    }

    #[test]
    fn reserve_dims_preserves_empty_rows() {
        let mut m = CooMatrix::new();
        m.push_packet(0, 0);
        m.reserve_dims(5, 9);
        let csr = m.to_csr();
        assert_eq!(csr.n_rows(), 5);
        assert_eq!(csr.n_cols(), 9);
        assert_eq!(csr.row_nnz(4), 0);
    }

    #[test]
    fn collect_from_pairs() {
        let m: CooMatrix = [(0u32, 1u32), (1, 0)].into_iter().collect();
        assert_eq!(m.total_count(), 2);
    }

    #[test]
    fn adversarial_capacity_is_a_typed_error_not_a_panic() {
        let err = CooMatrix::try_with_capacity(usize::MAX).unwrap_err();
        match err {
            SparseError::CapacityOverflow { what, requested } => {
                assert_eq!(what, "coo triplets");
                assert_eq!(requested, usize::MAX as u128);
            }
        }
    }

    #[test]
    fn try_to_csr_matches_the_panicking_path() {
        let mut m = CooMatrix::from_packet_pairs([(0, 1), (1, 2), (0, 1)]);
        m.reserve_dims(10, 10);
        assert_eq!(m.try_to_csr().unwrap(), m.to_csr());
    }

    #[test]
    fn scratch_conversion_matches_allocating_path() {
        let mut scratch = CsrScratch::new();
        // Several windows of different shapes through ONE scratch, with
        // recycling in between — each must equal the allocating path.
        let shapes: Vec<Vec<(NodeId, NodeId)>> = vec![
            vec![(0, 1), (1, 2), (0, 1), (3, 0)],
            vec![(5, 5)],
            vec![],
            (0..500)
                .map(|i| ((i * 7 % 23) as NodeId, (i * 13 % 17) as NodeId))
                .collect(),
        ];
        for pairs in shapes {
            let mut m = CooMatrix::from_packet_pairs(pairs);
            m.reserve_dims(30, 30);
            let fast = m.try_to_csr_with(&mut scratch).unwrap();
            assert_eq!(fast, m.to_csr());
            scratch.recycle(fast);
        }
    }

    #[test]
    fn scratch_conversion_without_recycling_is_still_exact() {
        let mut scratch = CsrScratch::new();
        let m = CooMatrix::from_packet_pairs([(2, 0), (0, 2), (2, 0)]);
        let a = m.try_to_csr_with(&mut scratch).unwrap();
        let b = m.try_to_csr_with(&mut scratch).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, m.to_csr());
    }

    #[test]
    fn clear_resets_but_keeps_reusable() {
        let mut m = CooMatrix::from_packet_pairs([(0, 1), (4, 2)]);
        m.reserve_dims(10, 10);
        m.clear();
        assert_eq!(m.triplet_count(), 0);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 0);
        m.push_packet(1, 1);
        let csr = m.to_csr();
        assert_eq!(csr.n_rows(), 2);
        assert_eq!(csr.get(1, 1), 1);
    }

    #[test]
    fn checked_buffer_rejects_byte_overflow() {
        // Element count fits usize but the byte size exceeds isize::MAX.
        let elems = (isize::MAX as u128 / 8) + 1;
        assert!(checked_buffer("x", elems, 8).is_err());
        assert_eq!(checked_buffer("x", 16, 8), Ok(16));
        // Count × size overflowing u128 is also caught.
        assert!(checked_buffer("x", u128::MAX, 8).is_err());
    }
}
