//! Compressed sparse row storage.
//!
//! A [`Csr`] stores, for each of `n` rows, a sorted run of column indices.
//! Interpreted as a graph it is the out-adjacency of a directed graph; the
//! CSC of the same graph is the [`Csr`] of its transpose (see
//! [`Csr::transpose`]). Construction and transposition are parallel and
//! deterministic without sorting: a counting pass splits the input into
//! lane-contiguous ranges, builds one key histogram per lane, turns the
//! histograms into lane-major write offsets with one exclusive prefix, and
//! each lane then places its entries in input order. Because every lane
//! scans its rows in ascending order and lanes own ascending row ranges,
//! every output row comes out sorted. [`Csr::from_row_fn`] fills one
//! buffer per contiguous row range and sorts each row in place.

use crate::nid;
use std::ops::Range;

use rayon::prelude::*;

use crate::error::GraphError;
use crate::NodeId;

/// Compressed sparse row adjacency structure.
///
/// Invariants (checked by [`Csr::validate`] and the test suite):
/// * `ptr.len() == n + 1`, `ptr[0] == 0`, `ptr[n] == idx.len()`,
/// * `ptr` is non-decreasing,
/// * every entry of `idx` is `< n_cols`,
/// * each row's slice of `idx` is sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    ptr: Box<[usize]>,
    idx: Box<[NodeId]>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge slice. Duplicate edges are kept;
    /// use [`crate::EdgeList`] to deduplicate first if a simple graph is
    /// required. Row/column counts are both `n` (square adjacency).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::from_edges_rect(n, n, edges)
    }

    /// Builds a rectangular CSR (`n_rows x n_cols`) from an edge slice.
    ///
    /// Two counting passes: the edges are first grouped by destination (in
    /// edge order), and that destination-major layout is then transposed,
    /// which visits destinations in ascending order and so emits every
    /// source row already sorted.
    pub fn from_edges_rect(n_rows: usize, n_cols: usize, edges: &[(NodeId, NodeId)]) -> Self {
        debug_assert!(
            edges
                .iter()
                .all(|&(s, d)| (s as usize) < n_rows && (d as usize) < n_cols),
            "edge endpoint out of range"
        );
        let lanes = even_ranges(edges.len(), lane_count(edges.len(), n_cols));
        let (by_dst_ptr, by_dst_idx) = counting_place(n_cols, edges.len(), &lanes, |r| {
            edges[r].iter().map(|&(s, d)| (d, s))
        });
        transpose_parts(n_cols, n_rows, &by_dst_ptr, &by_dst_idx)
    }

    /// Builds a CSR by asking `row` to append the neighbours of each row to
    /// `out` (parallel over contiguous row ranges). `out` may already hold
    /// earlier rows of the same range; `row` must only append. Rows are
    /// sorted in place afterwards. This is how Mixen extracts its sub-CSRs
    /// directly from an existing graph without a format conversion.
    pub fn from_row_fn<F>(n_rows: usize, n_cols: usize, row: F) -> Self
    where
        F: Fn(NodeId, &mut Vec<NodeId>) + Sync,
    {
        let parts = even_ranges(
            n_rows,
            (rayon::current_num_threads() * 4).min(n_rows).max(1),
        );
        // Four parts per lane let work stealing even out skewed rows. Per
        // part: its rows' entries back to back, and each row's end offset
        // within that buffer.
        let filled: Vec<(Vec<NodeId>, Vec<usize>)> = parts
            .par_iter()
            .map(|rows| {
                let mut buf = Vec::new();
                let mut ends = Vec::with_capacity(rows.len());
                for u in rows.clone() {
                    let start = buf.len();
                    row(nid(u), &mut buf);
                    debug_assert!(buf.len() >= start, "row fn must only append");
                    buf[start..].sort_unstable();
                    debug_assert!(buf[start..].iter().all(|&v| (v as usize) < n_cols));
                    ends.push(buf.len());
                }
                (buf, ends)
            })
            .collect();
        let mut ptr = Vec::with_capacity(n_rows + 1);
        ptr.push(0usize);
        for (_, ends) in &filled {
            let base = ptr[ptr.len() - 1];
            ptr.extend(ends.iter().map(|&e| base + e));
        }
        let mut idx = Vec::with_capacity(ptr[n_rows]);
        for (buf, _) in filled {
            idx.extend_from_slice(&buf);
        }
        Self {
            n_rows,
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        }
    }

    /// Assembles a CSR from raw parts, checking every structural invariant
    /// (monotone `ptr`, `ptr[0] == 0`, `ptr[n] == idx.len()`, in-range and
    /// row-sorted `idx`). This is the entry point for untrusted data.
    pub fn try_from_parts(
        n_cols: usize,
        ptr: Vec<usize>,
        idx: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let csr = Self {
            n_rows: ptr.len().saturating_sub(1),
            n_cols,
            ptr: ptr.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Assembles a CSR from raw parts. Panics if the invariants do not hold;
    /// use [`Csr::try_from_parts`] for untrusted data.
    pub fn from_parts(n_cols: usize, ptr: Vec<usize>, idx: Vec<NodeId>) -> Self {
        // lint: allow(panic) reason=documented panicking constructor for trusted inputs
        Self::try_from_parts(n_cols, ptr, idx).expect("invalid CSR parts")
    }

    /// An empty square CSR over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            ptr: vec![0; n + 1].into_boxed_slice(),
            idx: Box::new([]),
        }
    }

    /// Number of rows (source nodes).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (destination nodes).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries (edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Degree of row `u` (out-degree when this CSR stores out-edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.ptr[u as usize + 1] - self.ptr[u as usize]
    }

    /// The sorted neighbours of row `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.idx[self.ptr[u as usize]..self.ptr[u as usize + 1]]
    }

    /// The row-pointer array (`n_rows + 1` entries).
    #[inline]
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// The concatenated column-index array.
    #[inline]
    pub fn idx(&self) -> &[NodeId] {
        &self.idx
    }

    /// Heap bytes used by the pointer and index arrays.
    pub fn memory_bytes(&self) -> usize {
        self.ptr.len() * std::mem::size_of::<usize>()
            + self.idx.len() * std::mem::size_of::<NodeId>()
    }

    /// Iterates all `(row, col)` entries in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..nid(self.n_rows)).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Transposes the matrix in parallel with one counting pass (see the
    /// module docs); no sort is needed. The result's rows are the columns
    /// of `self`.
    pub fn transpose(&self) -> Self {
        transpose_parts(self.n_rows, self.n_cols, &self.ptr, &self.idx)
    }

    /// Checks every structural invariant; reports the first violation as a
    /// [`GraphError::Invariant`].
    pub fn validate(&self) -> Result<(), GraphError> {
        let invariant = |msg: String| Err(GraphError::Invariant(msg));
        if self.ptr.len() != self.n_rows + 1 {
            return invariant(format!(
                "ptr length {} != n_rows + 1 = {}",
                self.ptr.len(),
                self.n_rows + 1
            ));
        }
        if self.ptr[0] != 0 {
            return invariant("ptr[0] != 0".into());
        }
        if self.ptr[self.n_rows] != self.idx.len() {
            return invariant(format!(
                "ptr[n] = {} != nnz = {}",
                self.ptr[self.n_rows],
                self.idx.len()
            ));
        }
        for w in self.ptr.windows(2) {
            if w[0] > w[1] {
                return invariant("ptr not monotone".into());
            }
        }
        if let Some(&bad) = self.idx.iter().find(|&&v| v as usize >= self.n_cols) {
            return invariant(format!("column index {bad} out of range {}", self.n_cols));
        }
        for u in 0..self.n_rows {
            let row = &self.idx[self.ptr[u]..self.ptr[u + 1]];
            if row.windows(2).any(|w| w[0] > w[1]) {
                return invariant(format!("row {u} not sorted"));
            }
        }
        Ok(())
    }
}

/// Shared writable view of a slice used for disjoint-slot parallel writes.
///
/// Every writer must target a distinct index; the counting placement in this
/// module guarantees that because each lane advances only its own per-key
/// cursors, which start at disjoint lane-major offsets.
///
/// Under `debug_assertions` or the `race-detector` feature, a shadow
/// ownership map records every written slot and the writer panics on an
/// overlapping or double write — turning a silent data race into a loud,
/// attributable failure.
pub(crate) struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Shadow ownership map, routed through [`crate::msync`] so
    /// `model-check` builds explore the claim protocol itself.
    #[cfg(any(debug_assertions, feature = "race-detector"))]
    claimed: Box<[crate::msync::atomic::AtomicU8]>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: SliceWriter is a raw-pointer view of a `&mut [T]` whose lifetime it
// captures, so the underlying buffer outlives it; sending it to another
// thread moves only the pointer and is safe whenever `T: Send` (the values
// written cross threads).
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}
// SAFETY: sharing `&SliceWriter` across threads is safe because the only
// mutation path is `write`, which bounds-checks and requires callers to
// target distinct slots (per-lane cursors over disjoint offsets) —
// concurrent writes never alias, and no method reads the buffer.
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(any(debug_assertions, feature = "race-detector"))]
            claimed: (0..slice.len())
                .map(|_| crate::msync::atomic::AtomicU8::new(0))
                .collect(),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    pub(crate) fn write(&self, i: usize, value: T) {
        assert!(i < self.len);
        #[cfg(any(debug_assertions, feature = "race-detector"))]
        // ordering: the claim byte is a diagnostic tripwire — the buffer
        // itself is published by the construction's rayon join, so the swap
        // needs only same-location atomicity to expose a double write.
        if self.claimed[i].swap(1, crate::msync::atomic::Ordering::Relaxed) != 0 {
            // lint: allow(panic) reason=race detector turning a violated disjoint-write contract into a diagnosable failure
            panic!("SliceWriter race detected: slot {i} written more than once");
        }
        // SAFETY: `i < len` is checked above, and callers write each slot
        // from exactly one lane (disjoint cursor ranges), so no two threads
        // write the same index.
        unsafe { self.ptr.add(i).write(value) }
    }
}

/// Lanes for a counting pass over `nnz` entries into `n_keys` rows: one per
/// pool lane, but never so many that the per-lane histograms
/// (`lanes x n_keys` counters) outgrow the entries they count.
fn lane_count(nnz: usize, n_keys: usize) -> usize {
    rayon::current_num_threads().min(1 + nnz / n_keys.max(1))
}

/// Splits `0..len` into `parts` contiguous ranges of near-equal length.
fn even_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|k| len * k / parts..len * (k + 1) / parts)
        .collect()
}

/// Transposes the CSR parts `ptr`/`idx` (`n_rows x n_cols`, rows in any
/// order) into a row-sorted `n_cols x n_rows` [`Csr`]. Rows are split into
/// lane ranges of near-equal entry counts; since lanes own ascending row
/// ranges and scan them in order, each output row lists its sources in
/// ascending order.
fn transpose_parts(n_rows: usize, n_cols: usize, ptr: &[usize], idx: &[NodeId]) -> Csr {
    let nnz = idx.len();
    let lanes = lane_count(nnz, n_cols);
    let bounds: Vec<usize> = (0..=lanes)
        .map(|k| ptr.partition_point(|&p| p < nnz * k / lanes).min(n_rows))
        .collect();
    let ranges: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    let (t_ptr, t_idx) = counting_place(n_cols, nnz, &ranges, |rows| {
        rows.flat_map(|u| idx[ptr[u]..ptr[u + 1]].iter().map(move |&v| (v, nid(u))))
    });
    Csr {
        n_rows: n_cols,
        n_cols: n_rows,
        ptr: t_ptr.into_boxed_slice(),
        idx: t_idx.into_boxed_slice(),
    }
}

/// Deterministic parallel counting sort. `entries(range)` yields the
/// `(key, value)` entries of one lane's input range, in the same order
/// every time it is called. Returns the `n_keys + 1` row pointers and the
/// `nnz` values grouped by key; within a key, values keep lane order and,
/// inside a lane, the order `entries` yields them in.
///
/// Three steps: one `n_keys` histogram per lane; a lane-major exclusive
/// prefix that turns the histograms into each lane's first write slot per
/// key; and a placement pass in which every lane advances only its own
/// cursors, so the slots it writes are disjoint from every other lane's.
fn counting_place<F, I>(
    n_keys: usize,
    nnz: usize,
    lanes: &[Range<usize>],
    entries: F,
) -> (Vec<usize>, Vec<NodeId>)
where
    F: Fn(Range<usize>) -> I + Sync,
    I: Iterator<Item = (NodeId, NodeId)>,
{
    let mut cursors: Vec<Vec<usize>> = lanes
        .par_iter()
        .map(|r| {
            let mut hist = vec![0usize; n_keys];
            entries(r.clone()).for_each(|(k, _)| hist[k as usize] += 1);
            hist
        })
        .collect();
    let mut ptr = Vec::with_capacity(n_keys + 1);
    let mut acc = 0usize;
    for key in 0..n_keys {
        ptr.push(acc);
        for hist in cursors.iter_mut() {
            let count = hist[key];
            hist[key] = acc;
            acc += count;
        }
    }
    ptr.push(acc);
    debug_assert_eq!(acc, nnz, "the lanes must yield exactly nnz entries");
    let mut idx = vec![0 as NodeId; nnz];
    {
        let out = SliceWriter::new(&mut idx);
        cursors
            .par_iter_mut()
            .zip(lanes.par_iter())
            .for_each(|(cursor, r)| {
                entries(r.clone()).for_each(|(k, v)| {
                    let slot = &mut cursor[k as usize];
                    out.write(*slot, v);
                    *slot += 1;
                })
            });
    }
    (ptr, idx)
}

/// Model probes over the CSR construction write path, compiled only under
/// `model-check`.
#[cfg(feature = "model-check")]
pub mod mc {
    use super::SliceWriter;

    /// A leaked [`SliceWriter`] over a small `u32` buffer, exposing the
    /// disjoint-slot write contract to `mixen-check` model tests:
    /// concurrent model threads race `try_write` on the same slot and the
    /// checker proves the shadow map catches every overlap under every
    /// schedule.
    #[derive(Clone, Copy)]
    pub struct SliceWriterProbe {
        writer: &'static SliceWriter<'static, u32>,
    }

    impl SliceWriterProbe {
        /// Builds a probe over a fresh leaked `len`-slot buffer (leaking
        /// keeps the probe `'static` and trivially shareable across model
        /// threads; model tests are short-lived processes).
        pub fn new(len: usize) -> Self {
            let buf: &'static mut [u32] = Vec::leak(vec![0; len]);
            let writer = Box::leak(Box::new(SliceWriter::new(buf)));
            SliceWriterProbe { writer }
        }

        /// Writes `value` into `slot` exactly as a construction task would.
        /// Returns `true` when this writer legitimately owned the slot and
        /// `false` when the race detector caught an overlapping write.
        pub fn try_write(&self, slot: usize, value: u32) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.writer.write(slot, value);
            }))
            .is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The race detector must catch an intentionally overlapping write.
    #[test]
    #[cfg(any(debug_assertions, feature = "race-detector"))]
    #[should_panic(expected = "SliceWriter race detected")]
    fn race_detector_catches_double_write() {
        let mut buf = vec![0u32; 8];
        let w = SliceWriter::new(&mut buf);
        w.write(3, 1);
        w.write(3, 2); // same slot twice — a violated disjoint-write contract
    }

    /// Seeded stress: thousands of concurrent disjoint writes through the
    /// shadow map must neither panic nor lose a value.
    #[test]
    fn race_detector_stress_disjoint_writes_are_clean() {
        use rand::prelude::*;
        let n = 1 << 14;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut buf = vec![u32::MAX; n];
        {
            let w = SliceWriter::new(&mut buf);
            (0..n).into_par_iter().for_each(|k| {
                let slot = order[k];
                w.write(slot, nid(slot).wrapping_mul(2654435761));
            });
        }
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, nid(i).wrapping_mul(2654435761));
        }
    }

    fn toy() -> Csr {
        // 0 -> 1, 0 -> 2, 2 -> 0, 3 -> 3 (self loop), plus node 1 with no out.
        Csr::from_edges(4, &[(3, 3), (0, 2), (2, 0), (0, 1)])
    }

    #[test]
    fn builds_sorted_rows() {
        let c = toy();
        assert_eq!(c.n_rows(), 4);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(1), &[] as &[NodeId]);
        assert_eq!(c.neighbors(2), &[0]);
        assert_eq!(c.neighbors(3), &[3]);
        c.validate().unwrap();
    }

    #[test]
    fn degree_matches_row_len() {
        let c = toy();
        for u in 0..4u32 {
            assert_eq!(c.degree(u), c.neighbors(u).len());
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let c = toy();
        let t = c.transpose();
        t.validate().unwrap();
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.neighbors(3), &[3]);
        let back = t.transpose();
        assert_eq!(back, c);
    }

    #[test]
    fn transpose_preserves_edge_multiset() {
        let edges = vec![(0, 1), (0, 1), (1, 0), (2, 2)];
        let c = Csr::from_edges(3, &edges);
        let t = c.transpose();
        let mut fwd: Vec<_> = c.edges().collect();
        let mut rev: Vec<_> = t.edges().map(|(a, b)| (b, a)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::empty(0);
        c.validate().unwrap();
        assert_eq!(c.nnz(), 0);
        let t = c.transpose();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn rectangular_build_and_transpose() {
        let c = Csr::from_edges_rect(2, 5, &[(0, 4), (1, 3), (0, 0)]);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_cols(), 5);
        let t = c.transpose();
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.neighbors(4), &[0]);
    }

    #[test]
    fn from_row_fn_matches_from_edges() {
        let edges = vec![(0u32, 2u32), (0, 1), (2, 0), (1, 1)];
        let a = Csr::from_edges(3, &edges);
        let b = Csr::from_row_fn(3, 3, |u, out| {
            out.extend(edges.iter().filter(|&&(s, _)| s == u).map(|&(_, d)| d));
        });
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_validates() {
        let c = Csr::from_parts(3, vec![0, 1, 1, 2], vec![2, 0]);
        assert_eq!(c.neighbors(0), &[2]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn from_parts_rejects_bad_ptr() {
        let _ = Csr::from_parts(3, vec![0, 2, 1, 2], vec![2, 0]);
    }

    #[test]
    fn large_random_build_parallel_consistency() {
        // Deterministic pseudo-random edges; check ptr sums and sortedness.
        let n = 1000usize;
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut edges = Vec::new();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = (x >> 32) as u32 % n as u32;
            let d = x as u32 % n as u32;
            edges.push((s, d));
        }
        let c = Csr::from_edges(n, &edges);
        c.validate().unwrap();
        assert_eq!(c.nnz(), edges.len());
        let mut got: Vec<_> = c.edges().collect();
        let mut want = edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
