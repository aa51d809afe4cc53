//! Compressed Sparse Row adjacency — the central graph data structure.
//!
//! A [`Csr`] stores, for each source vertex, a contiguous slice of target
//! IDs. It is deliberately *rectangular*: the source and target ID spaces
//! may have different sizes, which is what a hypergraph bi-adjacency needs
//! (incidence matrices are `n × m`, §III-B.1a of the NWHy paper). For an
//! ordinary square graph the two sizes coincide.
//!
//! The structure models the paper's "range of ranges": the outer range is
//! random-access (`index`/[`Csr::neighbors`], [`Csr::iter`]), the inner
//! ranges are the neighbor slices.
//!
//! Construction from an [`EdgeList`] is parallel: a histogram of degrees,
//! a prefix sum, and an atomic-cursor scatter, followed by a per-vertex
//! neighbor sort (sorted adjacency is what the set-intersection s-line
//! algorithms rely on).

use crate::edge_list::EdgeList;
use crate::Vertex;
use nwhy_util::prefix::exclusive_prefix_sum;
use nwhy_util::sync::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use rayon::prelude::*;

/// Rectangular CSR adjacency; see the module docs.
///
/// # Examples
///
/// ```
/// use nwgraph::{Csr, EdgeList};
///
/// let mut el = EdgeList::from_edges(4, vec![(0, 1), (0, 2), (2, 3)]);
/// el.symmetrize();
/// let g = Csr::from_edge_list(&el);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.neighbors(0), &[1, 2]); // sorted
/// assert_eq!(g.degree(2), 2);
/// assert!(g.is_symmetric());
///
/// // the "range of ranges" view
/// for (u, nbrs) in g.iter() {
///     assert_eq!(nbrs.len(), g.degree(u));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_targets: usize,
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
    weights: Option<Vec<f64>>,
}

impl Csr {
    /// Builds a CSR from an edge list, treating edges as directed
    /// `source → target` with a square ID space. Neighbor lists are sorted.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::build(
            el.num_vertices(),
            el.num_vertices(),
            el.edges(),
            el.weights(),
        )
    }

    /// Builds a rectangular CSR: sources in `0..num_sources`, targets in
    /// `0..num_targets`. Used for bi-adjacency construction.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of its respective range.
    pub fn from_pairs(
        num_sources: usize,
        num_targets: usize,
        pairs: &[(Vertex, Vertex)],
        weights: Option<&[f64]>,
    ) -> Self {
        Self::build(num_sources, num_targets, pairs, weights)
    }

    fn build(
        num_sources: usize,
        num_targets: usize,
        pairs: &[(Vertex, Vertex)],
        weights: Option<&[f64]>,
    ) -> Self {
        if let Some(ws) = weights {
            assert_eq!(ws.len(), pairs.len(), "weights length mismatch");
        }
        // 1. Histogram of out-degrees.
        let degrees: Vec<AtomicUsize> = (0..num_sources).map(|_| AtomicUsize::new(0)).collect();
        pairs.par_iter().for_each(|&(u, v)| {
            assert!(
                (u as usize) < num_sources,
                "source {u} out of range {num_sources}"
            );
            assert!(
                (v as usize) < num_targets,
                "target {v} out of range {num_targets}"
            );
            degrees[u as usize].fetch_add(1, Ordering::Relaxed);
        });
        let degrees: Vec<usize> = degrees.into_iter().map(AtomicUsize::into_inner).collect();

        // 2. Prefix sum gives slice offsets.
        let offsets = exclusive_prefix_sum(&degrees);
        let m = offsets[num_sources];

        // 3. Scatter with per-vertex atomic cursors.
        let cursors: Vec<AtomicUsize> = offsets[..num_sources]
            .iter()
            .map(|&o| AtomicUsize::new(o))
            .collect();
        let targets: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
        let wslots: Option<Vec<AtomicU64>> =
            weights.map(|_| (0..m).map(|_| AtomicU64::new(0)).collect());
        pairs.par_iter().enumerate().for_each(|(i, &(u, v))| {
            let pos = cursors[u as usize].fetch_add(1, Ordering::Relaxed);
            targets[pos].store(v, Ordering::Relaxed);
            if let (Some(slots), Some(ws)) = (&wslots, weights) {
                slots[pos].store(ws[i].to_bits(), Ordering::Relaxed);
            }
        });
        let mut targets: Vec<Vertex> = targets.into_iter().map(AtomicU32::into_inner).collect();
        let mut wvec: Option<Vec<f64>> = wslots.map(|slots| {
            slots
                .into_iter()
                .map(|s| f64::from_bits(s.into_inner()))
                .collect()
        });

        // 4. Sort each neighbor slice (targets, with weights following).
        match &mut wvec {
            None => {
                let mut rest: &mut [Vertex] = &mut targets;
                let mut slices = Vec::with_capacity(num_sources);
                let mut prev = 0usize;
                for &o in &offsets[1..] {
                    let (head, tail) = rest.split_at_mut(o - prev);
                    slices.push(head);
                    rest = tail;
                    prev = o;
                }
                slices.into_par_iter().for_each(|s| s.sort_unstable());
            }
            Some(ws) => {
                // Sort target/weight pairs together, per source slice.
                let offsets_ref = &offsets;
                let pairs_per_vertex: Vec<(usize, usize)> = (0..num_sources)
                    .map(|u| (offsets_ref[u], offsets_ref[u + 1]))
                    .collect();
                // Sequential per-slice pair sort (weighted graphs in this
                // workspace are small: SSSP test inputs only).
                for (lo, hi) in pairs_per_vertex {
                    let mut zipped: Vec<(Vertex, f64)> = targets[lo..hi]
                        .iter()
                        .copied()
                        .zip(ws[lo..hi].iter().copied())
                        .collect();
                    // The scatter leaves duplicate targets in thread-timing
                    // order; breaking ties on the weight makes the slice a
                    // function of the input multiset alone.
                    zipped.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                    for (k, (t, w)) in zipped.into_iter().enumerate() {
                        targets[lo + k] = t;
                        ws[lo + k] = w;
                    }
                }
            }
        }

        Self {
            num_targets,
            offsets,
            targets,
            weights: wvec,
        }
    }

    /// Assembles a CSR directly from its raw arrays, without checking the
    /// CSR invariants (monotone offsets, in-bounds targets, sorted
    /// neighbor slices, matching weight length).
    ///
    /// This exists for deserialization fast paths and for the validation
    /// tests in `nwhy-core`, which deliberately construct *corrupted*
    /// structures to assert that `Validate` reports the right
    /// [`InvariantViolation`](https://docs.rs/nwhy-core). Prefer
    /// [`Csr::from_edge_list`] / [`Csr::from_pairs`], which establish the
    /// invariants by construction; callers of this function should run
    /// validation themselves before handing the CSR to any kernel.
    ///
    /// # Panics
    /// Panics only on the structurally unrepresentable: an empty
    /// `offsets` (even an empty CSR has `offsets == [0]`).
    pub fn from_raw_parts(
        num_targets: usize,
        offsets: Vec<usize>,
        targets: Vec<Vertex>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        Self {
            num_targets,
            offsets,
            targets,
            weights,
        }
    }

    /// The raw offset array (`num_vertices() + 1` entries, first 0, last
    /// `num_edges()` when well-formed).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated target array.
    #[inline]
    pub fn targets(&self) -> &[Vertex] {
        &self.targets
    }

    /// The raw weight array, if this CSR is weighted.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Number of source vertices (rows).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the target ID space (columns).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Total number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: Vertex) -> &[Vertex] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Neighbors of `u` with weights (all `1.0` if unweighted).
    pub fn weighted_neighbors(&self, u: Vertex) -> impl Iterator<Item = (Vertex, f64)> + '_ {
        let u = u as usize;
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        let ws = self.weights.as_deref();
        self.targets[lo..hi]
            .iter()
            .enumerate()
            .map(move |(k, &t)| (t, ws.map_or(1.0, |w| w[lo + k])))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: Vertex) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// All out-degrees, as a vector.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|u| self.degree(u as Vertex))
            .collect()
    }

    /// Largest out-degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|u| self.degree(u as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// `true` if this CSR stores edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterates `(source, neighbor_slice)` for every source vertex — the
    /// "range of ranges" view from Listing 3 of the paper.
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, &[Vertex])> + '_ {
        (0..self.num_vertices()).map(move |u| (u as Vertex, self.neighbors(u as Vertex)))
    }

    /// Parallel iterator over `(source, neighbor_slice)`.
    pub fn par_iter(&self) -> impl IndexedParallelIterator<Item = (Vertex, &[Vertex])> + '_ {
        (0..self.num_vertices())
            .into_par_iter()
            .map(move |u| (u as Vertex, self.neighbors(u as Vertex)))
    }

    /// The transpose: targets become sources. For a bi-adjacency this maps
    /// the hyperedge→hypernode CSR to the hypernode→hyperedge CSR.
    pub fn transpose(&self) -> Csr {
        let rev: Vec<(Vertex, Vertex)> = self
            .par_iter()
            .flat_map_iter(|(u, nbrs)| nbrs.iter().map(move |&v| (v, u)))
            .collect();
        let weights: Option<Vec<f64>> = self.weights.as_ref().map(|_| {
            self.par_iter()
                .flat_map_iter(|(u, _)| self.weighted_neighbors(u).map(|(_, w)| w))
                .collect()
        });
        Csr::from_pairs(
            self.num_targets,
            self.num_vertices(),
            &rev,
            weights.as_deref(),
        )
    }

    /// `true` when every edge `(u, v)` has a matching `(v, u)`. Only
    /// meaningful for square CSRs; used as a sanity check on undirected
    /// constructions like clique expansions and adjoin graphs.
    pub fn is_symmetric(&self) -> bool {
        if self.num_vertices() != self.num_targets {
            return false;
        }
        self.par_iter().all(|(u, nbrs)| {
            nbrs.iter()
                .all(|&v| self.neighbors(v).binary_search(&u).is_ok())
        })
    }

    /// Converts back to an edge list (used by relabeling).
    pub fn to_edge_list(&self) -> EdgeList {
        assert_eq!(
            self.num_vertices(),
            self.num_targets,
            "to_edge_list requires a square CSR"
        );
        let pairs: Vec<(Vertex, Vertex)> = self
            .iter()
            .flat_map(|(u, nbrs)| nbrs.iter().map(move |&v| (u, v)))
            .collect();
        match &self.weights {
            None => EdgeList::from_edges(self.num_vertices(), pairs),
            Some(_) => {
                let ws: Vec<f64> = (0..self.num_vertices())
                    .flat_map(|u| self.weighted_neighbors(u as Vertex).map(|(_, w)| w))
                    .collect();
                EdgeList::from_weighted_edges(self.num_vertices(), pairs, ws)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy() -> Csr {
        // 0 → {1, 2}, 1 → {2}, 2 → {}, 3 → {0}
        let el = EdgeList::from_edges(4, vec![(0, 2), (0, 1), (1, 2), (3, 0)]);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn basic_shape() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_targets(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]); // sorted
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn weighted_duplicates_are_order_independent() {
        // Duplicate incidences (0, 1) with distinct weights: the built CSR
        // must not depend on the order the multiset arrives in.
        let pairs = [(0, 1), (0, 1), (1, 0), (0, 1), (0, 0)];
        let weights = [3.0, -1.5, 2.0, 0.25, 7.0];
        let a = Csr::from_pairs(2, 2, &pairs, Some(&weights));
        let rev_pairs: Vec<_> = pairs.iter().rev().copied().collect();
        let rev_weights: Vec<_> = weights.iter().rev().copied().collect();
        let b = Csr::from_pairs(2, 2, &rev_pairs, Some(&rev_weights));
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.neighbors(0), &[0, 1, 1, 1]);
        assert_eq!(a.weights(), Some(&[7.0, -1.5, 0.25, 3.0, 2.0][..]));
    }

    #[test]
    fn degrees_and_max() {
        let g = toy();
        assert_eq!(g.degrees(), vec![2, 1, 0, 1]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn vertices_without_edges() {
        let g = Csr::from_edge_list(&EdgeList::new(5));
        assert_eq!(g.num_vertices(), 5);
        assert!(g.iter().all(|(_, nbrs)| nbrs.is_empty()));
    }

    #[test]
    fn rectangular_build() {
        // 2 hyperedges over 5 hypernodes.
        let g = Csr::from_pairs(2, 5, &[(0, 4), (0, 1), (1, 2)], None);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_targets(), 5);
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert_eq!(g.neighbors(1), &[2]);
        assert!(!g.is_symmetric()); // rectangular is never symmetric
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        Csr::from_pairs(2, 3, &[(0, 3)], None);
    }

    #[test]
    fn transpose_roundtrip() {
        let g = toy();
        let t = g.transpose();
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[3]);
        let back = t.transpose();
        assert_eq!(back, g);
    }

    #[test]
    fn rectangular_transpose_swaps_dims() {
        let g = Csr::from_pairs(2, 5, &[(0, 4), (1, 4)], None);
        let t = g.transpose();
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.num_targets(), 2);
        assert_eq!(t.neighbors(4), &[0, 1]);
    }

    #[test]
    fn weighted_neighbors_follow_sort() {
        let el = EdgeList::from_weighted_edges(3, vec![(0, 2), (0, 1)], vec![9.0, 4.0]);
        let g = Csr::from_edge_list(&el);
        let wn: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(wn, vec![(1, 4.0), (2, 9.0)]);
        assert!(g.is_weighted());
    }

    #[test]
    fn unweighted_weighted_neighbors_default_one() {
        let g = toy();
        let wn: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(wn, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn symmetric_detection() {
        let mut el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]);
        el.symmetrize();
        let g = Csr::from_edge_list(&el);
        assert!(g.is_symmetric());
        let d = Csr::from_edge_list(&EdgeList::from_edges(3, vec![(0, 1)]));
        assert!(!d.is_symmetric());
    }

    #[test]
    fn to_edge_list_roundtrip() {
        let g = toy();
        let el = g.to_edge_list();
        let g2 = Csr::from_edge_list(&el);
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_transpose_keeps_weights() {
        let el = EdgeList::from_weighted_edges(3, vec![(0, 2), (1, 2)], vec![5.0, 6.0]);
        let g = Csr::from_edge_list(&el);
        let t = g.transpose();
        let wn: Vec<(u32, f64)> = t.weighted_neighbors(2).collect();
        assert_eq!(wn, vec![(0, 5.0), (1, 6.0)]);
    }

    #[test]
    fn duplicate_edges_are_retained() {
        let el = EdgeList::from_edges(2, vec![(0, 1), (0, 1)]);
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..200)
        ) {
            let el = EdgeList::from_edges(20, edges);
            let g = Csr::from_edge_list(&el);
            prop_assert_eq!(g.transpose().transpose(), g);
        }

        #[test]
        fn prop_edge_count_preserved(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..100)
        ) {
            let n = edges.len();
            let el = EdgeList::from_edges(15, edges);
            let g = Csr::from_edge_list(&el);
            prop_assert_eq!(g.num_edges(), n);
            prop_assert_eq!(g.transpose().num_edges(), n);
            prop_assert_eq!(g.degrees().iter().sum::<usize>(), n);
        }

        #[test]
        fn prop_neighbors_sorted(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..80)
        ) {
            let el = EdgeList::from_edges(10, edges);
            let g = Csr::from_edge_list(&el);
            for (_, nbrs) in g.iter() {
                prop_assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }
}
