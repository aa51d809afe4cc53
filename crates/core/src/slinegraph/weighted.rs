//! Weighted s-line graphs: edges carry the exact overlap size `|e ∩ f|`.
//!
//! Aksoy et al.'s s-walk framework (the basis of NWHy's s-metrics) weighs
//! line-graph edges by the strength of the connection — Figure 5 of the
//! paper draws exactly this, rendering edge width as overlap size. The
//! construction is the hashmap-counting algorithm keeping its counts
//! instead of discarding them after thresholding, so the cost matches the
//! unweighted build.

use super::hashmap::{count_overlaps, Counting};
use super::{finish, meets, HyperAdjacency};
use crate::ids::Overlap;
use crate::{ids, Id};
use nwhy_util::partition::{par_for_each_index_with, Strategy};

/// Canonical weighted pair list: `(e, f, |e ∩ f|)` with `e < f`, sorted,
/// overlap ≥ s.
// lint: obs: worker tallies are flushed by the shared `finish` epilogue
pub fn slinegraph_weighted_edges<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id, Overlap)> {
    assert!(s >= 1, "s must be at least 1");
    let ne = h.num_hyperedges();
    let locals = par_for_each_index_with(ne, strategy, Counting::default, |local, i| {
        let i = ids::from_usize(i);
        if !count_overlaps(h, i, s, &mut local.counts, &mut local.stats) {
            local.stats.pairs_skipped(ne as u64 - 1 - i as u64);
            return;
        }
        for (&j, &n) in &local.counts {
            if meets(n, s) {
                local.out.push((i, j, n));
            }
        }
    });
    finish(locals.into_iter().map(|l| (l.out, l.stats)))
}

/// Assembles the symmetric weighted CSR (edge weight `1 / overlap`) from
/// already-built canonical triples.
// lint: obs: CSR assembly under the builder's `sline.weighted` span
pub(crate) fn weighted_csr_from_triples(
    num_hyperedges: usize,
    triples: &[(Id, Id, Overlap)],
) -> nwgraph::Csr {
    let mut edges = Vec::with_capacity(triples.len() * 2);
    let mut weights = Vec::with_capacity(triples.len() * 2);
    for &(e, f, o) in triples {
        let w = 1.0 / o as f64;
        edges.push((e, f));
        weights.push(w);
        edges.push((f, e));
        weights.push(w);
    }
    let el = nwgraph::EdgeList::from_weighted_edges(num_hyperedges, edges, weights);
    nwgraph::Csr::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::SLineBuilder;

    #[test]
    fn weights_are_exact_overlaps() {
        let h = paper_hypergraph();
        let triples = slinegraph_weighted_edges(&h, 1, Strategy::AUTO);
        // fixture overlap table (see fixtures.rs)
        assert_eq!(
            triples,
            vec![(0, 1, 1), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 2)]
        );
    }

    #[test]
    fn thresholding_matches_unweighted() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            let triples = slinegraph_weighted_edges(&h, s, Strategy::AUTO);
            let pairs: Vec<(u32, u32)> = triples.iter().map(|&(a, b, _)| (a, b)).collect();
            assert_eq!(pairs, paper_slinegraph_edges(s), "s={s}");
            assert!(triples.iter().all(|&(_, _, o)| o as usize >= s));
        }
    }

    #[test]
    fn weighted_csr_inverts_overlap() {
        let h = paper_hypergraph();
        let g = SLineBuilder::new(&h).s(1).weighted_csr();
        assert!(g.is_weighted());
        // edge {0,3} has overlap 3 → weight 1/3
        let w = g
            .weighted_neighbors(0)
            .find(|&(t, _)| t == 3)
            .map(|(_, w)| w)
            .unwrap();
        assert!((w - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn strategies_agree() {
        let h = paper_hypergraph();
        let a = slinegraph_weighted_edges(&h, 2, Strategy::Blocked { num_bins: 2 });
        let b = slinegraph_weighted_edges(&h, 2, Strategy::Cyclic { num_bins: 3 });
        assert_eq!(a, b);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(slinegraph_weighted_edges(&h, 1, Strategy::AUTO).is_empty());
    }

    #[test]
    fn jaccard_values_are_exact() {
        let h = paper_hypergraph();
        let j = SLineBuilder::new(&h).s(1).jaccard_edges();
        // |e0|=4, |e1|=4, overlap 1 → 1/7; |e0|=4, |e3|=5, overlap 3 → 3/6
        let find = |a: u32, b: u32| j.iter().find(|&&(x, y, _)| (x, y) == (a, b)).unwrap().2;
        assert!((find(0, 1) - 1.0 / 7.0).abs() < 1e-12);
        assert!((find(0, 3) - 0.5).abs() < 1e-12);
        // identical edges would give 1.0
        let dup = Hypergraph::from_memberships(&[vec![0, 1], vec![0, 1]]);
        let j = SLineBuilder::new(&dup).s(1).jaccard_edges();
        assert_eq!(j, vec![(0, 1, 1.0)]);
    }

    #[test]
    fn jaccard_in_unit_interval() {
        let h = paper_hypergraph();
        for (_, _, j) in SLineBuilder::new(&h).s(1).jaccard_edges() {
            assert!((0.0..=1.0).contains(&j));
        }
    }
}
