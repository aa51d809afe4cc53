//! Hashmap-counting s-line construction (Liu et al., IPDPS 2022).
//!
//! For each hyperedge `e_i`, a hash map accumulates
//! `overlap_count[e_j] += 1` for every co-incidence discovered through the
//! bipartite indirection (`e_i → v → e_j`, `j > i`); pairs whose count
//! reaches `s` become line-graph edges. Unlike the intersection algorithm
//! this touches each incidence exactly once per outer hyperedge and needs
//! no sorted neighbor access — but pays hashing costs.

use super::stats::KernelStats;
use super::{finish, meets, HyperAdjacency};
use crate::ids::Overlap;
use crate::{ids, Id};
use nwhy_util::fxhash::FxHashMap;
use nwhy_util::partition::{par_for_each_index_with, Strategy};

/// Worker-local state of a counting kernel: its output, a reusable
/// counting map, tallies.
#[derive(Default)]
pub(crate) struct Counting<T> {
    pub out: Vec<T>,
    pub counts: FxHashMap<Id, Overlap>,
    pub stats: KernelStats,
}

/// The counting row every counting kernel runs (hashmap, Algorithm 1,
/// ensemble, weighted): fills `counts` with `|e_i ∩ e_j|` for every
/// hyperedge `j > i` reached through `e_i → v → e_j`, one insertion per
/// co-incidence. Returns `false`, counting nothing, when row `i` has
/// fewer than `min_s` members and so can meet no threshold.
#[inline]
// lint: obs: per-row helper; tallies into the caller's KernelStats
pub(crate) fn count_overlaps<A: HyperAdjacency + ?Sized>(
    h: &A,
    i: Id,
    min_s: usize,
    counts: &mut FxHashMap<Id, Overlap>,
    stats: &mut KernelStats,
) -> bool {
    let nbrs_i = h.edge_neighbors(i);
    if nbrs_i.len() < min_s {
        return false;
    }
    counts.clear();
    for &v in nbrs_i.iter() {
        for &raw in h.node_neighbors(v).iter() {
            let j = h.edge_id(raw);
            if j > i {
                stats.hashmap_insertion();
                *counts.entry(j).or_insert(0) += 1;
            }
        }
    }
    // Each distinct counted candidate is one examined pair.
    stats.pairs_examined_n(counts.len() as u64);
    true
}

/// Hashmap-counting construction; returns canonical pairs.
// lint: obs: worker tallies are flushed by the shared `finish` epilogue
pub fn hashmap<A: HyperAdjacency + ?Sized>(h: &A, s: usize, strategy: Strategy) -> Vec<(Id, Id)> {
    let ne = h.num_hyperedges();
    let locals = par_for_each_index_with(ne, strategy, Counting::default, |local, i| {
        let i = ids::from_usize(i);
        if !count_overlaps(h, i, s, &mut local.counts, &mut local.stats) {
            local.stats.pairs_skipped(ne as u64 - 1 - i as u64);
            return;
        }
        for (&j, &n) in &local.counts {
            if meets(n, s) {
                // lint: alloc: per-thread output accumulator; push is amortized O(1)
                local.out.push((i, j));
            }
        }
    });
    finish(locals.into_iter().map(|l| (l.out, l.stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::slinegraph::naive::naive;

    #[test]
    fn matches_fixture() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            assert_eq!(
                hashmap(&h, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn counts_equal_exact_overlaps() {
        let h =
            Hypergraph::from_memberships(&[vec![0, 1, 2, 3, 4], vec![2, 3, 4, 5], vec![4, 5, 6]]);
        // |e0∩e1| = 3, |e0∩e2| = 1, |e1∩e2| = 2
        assert_eq!(hashmap(&h, 1, Strategy::AUTO), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(hashmap(&h, 2, Strategy::AUTO), vec![(0, 1), (1, 2)]);
        assert_eq!(hashmap(&h, 3, Strategy::AUTO), vec![(0, 1)]);
        assert!(hashmap(&h, 4, Strategy::AUTO).is_empty());
    }

    #[test]
    fn agrees_with_naive_under_all_strategies() {
        let h = Hypergraph::from_memberships(&[
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![0, 3],
            vec![2],
            vec![0, 1, 2, 3],
        ]);
        for strategy in [
            Strategy::AUTO,
            Strategy::Blocked { num_bins: 3 },
            Strategy::Cyclic { num_bins: 2 },
        ] {
            for s in 1..=3 {
                assert_eq!(
                    hashmap(&h, s, strategy),
                    naive(&h, s, Strategy::AUTO),
                    "{strategy:?} s={s}"
                );
            }
        }
    }
}
