//! Heuristic set-intersection s-line construction (Liu et al., HiPC 2021),
//! driven by the adaptive overlap engine.
//!
//! The three-nested-loop "indirection" pattern: for each hyperedge `e_i`,
//! for each incident hypernode `v`, for each hyperedge `e_j ∋ v` with
//! `j > i` — each *distinct* candidate `e_j` is then checked with a
//! short-circuiting overlap test that stops as soon as `s` common
//! members are found. Three heuristics cut the candidate work:
//!
//! 1. skip hyperedges with fewer than `s` members (can never s-overlap);
//! 2. visit each candidate pair once (`j > i` plus a per-worker visited
//!    stamp array, so a pair sharing many hypernodes is intersected once);
//! 3. short-circuit the per-pair test at `s`.
//!
//! The per-pair test itself goes through [`super::overlap`]: the default
//! [`OverlapPolicy::Adaptive`] loads dense expanded rows into a packed
//! bitset and routes skewed pairs to a galloping search, falling back to
//! the merge scan for similar-length rows; `Force(..)` pins one path for
//! ablation benches and agreement tests.

use super::overlap::{OverlapEngine, OverlapPolicy};
use super::stats::KernelStats;
use super::{finish, HyperAdjacency};
use crate::{ids, Id};
use nwhy_util::partition::{par_for_each_index_with, Strategy};

/// Worker-local state: the output pairs, the candidate-dedup stamps,
/// the overlap engine (row bitset + path rule), and kernel tallies.
struct Local {
    pairs: Vec<(Id, Id)>,
    /// The visited stamps of [`for_each_candidate`].
    stamp: Vec<Id>,
    engine: OverlapEngine,
    stats: KernelStats,
}

/// Pre-sizes each worker's output vec from a sampled degree estimate:
/// the expected candidate fan-out per row (Σ of incident node degrees,
/// halved for the `j > i` filter), times this worker's share of the
/// rows, capped so the hint never dominates memory. Cuts the doubling
/// reallocs the old `Vec::new()` start paid on every worker.
fn pair_capacity_hint<A: HyperAdjacency + ?Sized>(h: &A, workers: usize) -> usize {
    let ne = h.num_hyperedges();
    if ne == 0 {
        return 0;
    }
    let samples = ne.min(64);
    let mut fanout = 0usize;
    for k in 0..samples {
        let e = ids::from_usize(k * ne / samples);
        for &v in h.edge_neighbors(e).iter() {
            fanout += h.node_degree(v);
        }
    }
    let per_row = fanout / samples / 2;
    (ne * per_row / workers.max(1)).clamp(16, 1 << 14)
}

/// Heuristic intersection construction with the default adaptive overlap
/// policy; returns canonical pairs.
pub fn intersection<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    intersection_with(h, s, strategy, OverlapPolicy::default())
}

/// The stamp-dedup candidate walk shared by this kernel and Algorithm 2's
/// phase 1: calls `visit(j)` once for every distinct hyperedge `j > i`
/// sharing a member with row `i` (`e_i → v → e_j`). `stamp` is the
/// worker's `|E|`-long visited array; `stamp[j] == i + 1` marks `j` as
/// already visited for row `i`, so it never needs clearing between rows.
#[inline]
// lint: obs: per-row helper; tallies into the caller's KernelStats
pub(crate) fn for_each_candidate<A: HyperAdjacency + ?Sized>(
    h: &A,
    i: Id,
    row_i: &[Id],
    stamp: &mut [Id],
    mut visit: impl FnMut(Id),
) {
    let mark = i + 1;
    for &v in row_i {
        for &raw in h.node_neighbors(v).iter() {
            let j = h.edge_id(raw);
            if j <= i || stamp[ids::to_usize(j)] == mark {
                continue;
            }
            stamp[ids::to_usize(j)] = mark;
            visit(j);
        }
    }
}

/// Heuristic intersection construction with an explicit overlap policy.
pub fn intersection_with<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    strategy: Strategy,
    policy: OverlapPolicy,
) -> Vec<(Id, Id)> {
    let ne = h.num_hyperedges();
    let universe = ne + h.num_hypernodes();
    let capacity = pair_capacity_hint(h, strategy.bins().max(1));
    let locals = par_for_each_index_with(
        ne,
        strategy,
        || Local {
            pairs: Vec::with_capacity(capacity),
            stamp: vec![0; ne],
            engine: OverlapEngine::new(policy, universe),
            stats: KernelStats::default(),
        },
        |local, i| {
            let i = ids::from_usize(i);
            let nbrs_i = h.edge_neighbors(i);
            if nbrs_i.len() < s {
                return;
            }
            // hoist the one Deref through the row's whole expansion: the
            // decoded slice (a real decode for compressed backends) is
            // borrowed once and reused by every candidate check below
            let row_i: &[Id] = &nbrs_i;
            local.engine.begin_row(row_i);
            for_each_candidate(h, i, row_i, &mut local.stamp, |j| {
                local.stats.pair_examined();
                let nbrs_j = h.edge_neighbors(j);
                if nbrs_j.len() < s {
                    local.stats.pairs_skipped(1);
                } else if local.engine.overlaps(row_i, &nbrs_j, s, &mut local.stats) {
                    local.pairs.push((i, j));
                }
            });
            local.engine.end_row(row_i);
        },
    );
    finish(locals.into_iter().map(|l| (l.pairs, l.stats)))
}

#[cfg(test)]
mod tests {
    use super::super::overlap::OverlapPath;
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::slinegraph::naive::naive;

    #[test]
    fn matches_fixture() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            assert_eq!(
                intersection(&h, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn matches_naive_on_shared_node_hub() {
        // hypernode 0 belongs to every hyperedge — max candidate fan-out
        let h =
            Hypergraph::from_memberships(&[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 1, 2, 3]]);
        for s in 1..=3 {
            assert_eq!(
                intersection(&h, s, Strategy::AUTO),
                naive(&h, s, Strategy::AUTO),
                "s={s}"
            );
        }
    }

    #[test]
    fn stamp_dedup_does_not_drop_pairs_across_iterations() {
        // consecutive hyperedges sharing different nodes: the stamp reset
        // discipline (mark = i + 1) must not leak between outer iterations
        let h = Hypergraph::from_memberships(&[
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![3, 4, 0],
        ]);
        for s in 1..=2 {
            assert_eq!(
                intersection(&h, s, Strategy::Cyclic { num_bins: 2 }),
                naive(&h, s, Strategy::AUTO),
                "s={s}"
            );
        }
    }

    #[test]
    fn every_overlap_policy_matches_fixture() {
        let h = paper_hypergraph();
        for path in OverlapPath::ALL {
            for s in 1..=4 {
                assert_eq!(
                    intersection_with(&h, s, Strategy::AUTO, OverlapPolicy::Force(path)),
                    paper_slinegraph_edges(s),
                    "{} s={s}",
                    path.name()
                );
            }
        }
    }

    #[test]
    fn adaptive_engages_bitset_rows_and_still_agrees() {
        // one dense row (≥ BITSET_ROW_MIN_DEGREE) plus skewed small rows:
        // exercises all three paths inside a single construction
        let mut memberships: Vec<Vec<Id>> = vec![(0..64).collect()];
        memberships.push((0..8).collect());
        memberships.push(vec![0, 64]);
        memberships.push(vec![1, 2]);
        let h = Hypergraph::from_memberships(&memberships);
        for s in 1..=3 {
            assert_eq!(
                intersection(&h, s, Strategy::AUTO),
                naive(&h, s, Strategy::AUTO),
                "s={s}"
            );
        }
    }

    #[test]
    fn capacity_hint_is_bounded() {
        let h = paper_hypergraph();
        let hint = pair_capacity_hint(&h, 1);
        assert!((16..=1 << 14).contains(&hint));
        let empty = Hypergraph::from_memberships(&[]);
        assert_eq!(pair_capacity_hint(&empty, 4), 0);
    }
}
