//! **Algorithm 2** — the paper's two-phase queue-based s-line
//! construction with set intersection.
//!
//! *Phase 1* walks the bipartite indirection once and enqueues every
//! eligible hyperedge pair `{e_i, e_j}` (`j > i`, both of degree ≥ s) into
//! per-worker queues, which are concatenated into one global pair queue.
//! *Phase 2* is a single flat parallel loop over the pair queue performing
//! one short-circuiting sorted intersection per pair.
//!
//! Because phase 2 has "only one for loop (barring the set intersection)",
//! the work granularity per queue item is small and uniform — the paper's
//! argument for better load balance than the nested non-queue intersection
//! algorithm. Like Algorithm 1 it is representation-independent (bipartite
//! or adjoin, original or permuted IDs).
//!
//! The paper's pseudocode enqueues a pair once per shared hypernode; we
//! dedup with a per-worker stamp array in phase 1 so each pair is
//! intersected exactly once (a pair enqueued `k` times would otherwise be
//! intersected `k` times and emitted as a duplicate edge).

use super::intersection::for_each_candidate;
use super::overlap::{OverlapEngine, OverlapPolicy};
use super::stats::KernelStats;
use super::{finish, join, HyperAdjacency};
use crate::Id;
use nwhy_util::partition::{par_for_each_index_with, Strategy};
use rayon::prelude::*;

/// Algorithm 2 with the default adaptive overlap policy. `queue` holds
/// the hyperedge IDs to process; returns canonical pairs.
pub fn queue_intersection<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    queue_intersection_with(h, queue, s, strategy, OverlapPolicy::default())
}

/// Algorithm 2 with an explicit overlap policy.
pub fn queue_intersection_with<'h, H: HyperAdjacency + ?Sized>(
    h: &'h H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
    policy: OverlapPolicy,
) -> Vec<(Id, Id)> {
    // ---- Phase 1: build the pair queue (Alg. 2 lines 1–6). ----
    let (pair_queue, mut phase1) = phase_one(h, queue, s, strategy);
    // Hyperedge IDs enqueued up front plus candidate pairs enqueued by
    // phase 1.
    phase1.queue_pushed(queue.len() as u64 + pair_queue.len() as u64);

    // ---- Phase 2: flat intersection pass (Alg. 2 lines 7–13). ----
    //
    // The pair queue is grouped by `i` (phase 1 emits each row's pairs
    // contiguously), so each fold chain caches the decoded `nbrs_i` and
    // its loaded row bitset across consecutive pairs sharing `i` — for a
    // compressed backend that turns O(pairs) row decodes into O(rows),
    // and the bitset build cost is paid once per cached row. Path choice
    // depends only on row lengths, so splitting a row across workers
    // changes nothing about results or counter values.
    struct Chain<'h, H: HyperAdjacency + ?Sized + 'h> {
        acc: Vec<(Id, Id)>,
        stats: KernelStats,
        engine: OverlapEngine,
        row: Option<(Id, H::Neighbors<'h>)>,
    }
    let universe = h.num_hyperedges() + h.num_hypernodes();
    let new_chain = || Chain::<'h, H> {
        acc: Vec::new(),
        stats: KernelStats::default(),
        engine: OverlapEngine::new(policy, universe),
        row: None,
    };
    let chains: Vec<(Vec<(Id, Id)>, KernelStats)> = pair_queue
        .par_iter()
        .fold(new_chain, |mut chain: Chain<'h, H>, &(i, j)| {
            if chain.row.as_ref().map(|(ri, _)| *ri) != Some(i) {
                if let Some((_, old)) = chain.row.take() {
                    chain.engine.end_row(&old);
                }
                let nbrs = h.edge_neighbors(i);
                chain.engine.begin_row(&nbrs);
                chain.row = Some((i, nbrs));
            }
            let (_, nbrs_i) = chain.row.as_ref().expect("row cached above");
            chain.stats.pair_examined();
            if chain
                .engine
                .overlaps(nbrs_i, &h.edge_neighbors(j), s, &mut chain.stats)
            {
                chain.acc.push((i, j));
            }
            chain
        })
        .map(|chain| (chain.acc, chain.stats))
        .collect();
    // Free the candidate queue before the epilogue copies the survivors.
    drop(pair_queue);
    finish(chains.into_iter().chain([(Vec::new(), phase1)]))
}

/// Phase 1 proper: the candidate walk over every queued row, keeping the
/// pairs whose second hyperedge can still reach `s`; returns the pair
/// queue and the phase's tallies (unflushed).
fn phase_one<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> (Vec<(Id, Id)>, KernelStats) {
    struct Local {
        pairs: Vec<(Id, Id)>,
        stamp: Vec<Id>,
        stats: KernelStats,
    }
    let ne = h.num_hyperedges();
    let locals = par_for_each_index_with(
        queue.len(),
        strategy,
        || Local {
            pairs: Vec::new(),
            stamp: vec![0; ne],
            stats: KernelStats::default(),
        },
        |local, slot| {
            let i = queue[slot];
            let nbrs_i = h.edge_neighbors(i);
            if nbrs_i.len() < s {
                return;
            }
            for_each_candidate(h, i, &nbrs_i, &mut local.stamp, |j| {
                if h.edge_degree(j) >= s {
                    // lint: alloc: per-thread output accumulator; push is amortized O(1)
                    local.pairs.push((i, j));
                } else {
                    local.stats.pairs_skipped(1);
                }
            });
        },
    );
    join(locals.into_iter().map(|l| (l.pairs, l.stats)))
}

/// Phase-1-only variant: returns the candidate pair queue without the
/// intersection pass. Exposed for the ablation bench that measures the
/// two phases separately.
// lint: obs: ablation-bench helper; the full kernel path flushes KernelStats
pub fn candidate_pairs<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    phase_one(h, queue, s, strategy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;

    #[test]
    fn matches_fixture_on_biadjacency() {
        let h = paper_hypergraph();
        let queue: Vec<Id> = (0..4).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_intersection(&h, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn runs_directly_on_adjoin_graph() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let queue: Vec<Id> = (0..crate::ids::from_usize(a.num_hyperedges())).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_intersection(&a, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "adjoin s={s}"
            );
        }
    }

    #[test]
    fn candidate_queue_is_superset_of_result() {
        let h = paper_hypergraph();
        let queue: Vec<Id> = (0..4).collect();
        let candidates = candidate_pairs(&h, &queue, 2, Strategy::AUTO);
        let result = queue_intersection(&h, &queue, 2, Strategy::AUTO);
        for e in &result {
            assert!(candidates.contains(e), "{e:?} missing from phase-1 queue");
        }
        // candidates are deduped: each unordered pair appears once
        let canon = super::super::canonicalize(candidates.clone());
        assert_eq!(canon.len(), candidates.len());
    }

    #[test]
    fn phase1_degree_filter_prunes() {
        // e1 = {5} can never reach s=2
        let h = Hypergraph::from_memberships(&[vec![0, 5], vec![5], vec![0, 5]]);
        let queue: Vec<Id> = (0..3).collect();
        let candidates = candidate_pairs(&h, &queue, 2, Strategy::AUTO);
        assert_eq!(candidates, vec![(0, 2)]);
        assert_eq!(
            queue_intersection(&h, &queue, 2, Strategy::AUTO),
            vec![(0, 2)]
        );
    }

    #[test]
    fn shuffled_queue_same_result() {
        let h = paper_hypergraph();
        assert_eq!(
            queue_intersection(&h, &[3, 1, 0, 2], 2, Strategy::Cyclic { num_bins: 2 }),
            paper_slinegraph_edges(2)
        );
    }

    #[test]
    fn empty_inputs() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(queue_intersection(&h, &[], 1, Strategy::AUTO).is_empty());
    }
}
