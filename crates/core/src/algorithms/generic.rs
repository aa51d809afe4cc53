//! HyperBFS (top-down and bottom-up) and HyperCC (§III-C.1), one
//! implementation each, generic over [`HyperAdjacency`]: they run
//! unchanged on the bi-adjacency, the adjoin graph, the zero-copy views
//! and the packed on-disk backend (`nwhy-store`, traversed row by row).
//!
//! A hypergraph BFS alternates between the two index sets, so hyperedges
//! sit at even levels and hypernodes at odd levels, and it keeps a
//! frontier, a parent array and a level array per index set: the
//! bookkeeping the paper notes as the bi-adjacency's biggest drawback.
//!
//! Per-hypernode result arrays are indexed by dense hypernode index
//! ([`HyperAdjacency::node_index`]) so they compare across
//! representations. Levels and labels are deterministic; BFS parents
//! are subject to the usual CAS races.

use super::hyper_bfs::HyperBfsResult;
use super::hyper_cc::HyperCcResult;
use crate::repr::HyperAdjacency;
use crate::{ids, Id};
use nwgraph::INVALID_VERTEX;
use nwhy_util::atomics::atomic_min_u32;
use nwhy_util::sync::{AtomicBool, AtomicU32, Ordering};
use rayon::prelude::*;

/// Level and parent slots of one HyperBFS, one pair per index set.
struct BfsState {
    edge_levels: Vec<AtomicU32>,
    node_levels: Vec<AtomicU32>,
    edge_parents: Vec<AtomicU32>,
    node_parents: Vec<AtomicU32>,
}

impl BfsState {
    /// All slots unvisited except the source hyperedge: level 0, its own
    /// parent.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    fn new<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> Self {
        let ne = h.num_hyperedges();
        let nv = h.num_hypernodes();
        assert!(
            ids::to_usize(source) < ne,
            "source hyperedge {source} out of range {ne}"
        );
        let unvisited = |n: usize| -> Vec<AtomicU32> {
            (0..n).map(|_| AtomicU32::new(INVALID_VERTEX)).collect()
        };
        let state = BfsState {
            edge_levels: unvisited(ne),
            node_levels: unvisited(nv),
            edge_parents: unvisited(ne),
            node_parents: unvisited(nv),
        };
        state.edge_levels[ids::to_usize(source)].store(0, Ordering::Relaxed);
        state.edge_parents[ids::to_usize(source)].store(source, Ordering::Relaxed);
        state
    }

    fn into_result(self) -> HyperBfsResult {
        let plain = |v: Vec<AtomicU32>| v.into_iter().map(AtomicU32::into_inner).collect();
        HyperBfsResult {
            edge_levels: plain(self.edge_levels),
            node_levels: plain(self.node_levels),
            edge_parents: plain(self.edge_parents),
            node_parents: plain(self.node_parents),
        }
    }
}

/// Top-down HyperBFS from a source hyperedge (working ID), over any
/// representation: each half-step pushes from the frontier, claiming
/// unvisited targets by CAS on their parent slot.
///
/// Hyperedge parents are hypernode handles (shifted for adjoin graphs);
/// hypernode parents are working hyperedge IDs.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn hyper_bfs_generic<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> HyperBfsResult {
    let _span = nwhy_obs::span("algo.hyper_bfs.generic");
    let state = BfsState::new(h, source);
    let BfsState {
        edge_levels,
        node_levels,
        edge_parents,
        node_parents,
    } = &state;

    let mut edge_frontier = vec![source];
    let mut depth = 0u32;
    while !edge_frontier.is_empty() {
        // hyperedges → hypernodes
        depth += 1;
        let node_frontier: Vec<usize> = edge_frontier
            .par_iter()
            .fold(Vec::new, |mut next, &e| {
                for &handle in h.edge_neighbors(e).iter() {
                    let t = h.node_index(handle);
                    if node_parents[t].load(Ordering::Relaxed) == INVALID_VERTEX
                        && node_parents[t]
                            .compare_exchange(
                                INVALID_VERTEX,
                                e,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        node_levels[t].store(depth, Ordering::Relaxed);
                        next.push(t);
                    }
                }
                next
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        if node_frontier.is_empty() {
            break;
        }
        // hypernodes → hyperedges
        depth += 1;
        edge_frontier = node_frontier
            .par_iter()
            .fold(Vec::new, |mut next, &t| {
                let handle = h.node_id(t);
                for &raw in h.node_neighbors(handle).iter() {
                    let j = h.edge_id(raw);
                    let ju = ids::to_usize(j);
                    if edge_parents[ju].load(Ordering::Relaxed) == INVALID_VERTEX
                        && edge_parents[ju]
                            .compare_exchange(
                                INVALID_VERTEX,
                                handle,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        edge_levels[ju].store(depth, Ordering::Relaxed);
                        next.push(j);
                    }
                }
                next
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
    }
    state.into_result()
}

/// Bottom-up HyperBFS from a source hyperedge (working ID), over any
/// representation: each half-step is a pull in which every unvisited
/// element of the target side scans its own incidence list for a
/// frontier member. Produces the same levels as [`hyper_bfs_generic`],
/// with parents in the same ID spaces.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn hyper_bfs_bottom_up<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> HyperBfsResult {
    let _span = nwhy_obs::span("algo.hyper_bfs.bottom_up");
    let state = BfsState::new(h, source);
    let mut edge_frontier = vec![ids::to_usize(source)];
    let mut depth = 0u32;
    while !edge_frontier.is_empty() {
        // hyperedges → hypernodes, pulled from the node side: a node
        // joins if any of its hyperedges is in the frontier.
        let edge_in = members(h.num_hyperedges(), &edge_frontier);
        depth += 1;
        let node_frontier = pull(&state.node_parents, &state.node_levels, depth, |t| {
            h.node_neighbors(h.node_id(t))
                .iter()
                .map(|&raw| h.edge_id(raw))
                .find(|&e| edge_in.get(ids::to_usize(e)) == Some(&true))
        });
        if node_frontier.is_empty() {
            break;
        }
        // hypernodes → hyperedges, pulled from the edge side.
        let node_in = members(h.num_hypernodes(), &node_frontier);
        depth += 1;
        edge_frontier = pull(&state.edge_parents, &state.edge_levels, depth, |e| {
            h.edge_neighbors(ids::from_usize(e))
                .iter()
                .copied()
                .find(|&handle| node_in.get(h.node_index(handle)) == Some(&true))
        });
    }
    state.into_result()
}

/// Membership flags of `frontier` over `[0, n)`.
fn members(n: usize, frontier: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; n];
    for &i in frontier {
        if let Some(f) = flags.get_mut(i) {
            *f = true;
        }
    }
    flags
}

/// One bottom-up half-step: every unvisited slot `t` for which
/// `frontier_parent(t)` finds a frontier neighbour records it as parent,
/// takes level `depth`, and joins the returned frontier.
fn pull(
    parents: &[AtomicU32],
    levels: &[AtomicU32],
    depth: u32,
    frontier_parent: impl Fn(usize) -> Option<Id> + Sync,
) -> Vec<usize> {
    (0..parents.len())
        .into_par_iter()
        .filter_map(|t| {
            let (parent, level) = (parents.get(t)?, levels.get(t)?);
            if parent.load(Ordering::Relaxed) != INVALID_VERTEX {
                return None;
            }
            parent.store(frontier_parent(t)?, Ordering::Relaxed);
            level.store(depth, Ordering::Relaxed);
            Some(t)
        })
        .collect()
}

/// Label-propagation HyperCC over any representation (Orzan / Yan et
/// al.).
///
/// Labels live in the combined space (`hyperedge e ↦ e`, `hypernode
/// index i ↦ n_e + i`), so every initial label is distinct; rounds of
/// parallel min-exchange across the incidence lists converge to
/// per-component minima. Because hyperedge IDs sit below hypernode IDs,
/// every final label is the smallest hyperedge ID of the component (or
/// the node's own shifted ID for an isolated hypernode), on any
/// representation.
pub fn hyper_cc_generic<A: HyperAdjacency + ?Sized>(h: &A) -> HyperCcResult {
    let _span = nwhy_obs::span("algo.hyper_cc.generic");
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    let edge_labels: Vec<AtomicU32> = (0..ids::from_usize(ne)).map(AtomicU32::new).collect();
    let node_labels: Vec<AtomicU32> = (0..nv)
        .map(|i| AtomicU32::new(ids::from_usize(ne + i)))
        .collect();

    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        // Push each hyperedge's label to its hypernodes and pull back.
        // The shared flag is stored at most once per hyperedge: every
        // worker storing it on every successful min would keep its cache
        // line bouncing between cores.
        (0..ne).into_par_iter().for_each(|e| {
            let le = edge_labels[e].load(Ordering::Relaxed);
            let mut lowered = false;
            for &handle in h.edge_neighbors(ids::from_usize(e)).iter() {
                let t = h.node_index(handle);
                lowered |= atomic_min_u32(&node_labels[t], le);
                let lv = node_labels[t].load(Ordering::Relaxed);
                lowered |= atomic_min_u32(&edge_labels[e], lv);
            }
            if lowered {
                changed.store(true, Ordering::Relaxed);
            }
        });
    }

    HyperCcResult {
        edge_labels: edge_labels.into_iter().map(AtomicU32::into_inner).collect(),
        node_labels: node_labels.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Sequential BFS over the bi-adjacency's two concrete CSRs:
    /// `(edge_levels, node_levels)`. Side 0 is the hyperedges, side 1
    /// the hypernodes.
    fn concrete_bfs(h: &Hypergraph, source: Id) -> (Vec<u32>, Vec<u32>) {
        let unreached = |n| vec![INVALID_VERTEX; n];
        let mut levels = [unreached(h.num_hyperedges()), unreached(h.num_hypernodes())];
        levels[0][source as usize] = 0;
        let mut queue = VecDeque::from([(0, source)]);
        while let Some((side, x)) = queue.pop_front() {
            let csr = if side == 0 { h.edges() } else { h.nodes() };
            let next = levels[side][x as usize] + 1;
            for &y in csr.neighbors(x) {
                if levels[1 - side][y as usize] == INVALID_VERTEX {
                    levels[1 - side][y as usize] = next;
                    queue.push_back((1 - side, y));
                }
            }
        }
        let [el, nl] = levels;
        (el, nl)
    }

    /// Component labels from [`concrete_bfs`]: each element takes the
    /// smallest hyperedge that reaches it (hyperedges are visited in
    /// decreasing order, so the minimum writes last), else its own
    /// shifted ID. That is the minimum HyperCC converges to.
    fn concrete_cc(h: &Hypergraph) -> HyperCcResult {
        let ne = h.num_hyperedges();
        let mut edge_labels = vec![INVALID_VERTEX; ne];
        let mut node_labels: Vec<Id> = (0..h.num_hypernodes())
            .map(|v| ids::from_usize(ne + v))
            .collect();
        for e in (0..ids::from_usize(ne)).rev() {
            let (el, nl) = concrete_bfs(h, e);
            for (labels, levels) in [(&mut edge_labels, el), (&mut node_labels, nl)] {
                for (label, level) in labels.iter_mut().zip(levels) {
                    if level != INVALID_VERTEX {
                        *label = e;
                    }
                }
            }
        }
        HyperCcResult {
            edge_labels,
            node_labels,
        }
    }

    #[test]
    fn bfs_matches_concrete_on_biadjacency() {
        let h = paper_hypergraph();
        for src in 0..4 {
            let (el, nl) = concrete_bfs(&h, src);
            for r in [hyper_bfs_generic(&h, src), hyper_bfs_bottom_up(&h, src)] {
                assert_eq!(r.edge_levels, el, "src {src}");
                assert_eq!(r.node_levels, nl, "src {src}");
            }
        }
    }

    #[test]
    fn bfs_levels_agree_on_adjoin() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for src in 0..4 {
            let on_h = hyper_bfs_generic(&h, src);
            for on_a in [hyper_bfs_generic(&a, src), hyper_bfs_bottom_up(&a, src)] {
                assert_eq!(on_h.edge_levels, on_a.edge_levels, "src {src}");
                assert_eq!(on_h.node_levels, on_a.node_levels, "src {src}");
            }
        }
    }

    #[test]
    fn cc_matches_concrete() {
        let h = paper_hypergraph();
        assert_eq!(hyper_cc_generic(&h), concrete_cc(&h));
        let split = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
        assert_eq!(hyper_cc_generic(&split), concrete_cc(&split));
    }

    #[test]
    fn cc_labels_agree_on_adjoin() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![2], vec![2, 3]]);
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(hyper_cc_generic(&a), hyper_cc_generic(&h));
    }

    #[test]
    fn empty_and_degenerate() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
        for r in [hyper_bfs_generic(&h, 0), hyper_bfs_bottom_up(&h, 0)] {
            assert_eq!(r.edges_reached(), 1);
            assert_eq!(r.nodes_reached(), 0);
        }
        let cc = hyper_cc_generic(&h);
        assert_eq!(cc.num_components(), 2);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..6), 1..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_generic_equals_concrete(ms in arb_memberships(), src_seed in 0u32..100) {
            let h = Hypergraph::from_memberships(&ms);
            let src = src_seed % ids::from_usize(h.num_hyperedges());
            let (el, nl) = concrete_bfs(&h, src);
            for r in [hyper_bfs_generic(&h, src), hyper_bfs_bottom_up(&h, src)] {
                prop_assert_eq!(&r.edge_levels, &el);
                prop_assert_eq!(&r.node_levels, &nl);
            }
            prop_assert_eq!(hyper_cc_generic(&h), concrete_cc(&h));
        }
    }
}
