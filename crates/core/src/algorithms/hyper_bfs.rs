//! HyperBFS output (§III-C.1).
//!
//! The top-down and bottom-up traversals themselves are
//! [`hyper_bfs_generic`](super::hyper_bfs_generic) and
//! [`hyper_bfs_bottom_up`](super::hyper_bfs_bottom_up), which run on
//! every representation; this module holds the result they share.

use crate::Id;
use nwgraph::INVALID_VERTEX;

/// Output of a hypergraph BFS from a source hyperedge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperBfsResult {
    /// Level of each hyperedge (`INVALID_VERTEX` if unreached); the
    /// source hyperedge has level 0, all other levels are even.
    pub edge_levels: Vec<u32>,
    /// Level of each hypernode (odd for reached nodes).
    pub node_levels: Vec<u32>,
    /// BFS parent of each hyperedge — a *hypernode* ID (the source is its
    /// own parent as an edge ID).
    pub edge_parents: Vec<Id>,
    /// BFS parent of each hypernode — a *hyperedge* ID.
    pub node_parents: Vec<Id>,
}

impl HyperBfsResult {
    /// Hyperedges reached (including the source).
    pub fn edges_reached(&self) -> usize {
        self.edge_levels
            .iter()
            .filter(|&&l| l != INVALID_VERTEX)
            .count()
    }

    /// Hypernodes reached.
    pub fn nodes_reached(&self) -> usize {
        self.node_levels
            .iter()
            .filter(|&&l| l != INVALID_VERTEX)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{hyper_bfs_bottom_up, hyper_bfs_generic};
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::ids;
    use proptest::prelude::*;

    #[test]
    fn fixture_levels_from_e0() {
        let h = paper_hypergraph();
        let r = hyper_bfs_generic(&h, 0);
        // e0 = {0,1,2,3} at level 0; its nodes at level 1
        assert_eq!(r.edge_levels[0], 0);
        for v in [0u32, 1, 2, 3] {
            assert_eq!(r.node_levels[v as usize], 1, "node {v}");
        }
        // e1 (shares node 3) and e3 (shares 0,2,3) at level 2
        assert_eq!(r.edge_levels[1], 2);
        assert_eq!(r.edge_levels[3], 2);
        // nodes {4,5,6,8} first reached via e1/e3 at level 3
        for v in [4u32, 5, 6, 8] {
            assert_eq!(r.node_levels[v as usize], 3, "node {v}");
        }
        // e2 reached at level 4, node 7 at level 5
        assert_eq!(r.edge_levels[2], 4);
        assert_eq!(r.node_levels[7], 5);
    }

    #[test]
    fn top_down_and_bottom_up_agree() {
        let h = paper_hypergraph();
        for src in 0..4 {
            let td = hyper_bfs_generic(&h, src);
            let bu = hyper_bfs_bottom_up(&h, src);
            assert_eq!(td.edge_levels, bu.edge_levels, "src {src}");
            assert_eq!(td.node_levels, bu.node_levels, "src {src}");
        }
    }

    #[test]
    fn parents_are_cross_type() {
        let h = paper_hypergraph();
        for r in [hyper_bfs_generic(&h, 0), hyper_bfs_bottom_up(&h, 0)] {
            // node parents are hyperedges containing the node
            for v in 0..9u32 {
                let p = r.node_parents[v as usize];
                if p != INVALID_VERTEX {
                    assert!(h.edge_members(p).contains(&v), "node {v} parent {p}");
                }
            }
            // edge parents (except source) are member nodes
            for e in 1..4u32 {
                let p = r.edge_parents[e as usize];
                if p != INVALID_VERTEX {
                    assert!(h.edge_members(e).contains(&p), "edge {e} parent {p}");
                }
            }
        }
    }

    #[test]
    fn disconnected_parts_unreached() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![2, 3]]);
        let r = hyper_bfs_generic(&h, 0);
        assert_eq!(r.edge_levels[1], INVALID_VERTEX);
        assert_eq!(r.node_levels[2], INVALID_VERTEX);
        assert_eq!(r.edges_reached(), 1);
        assert_eq!(r.nodes_reached(), 2);
    }

    #[test]
    fn empty_hyperedge_source() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
        let r = hyper_bfs_generic(&h, 0);
        assert_eq!(r.edges_reached(), 1);
        assert_eq!(r.nodes_reached(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let h = paper_hypergraph();
        hyper_bfs_generic(&h, 9);
    }

    #[test]
    fn level_parity_invariant() {
        let h = paper_hypergraph();
        let r = hyper_bfs_generic(&h, 2);
        for &l in &r.edge_levels {
            if l != INVALID_VERTEX {
                assert_eq!(l % 2, 0, "hyperedge at odd level");
            }
        }
        for &l in &r.node_levels {
            if l != INVALID_VERTEX {
                assert_eq!(l % 2, 1, "hypernode at even level");
            }
        }
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..6), 1..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_variants_agree(ms in arb_memberships(), src_seed in 0u32..100) {
            let h = Hypergraph::from_memberships(&ms);
            let src = src_seed % ids::from_usize(h.num_hyperedges());
            let td = hyper_bfs_generic(&h, src);
            let bu = hyper_bfs_bottom_up(&h, src);
            prop_assert_eq!(td.edge_levels, bu.edge_levels);
            prop_assert_eq!(td.node_levels, bu.node_levels);
        }
    }
}
