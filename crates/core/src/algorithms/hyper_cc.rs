//! HyperCC output (§III-C.1).
//!
//! The label-propagation kernel itself is
//! [`hyper_cc_generic`](super::hyper_cc_generic), which runs on every
//! representation; this module holds its result.

use crate::Id;

/// Component labels for both index sets. Two entities (of either kind)
/// are in the same hypergraph component iff their labels are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperCcResult {
    /// Label per hyperedge.
    pub edge_labels: Vec<Id>,
    /// Label per hypernode.
    pub node_labels: Vec<Id>,
}

impl HyperCcResult {
    /// Number of distinct components with at least one hyperedge or
    /// hypernode.
    pub fn num_components(&self) -> usize {
        let mut all: Vec<Id> = self
            .edge_labels
            .iter()
            .chain(self.node_labels.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::hyper_cc_generic;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::ids;
    use proptest::prelude::*;

    #[test]
    fn fixture_is_one_component() {
        let h = paper_hypergraph();
        let r = hyper_cc_generic(&h);
        assert!(r.edge_labels.iter().all(|&l| l == 0));
        assert!(r.node_labels.iter().all(|&l| l == 0));
        assert_eq!(r.num_components(), 1);
    }

    #[test]
    fn two_components_split_cleanly() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
        let r = hyper_cc_generic(&h);
        assert_eq!(r.edge_labels[0], r.edge_labels[1]);
        assert_ne!(r.edge_labels[0], r.edge_labels[2]);
        assert_eq!(r.node_labels[0], r.node_labels[2]);
        assert_eq!(r.node_labels[3], r.edge_labels[2]);
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn isolated_hypernode_is_own_component() {
        // node 2 in the ID space but no incidences
        let bel = crate::biedgelist::BiEdgeList::from_incidences(1, 3, vec![(0, 0), (0, 1)]);
        let h = Hypergraph::from_biedgelist(&bel);
        let r = hyper_cc_generic(&h);
        assert_eq!(r.node_labels[2], 1 + 2); // ne + v
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn empty_hyperedge_is_own_component() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0, 1]]);
        let r = hyper_cc_generic(&h);
        assert_ne!(r.edge_labels[0], r.edge_labels[1]);
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn labels_are_component_minimum_hyperedge() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![2], vec![2, 3]]);
        let r = hyper_cc_generic(&h);
        // component {e0,e1,v0,v1} labeled 0; {e2,e3,v2,v3} labeled 2
        assert_eq!(r.edge_labels, vec![0, 0, 2, 2]);
        assert_eq!(r.node_labels, vec![0, 0, 2, 2]);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..5), 0..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    /// Oracle: sequential DFS over the bipartite structure.
    fn dfs_components(h: &Hypergraph) -> (Vec<Id>, Vec<Id>) {
        let ne = h.num_hyperedges();
        let nv = h.num_hypernodes();
        let mut el = vec![u32::MAX; ne];
        let mut nl = vec![u32::MAX; nv];
        let mut next_label = 0;
        for start in 0..ne {
            if el[start] != u32::MAX {
                continue;
            }
            let label = next_label;
            next_label += 1;
            let mut stack = vec![(true, ids::from_usize(start))];
            el[start] = label;
            while let Some((is_edge, x)) = stack.pop() {
                if is_edge {
                    for &v in h.edge_members(x) {
                        if nl[v as usize] == u32::MAX {
                            nl[v as usize] = label;
                            stack.push((false, v));
                        }
                    }
                } else {
                    for &e in h.node_memberships(x) {
                        if el[e as usize] == u32::MAX {
                            el[e as usize] = label;
                            stack.push((true, e));
                        }
                    }
                }
            }
        }
        for label in nl.iter_mut() {
            if *label == u32::MAX {
                *label = next_label;
                next_label += 1;
            }
        }
        (el, nl)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_dfs_partition(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let r = hyper_cc_generic(&h);
            let (el, nl) = dfs_components(&h);
            // same partition: pairwise equality must agree
            let ne = h.num_hyperedges();
            for a in 0..ne {
                for b in 0..ne {
                    prop_assert_eq!(
                        r.edge_labels[a] == r.edge_labels[b],
                        el[a] == el[b],
                        "edges {} {}", a, b
                    );
                }
                #[allow(clippy::needless_range_loop)] // lint: parallel indexing of two arrays
                for v in 0..h.num_hypernodes() {
                    prop_assert_eq!(
                        r.edge_labels[a] == r.node_labels[v],
                        el[a] == nl[v],
                        "edge {} node {}", a, v
                    );
                }
            }
        }
    }
}
