//! Hypergraph transformations: restriction, filtering, collapsing.
//!
//! The HyperNetX workflows NWHy backs (§V: "HyperNetX … can use our NWHy
//! Python APIs") lean on a small algebra of hypergraph edits before
//! analysis — restricting to a node subset, dropping degenerate
//! hyperedges, collapsing duplicates. These are the parallel Rust
//! equivalents; every operation returns a fresh [`Hypergraph`] and a
//! mapping back to the original IDs where the ID space changes.

use crate::algorithms::toplex::toplexes;
use crate::biedgelist::BiEdgeList;
use crate::hypergraph::Hypergraph;
use crate::ids;
use crate::Id;
use nwhy_util::fxhash::{FxHashMap, FxHashSet};
use rayon::prelude::*;

/// Restricts `h` to the hypernodes in `keep` (the *induced
/// sub-hypergraph*): hyperedges lose members outside `keep`; hypernode
/// IDs are compacted. Returns the restriction and `node_map` where
/// `node_map[new] = old`. Hyperedge IDs are unchanged (edges may become
/// empty).
pub fn induced_subhypergraph(h: &Hypergraph, keep: &[Id]) -> (Hypergraph, Vec<Id>) {
    let keep_set: FxHashSet<Id> = keep.iter().copied().collect();
    let mut node_map: Vec<Id> = keep_set.iter().copied().collect();
    node_map.sort_unstable();
    let inverse: FxHashMap<Id, Id> = node_map
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, ids::from_usize(new)))
        .collect();

    let incidences: Vec<(Id, Id)> = h
        .edges()
        .par_iter()
        .flat_map_iter(|(e, members)| {
            let inverse = &inverse;
            members
                .iter()
                .filter_map(move |v| inverse.get(v).map(|&nv| (e, nv)))
        })
        .collect();
    let bel = BiEdgeList::from_incidences(h.num_hyperedges(), node_map.len(), incidences);
    (Hypergraph::from_biedgelist(&bel), node_map)
}

/// Drops hyperedges whose size is outside `[min_size, max_size]`.
/// Returns the filtered hypergraph and `edge_map[new] = old`. The
/// hypernode ID space is unchanged.
pub fn filter_edges_by_size(
    h: &Hypergraph,
    min_size: usize,
    max_size: usize,
) -> (Hypergraph, Vec<Id>) {
    let edge_map: Vec<Id> = (0..ids::from_usize(h.num_hyperedges()))
        .filter(|&e| {
            let d = h.edge_degree(e);
            d >= min_size && d <= max_size
        })
        .collect();
    let incidences: Vec<(Id, Id)> = edge_map
        .par_iter()
        .enumerate()
        .flat_map_iter(|(new, &old)| {
            h.edge_members(old)
                .iter()
                .map(move |&v| (ids::from_usize(new), v))
        })
        .collect();
    let bel = BiEdgeList::from_incidences(edge_map.len(), h.num_hypernodes(), incidences);
    (Hypergraph::from_biedgelist(&bel), edge_map)
}

/// Collapses hyperedges that are equal *as sets*, keeping the smallest
/// ID of each class. Returns the collapsed hypergraph and, per surviving
/// hyperedge, the list of original IDs it represents (its multiplicity
/// class) — HyperNetX's `collapse_edges` bookkeeping.
pub fn collapse_duplicate_edges(h: &Hypergraph) -> (Hypergraph, Vec<Vec<Id>>) {
    let mut classes: FxHashMap<&[Id], Vec<Id>> = FxHashMap::default();
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        classes.entry(h.edge_members(e)).or_default().push(e);
    }
    let mut reps: Vec<Vec<Id>> = classes.into_values().collect();
    // members are pushed in increasing e, so class[0] is the smallest ID
    reps.sort_unstable_by_key(|class| class[0]);

    let incidences: Vec<(Id, Id)> = reps
        .iter()
        .enumerate()
        .flat_map(|(new, class)| {
            h.edge_members(class[0])
                .iter()
                .map(move |&v| (ids::from_usize(new), v))
        })
        .collect();
    let bel = BiEdgeList::from_incidences(reps.len(), h.num_hypernodes(), incidences);
    (Hypergraph::from_biedgelist(&bel), reps)
}

/// Removes hyperedges with no members. Returns the cleaned hypergraph
/// and `edge_map[new] = old`.
pub fn remove_empty_edges(h: &Hypergraph) -> (Hypergraph, Vec<Id>) {
    filter_edges_by_size(h, 1, usize::MAX)
}

/// Restricts to the *toplexes* (maximal hyperedges) — the simplification
/// HyperNetX calls `restrict_to_edges(toplexes)`: every containment
/// relation is preserved because non-maximal edges are subsets of kept
/// ones. Returns the simplified hypergraph and `edge_map[new] = old`.
pub fn restrict_to_toplexes(h: &Hypergraph) -> (Hypergraph, Vec<Id>) {
    let tops = toplexes(h);
    let incidences: Vec<(Id, Id)> = tops
        .par_iter()
        .enumerate()
        .flat_map_iter(|(new, &old)| {
            h.edge_members(old)
                .iter()
                .map(move |&v| (ids::from_usize(new), v))
        })
        .collect();
    let bel = BiEdgeList::from_incidences(tops.len(), h.num_hypernodes(), incidences);
    (Hypergraph::from_biedgelist(&bel), tops)
}

/// Disjoint union: hyperedge and hypernode ID spaces of `b` are shifted
/// past `a`'s.
pub fn disjoint_union(a: &Hypergraph, b: &Hypergraph) -> Hypergraph {
    let ne = a.num_hyperedges();
    let nv = a.num_hypernodes();
    let mut incidences: Vec<(Id, Id)> = Vec::with_capacity(a.num_incidences() + b.num_incidences());
    for e in 0..ids::from_usize(ne) {
        for &v in a.edge_members(e) {
            incidences.push((e, v));
        }
    }
    // shift b's storage words past a's spaces through the audited funnel
    let (e_shift, v_shift) = (ids::from_usize(ne), ids::from_usize(nv));
    for e in 0..ids::from_usize(b.num_hyperedges()) {
        for &v in b.edge_members(e) {
            incidences.push((e + e_shift, v + v_shift));
        }
    }
    let bel =
        BiEdgeList::from_incidences(ne + b.num_hyperedges(), nv + b.num_hypernodes(), incidences);
    Hypergraph::from_biedgelist(&bel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{nested_hypergraph, paper_hypergraph};

    #[test]
    fn induced_subhypergraph_compacts_nodes() {
        let h = paper_hypergraph();
        // keep nodes {0, 2, 3, 5}
        let (sub, node_map) = induced_subhypergraph(&h, &[0, 2, 3, 5]);
        assert_eq!(node_map, vec![0, 2, 3, 5]);
        assert_eq!(sub.num_hypernodes(), 4);
        assert_eq!(sub.num_hyperedges(), 4);
        // e0 = {0,1,2,3} → {0,2,3} → new IDs {0,1,2}
        assert_eq!(sub.edge_members(0), &[0, 1, 2]);
        // e2 = {4,5,6,7,8} → {5} → new ID {3}
        assert_eq!(sub.edge_members(2), &[3]);
        // e3 = {0,2,3,5} survives fully
        assert_eq!(sub.edge_members(3), &[0, 1, 2, 3]);
    }

    #[test]
    fn induced_with_duplicate_keep_ids() {
        let h = paper_hypergraph();
        let (sub, node_map) = induced_subhypergraph(&h, &[3, 3, 0]);
        assert_eq!(node_map, vec![0, 3]);
        assert_eq!(sub.num_hypernodes(), 2);
    }

    #[test]
    fn filter_by_size_bounds() {
        let h = nested_hypergraph(); // sizes 4, 2, 1, 2, 2
        let (f, edge_map) = filter_edges_by_size(&h, 2, 2);
        assert_eq!(edge_map, vec![1, 3, 4]);
        assert_eq!(f.num_hyperedges(), 3);
        assert_eq!(f.edge_members(0), h.edge_members(1));
        assert_eq!(f.num_hypernodes(), h.num_hypernodes());
    }

    #[test]
    fn collapse_duplicates_keeps_classes() {
        let h = nested_hypergraph(); // t1 = t4 = {1,2}
        let (c, classes) = collapse_duplicate_edges(&h);
        assert_eq!(c.num_hyperedges(), 4);
        let dup_class = classes.iter().find(|cl| cl.len() == 2).unwrap();
        assert_eq!(dup_class, &vec![1, 4]);
        // every class representative keeps its member set
        for (new, class) in classes.iter().enumerate() {
            assert_eq!(
                c.edge_members(ids::from_usize(new)),
                h.edge_members(class[0])
            );
        }
    }

    #[test]
    fn remove_empty_edges_cleans() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0, 1], vec![]]);
        let (c, edge_map) = remove_empty_edges(&h);
        assert_eq!(edge_map, vec![1]);
        assert_eq!(c.num_hyperedges(), 1);
        assert_eq!(c.edge_members(0), &[0, 1]);
    }

    #[test]
    fn restrict_to_toplexes_simplifies() {
        let h = nested_hypergraph();
        let (t, edge_map) = restrict_to_toplexes(&h);
        assert_eq!(edge_map, vec![0, 3]);
        assert_eq!(t.num_hyperedges(), 2);
        assert_eq!(t.edge_members(0), h.edge_members(0));
        assert_eq!(t.edge_members(1), h.edge_members(3));
        // node coverage preserved: every incident node stays incident
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            if h.node_degree(v) > 0 {
                assert!(t.node_degree(v) > 0, "node {v} lost coverage");
            }
        }
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = Hypergraph::from_memberships(&[vec![0, 1]]);
        let b = Hypergraph::from_memberships(&[vec![0], vec![0, 1]]);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_hyperedges(), 3);
        assert_eq!(u.num_hypernodes(), 4);
        assert_eq!(u.edge_members(0), &[0, 1]);
        assert_eq!(u.edge_members(1), &[2]);
        assert_eq!(u.edge_members(2), &[2, 3]);
        // the union has one component per operand component
        let cc = crate::algorithms::hyper_cc_generic(&u);
        assert_eq!(cc.num_components(), 2);
    }

    #[test]
    fn empty_operations() {
        let h = Hypergraph::from_memberships(&[]);
        assert_eq!(induced_subhypergraph(&h, &[]).0.num_hyperedges(), 0);
        assert_eq!(collapse_duplicate_edges(&h).0.num_hyperedges(), 0);
        assert_eq!(restrict_to_toplexes(&h).0.num_hyperedges(), 0);
    }

    #[test]
    fn transformations_compose_with_analysis() {
        // restriction to toplexes must not change 1-line connectivity of
        // the surviving edges' component structure over nodes
        let h = paper_hypergraph();
        let (t, _) = restrict_to_toplexes(&h);
        let before = crate::algorithms::hyper_cc_generic(&h).num_components();
        let after = crate::algorithms::hyper_cc_generic(&t).num_components();
        assert_eq!(before, after);
    }
}
