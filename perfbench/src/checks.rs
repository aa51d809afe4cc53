//! Output references: order-independent fingerprints of s-line graphs,
//! canonical partitions, and a serial BFS / union-find over the
//! pointer bi-adjacency that the parallel kernels are checked against.

use nwgraph::Csr;
use nwhy_core::{Hypergraph, Id};
use std::collections::{HashMap, VecDeque};

/// Levels of one BFS: per hyperedge, then per hypernode index
/// (`u32::MAX` = unreached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    pub edges: Vec<u32>,
    pub nodes: Vec<u32>,
}

impl Levels {
    /// Number of levels reached (largest finite level + 1).
    pub fn depth(&self) -> u32 {
        self.edges
            .iter()
            .chain(&self.nodes)
            .filter(|&&l| l != u32::MAX)
            .max()
            .map_or(0, |&l| l + 1)
    }

    /// A 64-bit hash of every level in place; equal levels hash equal.
    pub fn hash(&self) -> u64 {
        self.edges
            .iter()
            .chain(&self.nodes)
            .fold(mix(self.edges.len() as u64), |h, &l| mix(h ^ u64::from(l)))
    }
}

/// An s-line graph summarised independently of edge order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SLineFingerprint {
    pub edges: u64,
    pub edge_hash: u64,
    pub components_hash: u64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// (count, sum of hashed pairs) over undirected pairs `a < b`; a
/// duplicate pair changes both.
pub fn hash_pairs(pairs: impl Iterator<Item = (Id, Id)>) -> (u64, u64) {
    pairs.fold((0, 0), |(n, h), (a, b)| {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        (
            n + 1,
            h.wrapping_add(mix((u64::from(lo) << 32) | u64::from(hi))),
        )
    })
}

/// The undirected pairs stored in a symmetric CSR (each once).
pub fn csr_pairs(g: &Csr) -> impl Iterator<Item = (Id, Id)> + '_ {
    g.iter()
        .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
}

/// Hash of a label vector after canonical renumbering, so two
/// labellings of the same partition hash equal.
pub fn partition_hash(labels: &[Id]) -> u64 {
    canonical_partition(labels.iter().copied())
        .iter()
        .fold(0u64, |h, &c| mix(h ^ u64::from(c)))
}

/// Renumbers labels by first occurrence: equal outputs ⇔ equal
/// partitions.
pub fn canonical_partition(labels: impl Iterator<Item = Id>) -> Vec<Id> {
    let mut seen: HashMap<Id, Id> = HashMap::new();
    labels
        .map(|l| {
            let next = Id::try_from(seen.len()).expect("label count fits u32");
            *seen.entry(l).or_insert(next)
        })
        .collect()
}

/// The partition of hyperedges followed by hypernodes, canonical.
pub fn hyper_partition(edge_labels: &[Id], node_labels: &[Id]) -> Vec<Id> {
    canonical_partition(edge_labels.iter().chain(node_labels).copied())
}

/// Serial level-synchronous BFS from hyperedge `source`.
pub fn serial_bfs(h: &Hypergraph, source: Id) -> Levels {
    let mut edges = vec![u32::MAX; h.num_hyperedges()];
    let mut nodes = vec![u32::MAX; h.num_hypernodes()];
    let mut queue = VecDeque::from([source]);
    edges[source as usize] = 0;
    while let Some(e) = queue.pop_front() {
        let level = edges[e as usize];
        for &v in h.edge_members(e) {
            if nodes[v as usize] == u32::MAX {
                nodes[v as usize] = level + 1;
                for &f in h.node_memberships(v) {
                    if edges[f as usize] == u32::MAX {
                        edges[f as usize] = level + 2;
                        queue.push_back(f);
                    }
                }
            }
        }
    }
    Levels { edges, nodes }
}

/// Serial union-find components of the bipartite incidence graph, as a
/// canonical partition of hyperedges followed by hypernodes.
pub fn serial_components(h: &Hypergraph) -> Vec<Id> {
    let ne = h.num_hyperedges();
    let mut parent: Vec<usize> = (0..ne + h.num_hypernodes()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in 0..ne {
        for &v in h.edge_members(crate::inputs::to_id(e)) {
            let (a, b) = (find(&mut parent, e), find(&mut parent, ne + v as usize));
            parent[a.max(b)] = a.min(b);
        }
    }
    let roots: Vec<Id> = (0..parent.len())
        .map(|x| crate::inputs::to_id(find(&mut parent, x)))
        .collect();
    canonical_partition(roots.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_hash_ignores_order_and_orientation() {
        let a = hash_pairs([(1, 2), (3, 0)].into_iter());
        let b = hash_pairs([(0, 3), (2, 1)].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, hash_pairs([(0, 3), (2, 1), (2, 1)].into_iter()));
    }

    #[test]
    fn partitions_compare_by_shape() {
        assert_eq!(partition_hash(&[7, 7, 3]), partition_hash(&[0, 0, 5]));
        assert_ne!(partition_hash(&[7, 3, 3]), partition_hash(&[0, 0, 5]));
    }

    #[test]
    fn serial_references_on_a_path() {
        // e0 = {0,1}, e1 = {1,2}, e2 = {3}
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3]]);
        let l = serial_bfs(&h, 0);
        assert_eq!(l.edges, [0, 2, u32::MAX]);
        assert_eq!(l.nodes, [1, 1, 3, u32::MAX]);
        assert_eq!(l.depth(), 4);
        let mut other = l.clone();
        assert_eq!(other.hash(), l.hash());
        other.nodes[2] = 2;
        assert_ne!(other.hash(), l.hash());
        assert_eq!(serial_components(&h), [0, 0, 1, 0, 0, 0, 1]);
    }
}
