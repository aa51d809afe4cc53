//! Community structure on a Table I twin — exercising the four
//! hypergraph representations side by side on the same data.
//!
//! Generates the com-Orkut twin (communities = hyperedges, members =
//! hypernodes, exactly how the paper materialized the real dataset), then:
//!
//! 1. runs BFS from the largest community in both exact representations
//!    (bi-adjacency HyperBFS vs adjoin-graph AdjoinBFS) and the Hygra
//!    baseline, verifying they agree;
//! 2. compares the clique expansion's size blow-up against the s-line
//!    graphs' — the memory argument of §III-B.3;
//! 3. uses s-components to find clusters of strongly-overlapping
//!    communities.
//!
//! Run with: `cargo run --release -p nwhy --example communities`

use nwhy::core::algorithms::{adjoin_bfs, hyper_bfs_generic};
use nwhy::core::clique::{clique_expansion, clique_expansion_work};
use nwhy::core::{AdjoinGraph, HyperedgeId};
use nwhy::gen::profiles::profile_by_name;
use nwhy::hygra::hygra_bfs;
use nwhy::session::NWHypergraph;

fn main() {
    let profile = profile_by_name("com-Orkut").expect("profile exists");
    let h = profile.generate(4000, 7); // 1/4000 scale twin
    let stats = h.stats();
    println!(
        "com-Orkut twin: {} communities, {} members, {} incidences",
        stats.num_hyperedges, stats.num_hypernodes, stats.num_incidences
    );
    println!(
        "degree skew: avg community size {:.1}, largest {}",
        stats.avg_edge_degree, stats.max_edge_degree
    );

    // --- 1. one traversal, three representations -------------------------
    let source = (0..nwhy::core::ids::from_usize(stats.num_hyperedges))
        .max_by_key(|&e| h.edge_degree(e))
        .expect("non-empty");
    println!("\nBFS from the largest community (hyperedge {source}):");

    let hyper = hyper_bfs_generic(&h, source);
    println!(
        "  HyperBFS  (bi-adjacency):  reached {} communities, {} members",
        hyper.edges_reached(),
        hyper.nodes_reached()
    );

    let adjoin = AdjoinGraph::from_hypergraph(&h);
    let adj = adjoin_bfs(&adjoin, HyperedgeId::new(source));
    let adj_edges = adj.edge_levels.iter().filter(|&&l| l != u32::MAX).count();
    println!(
        "  AdjoinBFS (adjoin graph):  reached {} communities (direction-optimizing)",
        adj_edges
    );

    let hyg = hygra_bfs(&h, source);
    let hyg_edges = hyg.edge_levels.iter().filter(|&&l| l != u32::MAX).count();
    println!(
        "  HygraBFS  (baseline):      reached {} communities (top-down edge_map)",
        hyg_edges
    );

    assert_eq!(hyper.edge_levels, adj.edge_levels);
    assert_eq!(hyper.edge_levels, hyg.edge_levels);
    println!("  all three level arrays identical ✓");

    // --- 2. projection sizes ---------------------------------------------
    println!("\nlower-order projection sizes (undirected edges):");
    let ce_work = clique_expansion_work(&h);
    let ce = clique_expansion(&h);
    println!(
        "  clique expansion: {} edges ({} pre-dedup pairs — the §III-B.3 blow-up)",
        ce.num_edges() / 2,
        ce_work
    );
    let hg = NWHypergraph::from_hypergraph(h.clone());
    for lg in hg.s_linegraphs(&[1, 2, 4, 8], true) {
        println!(
            "  {}-line graph:     {} edges",
            lg.s(),
            lg.graph().num_edges() / 2
        );
    }

    // --- 3. strongly-overlapping community clusters -----------------------
    let s4 = hg.s_linegraph(4, true);
    let labels = s4.s_connected_components();
    let mut cluster_sizes: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &l in &labels {
        *cluster_sizes.entry(l).or_insert(0) += 1;
    }
    let mut sizes: Vec<usize> = cluster_sizes.values().copied().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let nontrivial = sizes.iter().filter(|&&s| s > 1).count();
    println!(
        "\n4-overlap clusters: {} clusters of communities sharing >= 4 members \
              (largest: {:?})",
        nontrivial,
        &sizes[..sizes.len().min(5)]
    );
}
