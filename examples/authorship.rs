//! Authorship analysis — the motivating scenario from the paper's
//! introduction ("modeling an author-paper relationship with graphs is
//! challenging"): mutual relationships among many authors of one paper
//! need a hyperedge, not pairwise edges.
//!
//! This example generates a synthetic collaboration hypergraph (papers =
//! hyperedges, authors = hypernodes) with planted research groups, then:
//!
//! 1. compares the exact hypergraph components (HyperCC vs AdjoinCC vs
//!    the Hygra baseline);
//! 2. sweeps s to show how s-line graphs expose collaboration strength
//!    (s = 1: any shared author; s = 3: core teams);
//! 3. ranks papers by s-betweenness to find the cross-group bridges;
//! 4. lists toplexes (papers whose author set is maximal).
//!
//! Run with: `cargo run --release -p nwhy --example authorship`

use nwhy::core::algorithms::{adjoin_cc_afforest, hyper_cc_generic, toplexes};
use nwhy::core::AdjoinGraph;
use nwhy::gen::communities::{planted_communities, CommunityParams};
use nwhy::hygra::hygra_cc;
use nwhy::session::NWHypergraph;

fn main() {
    // ~120 research groups over 600 authors; papers reuse group members.
    let h = planted_communities(CommunityParams {
        num_nodes: 600,
        num_communities: 120,
        min_size: 3,
        max_size: 12,
        rewire: 0.15,
        seed: 2022,
    });
    let hg = NWHypergraph::from_hypergraph(h.clone());
    let stats = hg.stats();
    println!(
        "collaboration hypergraph: {} papers, {} authors, avg {:.1} authors/paper",
        stats.num_hyperedges, stats.num_hypernodes, stats.avg_edge_degree
    );

    // --- 1. exact components, three ways --------------------------------
    let exact = hyper_cc_generic(&h);
    let adjoin = AdjoinGraph::from_hypergraph(&h);
    let via_adjoin = adjoin_cc_afforest(&adjoin);
    let via_hygra = hygra_cc(&h);
    println!("\nexact hypergraph components:");
    println!(
        "  HyperCC  (bi-adjacency, label prop): {}",
        exact.num_components()
    );
    println!(
        "  AdjoinCC (adjoin graph, Afforest):   {}",
        via_adjoin.num_components()
    );
    println!(
        "  HygraCC  (baseline, Ligra engine):   {}",
        via_hygra.num_components()
    );
    assert_eq!(exact.num_components(), via_adjoin.num_components());
    assert_eq!(exact.num_components(), via_hygra.num_components());

    // --- 2. collaboration strength via the s-sweep ----------------------
    println!("\ns-line graph sweep (papers as vertices):");
    println!(
        "  {:>2} {:>10} {:>12} {:>16}",
        "s", "edges", "components", "largest comp"
    );
    for lg in hg.s_linegraphs(&[1, 2, 3, 4], true) {
        let labels = lg.s_connected_components();
        let mut sizes = std::collections::HashMap::new();
        for &l in &labels {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        let largest = sizes.values().copied().max().unwrap_or(0);
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        println!(
            "  {:>2} {:>10} {:>12} {:>16}",
            lg.s(),
            lg.graph().num_edges() / 2,
            distinct.len(),
            largest
        );
    }

    // --- 3. bridge papers ------------------------------------------------
    let s2 = hg.s_linegraph(2, true);
    let bc = s2.s_betweenness_centrality(true);
    let mut ranked: Vec<(usize, f64)> = bc.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 5 bridge papers by 2-betweenness:");
    for &(paper, score) in ranked.iter().take(5) {
        println!(
            "  paper {paper:>4}: betweenness {score:.4}, {} authors",
            h.edge_degree(nwhy::core::ids::from_usize(paper))
        );
    }

    // --- 4. maximal author sets ------------------------------------------
    let tops = toplexes(&h);
    println!(
        "\n{} of {} papers are toplexes (maximal author sets)",
        tops.len(),
        stats.num_hyperedges
    );
}
