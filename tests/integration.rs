//! End-to-end integration: file formats → representations → algorithms.
//!
//! These tests span crates: `nwhy-io` readers feed `nwhy-core`
//! representations, which feed `nwgraph` algorithms through the session
//! API — the full pipeline a downstream user runs.

use nwhy::core::algorithms::{adjoin_bfs, adjoin_cc_afforest, hyper_bfs_generic, hyper_cc_generic};
use nwhy::core::fixtures::{paper_hypergraph, paper_slinegraph_edges};
use nwhy::core::{AdjoinGraph, HyperedgeId};
use nwhy::io::{read_adjoin, read_hyperedge_list, read_matrix_market, write_matrix_market};
use nwhy::session::NWHypergraph;
use std::io::Cursor;

#[test]
fn matrix_market_roundtrip_preserves_all_queries() {
    let h = paper_hypergraph();
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &h).unwrap();
    let h2 = read_matrix_market(Cursor::new(&buf)).unwrap();

    let hg = NWHypergraph::from_hypergraph(h);
    let hg2 = NWHypergraph::from_hypergraph(h2);
    for s in 1..=4 {
        let a = hg.s_linegraph(s, true);
        let b = hg2.s_linegraph(s, true);
        assert_eq!(a.graph(), b.graph(), "s={s}");
    }
    assert_eq!(hg.toplexes(), hg2.toplexes());
}

#[test]
fn adjoin_reader_matches_biadjacency_reader() {
    let h = paper_hypergraph();
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &h).unwrap();

    let h_read = read_matrix_market(Cursor::new(&buf)).unwrap();
    let (a_read, ne, nv) = read_adjoin(Cursor::new(&buf)).unwrap();
    assert_eq!((ne, nv), (4, 9));
    assert_eq!(a_read.to_hypergraph(), h_read);

    // exact algorithms agree between the two paths
    let hr = hyper_bfs_generic(&h_read, 0);
    let ar = adjoin_bfs(&a_read, HyperedgeId::new(0));
    assert_eq!(hr.edge_levels, ar.edge_levels);
    assert_eq!(hr.node_levels, ar.node_levels);
}

#[test]
fn hyperedge_list_to_smetrics_pipeline() {
    let text = "\
# four research teams
0 1 2 3
3 4 5 6
4 5 6 7 8
0 2 3 5 8
";
    let h = read_hyperedge_list(Cursor::new(text)).unwrap();
    assert_eq!(h, paper_hypergraph());
    let hg = NWHypergraph::from_hypergraph(h);
    let lg3 = hg.s_linegraph(3, true);
    // fixture s=3 edges: {03, 12}
    assert_eq!(lg3.s_neighbors(0), &[3]);
    assert_eq!(lg3.s_neighbors(1), &[2]);
    assert!(!lg3.is_s_connected());
}

#[test]
fn generated_dataset_full_pipeline() {
    // generate → serialize → reload → analyze, on a skewed twin
    let h = nwhy::gen::profiles::profile_by_name("Friendster")
        .unwrap()
        .generate(20_000, 3);
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &h).unwrap();
    let h2 = read_matrix_market(Cursor::new(&buf)).unwrap();
    assert_eq!(h, h2);

    let a = AdjoinGraph::from_hypergraph(&h2);
    let cc_bi = hyper_cc_generic(&h2);
    let cc_ad = adjoin_cc_afforest(&a);
    assert_eq!(cc_bi.num_components(), cc_ad.num_components());
}

#[test]
fn session_over_file_input_matches_listing5_semantics() {
    let text = "0 1 2\n0 1 2\n";
    let h = read_hyperedge_list(Cursor::new(text)).unwrap();
    let hg = NWHypergraph::from_hypergraph(h);
    let s2 = hg.s_linegraph(2, true);
    assert!(s2.is_s_connected());
    assert_eq!(s2.s_distance(0, 1), Some(1));
    // duplicate hyperedges: only one toplex survives
    assert_eq!(hg.toplexes(), vec![0]);
}

#[test]
fn fixture_slinegraphs_documented_in_figure5() {
    // the repository fixture plays the role of the paper's Fig. 1/5 toy;
    // every public construction path must reproduce its line graphs
    let hg = NWHypergraph::from_hypergraph(paper_hypergraph());
    for s in 1..=4 {
        let lg = hg.s_linegraph(s, true);
        let expect = paper_slinegraph_edges(s);
        let mut got: Vec<(u32, u32)> = Vec::new();
        for e in 0..4u32 {
            for &f in lg.s_neighbors(e) {
                if e < f {
                    got.push((e, f));
                }
            }
        }
        got.sort_unstable();
        assert_eq!(got, expect, "s={s}");
    }
}
