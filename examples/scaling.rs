//! Mini strong-scaling run — a console-sized version of the paper's
//! Figures 7–8 experiment: fix the input, double the threads, time the
//! hypergraph CC and BFS kernels in every framework.
//!
//! (The full harnesses live in `crates/bench`; this example is the
//! one-minute demo. On a single-core host every thread count collapses to
//! the same wall time — the table still verifies the kernels run
//! correctly under every pool size.)
//!
//! Run with: `cargo run --release -p nwhy --example scaling`

use nwhy::core::algorithms::{adjoin_bfs, adjoin_cc_afforest, hyper_bfs_generic, hyper_cc_generic};
use nwhy::core::{AdjoinGraph, HyperedgeId};
use nwhy::gen::profiles::profile_by_name;
use nwhy::hygra::{hygra_bfs, hygra_cc};
use nwhy::util::pool::{max_threads, thread_sweep, with_threads};
use nwhy::util::timer::time;

fn main() {
    let h = profile_by_name("Rand1").expect("profile").generate(2000, 1);
    let stats = h.stats();
    println!(
        "Rand1 twin: {} hyperedges, {} hypernodes, {} incidences",
        stats.num_hyperedges, stats.num_hypernodes, stats.num_incidences
    );
    let adjoin = AdjoinGraph::from_hypergraph(&h);
    let source = 0u32;

    println!(
        "\n{:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "threads", "HyperCC", "AdjoinCC", "HygraCC", "HyperBFS", "AdjoinBFS", "HygraBFS"
    );
    for t in thread_sweep(max_threads()) {
        let (cc_h, s1) = with_threads(t, || time(|| hyper_cc_generic(&h)));
        let (cc_a, s2) = with_threads(t, || time(|| adjoin_cc_afforest(&adjoin)));
        let (cc_g, s3) = with_threads(t, || time(|| hygra_cc(&h)));
        let (bfs_h, s4) = with_threads(t, || time(|| hyper_bfs_generic(&h, source)));
        let (bfs_a, s5) =
            with_threads(t, || time(|| adjoin_bfs(&adjoin, HyperedgeId::new(source))));
        let (bfs_g, s6) = with_threads(t, || time(|| hygra_bfs(&h, source)));

        // cross-check while we're here
        assert_eq!(cc_h.num_components(), cc_a.num_components());
        assert_eq!(cc_h.num_components(), cc_g.num_components());
        assert_eq!(bfs_h.edge_levels, bfs_a.edge_levels);
        assert_eq!(bfs_h.edge_levels, bfs_g.edge_levels);

        println!(
            "{:>8} {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s",
            t, s1, s2, s3, s4, s5, s6
        );
    }
    println!("\nall frameworks agree on components and BFS levels at every thread count ✓");
}
