//! Regenerates **Figure 8** — strong scaling of hypergraph breadth-first
//! search: AdjoinBFS (direction-optimizing) and HyperBFS (NWHy) vs
//! HygraBFS (top-down baseline), runtime vs thread count per Table I twin.
//!
//! As in the paper, the source is a high-degree hyperedge; on twins with
//! many components the traversal finishes quickly (the paper makes the
//! same observation about Orkut-group and Web).
//!
//! Run: `cargo run --release -p nwhy-bench --bin fig8_bfs_scaling`
//! Knobs: `NWHY_SCALE`, `NWHY_TRIALS`, `NWHY_MAX_THREADS`, `NWHY_SEED`.
//! Output: a runtime table per dataset + `fig8_results.json`.

use nwhy_bench::{all_twins, best_of, write_json, HarnessConfig, ScalingCell};
use nwhy_core::algorithms::{adjoin_bfs, hyper_bfs_generic};
use nwhy_core::{AdjoinGraph, HyperedgeId};
use nwhy_util::pool::with_threads;

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads = cfg.thread_counts();
    println!(
        "Figure 8: hypergraph BFS strong scaling (scale 1/{}, best of {} trials)",
        cfg.scale, cfg.trials
    );
    let mut rows: Vec<ScalingCell> = Vec::new();

    for (p, h) in all_twins(&cfg) {
        let adjoin = AdjoinGraph::from_hypergraph(&h);
        let source = (0..nwhy_core::ids::from_usize(h.num_hyperedges()))
            .max_by_key(|&e| h.edge_degree(e))
            .expect("twin has hyperedges");
        println!(
            "\n{} (source hyperedge {source}, degree {})",
            p.name,
            h.edge_degree(source)
        );
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            "threads", "AdjoinBFS [s]", "HyperBFS [s]", "HygraBFS [s]"
        );
        for &t in &threads {
            let t_adjoin = with_threads(t, || {
                best_of(cfg.trials, || adjoin_bfs(&adjoin, HyperedgeId::new(source)))
            });
            let t_hyper = with_threads(t, || best_of(cfg.trials, || hyper_bfs_generic(&h, source)));
            let t_hygra = with_threads(t, || best_of(cfg.trials, || hygra::hygra_bfs(&h, source)));
            println!("{t:>8} {t_adjoin:>14.5} {t_hyper:>14.5} {t_hygra:>14.5}");
            for (alg, secs) in [
                ("AdjoinBFS", t_adjoin),
                ("HyperBFS", t_hyper),
                ("HygraBFS", t_hygra),
            ] {
                rows.push(ScalingCell {
                    dataset: p.name.to_string(),
                    algorithm: alg.to_string(),
                    threads: t,
                    seconds: secs,
                });
            }
        }
        // correctness cross-check once per dataset
        let a = adjoin_bfs(&adjoin, HyperedgeId::new(source));
        let b = hyper_bfs_generic(&h, source);
        let c = hygra::hygra_bfs(&h, source);
        assert_eq!(
            a.edge_levels, b.edge_levels,
            "{}: adjoin vs bipartite",
            p.name
        );
        assert_eq!(b.edge_levels, c.edge_levels, "{}: NWHy vs Hygra", p.name);
        println!(
            "{:>8} reached {} hyperedges, max level {} (all algorithms agree)",
            "",
            b.edges_reached(),
            b.edge_levels
                .iter()
                .filter(|&&l| l != u32::MAX)
                .max()
                .unwrap_or(&0)
        );
    }

    write_json("fig8_results.json", &rows);
}
