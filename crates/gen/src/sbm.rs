//! Bipartite stochastic block model.
//!
//! Hypernodes and hyperedges are partitioned into blocks; an incidence
//! `(e, v)` appears with probability `p_in` when the hyperedge's block
//! matches the hypernode's block and `p_out` otherwise. With
//! `p_in ≫ p_out` this plants crisp community structure (block-diagonal
//! incidence matrix) — the ground-truth setting for evaluating the
//! s-component and CC pipelines, complementing the window-based
//! [`crate::communities`] generator.
//!
//! Sampling is geometric-skip (O(expected incidences), not O(n·m)), so
//! sparse large instances are cheap.

use crate::rng::Rng;
use nwhy_core::{BiEdgeList, Hypergraph, Id};

/// Parameters for [`sbm_bipartite`].
#[derive(Debug, Clone, Copy)]
pub struct SbmParams {
    /// Number of blocks (communities).
    pub blocks: usize,
    /// Hypernodes per block.
    pub nodes_per_block: usize,
    /// Hyperedges per block.
    pub edges_per_block: usize,
    /// Within-block incidence probability.
    pub p_in: f64,
    /// Cross-block incidence probability.
    pub p_out: f64,
    /// PRNG seed.
    pub seed: u64,
}

/// Geometric-skip Bernoulli sampling over a strip of `len` cells with
/// probability `p`, pushing hit offsets through `emit`.
fn sample_strip(len: usize, p: f64, rng: &mut Rng, mut emit: impl FnMut(usize)) {
    if p <= 0.0 || len == 0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..len {
            emit(i);
        }
        return;
    }
    let log_q = (1.0 - p).ln();
    let mut i: usize = 0;
    loop {
        // skip = floor(ln(u) / ln(1-p))
        let skip = (rng.unit_open().ln() / log_q) as usize;
        i = match i.checked_add(skip) {
            Some(x) => x,
            None => return,
        };
        if i >= len {
            return;
        }
        emit(i);
        i += 1;
    }
}

/// Generates a bipartite SBM hypergraph. Block `b` owns hypernodes
/// `[b·npb, (b+1)·npb)` and hyperedges `[b·epb, (b+1)·epb)`.
///
/// # Panics
/// Panics if probabilities are outside `[0, 1]`.
pub fn sbm_bipartite(p: SbmParams) -> Hypergraph {
    assert!((0.0..=1.0).contains(&p.p_in), "p_in out of [0,1]");
    assert!((0.0..=1.0).contains(&p.p_out), "p_out out of [0,1]");
    let mut rng = Rng::new(p.seed);
    let nv = p.blocks * p.nodes_per_block;
    let ne = p.blocks * p.edges_per_block;
    let mut incidences: Vec<(Id, Id)> = Vec::new();

    for e in 0..ne {
        let eb = e.checked_div(p.edges_per_block).unwrap_or(0);
        for vb in 0..p.blocks {
            let prob = if vb == eb { p.p_in } else { p.p_out };
            let base = vb * p.nodes_per_block;
            sample_strip(p.nodes_per_block, prob, &mut rng, |off| {
                incidences.push((e as Id, (base + off) as Id));
            });
        }
    }
    let bel = BiEdgeList::from_incidences(ne, nv, incidences);
    Hypergraph::from_biedgelist(&bel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SbmParams {
        SbmParams {
            blocks: 4,
            nodes_per_block: 100,
            edges_per_block: 40,
            p_in: 0.08,
            p_out: 0.001,
            seed: 17,
        }
    }

    #[test]
    fn shape_matches_request() {
        let h = sbm_bipartite(params());
        assert_eq!(h.num_hypernodes(), 400);
        assert_eq!(h.num_hyperedges(), 160);
    }

    #[test]
    fn within_block_density_dominates() {
        let h = sbm_bipartite(params());
        let mut inside = 0usize;
        let mut outside = 0usize;
        for e in 0..160u32 {
            let eb = (e / 40) as usize;
            for &v in h.edge_members(e) {
                if (v as usize) / 100 == eb {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // expected inside ≈ 160·100·0.08 = 1280; outside ≈ 160·300·0.001 = 48
        assert!(inside > 10 * outside, "inside {inside} outside {outside}");
    }

    #[test]
    fn expected_incidence_count_is_near_mean() {
        let h = sbm_bipartite(params());
        let expected = 160.0 * (100.0 * 0.08 + 300.0 * 0.001);
        let got = h.num_incidences() as f64;
        assert!(
            (got - expected).abs() < expected * 0.2,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(sbm_bipartite(params()), sbm_bipartite(params()));
        let other = sbm_bipartite(SbmParams {
            seed: 18,
            ..params()
        });
        assert_ne!(sbm_bipartite(params()), other);
    }

    #[test]
    fn p_zero_and_one_extremes() {
        let empty = sbm_bipartite(SbmParams {
            p_in: 0.0,
            p_out: 0.0,
            ..params()
        });
        assert_eq!(empty.num_incidences(), 0);
        let full_in = sbm_bipartite(SbmParams {
            blocks: 2,
            nodes_per_block: 5,
            edges_per_block: 2,
            p_in: 1.0,
            p_out: 0.0,
            seed: 1,
        });
        // every within-block cell present: 4 edges × 5 nodes
        assert_eq!(full_in.num_incidences(), 20);
        for e in 0..2u32 {
            assert_eq!(full_in.edge_members(e), &[0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn planted_blocks_recovered_by_cc_when_disconnected() {
        // p_out = 0 → each block is (at least) its own component family
        let h = sbm_bipartite(SbmParams {
            p_out: 0.0,
            p_in: 0.5,
            ..params()
        });
        let cc = nwhy_core::algorithms::hyper_cc_generic(&h);
        // no label may span two blocks
        for e in 0..160usize {
            for f in 0..160usize {
                if cc.edge_labels[e] == cc.edge_labels[f] {
                    // same component ⇒ could be same block (or isolated
                    // labels, which are unique anyway)
                    let same_block = e / 40 == f / 40;
                    let both_nonempty = h.edge_degree(e as u32) > 0 && h.edge_degree(f as u32) > 0;
                    if both_nonempty && e != f {
                        assert!(same_block, "edges {e},{f} fused across blocks");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "p_in out of")]
    fn bad_probability_rejected() {
        sbm_bipartite(SbmParams {
            p_in: 1.5,
            ..params()
        });
    }
}
