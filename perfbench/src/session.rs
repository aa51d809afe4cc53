//! One workload's session: the ready representation, its references,
//! and the three timed operations (s-line job, BFS query, CC call).

use crate::checks::{self, Levels, SLineFingerprint};
use crate::inputs::{self, Input, Sizes};
use crate::measure::{median, ratio, timed};
use crate::report::Report;
use crate::trace::Tracer;
use crate::workloads::{Backend, Spec};
use nwgraph::{Csr, EdgeList};
use nwhy_core::algorithms::{adjoin_bfs, adjoin_cc_afforest, hyper_bfs_generic, hyper_cc_generic};
use nwhy_core::slinegraph::planner;
use nwhy_core::{
    AdjoinGraph, Algorithm, HyperAdjacency, HyperedgeId, Hypergraph, Id, SLineBuilder, SLineGraph,
};
use nwhy_gen::rng::Rng;
use nwhy_store::{Backend as StoreBackend, CompressedHypergraph};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Setup repetitions per run: at least `SETUP_MIN`, then more until
/// `SETUP_SECONDS` have passed or `SETUP_MAX` have run. `setup_s` is
/// their median, so short setups get enough samples to be steady.
pub const SETUP_MIN: usize = 5;
pub const SETUP_MAX: usize = 15;
pub const SETUP_SECONDS: f64 = 3.0;
/// Minimum timed operations per pass: BFS needs ≥ 10 queries beyond
/// its p90.
const MIN_COUNT: [usize; 3] = [3, 100, 5];
/// Share of the measured time each operation gets.
const SHARE: [f64; 3] = [0.55, 0.30, 0.15];
/// Distinct BFS sources per run; their references are cached.
const SOURCES: usize = 64;

/// The representation the setup hands to the timed operations.
pub enum Ready {
    Pointer(Hypergraph),
    Adjoin(Hypergraph, AdjoinGraph),
    Packed(CompressedHypergraph),
}

impl Ready {
    /// Sizes as the representation reports them.
    pub fn sizes(&self) -> Sizes {
        let (hyperedges, hypernodes, incidences) = match self {
            Ready::Pointer(h) | Ready::Adjoin(h, _) => {
                (h.num_hyperedges(), h.num_hypernodes(), h.num_incidences())
            }
            Ready::Packed(c) => (c.num_hyperedges(), c.num_hypernodes(), c.num_incidences()),
        };
        Sizes {
            hyperedges,
            hypernodes,
            incidences,
        }
    }
}

/// Input file → ready representation.
pub fn setup(
    t: &mut Tracer,
    spec: &Spec,
    input: &Input,
    pack_path: &Path,
) -> Result<Ready, String> {
    let open = || {
        File::open(&input.path)
            .map(BufReader::new)
            .map_err(|e| e.to_string())
    };
    let parse_hgr = |t: &mut Tracer| {
        t.span("io.parse", |_| {
            nwhy_io::read_hyperedge_list(open()?).map_err(|e| e.to_string())
        })
    };
    t.span("job.setup", |t| match spec.backend {
        Backend::Pointer => parse_hgr(t).map(Ready::Pointer),
        Backend::Adjoin => {
            let bel = t.span("io.parse", |_| {
                nwhy_io::matrix_market::read_biedgelist(open()?).map_err(|e| e.to_string())
            })?;
            let h = t.span("build.biadj", |_| Hypergraph::from_biedgelist(&bel));
            let a = t.span("build.adjoin", |_| AdjoinGraph::from_hypergraph(&h));
            Ok(Ready::Adjoin(h, a))
        }
        Backend::Packed => {
            let h = parse_hgr(t)?;
            t.span("store.pack", |_| nwhy_io::write_packed_file(pack_path, &h))
                .map_err(|e| e.to_string())?;
            t.span("store.open", |_| {
                nwhy_io::open_packed(pack_path, StoreBackend::Mmap)
            })
            .map(Ready::Packed)
            .map_err(|e| e.to_string())
        }
    })
}

/// Counts checked operations and mismatches.
#[derive(Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}");
            }
        }
    }
}

/// Wall times of the operations of one kind of run, in seconds.
#[derive(Default)]
pub struct Times {
    pub sline: Vec<f64>,
    pub query: Vec<f64>,
    pub cc: Vec<f64>,
}

impl Times {
    fn of(&mut self, op: Op) -> &mut Vec<f64> {
        match op {
            Op::Sline => &mut self.sline,
            Op::Query => &mut self.query,
            Op::Cc => &mut self.cc,
        }
    }
}

/// Timings of one pass.
#[derive(Default)]
pub struct Pass {
    /// Operations run with the tracer off: all of them in an untraced
    /// pass, every other one of each kind in a traced pass.
    pub plain: Times,
    /// Operations run with the tracer on.
    pub traced: Times,
    /// Σ over traced queries of the incidences of reached hyperedges.
    pub incidences_reached: f64,
    /// Each query's depth.
    pub depths: Vec<f64>,
    /// The kernel the s-line jobs ran.
    pub kernel: Option<Algorithm>,
}

#[derive(Clone, Copy)]
enum Op {
    Sline,
    Query,
    Cc,
}

const OPS: [Op; 3] = [Op::Sline, Op::Query, Op::Cc];

pub struct Session<'a> {
    spec: &'a Spec,
    ready: Ready,
    /// The packed image decoded to pointer form, for the references.
    decoded: Option<Hypergraph>,
    checker: Checker,
    sline_ref: SLineFingerprint,
    /// Canonical HyperCC partition; `None` where another result in the
    /// same operation is the reference.
    cc_ref: Option<Vec<Id>>,
    corrupt: bool,
    sources: Vec<Id>,
    rng: Rng,
    /// Hash of the reference BFS levels per source, computed up front;
    /// empty on the adjoin backend, where AdjoinBFS is the reference.
    bfs_refs: HashMap<Id, u64>,
}

impl<'a> Session<'a> {
    /// Computes the references (untimed) and draws the BFS sources.
    pub fn new(
        spec: &'a Spec,
        ready: Ready,
        checker: Checker,
        seed: u64,
        corrupt: bool,
    ) -> Result<Self, String> {
        let decoded = match &ready {
            Ready::Packed(c) => Some(c.to_hypergraph().map_err(|e| e.to_string())?),
            _ => None,
        };
        let mut s = Self {
            spec,
            ready,
            decoded,
            checker,
            sline_ref: SLineFingerprint::default(),
            cc_ref: None,
            corrupt,
            sources: Vec::new(),
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xb0f5),
            bfs_refs: HashMap::new(),
        };
        let builder = SLineBuilder::new(s.pointer()).s(spec.s);
        let builder = match spec.reference {
            Some(a) => builder.algorithm(a),
            None => builder.auto(),
        };
        let reference = SLineGraph::from_csr(spec.s, builder.csr());
        s.sline_ref = fingerprint(reference.graph(), &reference.s_connected_components());
        s.cc_ref = match &s.ready {
            Ready::Adjoin(..) => None,
            Ready::Pointer(h) => Some(checks::serial_components(h)),
            Ready::Packed(_) => {
                let (e, n) = hyper_labels(s.pointer());
                Some(checks::hyper_partition(&e, &n))
            }
        };
        if corrupt {
            s.sline_ref.edge_hash ^= 1;
            s.sline_ref.components_hash ^= 1;
            if let Some(p) = s.cc_ref.as_mut().and_then(|p| p.first_mut()) {
                *p = Id::MAX;
            }
        }
        // BFS sources: hyperedges with at least one member.
        let candidates: Vec<Id> = (0..s.pointer().num_hyperedges())
            .map(inputs::to_id)
            .filter(|&e| s.pointer().edge_degree(e) > 0)
            .collect();
        if candidates.is_empty() {
            return Err("the input has no hyperedge to start a BFS from".into());
        }
        s.sources = (0..SOURCES)
            .map(|_| candidates[s.rng.below(candidates.len() as u64) as usize])
            .collect();
        if !matches!(s.ready, Ready::Adjoin(..)) {
            for &src in &s.sources {
                let mut want = match &s.ready {
                    Ready::Packed(_) => hyper_levels(s.pointer(), src),
                    _ => checks::serial_bfs(s.pointer(), src),
                };
                if corrupt {
                    corrupt_levels(&mut want, src);
                }
                s.bfs_refs.insert(src, want.hash());
            }
        }
        Ok(s)
    }

    pub fn checked(&self) -> (u64, u64) {
        (self.checker.attempted, self.checker.failed)
    }

    /// The pointer form of the input: the representation itself, or the
    /// decoded packed image.
    fn pointer(&self) -> &Hypergraph {
        match (&self.ready, &self.decoded) {
            (Ready::Pointer(h) | Ready::Adjoin(h, _), _) | (Ready::Packed(_), Some(h)) => h,
            (Ready::Packed(_), None) => unreachable!("a packed session decodes its image"),
        }
    }

    fn source(&mut self) -> Id {
        self.sources[self.rng.below(self.sources.len() as u64) as usize]
    }

    /// One untimed, checked repetition of each operation.
    pub fn warm_up(&mut self, t: &mut Tracer) {
        let mut p = Pass::default();
        for op in OPS {
            self.op(t, op, &mut p, false);
        }
    }

    /// One measured pass of `budget` seconds. The next operation is the
    /// one furthest below its share of the time spent so far; after the
    /// budget, only operations short of their minimum count run. With
    /// `trace`, every other operation of each kind runs traced, so the
    /// traced and untraced sides see the same drift of the host, and
    /// each side gets the minimum count.
    pub fn pass(&mut self, t: &mut Tracer, budget: f64, trace: bool) -> Pass {
        let mut p = Pass::default();
        let sides = if trace { 2 } else { 1 };
        let start = Instant::now();
        let mut spent = [0.0f64; 3];
        let mut count = [0usize; 3];
        loop {
            let over = start.elapsed().as_secs_f64() >= budget;
            let next = (0..3)
                .filter(|&i| !over || count[i] < MIN_COUNT[i] * sides)
                .min_by(|&a, &b| (spent[a] / SHARE[a]).total_cmp(&(spent[b] / SHARE[b])));
            let Some(i) = next else { break };
            let traced = trace && count[i] % 2 == 1;
            t.set_enabled(traced);
            spent[i] += self.op(t, OPS[i], &mut p, traced);
            t.set_enabled(false);
            count[i] += 1;
        }
        p
    }

    /// Runs and checks one operation; records and returns its timed
    /// seconds.
    fn op(&mut self, t: &mut Tracer, op: Op, p: &mut Pass, traced: bool) -> f64 {
        let dt = match op {
            Op::Sline => {
                let ((sg, labels, kernel), dt) = timed(|| match &self.ready {
                    Ready::Pointer(h) | Ready::Adjoin(h, _) => sline_job(t, h, self.spec),
                    Ready::Packed(c) => sline_job(t, c, self.spec),
                });
                let ok = fingerprint(sg.graph(), &labels) == self.sline_ref;
                self.checker.check(ok, "s-line graph and s-components");
                p.kernel = Some(kernel);
                dt
            }
            Op::Query => self.query(t, p, traced),
            Op::Cc => self.components(t),
        };
        let side = if traced { &mut p.traced } else { &mut p.plain };
        side.of(op).push(dt);
        dt
    }

    /// A hypergraph BFS (and AdjoinBFS on the adjoin backend).
    fn query(&mut self, t: &mut Tracer, p: &mut Pass, traced: bool) -> f64 {
        let src = self.source();
        let ((got, adjoin), dt) = timed(|| {
            t.span("job.query", |t| match &self.ready {
                Ready::Pointer(h) => (t.span("bfs.hyper", |_| hyper_levels(h, src)), None),
                Ready::Packed(c) => (t.span("bfs.hyper", |_| hyper_levels(c, src)), None),
                Ready::Adjoin(h, a) => {
                    let hyper = t.span("bfs.hyper", |_| hyper_levels(h, src));
                    let adjoin = t.span("bfs.adjoin", |_| {
                        let r = adjoin_bfs(a, HyperedgeId::new(src));
                        Levels {
                            edges: r.edge_levels,
                            nodes: r.node_levels,
                        }
                    });
                    (hyper, Some(adjoin))
                }
            })
        });
        let ok = match adjoin {
            Some(mut other) => {
                if self.corrupt {
                    corrupt_levels(&mut other, src);
                }
                got == other
            }
            None => self.bfs_refs.get(&src) == Some(&got.hash()),
        };
        self.checker.check(ok, "BFS levels and reached sets");
        if traced {
            let pointer = self.pointer();
            p.incidences_reached += got
                .edges
                .iter()
                .zip(0..)
                .filter(|(&l, _)| l != u32::MAX)
                .map(|(_, e)| pointer.edge_degree(e) as f64)
                .sum::<f64>();
        }
        p.depths.push(f64::from(got.depth()));
        dt
    }

    /// HyperCC (and AdjoinCC on the adjoin backend).
    fn components(&mut self, t: &mut Tracer) -> f64 {
        let (((e, n), adjoin), dt) = timed(|| {
            t.span("job.cc", |t| match &self.ready {
                Ready::Pointer(h) => (t.span("cc.hyper", |_| hyper_labels(h)), None),
                Ready::Packed(c) => (t.span("cc.hyper", |_| hyper_labels(c)), None),
                Ready::Adjoin(h, a) => {
                    let hyper = t.span("cc.hyper", |_| hyper_labels(h));
                    let adjoin = t.span("cc.adjoin", |_| {
                        let r = adjoin_cc_afforest(a);
                        (r.edge_labels, r.node_labels)
                    });
                    (hyper, Some(adjoin))
                }
            })
        });
        let got = checks::hyper_partition(&e, &n);
        let ok = match (adjoin, &self.cc_ref) {
            (Some((ae, an)), _) => {
                let mut want = checks::hyper_partition(&ae, &an);
                if self.corrupt {
                    want[0] = Id::MAX;
                }
                got == want
            }
            (None, Some(want)) => got == *want,
            (None, None) => unreachable!("a CC reference exists without AdjoinCC"),
        };
        self.checker.check(ok, "CC partition");
        dt
    }

    /// Store-layer metrics and the packed-over-pointer ratios; all 0 on
    /// workloads that do not use the packed store.
    pub fn store_layers(&mut self, r: &mut Report, plain: &Times) {
        let Ready::Packed(c) = &self.ready else {
            for (name, unit) in STORE_ONLY {
                r.add(name, 0.0, unit, "packed store not used by this workload");
            }
            return;
        };
        r.add(
            "store.bytes_per_incidence",
            c.stats().bytes_per_incidence(),
            "B/incidence",
            "both CSR directions",
        );

        let mut scans = Vec::new();
        for _ in 0..SETUP_MIN {
            let mut seen = 0usize;
            let (res, dt) = timed(|| c.scan_edges(|_, row| seen += row.len()));
            self.checker.check(
                res.is_ok() && seen == c.num_incidences(),
                "sequential packed sweep",
            );
            scans.push(dt);
        }
        r.add(
            "store.scan_s",
            median(&scans),
            "s",
            &format!("median of {} full edge-row sweeps", scans.len()),
        );

        const ROWS: usize = 20_000;
        let mut batches = Vec::new();
        for _ in 0..SETUP_MIN {
            let rows: Vec<Id> = (0..ROWS)
                .map(|_| inputs::to_id(self.rng.below(c.num_hyperedges() as u64) as usize))
                .collect();
            let (ok, dt) = timed(|| rows.iter().all(|&e| c.edge_row(e).is_ok()));
            self.checker.check(ok, "random packed row access");
            batches.push(dt * 1e9 / ROWS as f64);
        }
        r.add(
            "store.row_ns",
            median(&batches),
            "ns",
            &format!(
                "mean of {ROWS} seeded random edge_row calls, median of {}",
                batches.len()
            ),
        );

        // The same calls on the decoded pointer form, untraced, against
        // the packed medians of the untraced operations.
        let pointer = self.pointer();
        let mut t = Tracer::new(0);
        let mut sline = Vec::new();
        for _ in 0..plain.sline.len().min(MIN_COUNT[0]) {
            let ((sg, labels, _), dt) = timed(|| sline_job(&mut t, pointer, self.spec));
            let ok = fingerprint(sg.graph(), &labels) == self.sline_ref;
            sline.push((dt, ok));
        }
        let bfs: Vec<f64> = (0..plain.query.len())
            .map(|i| timed(|| hyper_levels(pointer, self.sources[i % self.sources.len()])).1)
            .collect();
        let cc: Vec<f64> = (0..plain.cc.len())
            .map(|_| timed(|| hyper_labels(pointer)).1)
            .collect();
        for (_, ok) in &sline {
            self.checker.check(*ok, "pointer s-line graph");
        }
        let sline: Vec<f64> = sline.into_iter().map(|(dt, _)| dt).collect();
        for (name, packed, base) in [
            ("store.packed_over_pointer.sline", &plain.sline, sline),
            ("store.packed_over_pointer.bfs", &plain.query, bfs),
            ("store.packed_over_pointer.cc", &plain.cc, cc),
        ] {
            let (p, b) = (median(packed), median(&base));
            let note = format!(
                "base: pointer {b:.6} s vs packed {p:.6} s (medians of {} and {})",
                base.len(),
                packed.len()
            );
            r.add(name, ratio(p, b), "ratio", &note);
        }
    }
}

/// Metrics only the packed workload measures.
const STORE_ONLY: [(&str, &str); 6] = [
    ("store.bytes_per_incidence", "B/incidence"),
    ("store.scan_s", "s"),
    ("store.row_ns", "ns"),
    ("store.packed_over_pointer.sline", "ratio"),
    ("store.packed_over_pointer.bfs", "ratio"),
    ("store.packed_over_pointer.cc", "ratio"),
];

/// The perturbation `--corrupt-reference` applies to a BFS reference.
fn corrupt_levels(l: &mut Levels, src: Id) {
    l.edges[src as usize] ^= 1;
}

fn fingerprint(g: &Csr, components: &[Id]) -> SLineFingerprint {
    let (edges, edge_hash) = checks::hash_pairs(checks::csr_pairs(g));
    SLineFingerprint {
        edges,
        edge_hash,
        components_hash: checks::partition_hash(components),
    }
}

/// The s-line job: plan → kernel → symmetric CSR → s-connected
/// components. Emission builds the CSR the way `SLineBuilder::csr`
/// does, so kernel and emission are timed apart.
fn sline_job<A: HyperAdjacency + ?Sized>(
    t: &mut Tracer,
    h: &A,
    spec: &Spec,
) -> (SLineGraph, Vec<Id>, Algorithm) {
    t.span("job.sline", |t| {
        // What `auto()` resolves to, planned once so the kernel span
        // does not plan again.
        let chosen = match spec.kernel {
            Some(a) => a,
            None => {
                t.span("planner.plan", |_| planner::plan(h, spec.s))
                    .algorithm
            }
        };
        let builder = SLineBuilder::new(h).s(spec.s).algorithm(chosen);
        let edges = t.span("sline.kernel", |_| builder.edges());
        let csr = t.span("emit.csr", |_| {
            let mut el = EdgeList::from_edges(h.num_hyperedges(), edges);
            el.symmetrize();
            Csr::from_edge_list(&el)
        });
        let (sg, labels) = t.span("smetric.scc", |_| {
            let sg = SLineGraph::from_csr(spec.s, csr);
            let labels = sg.s_connected_components();
            (sg, labels)
        });
        (sg, labels, chosen)
    })
}

fn hyper_levels<A: HyperAdjacency + ?Sized>(h: &A, src: Id) -> Levels {
    let r = hyper_bfs_generic(h, src);
    Levels {
        edges: r.edge_levels,
        nodes: r.node_levels,
    }
}

fn hyper_labels<A: HyperAdjacency + ?Sized>(h: &A) -> (Vec<Id>, Vec<Id>) {
    let r = hyper_cc_generic(h);
    (r.edge_labels, r.node_labels)
}
