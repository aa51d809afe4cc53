//! Named metrics with units, printed one per line and as the final JSON
//! object, and the per-layer metrics derived from a traced run.

use crate::measure::{self, median, ratio};
use crate::session::{Pass, Times};
use crate::trace::Tracer;
use crate::workloads::Spec;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Everything a run reports: metrics and context lines.
#[derive(Debug, Default)]
pub struct Report {
    pub rows: Vec<Row>,
    pub info: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    pub fn get(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Layer metrics of the traced setups: io, bi-adjacency and adjoin
/// build, pack and open (0 where the workload skips the layer).
pub fn setup_layers(r: &mut Report, t: &Tracer, input_bytes: u64, reps: usize) {
    let snap = nwhy_obs::snapshot();
    let per_rep = |name: &str| snap.counter(name).unwrap_or(0) as f64 / reps as f64;
    let med_s = |name: &str| median(&t.durations(name));
    let parse_s = med_s("io.parse");
    let note = format!("median of {reps} traced setups");
    r.add("io.parse_s", parse_s, "s", &note);
    r.add(
        "io.mb_per_s",
        ratio(input_bytes as f64 / 1e6, parse_s),
        "MB/s",
        &format!("base: {input_bytes} bytes"),
    );
    r.add(
        "io.bytes_read",
        per_rep("io.bytes_read"),
        "count",
        "per setup",
    );
    r.add(
        "io.incidences_read",
        per_rep("io.incidences_read"),
        "count",
        "per setup",
    );
    r.add("build.biadj_s", med_s("build.biadj"), "s", &note);
    r.add("build.adjoin_s", med_s("build.adjoin"), "s", &note);
    r.add("store.pack_s", med_s("store.pack"), "s", &note);
    r.add("store.open_s", med_s("store.open"), "s", &note);
}

/// Layer metrics of the traced pass: spans, the program's own counters
/// (per s-line job), busy fractions and the tracing overhead.
pub fn layers(
    r: &mut Report,
    t: &Tracer,
    snap: &nwhy_obs::MetricsSnapshot,
    pass: &Pass,
    spec: &Spec,
) {
    let (plain, traced) = (&pass.plain, &pass.traced);
    // The program's counters run on every job, traced or not.
    let all_jobs = plain.sline.len() + traced.sline.len();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64 / all_jobs.max(1) as f64;
    let med = |name: &str| median(&t.durations(name));
    let job_note = format!("per job, {} traced s-line jobs", traced.sline.len());
    let counter_note = format!("per job, {all_jobs} s-line jobs");

    r.add(
        "planner.plan_ms",
        med("planner.plan") * 1e3,
        "ms",
        &job_note,
    );
    r.add("sline.kernel_s", med("sline.kernel"), "s", &job_note);
    for name in [
        "sline.pairs_examined",
        "sline.pairs_skipped_degree",
        "sline.hashmap_insertions",
        "sline.queue_pushes",
        "sline.edges_emitted",
        "sline.intersection_comparisons",
        "overlap.path_merge",
        "overlap.path_gallop",
        "overlap.path_bitset",
    ] {
        r.add(name, counter(name), "count", &counter_note);
    }
    let emitted = counter("sline.edges_emitted");
    let examined = counter("sline.pairs_examined");
    r.add(
        "sline.emit_per_examined",
        ratio(emitted, examined),
        "ratio",
        &format!("base: {examined} pairs examined"),
    );
    r.add(
        "sline.comparisons_per_edge",
        ratio(counter("sline.intersection_comparisons"), emitted),
        "ratio",
        &format!("base: {emitted} edges emitted"),
    );
    let emit_s = med("emit.csr");
    r.add("emit.csr_s", emit_s, "s", &job_note);
    r.add(
        "emit.edges_per_s",
        ratio(emitted, emit_s),
        "1/s",
        "s-line edges per second of CSR build",
    );
    r.add("smetric.scc_ms", med("smetric.scc") * 1e3, "ms", &job_note);

    let q_note = format!("median of {} traced queries", traced.query.len());
    r.add("bfs.hyper_ms", med("bfs.hyper") * 1e3, "ms", &q_note);
    r.add("bfs.adjoin_ms", med("bfs.adjoin") * 1e3, "ms", &q_note);
    r.add(
        "bfs.levels",
        median(&pass.depths),
        "count",
        "median BFS depth (levels reached)",
    );
    let bfs_total: f64 = t.durations("bfs.hyper").iter().sum();
    r.add(
        "bfs.incidences_per_s",
        ratio(pass.incidences_reached, bfs_total),
        "1/s",
        "incidences of reached hyperedges per HyperBFS second",
    );
    let cc_note = format!("median of {} traced CC calls", traced.cc.len());
    r.add("cc.hyper_ms", med("cc.hyper") * 1e3, "ms", &cc_note);
    r.add("cc.adjoin_ms", med("cc.adjoin") * 1e3, "ms", &cc_note);

    let threads = measure::threads();
    for layer in BUSY_LAYERS {
        r.add(
            &format!("{layer}.busy_frac"),
            t.busy_frac(layer, threads),
            "ratio",
            &format!("CPU / (wall × {threads} threads)"),
        );
    }

    // Tracing overhead: traced over untraced medians, weighted by the
    // untraced operation counts. The two sides alternate within one
    // pass, so both see the same drift of the host.
    let weighted = |side: &Times| {
        median(&side.sline) * plain.sline.len() as f64
            + median(&side.query) * plain.query.len() as f64
            + median(&side.cc) * plain.cc.len() as f64
    };
    r.add(
        "trace.overhead_frac",
        ratio(weighted(traced), weighted(plain)) - 1.0,
        "ratio",
        "traced / untraced medians − 1, operations alternating",
    );
    let attributed = t.min_attributed();
    for (job, f) in &attributed {
        r.info(format!(
            "attributed {job:<10} {f:.4} (smallest share of one such job covered by layer spans)"
        ));
    }
    r.add(
        "trace.attributed_frac",
        attributed
            .values()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        "ratio",
        "smallest share of a job's wall time covered by layer spans",
    );
    if let Some(kernel) = pass.kernel {
        let how = if spec.kernel.is_some() {
            "forced"
        } else {
            "planner-chosen"
        };
        r.info(format!("planner.kernel {} ({how})", kernel.name()));
    }
}

/// Layers whose busy fraction is reported.
const BUSY_LAYERS: [&str; 13] = [
    "io.parse",
    "build.biadj",
    "build.adjoin",
    "store.pack",
    "store.open",
    "planner.plan",
    "sline.kernel",
    "emit.csr",
    "smetric.scc",
    "bfs.hyper",
    "bfs.adjoin",
    "cc.hyper",
    "cc.adjoin",
];
