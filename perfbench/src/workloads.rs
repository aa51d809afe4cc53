//! The three workloads and the run every one of them makes:
//!
//! ```text
//! input file ─► setup (parse, build, pack, open), several times
//!   ─► references and one warm-up of each operation (untimed)
//!   ─► timed operations, interleaved for --seconds:
//!        s-line job (plan → kernel → symmetric CSR → s-components)
//!        BFS query from a seeded source
//!        connected components
//! ```
//!
//! One client drives the program in a closed loop: each call starts when
//! the previous one has returned. The three operations are interleaved so
//! every metric samples the whole run; each gets a fixed share of the
//! measured time and a minimum count.

use crate::inputs::{self, Format, TwinSpec};
use crate::measure::{self, median, timed, windowed_quantile};
use crate::report::{self, Report};
use crate::session::{self, Checker, Session, Times, SETUP_MAX, SETUP_MIN, SETUP_SECONDS};
use crate::trace::Tracer;
use nwhy_core::Algorithm;
use std::path::PathBuf;
use std::time::Instant;

/// How the program holds the hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Pointer bi-adjacency (`Hypergraph`).
    Pointer,
    /// Pointer bi-adjacency plus the adjoin graph; every query and CC
    /// runs on both, and each is checked against the other.
    Adjoin,
    /// The `NWHYPAK1` image, opened through mmap.
    Packed,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub twin: TwinSpec,
    /// Scale divisor used by `--tiny` (self-tests).
    pub tiny_scale: usize,
    pub backend: Backend,
    pub s: usize,
    /// `None` lets the planner choose (`SLineBuilder::auto`).
    pub kernel: Option<Algorithm>,
    /// The s-line reference: another kernel on the same input, or
    /// (`None`) the same call on the decoded pointer form.
    pub reference: Option<Algorithm>,
}

const fn twin(profile: &'static str, scale: usize, format: Format) -> TwinSpec {
    TwinSpec {
        profile,
        scale,
        twin_seed: 42,
        format,
    }
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "sline-alg2-orkut200",
        twin: twin("com-Orkut", 200, Format::Hgr),
        tiny_scale: 20_000,
        backend: Backend::Pointer,
        s: 8,
        kernel: Some(Algorithm::QueueIntersection),
        reference: Some(Algorithm::QueueHashmap),
    },
    Spec {
        name: "traverse-rand1",
        twin: twin("Rand1", 500, Format::Mtx),
        tiny_scale: 50_000,
        backend: Backend::Adjoin,
        s: 2,
        kernel: None,
        reference: Some(Algorithm::QueueHashmap),
    },
    Spec {
        name: "packed-orkut200",
        twin: twin("com-Orkut", 200, Format::Hgr),
        tiny_scale: 20_000,
        backend: Backend::Packed,
        s: 8,
        kernel: None,
        reference: None,
    },
];

/// Run settings from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub twin_seed: u64,
    pub corrupt_reference: bool,
    pub cache: PathBuf,
}

/// Runs `spec`; returns its report and the (attempted, failed) counts
/// of checked operations.
pub fn run(spec: &Spec, cfg: &Config) -> Result<(Report, u64, u64), String> {
    let mut twin = spec.twin;
    twin.twin_seed = cfg.twin_seed;
    if cfg.tiny {
        twin.scale = spec.tiny_scale;
    }
    let input = inputs::prepare(&cfg.cache, twin).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    report.info(format!(
        "workload {} · {} 1/{} (twin seed {}, run seed {}) · {} · |V|={} |E|={} incidences={} bytes={}",
        spec.name,
        twin.profile,
        twin.scale,
        twin.twin_seed,
        cfg.seed,
        input.path.display(),
        input.sizes.hypernodes,
        input.sizes.hyperedges,
        input.sizes.incidences,
        input.bytes,
    ));
    report.info(format!(
        "threads {} (rayon pool default), one client, closed loop, {} s measured",
        measure::threads(),
        cfg.seconds
    ));

    let mut tracer = Tracer::new(measure::run_id(cfg.seed));
    let pack_path = cfg.cache.join(format!("{}.nwhypak", spec.name));

    // Setup: the untraced repetitions give `setup_s`; a traced run
    // repeats them with spans and counters. Each setup drops the
    // previous representation first.
    let mut checker = Checker::default();
    let mut setup_once = |tracer: &mut Tracer| {
        let (r, dt) = timed(|| session::setup(tracer, spec, &input, &pack_path));
        let r = r?;
        checker.check(r.sizes() == input.sizes, "sizes after setup");
        Ok::<_, String>((r, dt))
    };
    let mut setup_times = Vec::new();
    let mut ready = None;
    let start = Instant::now();
    while setup_times.len() < SETUP_MIN
        || (setup_times.len() < SETUP_MAX && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(ready.take());
        let (r, dt) = setup_once(&mut tracer)?;
        setup_times.push(dt);
        ready = Some(r);
    }
    if cfg.trace {
        nwhy_obs::reset();
        tracer.set_enabled(true);
        for _ in 0..SETUP_MIN {
            drop(ready.take());
            ready = Some(setup_once(&mut tracer)?.0);
        }
        tracer.set_enabled(false);
        report::setup_layers(&mut report, &tracer, input.bytes, SETUP_MIN);
    }
    let ready = ready.expect("at least one setup");
    let mut session = Session::new(spec, ready, checker, cfg.seed, cfg.corrupt_reference)?;
    session.warm_up(&mut tracer);

    nwhy_obs::reset();
    let pass = session.pass(&mut tracer, cfg.seconds, cfg.trace);
    end_to_end(&mut report, &pass.plain, &setup_times);

    if cfg.trace {
        report::layers(&mut report, &tracer, &nwhy_obs::snapshot(), &pass, spec);
        session.store_layers(&mut report, &pass.plain);
        let path = cfg
            .cache
            .join(format!("trace-{}-{:016x}.tsv", spec.name, tracer.run_id()));
        tracer.write_tsv(&path).map_err(|e| e.to_string())?;
        report.info(format!("trace file {}", path.display()));
        for (layer, own) in tracer.self_seconds_by_name() {
            report.info(format!("self time {layer:<16} {own:.6} s"));
        }
    }
    report.add(
        "peak_rss_mb",
        measure::peak_rss_mb(),
        "MB",
        "VmHWM of this process",
    );
    let (attempted, failed) = session.checked();
    Ok((report, attempted, failed))
}

/// The query latency quantiles are taken in this many windows of
/// consecutive queries and reported as the median over the windows, so a
/// slow streak of the shared host in part of a run does not move them.
/// With the minimum of 100 queries a window holds 20, two beyond its p90.
const QUERY_WINDOWS: usize = 5;

fn end_to_end(r: &mut Report, p: &Times, setup_times: &[f64]) {
    r.add(
        "setup_s",
        median(setup_times),
        "s",
        &format!("median of {} setups", setup_times.len()),
    );
    r.add(
        "sline_s",
        median(&p.sline),
        "s",
        &format!("median of {} s-line jobs", p.sline.len()),
    );
    let ms: Vec<f64> = p.query.iter().map(|s| s * 1e3).collect();
    let note = format!(
        "{} queries; median over {QUERY_WINDOWS} windows of consecutive queries",
        ms.len()
    );
    r.add(
        "query_ms_p50",
        windowed_quantile(&ms, 0.5, QUERY_WINDOWS),
        "ms",
        &note,
    );
    r.add(
        "query_ms_p90",
        windowed_quantile(&ms, 0.9, QUERY_WINDOWS),
        "ms",
        &note,
    );
    r.add(
        "cc_ms",
        median(&p.cc) * 1e3,
        "ms",
        &format!("median of {} CC calls", p.cc.len()),
    );
}
