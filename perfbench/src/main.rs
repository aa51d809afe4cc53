//! `nwhy-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) in this process, checks
//! every result, prints each metric on its own line, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exit code 0 when every check passed, 1 when one
//! failed, 2 on a usage or set-up error.
//!
//! Extra options: `--tiny` (tiny inputs, for the self-tests),
//! `--twin-seed <n>` (generator seed of the twin, default 42, for
//! held-out checks), `--corrupt-reference` (perturb every reference so
//! the checks must fail), `--cache <dir>` (input cache, default
//! `.bench_inputs`).

mod checks;
mod inputs;
mod measure;
mod report;
mod session;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, WORKLOADS};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sline_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. `cc_ms` is here, not
/// end-to-end: HyperCC's asynchronous label propagation takes a number
/// of rounds that depends on thread timing, so on the pointer workloads
/// its per-run median falls into one of two modes 1.4× apart, wider
/// than any bound `BENCHMARK.json` may set.
const PER_LAYER: [(&str, &str); 52] = [
    ("cc_ms", "ms"),
    ("io.parse_s", "s"),
    ("io.mb_per_s", "MB/s"),
    ("io.bytes_read", "count"),
    ("io.incidences_read", "count"),
    ("build.biadj_s", "s"),
    ("build.adjoin_s", "s"),
    ("store.pack_s", "s"),
    ("store.bytes_per_incidence", "B/incidence"),
    ("store.open_s", "s"),
    ("store.scan_s", "s"),
    ("store.row_ns", "ns"),
    ("store.packed_over_pointer.sline", "ratio"),
    ("store.packed_over_pointer.bfs", "ratio"),
    ("store.packed_over_pointer.cc", "ratio"),
    ("planner.plan_ms", "ms"),
    ("sline.kernel_s", "s"),
    ("sline.pairs_examined", "count"),
    ("sline.pairs_skipped_degree", "count"),
    ("sline.hashmap_insertions", "count"),
    ("sline.queue_pushes", "count"),
    ("sline.edges_emitted", "count"),
    ("sline.emit_per_examined", "ratio"),
    ("sline.intersection_comparisons", "count"),
    ("overlap.path_merge", "count"),
    ("overlap.path_gallop", "count"),
    ("overlap.path_bitset", "count"),
    ("sline.comparisons_per_edge", "ratio"),
    ("emit.csr_s", "s"),
    ("emit.edges_per_s", "1/s"),
    ("smetric.scc_ms", "ms"),
    ("bfs.hyper_ms", "ms"),
    ("bfs.adjoin_ms", "ms"),
    ("bfs.levels", "count"),
    ("bfs.incidences_per_s", "1/s"),
    ("cc.hyper_ms", "ms"),
    ("cc.adjoin_ms", "ms"),
    ("io.parse.busy_frac", "ratio"),
    ("build.biadj.busy_frac", "ratio"),
    ("build.adjoin.busy_frac", "ratio"),
    ("store.pack.busy_frac", "ratio"),
    ("store.open.busy_frac", "ratio"),
    ("planner.plan.busy_frac", "ratio"),
    ("sline.kernel.busy_frac", "ratio"),
    ("emit.csr.busy_frac", "ratio"),
    ("smetric.scc.busy_frac", "ratio"),
    ("bfs.hyper.busy_frac", "ratio"),
    ("bfs.adjoin.busy_frac", "ratio"),
    ("cc.hyper.busy_frac", "ratio"),
    ("cc.adjoin.busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: nwhy-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--tiny] [--twin-seed <n>] [--corrupt-reference] [--cache <dir>]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = Config {
        seed: 42,
        seconds: 10.0,
        trace: false,
        tiny: false,
        twin_seed: 42,
        corrupt_reference: false,
        cache: PathBuf::from(".bench_inputs"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = (|| {
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => cfg.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => cfg.trace = value()? == "1",
                "--twin-seed" => cfg.twin_seed = value()?.parse().map_err(|_| "bad --twin-seed")?,
                "--cache" => cfg.cache = PathBuf::from(value()?),
                "--tiny" => cfg.tiny = true,
                "--corrupt-reference" => cfg.corrupt_reference = true,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return usage(&e);
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return usage("--seconds must be positive");
    }
    let Some(spec) = workload.and_then(|w| WORKLOADS.iter().find(|s| s.name == w)) else {
        return usage("unknown or missing --workload");
    };

    let (report, attempted, failed) = match workloads::run(spec, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.info {
        println!("# {line}");
    }
    for row in &report.rows {
        println!(
            "{:<34} {:>18.6} {:<11} {}",
            row.name, row.value, row.unit, row.note
        );
    }
    let failed_frac = measure::ratio(failed as f64, attempted as f64);
    println!("failed_frac {failed_frac} ({failed} of {attempted} checked operations failed)");

    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        match report.get(name) {
            Some(row) if row.unit == unit && row.value.is_finite() => {
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    row.value
                ));
            }
            _ => {
                eprintln!("error: metric {name} ({unit}) was not measured");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
