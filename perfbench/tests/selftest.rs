//! Self-tests: every workload at a tiny scale prints every metric that
//! `BENCHMARK.json` names, with its unit; a corrupted reference makes
//! the checks fail; the traced run's spans nest and their self times
//! add up to their parent's duration.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// or the workload names (unit empty) for `"workloads"`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        obj.find(&tag).map_or_else(String::new, |i| {
            let rest = &obj[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

/// Runs `workload` at the tiny scale with a cache of its own per test,
/// since tests run in parallel.
fn bench(test: &str, workload: &str, extra: &[&str]) -> Run {
    let cache: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{test}-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_nwhy-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--tiny",
        ])
        .arg("--cache")
        .arg(&cache)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 output"),
    }
}

fn last_line(run: &Run) -> &str {
    run.stdout.lines().last().unwrap_or("")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 3);
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = bench("metrics", workload, &["--trace", trace]);
            assert_eq!(run.code, 0, "{workload} --trace {trace}:\n{}", run.stdout);
            let json = last_line(&run);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(json.contains("\"failed\": 0,"), "{json}");
            assert!(run.stdout.contains("\nfailed_frac 0 ("), "{}", run.stdout);
            let metrics = declared(section);
            assert!(!metrics.is_empty());
            for (name, unit) in metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let rest = &json[at + entry.len()..];
                let close = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..close].ends_with(&format!(", \"unit\": \"{unit}\"")),
                    "{workload}: {name} should be in {unit}: {}",
                    &rest[..close]
                );
                assert!(
                    run.stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(&name)
                            && l.split_whitespace().nth(2) == Some(&unit)),
                    "{workload}: no printed line for {name} in {unit}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_reference_makes_the_checks_fail() {
    for (workload, _) in declared("workloads") {
        let run = bench(
            "corrupt",
            &workload,
            &["--trace", "0", "--corrupt-reference"],
        );
        assert_eq!(run.code, 1, "{workload} must exit 1:\n{}", run.stdout);
        let json = last_line(&run);
        assert!(json.starts_with("{\"correct\": false,"), "{json}");
        assert!(!json.contains("\"failed\": 0,"), "{json}");
        let frac: f64 = run
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("failed_frac "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .expect("failed_frac line");
        assert!(frac > 0.0, "{workload}: failed_frac {frac}");
        // The warm-up runs one of each operation first, so each kind of
        // check is among the first failures printed.
        for check in ["s-line graph", "BFS levels", "CC partition"] {
            assert!(
                run.stderr.contains(&format!("check failed: {check}")),
                "{workload}: the {check} check did not fail:\n{}",
                run.stderr
            );
        }
    }
}

#[test]
fn a_second_twin_seed_passes_every_check() {
    let run = bench(
        "twin-seed",
        "sline-alg2-orkut200",
        &["--trace", "0", "--twin-seed", "7"],
    );
    assert_eq!(run.code, 0, "{}", run.stdout);
    assert!(run.stdout.contains("twin seed 7"));
}

#[test]
fn traced_spans_nest_and_self_times_add_up() {
    let run = bench("spans", "traverse-rand1", &["--trace", "1"]);
    assert_eq!(run.code, 0, "{}", run.stdout);
    let path = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("# trace file "))
        .expect("trace file line");
    let text = std::fs::read_to_string(path).expect("trace file written");
    // run id parent name start_ns end_ns cpu_ticks self_ns
    let spans: Vec<Vec<&str>> = text
        .lines()
        .skip(1)
        .map(|l| l.split('\t').collect())
        .collect();
    assert!(spans.len() > 10);
    let num = |s: &str| s.parse::<i64>().expect("integer field");
    let run_ids: std::collections::BTreeSet<&str> = spans.iter().map(|s| s[0]).collect();
    assert_eq!(run_ids.len(), 1, "one run id per run");

    let mut children_ns = vec![0i64; spans.len()];
    for (id, s) in spans.iter().enumerate() {
        assert_eq!(num(s[1]), id as i64);
        let (start, end) = (num(s[4]), num(s[5]));
        assert!(start <= end);
        if s[2] != "-" {
            let p = &spans[num(s[2]) as usize];
            assert!(
                num(p[4]) <= start && end <= num(p[5]),
                "span {id} outside its parent"
            );
            assert!(
                s[3] != "-" && !s[3].starts_with("job."),
                "layer spans sit under jobs"
            );
            children_ns[num(s[2]) as usize] += end - start;
        } else {
            assert!(s[3].starts_with("job."), "roots are jobs: {}", s[3]);
        }
    }
    for (id, s) in spans.iter().enumerate() {
        let duration = num(s[5]) - num(s[4]);
        let own = num(s[7]);
        assert!(own >= 0, "span {id} has negative self time");
        assert_eq!(
            own + children_ns[id],
            duration,
            "span {id}: self + children ≠ duration"
        );
    }
    let attributed: f64 = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace.attributed_frac"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("trace.attributed_frac line");
    assert!(attributed > 0.0 && attributed <= 1.0);
}
