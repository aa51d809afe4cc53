//! `cargo xtask bench-diff <old> <new>` — the counter-based perf gate.
//!
//! Compares two `BENCH_*.json` perf-trajectory files (see
//! `crates/bench`) row by row and fails when any kernel counter grew by
//! more than a threshold. Counters — not wall-clock — are the gated
//! quantity: they are deterministic for a fixed input and thread-count
//! independent, so the gate never flakes on loaded CI runners the way timing gates do.
//!
//! Rows are matched by `(bench, dataset, algorithm, s)`. A row or
//! counter present in the baseline but missing from the new file is a
//! failure (a silently dropped measurement must not pass the gate);
//! new rows and new counters are informational only, so adding
//! datasets or counters never requires a simultaneous baseline bump.
//!
//! The scanner below is a deliberately tiny JSON reader for exactly the
//! bench schema (array of flat objects whose only nesting is the
//! `counters` object). `xtask` stays dependency-free — see the crate
//! docs — so it cannot reuse `nwhy-obs`'s generic parser.

use std::fmt;

/// Default regression threshold, in percent growth over the baseline.
pub const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// One parsed bench row: the match key plus its counters. Timing fields
/// are intentionally dropped — the gate never reads `median_seconds`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub bench: String,
    pub dataset: String,
    pub algorithm: String,
    pub s: Option<u64>,
    pub counters: Vec<(String, u64)>,
}

impl Row {
    fn key(&self) -> String {
        let s = match self.s {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        };
        format!("{}/{}/{}/s={s}", self.bench, self.dataset, self.algorithm)
    }

    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// One gate violation: a grown counter or a dropped row/counter.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `bench/dataset/algorithm/s=K` row key.
    pub key: String,
    /// Human-readable description of what regressed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.key, self.detail)
    }
}

/// The outcome of one baseline/candidate comparison.
#[derive(Debug, Clone)]
pub struct Report {
    /// Gate violations; empty means the gate passes.
    pub violations: Vec<Violation>,
    /// Counters compared.
    pub compared: usize,
    /// Keys present only in the new file (informational).
    pub added_rows: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Diffs two bench JSON documents under a growth threshold (percent).
pub fn diff(old_text: &str, new_text: &str, threshold_pct: f64) -> Result<Report, String> {
    let old_rows = parse_rows(old_text).map_err(|e| format!("baseline: {e}"))?;
    let new_rows = parse_rows(new_text).map_err(|e| format!("candidate: {e}"))?;
    let mut violations = Vec::new();
    let mut compared = 0usize;
    for old in &old_rows {
        let key = old.key();
        let Some(new) = new_rows.iter().find(|n| n.key() == key) else {
            violations.push(Violation {
                key,
                detail: "row missing from candidate".into(),
            });
            continue;
        };
        for (name, old_v) in &old.counters {
            let Some(new_v) = new.counter(name) else {
                violations.push(Violation {
                    key: key.clone(),
                    detail: format!("counter {name} missing from candidate"),
                });
                continue;
            };
            compared += 1;
            // counters are deterministic: any growth from a zero
            // baseline is a new cost, not noise
            let grew_from_zero = *old_v == 0 && new_v > 0;
            let pct = if *old_v == 0 {
                0.0
            } else {
                (new_v as f64 - *old_v as f64) / (*old_v as f64) * 100.0
            };
            if pct > threshold_pct || grew_from_zero {
                violations.push(Violation {
                    key: key.clone(),
                    detail: format!("counter {name} grew {old_v} -> {new_v} (+{pct:.1}%)"),
                });
            }
        }
    }
    let added_rows = new_rows
        .iter()
        .map(Row::key)
        .filter(|k| !old_rows.iter().any(|o| &o.key() == k))
        .collect();
    Ok(Report {
        violations,
        compared,
        added_rows,
    })
}

/// Resolves the threshold: `--threshold` flag beats the
/// `NWHY_BENCH_DIFF_THRESHOLD` environment knob beats the default.
pub fn resolve_threshold(flag: Option<f64>) -> f64 {
    flag.or_else(|| {
        std::env::var("NWHY_BENCH_DIFF_THRESHOLD")
            .ok()
            .and_then(|v| v.parse().ok())
    })
    .unwrap_or(DEFAULT_THRESHOLD_PCT)
}

// --- minimal bench-schema JSON scanner ---

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("byte {}: expected {:?}", self.pos, char::from(b)))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8: copy the whole code point
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("truncated UTF-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("byte {start}: bad number"))
    }

    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Skips any value — used for fields the gate does not read.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if !self.eat(b']') {
                    loop {
                        self.skip_value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
            }
            Some(b'{') => {
                self.expect(b'{')?;
                if !self.eat(b'}') {
                    loop {
                        self.string()?;
                        self.expect(b':')?;
                        self.skip_value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b'}')?;
                }
            }
            _ => {
                if !(self.literal("null") || self.literal("true") || self.literal("false")) {
                    self.number()?;
                }
            }
        }
        Ok(())
    }

    fn counters(&mut self) -> Result<Vec<(String, u64)>, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.eat(b'}') {
            return Ok(out);
        }
        loop {
            let name = self.string()?;
            self.expect(b':')?;
            let v = self.number()?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("counter {name:?} must be a non-negative integer"));
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            // lint: checked non-negative and integral just above
            out.push((name, v as u64));
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        Ok(out)
    }

    fn row(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row {
            bench: String::new(),
            dataset: String::new(),
            algorithm: String::new(),
            s: None,
            counters: Vec::new(),
        };
        if self.eat(b'}') {
            return Err("row must not be empty".into());
        }
        loop {
            let field = self.string()?;
            self.expect(b':')?;
            match field.as_str() {
                "bench" => row.bench = self.string()?,
                "dataset" => row.dataset = self.string()?,
                "algorithm" => row.algorithm = self.string()?,
                "s" => {
                    if !self.literal("null") {
                        let v = self.number()?;
                        if v < 0.0 || v.fract() != 0.0 {
                            return Err("\"s\" must be a non-negative integer".into());
                        }
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        // lint: checked non-negative and integral just above
                        let s = v as u64;
                        row.s = Some(s);
                    }
                }
                "counters" => row.counters = self.counters()?,
                _ => self.skip_value()?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        Ok(row)
    }
}

/// Parses a `BENCH_*.json` document into its rows.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut sc = Scanner::new(text);
    sc.expect(b'[')?;
    let mut rows = Vec::new();
    if !sc.eat(b']') {
        loop {
            rows.push(sc.row()?);
            if !sc.eat(b',') {
                break;
            }
        }
        sc.expect(b']')?;
    }
    sc.skip_ws();
    if sc.pos != sc.bytes.len() {
        return Err(format!("trailing content at byte {}", sc.pos));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(counter: &str, value: u64) -> String {
        format!(
            "[{{\"bench\": \"slinegraph\", \"dataset\": \"uniform\", \
             \"algorithm\": \"hashmap\", \"s\": 2, \"trials\": 3, \
             \"median_seconds\": 1.5e-4, \
             \"counters\": {{\"{counter}\": {value}, \"sline.edges_emitted\": 10}}}}]"
        )
    }

    #[test]
    fn parses_the_emitter_shape() {
        let rows = parse_rows(&doc("sline.pairs_examined", 100)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bench, "slinegraph");
        assert_eq!(rows[0].s, Some(2));
        assert_eq!(rows[0].counter("sline.pairs_examined"), Some(100));
        assert_eq!(rows[0].counter("sline.edges_emitted"), Some(10));
    }

    #[test]
    fn identical_files_pass() {
        let d = doc("sline.pairs_examined", 100);
        let r = diff(&d, &d, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn growth_over_threshold_fails() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 120); // +20% > 15%
        let r = diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(!r.passed());
        assert!(r.violations[0].detail.contains("+20.0%"));
    }

    #[test]
    fn growth_under_threshold_passes_and_threshold_is_tunable() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 110); // +10%
        assert!(diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
        assert!(!diff(&old, &new, 5.0).unwrap().passed());
    }

    #[test]
    fn improvements_always_pass() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 10);
        assert!(diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn growth_from_zero_fails() {
        let old = doc("sline.pairs_skipped", 0);
        let new = doc("sline.pairs_skipped", 1);
        assert!(!diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn missing_row_or_counter_fails() {
        let old = doc("sline.pairs_examined", 100);
        assert!(!diff(
            &old,
            "[{\"bench\": \"slinegraph\", \"dataset\": \"other\", \
                 \"algorithm\": \"hashmap\", \"s\": 2, \"counters\": {}}]",
            DEFAULT_THRESHOLD_PCT
        )
        .unwrap()
        .passed());
        let new = doc("sline.other_counter", 100);
        assert!(!diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn new_rows_and_counters_are_informational() {
        let old = doc("sline.pairs_examined", 100);
        let new = format!(
            "[{},{}]",
            doc("sline.pairs_examined", 100)
                .trim_start_matches('[')
                .trim_end_matches(']'),
            "{\"bench\": \"slinegraph\", \"dataset\": \"extra\", \
             \"algorithm\": \"naive\", \"s\": null, \"counters\": {\"x\": 1}}"
        );
        let r = diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(r.passed());
        assert_eq!(r.added_rows, vec!["slinegraph/extra/naive/s=-"]);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(parse_rows("[{\"bench\": }]").is_err());
        assert!(parse_rows("not json").is_err());
        assert!(diff("[]", "[]", 15.0).unwrap().passed());
    }
}
