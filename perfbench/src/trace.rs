//! Benchmark-side spans: recorded in memory around each call into a
//! layer, written out when the run ends. No span is added inside the
//! program; its own counters are read through `nwhy_obs::snapshot()`.

use crate::measure::{CpuClock, TICK_S};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU ticks spent while the span was open.
    pub cpu_ticks: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Disabled, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cpu: CpuClock,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Self {
            enabled: false,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cpu: CpuClock::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        // The CPU readings fall inside the span, so a parent's time
        // spent on them is attributed to the child.
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ticks: 0,
        });
        let cpu0 = self.cpu.ticks();
        self.stack.push(id);
        let out = std::hint::black_box(f(self));
        self.stack.pop();
        let cpu = self.cpu.ticks().saturating_sub(cpu0);
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.cpu_ticks = cpu;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// CPU time / (wall time × threads) over every span named `name`.
    pub fn busy_frac(&self, name: &str, threads: usize) -> f64 {
        let (wall, cpu) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(w, c), s| {
                (w + s.seconds(), c + s.cpu_ticks as f64 * TICK_S)
            });
        crate::measure::ratio(cpu, wall * threads as f64)
    }

    /// Self time of each span: its duration minus its children's.
    /// Children run one after another on this thread, so their
    /// durations never overlap.
    pub fn self_ns(&self) -> Vec<i64> {
        let ns = |s: &Span| (s.end_ns - s.start_ns) as i64;
        let mut own: Vec<i64> = self.spans.iter().map(ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= ns(s);
            }
        }
        own
    }

    /// Self time summed per span name (layer).
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_name
    }

    /// Per root span name, the smallest share of one root span's wall
    /// time that its child spans cover.
    pub fn min_attributed(&self) -> BTreeMap<&'static str, f64> {
        let mut covered: Vec<f64> = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.seconds();
            }
        }
        let mut by_root = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.parent.is_none() {
                let f = crate::measure::ratio(*c, s.seconds());
                let m = by_root.entry(s.name).or_insert(f);
                *m = f64::min(*m, f);
            }
        }
        by_root
    }

    /// Writes the spans as tab-separated lines:
    /// `run id parent name start_ns end_ns cpu_ticks self_ns`
    /// (`parent` is `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "run\tid\tparent\tname\tstart_ns\tend_ns\tcpu_ticks\tself_ns"
        )?;
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{:016x}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                self.run_id, s.name, s.start_ns, s.end_ns, s.cpu_ticks, own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_add_up() {
        let mut t = Tracer::new(1);
        t.set_enabled(true);
        t.span("job.x", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.set_enabled(false);
        t.span("ignored", |_| ());
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["job.x", "a", "b", "c"]);
        assert_eq!(t.spans()[3].parent, Some(2));
        let own: i64 = t.self_ns().iter().sum();
        assert_eq!(own as u64, t.spans()[0].end_ns - t.spans()[0].start_ns);
        assert!(t.min_attributed()["job.x"] > 0.0);
    }
}
