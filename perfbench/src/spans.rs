//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded only when tracing is on; when it is off,
//! [`Spans::time`] is a plain call. Spans of one cell, script or
//! template share a job id, and the job's own span (`bench.job`) is the
//! parent of every other span with that id. Spans are kept in memory and
//! written once, at the end, as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `luart.compile`.
    pub name: &'static str,
    /// The cell, script or template the call served.
    pub job: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Name of the per-job parent span.
pub const JOB: &str = "bench.job";

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as span `name` of `job` when on.
    pub fn time<T>(&mut self, job: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an already measured interval.
    pub fn push(&mut self, name: &'static str, job: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                job,
                start_ns,
                end_ns,
            });
        }
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each layer's self time in nanoseconds: a span's duration minus
    /// the part its children cover. Only `bench.job` spans have children
    /// (every other span of the same job), and those never overlap one
    /// another, so a child's self time is its duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name != JOB) {
            *children.entry(s.job).or_default() += s.nanos();
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            let own = if s.name == JOB {
                s.nanos()
                    .saturating_sub(children.get(&s.job).copied().unwrap_or(0))
            } else {
                s.nanos()
            };
            *out.entry(s.layer()).or_default() += own;
        }
        out
    }

    /// Chrome `trace_event` JSON: one complete event per span, one
    /// track per job, parent links through the shared job id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.layer(),
                s.job,
                s.start_ns as f64 / 1e3,
                s.nanos() as f64 / 1e3
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.time(1, "luart.compile", || 7), 7);
        sp.push(JOB, 1, 0, 10);
        assert!(sp.spans().is_empty());
    }

    #[test]
    fn job_self_time_excludes_children() {
        let mut sp = Spans::new(true);
        sp.push("miniscript.parse", 3, 10, 30);
        sp.push("tarch-core.run", 3, 40, 90);
        sp.push(JOB, 3, 0, 100);
        let st = sp.self_times();
        assert_eq!(st["bench"], 30);
        assert_eq!(st["miniscript"], 20);
        assert_eq!(st["tarch-core"], 50);
        assert!(sp.chrome_json().contains("\"tid\":3"));
    }
}
