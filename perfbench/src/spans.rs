//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code (the program carries no
//! instrumentation), kept in memory, and written out once at the end as
//! Chrome Trace Event JSON, which `chrome://tracing` and Perfetto open.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: a call into a layer, or a group of such calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced run (seed) the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Recorder with a stack of open spans; children nest strictly.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Spans opened from now on belong to traced run `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and return
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span named `name`; returns its value and duration.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f(self);
        (value, self.exit(id))
    }

    /// Self time per span name in `run`: each span's duration minus the
    /// part of it its child spans cover, summed by name, seconds.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run {
                let own = s.dur_ns().saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Chrome Trace Event JSON: one complete (`"ph": "X"`) event per span,
    /// one process per traced run, with `env` as the trace metadata.
    pub fn chrome_json(&self, env: &str) -> String {
        assert!(self.open.is_empty(), "every span is closed before export");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"span\":{},\"parent\":{}}}}}{}\n",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.run,
                i,
                parent,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(env);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let root = spans.enter("root");
        let child = spans.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.exit(child);
        spans.exit(root);
        let st = spans.self_times(0);
        let (root_s, child_s) = (spans.spans[root].dur_ns(), spans.spans[child].dur_ns());
        assert!((st["root"] - (root_s - child_s) as f64 * 1e-9).abs() < 1e-9);
        assert!(st["child"] >= 0.005);
        assert!(spans.chrome_json("{}").contains("\"parent\":0"));
    }
}
