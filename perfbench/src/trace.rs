//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span it ran inside. Spans are
//! kept in memory and written out once, when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder. A disabled tracer runs the closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A tracer whose timestamps count from `origin`, so spans recorded on
    /// other threads can be merged with [`Tracer::absorb`].
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends another tracer's completed spans (same origin) to this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds of the most recent completed span named `name`.
    #[cfg(test)]
    pub fn last_seconds(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Self time of every span, in seconds, grouped by name in recording
    /// order.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// The spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
    /// "parent"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            spin(4);
            t.span("inner", |_| spin(6));
        });
        let own = t.self_seconds();
        let outer = own["outer"][0];
        let inner = own["inner"][0];
        let total = t.last_seconds("outer").unwrap();
        assert!(inner >= 0.006 && outer >= 0.004);
        assert!((outer - (total - inner)).abs() < 1e-9, "outer self {outer}");
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\"") && lines.contains("\"parent\":0"));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut main = Tracer::with_origin(true, origin);
        main.span("a", |_| ());
        let mut worker = Tracer::with_origin(true, origin);
        worker.span("b", |t| t.span("c", |_| ()));
        main.absorb(worker);
        let lines = main.to_json_lines();
        assert!(lines.contains("\"id\":2,\"name\":\"c\""), "{lines}");
        assert!(lines.contains("\"parent\":1"), "{lines}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.self_seconds().is_empty());
        assert!(t.last_seconds("x").is_none());
    }
}
