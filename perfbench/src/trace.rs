//! In-memory span recorder for the traced run, written out at the end
//! as Chrome trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto).
//!
//! Spans wrap the benchmark's own calls into each layer: a span's
//! parent is the span open when it began. Times come from one
//! [`WallTimer`] started with the recorder, so every timestamp is an
//! offset from that origin.

use adainf_harness::json;
use adainf_simcore::walltime::WallTimer;

/// One finished or open span.
struct Span {
    name: String,
    start_ns: u128,
    end_ns: Option<u128>,
    parent: Option<usize>,
    args: Vec<(String, String)>,
}

/// Handle of a span begun by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// Records nested spans in memory.
pub struct Tracer {
    origin: WallTimer,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: WallTimer::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed_nanos(),
            end_ns: None,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and returns its duration in seconds.
    ///
    /// # Panics
    /// Panics when `id` is not the innermost open span: spans nest.
    pub fn end(&mut self, id: SpanId) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        let end = self.origin.elapsed_nanos();
        span.end_ns = Some(end);
        (end - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Host nanoseconds one empty span costs to record, measured over
    /// `n` begin/end pairs on a scratch recorder.
    pub fn span_cost_ns(n: usize) -> f64 {
        let mut t = Tracer::new();
        t.spans.reserve(n);
        let clock = WallTimer::start();
        for _ in 0..n {
            let id = t.begin("cost");
            t.end(id);
        }
        clock.elapsed_nanos() as f64 / n as f64
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Attaches a pre-rendered JSON value to `id` under `key`.
    pub fn annotate(&mut self, id: SpanId, key: &str, value: String) {
        self.spans[id.0].args.push((key.to_string(), value));
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span,
    /// microsecond timestamps, the parent's name and index in `args`,
    /// plus `other` as the file's `otherData` object.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn to_chrome_json(&self, other: String) -> String {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let end = s.end_ns.expect("every span is closed before export");
            let mut args = vec![("span".to_string(), json::int(i))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), json::int(p)));
                args.push(("parent_name".to_string(), json::string(&self.spans[p].name)));
            }
            args.extend(s.args.iter().cloned());
            json::object([
                ("name", json::string(&s.name)),
                ("ph", json::string("X")),
                ("pid", json::int(1)),
                ("tid", json::int(1)),
                ("ts", json::num(s.start_ns as f64 / 1e3)),
                ("dur", json::num((end - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    json::object(args.iter().map(|(k, v)| (k.as_str(), v.clone()))),
                ),
            ])
        });
        json::object([
            ("traceEvents", json::array(events)),
            ("displayTimeUnit", json::string("ms")),
            ("otherData", other),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        let child = t.span("child", || 7);
        assert_eq!(child, 7);
        t.annotate(root, "phase_ms", json::num(1.5));
        assert!(t.end(root) >= 0.0);
        let out = t.to_chrome_json(json::object([("k", json::int(1))]));
        assert!(out.contains("\"name\": \"child\""));
        assert!(out.contains("\"parent_name\": \"root\""));
        assert!(out.contains("\"phase_ms\": 1.5"));
        assert!(out.contains("\"otherData\""));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
    }
}
