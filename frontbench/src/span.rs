//! The traced run's span recorder.
//!
//! A span is opened around one call into a layer's public entry point
//! from the benchmark's own code: name, start, end, parent span and
//! request id. Spans stay in memory until the run ends, then are written
//! out as JSON lines with each span's self time (its duration minus the
//! part of it that its children cover).

use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    base: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span: closed (and recorded) by [`Open::close`].
pub struct Open<'t> {
    tracer: &'t Tracer,
    rec: SpanRec,
}

impl Open<'_> {
    pub fn id(&self) -> u64 {
        self.rec.id
    }

    /// Close the span now and return its duration in seconds.
    pub fn close(mut self) -> f64 {
        self.rec.end_ns = self.tracer.now_ns();
        let secs = self.rec.secs();
        self.tracer.spans.lock().expect("span store").push(self.rec);
        secs
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { base: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span. Ids are unique per tracer; `request` groups the spans
    /// of one request.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>, request: u64) -> Open<'_> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let start_ns = self.now_ns();
        Open {
            tracer: self,
            rec: SpanRec { id, parent, request, name: name.into(), start_ns, end_ns: start_ns },
        }
    }

    /// Run `f` inside a span; returns its value and the span's seconds.
    pub fn time<T>(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, parent, request);
        let out = f();
        (out, span.close())
    }

    /// Durations (seconds) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store")
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .collect()
    }

    /// All closed spans, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self.spans.lock().expect("span store").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover, in span order.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One JSON line per span, with its self time.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRec {
        SpanRec { id, parent, request: 0, name: "s".into(), start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 60),
            rec(4, Some(2), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 28, 30, 2]);
    }

    #[test]
    fn spans_nest_and_export() {
        let t = Tracer::new();
        let outer = t.open("outer", None, 9);
        let (_, inner) = t.time("inner", Some(outer.id()), 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = outer.close();
        assert!(total >= inner && inner > 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let lines = to_jsonl(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\"") && lines.contains("\"request\":9"));
    }
}
