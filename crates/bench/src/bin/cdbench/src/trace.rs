//! In-memory spans around every call the benchmark makes into a layer,
//! exported as Chrome trace-event JSON (a plain array that Perfetto and
//! `chrome://tracing` load) and summarised as per-layer self time.
//!
//! A span's layer is its name up to the first `.` (`core.louvain_gpu` →
//! `core`). Self time is the span's duration minus the part of it its child
//! spans cover. An untraced run uses a disabled tracer, which only calls
//! through.

use crate::json::quote;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Repetition, set-up or request index, depending on the span.
    pub tag: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans on. Disabled, this is a plain call.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned by a panicking thread");
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, tag, tid: thread_id() });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned by a panicking thread")[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking thread").clone()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Tracing overhead in percent: `spans` recordings over `wall_s`
    /// seconds, at the cost of one recording measured on a scratch tracer.
    pub fn overhead_pct(spans: usize, wall_s: f64) -> f64 {
        const N: u32 = 20_000;
        let scratch = Tracer::new(true);
        let t = Instant::now();
        for i in 0..N {
            scratch.span("bench.calibrate", None, u64::from(i), |_| ());
        }
        let per_span_s = t.elapsed().as_secs_f64() / f64::from(N);
        100.0 * per_span_s * spans as f64 / wall_s
    }
}

/// The spans as a Chrome trace-event array of complete (`"ph": "X"`) events.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
             \"tag\": {}, \"workload\": {}}}}}{}\n",
            quote(s.name),
            quote(s.layer()),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.tag,
            quote(workload),
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

/// Per-layer totals: (span count, total ns, self ns).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let e = layers.entry(s.layer()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(*children);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_export_parses() {
        let t = Tracer::new(true);
        t.span("bench.rep", None, 0, |p| {
            t.span("core.louvain_gpu", p, 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(&spans);
        let (n, total, own) = st["bench"];
        assert_eq!(n, 1);
        assert!(own < total && own + spans[1].dur_ns() == total);
        let v = crate::json::parse(&chrome_json(&spans, "solve-web")).unwrap();
        assert_eq!(v.as_array().len(), 2);
        assert_eq!(v.as_array()[1].get("cat").unwrap().as_str(), Some("core"));

        let off = Tracer::new(false);
        assert_eq!(off.span("core.x", None, 0, |p| p), None);
        assert!(off.spans().is_empty());
    }
}
