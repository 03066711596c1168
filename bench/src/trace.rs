//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own files, around its
//! calls into the program's public functions: the program itself
//! carries no instrumentation for this benchmark. Each span has a
//! name, start and end (ns since the recorder was made), its parent
//! span and the request (sample) it belongs to. Spans stay in memory
//! and are written as JSONL when the run ends.

use crate::harness::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Tracer::span`] only runs its
/// closure, so untraced samples take no clock readings for it.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// (0 when tracing is off) so it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        // A unique id, not published data: Relaxed is enough.
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Durations in ns of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Total ns of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: u64) -> Option<u64> {
    let span = spans.iter().find(|s| s.id == id)?;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    Some(span.ns() - covered)
}

/// Write spans as JSONL, one object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("request", Json::Num(s.request as f64)),
            ("name", Json::Str(s.name.to_string())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Span counts by name, for the traced run's summary line.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, usize> {
    let mut map = BTreeMap::new();
    for s in spans {
        *map.entry(s.name).or_insert(0) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        let root = tracer.span("root", 0, 7, |id| {
            tracer.span("child", id, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
            id
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let child = spans
            .iter()
            .find(|s| s.name == "child")
            .expect("child span");
        assert_eq!(child.parent, root);
        assert_eq!(child.request, 7);
        let root_span = spans.iter().find(|s| s.id == root).expect("root span");
        let own = self_ns(&spans, root).expect("root self time");
        assert_eq!(own, root_span.ns() - child.ns());
        assert!(own >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("x", 0, 0, |id| id), 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn overlapping_children_count_once() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        };
        let spans = vec![mk(1, 0, 0, 100), mk(2, 1, 10, 50), mk(3, 1, 30, 70)];
        assert_eq!(self_ns(&spans, 1), Some(40));
    }
}
