//! In-memory spans around the layer calls the benchmark makes.
//!
//! A traced run wraps every call into a layer (`Session::apply`,
//! `MoqoServer::submit`, `SnapshotStore::save`, ...) in
//! a span: name, start, end, parent span and session id. Spans stay in
//! memory until the run ends, then go to a JSON-lines file. A span's self
//! time is its duration minus the part its children cover. An untraced
//! tracer records nothing and costs one branch per call.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within the run (0 is "no span").
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// The benchmark session the call served.
    pub session: u64,
    /// Layer boundary, one of [`crate::metrics::SPANS`].
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while open).
    pub end: u64,
}

/// A per-thread span recorder. Ids are `thread_tag << 48 | n`, so the
/// spans of several threads merge without clashes.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
    /// Index in `spans` of each open span id.
    open: HashMap<u64, usize>,
}

impl Tracer {
    /// A tracer for one thread; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread_tag: u64) -> Self {
        Self {
            on,
            epoch,
            tag: thread_tag << 48,
            next: 0,
            spans: Vec::new(),
            open: HashMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (0 when tracing is off).
    pub fn open(&mut self, name: &'static str, session: u64, parent: u64) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = self.tag | self.next;
        let start = self.now();
        self.open.insert(id, self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            session,
            name,
            start,
            end: 0,
        });
        id
    }

    /// Closes the span `id` (no-op for 0).
    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.remove(&id) {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        session: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, session, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Hands over the closed spans (open ones are dropped).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_iter().filter(|s| s.end != 0).collect()
    }
}

/// Total self time per span name, in ms: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times_ms(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.session, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.session", 0, 100),
            span(2, 1, "core.apply", 10, 30),
            span(3, 1, "core.apply", 20, 50),
            span(4, 1, "core.apply", 90, 120),
        ];
        let t = self_times_ms(&spans);
        // Children cover [10, 50) and [90, 100): 50 of the 100 ns.
        assert!((t["bench.session"] - 50e-6).abs() < 1e-12);
        assert!((t["core.apply"] - (20e-6 + 30e-6 + 30e-6)).abs() < 1e-12);
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.span("core.apply", 1, 0, || 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
