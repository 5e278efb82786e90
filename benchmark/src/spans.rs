//! In-memory spans recorded from the benchmark's own code, around the
//! calls into each layer's public functions.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`: `parent` is the
//! index of the span that caused it and `req` the pass (or install)
//! index all spans of one request share. The store is allocated once,
//! before the traced window, and written out when the run ends.

use std::time::Instant;

use sailfish_util::json::Json;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `batch.execute`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while still open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request identifier: pass index, or install index on `churn`.
    pub req: u32,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span store. Spans past the capacity are dropped and
/// counted, never reallocated into — recording must not allocate inside
/// a timed window.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. Returns `None` (and counts a drop) when full.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u32,
    ) -> Option<SpanId> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Closes a span now and returns its duration in ns.
    pub fn end(&mut self, id: Option<SpanId>) -> u64 {
        let now = self.now_ns();
        match id.and_then(|i| self.spans.get_mut(i as usize)) {
            Some(span) => {
                span.end_ns = now;
                span.duration_ns()
            }
            None => 0,
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans in (a second thread's store),
    /// re-basing their times and parent links onto this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = span.parent.and_then(|p| children.get_mut(p as usize)) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, span.end_ns.max(cursor));
                let end = end.clamp(start, span.end_ns.max(start));
                covered += end - start;
                cursor = cursor.max(end);
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total duration and total self time per span name, in first-seen
/// order: `(name, spans, duration_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => rows.push((span.name, 1, span.duration_ns(), self_ns)),
        }
    }
    rows
}

/// The trace file body: every span, then the per-name roll-up.
pub fn to_json(spans: &[Span], dropped: u64) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, self_ns)| {
            Json::Object(vec![
                ("name".to_string(), Json::from(s.name)),
                ("start_ns".to_string(), num(s.start_ns)),
                ("end_ns".to_string(), num(s.end_ns)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| num(u64::from(p))),
                ),
                ("req".to_string(), num(u64::from(s.req))),
                ("self_ns".to_string(), num(*self_ns)),
            ])
        })
        .collect();
    let summary = by_name(spans)
        .into_iter()
        .map(|(name, count, dur, self_ns)| {
            Json::Object(vec![
                ("name".to_string(), Json::from(name)),
                ("spans".to_string(), num(count)),
                ("duration_ns".to_string(), num(dur)),
                ("self_ns".to_string(), num(self_ns)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("dropped_spans".to_string(), num(dropped)),
        ("by_name".to_string(), Json::Array(summary)),
        ("spans".to_string(), Json::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("batch.execute", 10, 60, Some(0)),
            span("batch.finish", 60, 90, Some(0)),
            // Overlaps execute: the shared 20 ns must not count twice.
            span("overlap", 40, 70, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 40, 30, 30, 10]);
        let rows = by_name(&spans);
        assert_eq!(rows.first(), Some(&("pass", 1, 100, 20)));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    #[test]
    fn recorder_drops_past_capacity_and_never_grows() {
        let mut rec = Recorder::with_capacity(2);
        let a = rec.begin("a", None, 0);
        let b = rec.begin("b", a, 0);
        let c = rec.begin("c", a, 0);
        assert!(a.is_some() && b.is_some() && c.is_none());
        rec.end(b);
        rec.end(a);
        assert_eq!(rec.end(c), 0);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.spans().len(), 2);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
