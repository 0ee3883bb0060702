//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span: name,
//! start, end, parent span and request id. Spans live in memory until the
//! run ends; [`Recorder::finish`] hands them over for the per-layer
//! summary and the JSON-lines dump. A disabled recorder takes no clock
//! readings and records nothing, so the untraced run pays one branch per
//! call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open span ids on this thread (innermost last) and the current
    /// request id.
    static CONTEXT: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    open: Option<(&'a Recorder, SpanRecord)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.0.last().copied();
            c.0.push(id);
            (parent, c.1)
        });
        let record = SpanRecord {
            id,
            parent,
            name,
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        SpanGuard {
            open: Some((self, record)),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Tag this thread's following spans with `request`.
    pub fn set_request(&self, request: u64) {
        if self.enabled {
            CONTEXT.with(|c| c.borrow_mut().1 = request);
        }
    }

    /// Add `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter lock")
                .entry(name)
                .or_default() += value;
        }
    }

    /// All spans in closing order, and the counters.
    pub fn finish(self) -> (Vec<SpanRecord>, BTreeMap<&'static str, f64>) {
        (
            self.spans.into_inner().expect("span lock"),
            self.counts.into_inner().expect("counter lock"),
        )
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((rec, mut record)) = self.open.take() else {
            return;
        };
        record.end_ns = rec.now_ns();
        CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            if let Some(pos) = c.0.iter().rposition(|&open| open == record.id) {
                c.0.truncate(pos);
            }
        });
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(record);
        }
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its children cover (overlapping children count
/// once, and a child's time outside its parent's interval is ignored).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Per span name: `(span count, summed self time in seconds)`.
pub fn self_time_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "s",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 10, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(1, None, 100, 200),
            // Two concurrent children overlapping in [120, 140).
            span(2, Some(1), 110, 140),
            span(3, Some(1), 120, 150),
            // A child that started before and ends after its parent.
            span(4, Some(1), 90, 105),
            span(5, Some(1), 190, 230),
        ];
        // Covered: [100,105) + [110,150) + [190,200) = 5 + 40 + 10.
        assert_eq!(self_times(&spans)[0], 45);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let rec = Recorder::new(true);
        rec.set_request(7);
        {
            let _outer = rec.span("outer");
            rec.time("inner", || ());
        }
        rec.count("events", 3.0);
        rec.count("events", 2.0);
        let (spans, counts) = rec.finish();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.request, outer.request), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(counts["events"], 5.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["inner"].0, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        rec.time("x", || ());
        rec.count("events", 1.0);
        let (spans, counts) = rec.finish();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
