//! Hierarchical wall-clock spans.
//!
//! A [`Span`] is an RAII guard: opening pushes a frame on a thread-local
//! stack (so log events carry their span path), dropping records the
//! duration into a global table the manifest serializes. Spans opened on a
//! worker thread root at that thread — the experiment grid's `cell` spans
//! nest `generate`/`scan`/`dealias` underneath themselves, not under the
//! main thread's `study` span.
//!
//! Timings are observational only: nothing reads them back into the
//! pipeline, so instrumented runs stay bit-identical to bare ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::log::{enabled, Level};

/// One completed span occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `>`-joined names from the thread's root span to this one.
    pub path: String,
    /// Free-form instance detail (e.g. `tga=6Tree port=ICMP`).
    pub detail: String,
    /// Start, seconds since process clock origin.
    pub start_s: f64,
    /// Wall-clock duration in seconds.
    pub dur_s: f64,
    /// Compact id of the thread that ran the span (0 = first thread that
    /// recorded anything; trace export maps each id to a timeline lane).
    pub tid: u64,
}

/// Aggregate statistics over all occurrences of one span path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanAgg {
    /// Number of occurrences.
    pub count: u64,
    /// Total seconds across occurrences (inclusive of child spans).
    pub total_s: f64,
    /// Fastest occurrence.
    pub min_s: f64,
    /// Slowest occurrence.
    pub max_s: f64,
    /// Exclusive ("self") seconds: total minus time spent in child spans.
    /// This is the number that ranks hot paths — a parent that only
    /// dispatches has near-zero self time however long it runs.
    pub self_s: f64,
}

thread_local! {
    static STACK: RefCell<Vec<(&'static str, String)>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Compact id of the calling thread, assigned on first use in span order.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// RAII span guard; created by [`span`] / [`span_detail`].
#[derive(Debug)]
pub struct Span {
    path: String,
    detail: String,
    start_s: f64,
}

/// Open a span named `name` under the current thread's span stack.
pub fn span(name: &'static str) -> Span {
    span_detail(name, String::new())
}

/// Open a span with instance detail (rendered in logs and kept verbatim in
/// the manifest's span records).
pub fn span_detail(name: &'static str, detail: impl Into<String>) -> Span {
    let detail = detail.into();
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push((name, detail.clone()));
        join_path(&s)
    });
    if enabled(Level::Debug) {
        if detail.is_empty() {
            crate::debug!("▶ open");
        } else {
            crate::debug!("▶ open [{detail}]");
        }
    }
    Span {
        path,
        detail,
        start_s: crate::now_s(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_s = crate::now_s() - self.start_s;
        if enabled(Level::Debug) {
            if self.detail.is_empty() {
                crate::debug!("◀ close in {:.3}s", dur_s);
            } else {
                crate::debug!("◀ close [{}] in {:.3}s", self.detail, dur_s);
            }
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        RECORDS.lock().expect("span records").push(SpanRecord {
            path: std::mem::take(&mut self.path),
            detail: std::mem::take(&mut self.detail),
            start_s: self.start_s,
            dur_s,
            tid: thread_id(),
        });
    }
}

fn join_path(stack: &[(&'static str, String)]) -> String {
    stack.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(">")
}

/// The current thread's span path, `>`-joined (empty outside any span).
pub fn current_path() -> String {
    STACK.with(|s| join_path(&s.borrow()))
}

/// Copy of every span recorded so far, in completion order.
pub fn records() -> Vec<SpanRecord> {
    RECORDS.lock().expect("span records").clone()
}

/// Exclusive ("self") seconds for each record: its duration minus the
/// durations of its direct children. A record is a direct child of the
/// innermost same-thread record whose path is one segment shorter, whose
/// name prefix matches, and whose interval contains it. Returned in the
/// same order as `records`; values are clamped at zero against float
/// rounding.
pub fn self_times(records: &[SpanRecord]) -> Vec<f64> {
    const EPS: f64 = 1e-9;
    let mut self_s: Vec<f64> = records.iter().map(|r| r.dur_s).collect();
    for (ci, c) in records.iter().enumerate() {
        let Some(cut) = c.path.rfind('>') else {
            continue;
        };
        let parent_path = &c.path[..cut];
        let c_end = c.start_s + c.dur_s;
        // Innermost (shortest) enclosing instance of the parent path on
        // the same thread: repeated instances of one path (grid cells)
        // are disambiguated by interval containment.
        let mut best: Option<usize> = None;
        for (pi, p) in records.iter().enumerate() {
            if pi == ci || p.tid != c.tid || p.path != parent_path {
                continue;
            }
            if p.start_s <= c.start_s + EPS && c_end <= p.start_s + p.dur_s + EPS {
                best = match best {
                    Some(b) if records[b].dur_s <= p.dur_s => Some(b),
                    _ => Some(pi),
                };
            }
        }
        if let Some(pi) = best {
            self_s[pi] -= c.dur_s;
        }
    }
    for s in &mut self_s {
        *s = s.max(0.0);
    }
    self_s
}

/// Aggregate recorded spans by path, including self-time attribution.
pub fn aggregate() -> BTreeMap<String, SpanAgg> {
    let records = records();
    let selfs = self_times(&records);
    let mut out: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for (r, &self_dur) in records.iter().zip(selfs.iter()) {
        let e = out.entry(r.path.clone()).or_insert(SpanAgg {
            count: 0,
            total_s: 0.0,
            min_s: f64::INFINITY,
            max_s: 0.0,
            self_s: 0.0,
        });
        e.count += 1;
        e.total_s += r.dur_s;
        e.min_s = e.min_s.min(r.dur_s);
        e.max_s = e.max_s.max(r.dur_s);
        e.self_s += self_dur;
    }
    out
}

/// Forget all recorded spans (test/reset support).
pub fn clear() {
    RECORDS.lock().expect("span records").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        {
            let _outer = span("outer_span_test");
            assert_eq!(current_path(), "outer_span_test");
            {
                let _inner = span_detail("inner_span_test", "k=v");
                assert_eq!(current_path(), "outer_span_test>inner_span_test");
            }
            assert_eq!(current_path(), "outer_span_test");
        }
        assert_eq!(current_path(), "");
        let recs: Vec<SpanRecord> = records()
            .into_iter()
            .filter(|r| r.path.contains("outer_span_test"))
            .collect();
        assert_eq!(recs.len(), 2, "inner closes first, then outer");
        assert_eq!(recs[0].path, "outer_span_test>inner_span_test");
        assert_eq!(recs[0].detail, "k=v");
        assert_eq!(recs[1].path, "outer_span_test");
        assert!(recs[1].dur_s >= recs[0].dur_s);
    }

    #[test]
    fn aggregate_groups_by_path() {
        for _ in 0..3 {
            let _s = span("agg_span_test");
        }
        let agg = aggregate();
        let a = agg.get("agg_span_test").expect("aggregated");
        assert!(a.count >= 3);
        assert!(a.min_s <= a.max_s);
        assert!(a.total_s >= a.max_s);
    }

    fn rec(path: &str, start_s: f64, dur_s: f64, tid: u64) -> SpanRecord {
        SpanRecord {
            path: path.into(),
            detail: String::new(),
            start_s,
            dur_s,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a [0,10] contains a>b [1,4] and a>b [5,8]; a>b>c [2,3] belongs
        // to the first b instance, not to a.
        let records = vec![
            rec("a", 0.0, 10.0, 0),
            rec("a>b", 1.0, 3.0, 0),
            rec("a>b>c", 2.0, 1.0, 0),
            rec("a>b", 5.0, 3.0, 0),
        ];
        let s = self_times(&records);
        assert!((s[0] - 4.0).abs() < 1e-9, "a: 10 - 3 - 3 = 4, got {}", s[0]);
        assert!((s[1] - 2.0).abs() < 1e-9, "first b: 3 - 1 = 2");
        assert!((s[2] - 1.0).abs() < 1e-9, "c is a leaf");
        assert!((s[3] - 3.0).abs() < 1e-9, "second b has no children");
    }

    #[test]
    fn self_time_ignores_other_threads() {
        let records = vec![rec("a", 0.0, 10.0, 0), rec("a>b", 1.0, 3.0, 1)];
        let s = self_times(&records);
        assert!(
            (s[0] - 10.0).abs() < 1e-9,
            "child on another thread is not ours"
        );
    }

    #[test]
    fn aggregate_reports_self_time() {
        {
            let _outer = span("selfagg_outer_test");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("selfagg_inner_test");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let agg = aggregate();
        let outer = agg.get("selfagg_outer_test").expect("outer aggregated");
        let inner = agg
            .get("selfagg_outer_test>selfagg_inner_test")
            .expect("inner");
        assert!(outer.self_s < outer.total_s, "outer excludes inner's time");
        assert!(
            (inner.self_s - inner.total_s).abs() < 1e-9,
            "leaf: self == total"
        );
        let sum = outer.self_s + inner.self_s;
        assert!(
            (sum - outer.total_s).abs() < 1e-3,
            "self times partition the root"
        );
    }

    #[test]
    fn records_carry_thread_ids() {
        let main_tid = thread_id();
        let worker_tid = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(main_tid, worker_tid, "each thread gets its own lane id");
        assert_eq!(thread_id(), main_tid, "ids are stable per thread");
    }

    #[test]
    fn spans_are_thread_rooted() {
        let _outer = span("root_thread_span_test");
        std::thread::spawn(|| {
            assert_eq!(current_path(), "", "fresh thread starts unnested");
            let _s = span("worker_span_test");
            assert_eq!(current_path(), "worker_span_test");
        })
        .join()
        .unwrap();
    }
}
