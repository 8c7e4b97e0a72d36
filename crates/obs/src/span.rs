//! Hierarchical wall-clock spans.
//!
//! A [`Span`] is an RAII guard: opening pushes a frame on a thread-local
//! stack (so log events carry their span path), dropping records the
//! duration into a global table the manifest serializes. Spans opened on a
//! worker thread root at that thread — the experiments' `cell` spans nest
//! `generate`/`scan`/`dealias` underneath themselves, not under the main
//! thread's `study` span.
//!
//! Each span measures its own self time: a frame sums the durations of
//! the children that close under it, and the span records its duration
//! minus that sum when it closes. A child on another thread has a stack
//! of its own, so its opener keeps that time as self time.
//!
//! Timings are observational only: nothing reads them back into the
//! pipeline, so instrumented runs stay bit-identical to bare ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

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
    /// Exclusive seconds: `dur_s` minus the durations of the spans that
    /// closed directly under this one on its thread (clamped at 0).
    pub self_s: f64,
    /// Compact id of the thread that ran the span (0 = first thread that
    /// recorded anything; trace export maps each id to a timeline lane).
    pub tid: u64,
}

/// Aggregate statistics over all occurrences of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanAgg {
    /// Number of occurrences.
    pub count: u64,
    /// Total seconds across occurrences (inclusive of child spans).
    pub total_s: f64,
    /// Fastest occurrence.
    pub min_s: f64,
    /// Slowest occurrence.
    pub max_s: f64,
    /// Exclusive ("self") seconds: the sum of the occurrences' `self_s`.
    /// This is the number that ranks hot paths — a parent that only
    /// dispatches has near-zero self time however long it runs.
    pub self_s: f64,
}

/// One open span on a thread's stack.
struct Frame {
    start_s: f64,
    /// Summed durations of the children that closed under this span.
    children_s: f64,
    /// Where this span's segment (and its `>`) starts in the path.
    name_at: usize,
}

/// A thread's open spans and their `>`-joined path.
struct Stack {
    path: String,
    frames: Vec<Frame>,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack { path: String::new(), frames: Vec::new() })
    };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Compact id of the calling thread, assigned on first use in span order.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// RAII span guard; created by [`span`] / [`span_detail`]. It closes the
/// top frame of its thread's stack, so it cannot leave the thread.
#[derive(Debug)]
pub struct Span {
    detail: String,
    _same_thread: PhantomData<*const ()>,
}

/// Open a span named `name` under the current thread's span stack.
pub fn span(name: &'static str) -> Span {
    span_detail(name, String::new())
}

/// Open a span with instance detail (rendered in logs and kept verbatim in
/// the manifest's span records).
pub fn span_detail(name: &'static str, detail: impl Into<String>) -> Span {
    let detail = detail.into();
    STACK.with(|s| {
        let s = &mut *s.borrow_mut();
        let name_at = s.path.len();
        if name_at > 0 {
            s.path.push('>');
        }
        s.path.push_str(name);
        s.frames.push(Frame {
            start_s: crate::now_s(),
            children_s: 0.0,
            name_at,
        });
    });
    if enabled(Level::Debug) {
        if detail.is_empty() {
            crate::debug!("▶ open");
        } else {
            crate::debug!("▶ open [{detail}]");
        }
    }
    Span {
        detail,
        _same_thread: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_s = crate::now_s();
        // A span never leaves its thread, so its frame is the top one.
        let Some((record, name_at)) = STACK.with(|s| {
            let s = &mut *s.borrow_mut();
            let frame = s.frames.pop()?;
            let dur_s = end_s - frame.start_s;
            if let Some(parent) = s.frames.last_mut() {
                parent.children_s += dur_s;
            }
            let record = SpanRecord {
                path: s.path.clone(),
                detail: std::mem::take(&mut self.detail),
                start_s: frame.start_s,
                dur_s,
                self_s: (dur_s - frame.children_s).max(0.0),
                tid: thread_id(),
            };
            Some((record, frame.name_at))
        }) else {
            return;
        };
        if enabled(Level::Debug) {
            if record.detail.is_empty() {
                crate::debug!("◀ close in {:.3}s", record.dur_s);
            } else {
                crate::debug!("◀ close [{}] in {:.3}s", record.detail, record.dur_s);
            }
        }
        STACK.with(|s| s.borrow_mut().path.truncate(name_at));
        // A push leaves the table whole even if a holder panicked.
        let mut records = RECORDS.lock().unwrap_or_else(PoisonError::into_inner);
        records.push(record);
    }
}

/// The current thread's span path, `>`-joined (empty outside any span).
pub fn current_path() -> String {
    STACK.with(|s| s.borrow().path.clone())
}

/// Copy of every span recorded so far, in completion order.
pub fn records() -> Vec<SpanRecord> {
    RECORDS.lock().expect("span records").clone()
}

/// Aggregate recorded spans by path.
pub fn aggregate() -> BTreeMap<String, SpanAgg> {
    let mut out: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for r in records() {
        let e = out.entry(r.path).or_insert(SpanAgg {
            min_s: f64::INFINITY,
            ..SpanAgg::default()
        });
        e.count += 1;
        e.total_s += r.dur_s;
        e.min_s = e.min_s.min(r.dur_s);
        e.max_s = e.max_s.max(r.dur_s);
        e.self_s += r.self_s;
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

    /// This thread's records whose path starts with `prefix`, in
    /// completion order.
    fn recorded(prefix: &str) -> Vec<SpanRecord> {
        let tid = thread_id();
        records()
            .into_iter()
            .filter(|r| r.path.starts_with(prefix) && r.tid == tid)
            .collect()
    }

    fn sleep_ms(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        {
            let _a = span("self3_a");
            for _ in 0..2 {
                let _b = span("self3_b");
                let _c = span("self3_c");
                sleep_ms(1);
            }
        }
        let r = recorded("self3_a");
        let paths: Vec<&str> = r.iter().map(|r| r.path.as_str()).collect();
        let (c, b) = ("self3_a>self3_b>self3_c", "self3_a>self3_b");
        assert_eq!(paths, [c, b, c, b, "self3_a"], "children close first");
        for leaf in [&r[0], &r[2]] {
            assert_eq!(
                leaf.self_s, leaf.dur_s,
                "a leaf's self time is its duration"
            );
        }
        for (child, parent) in [(&r[0], &r[1]), (&r[2], &r[3])] {
            assert_eq!(parent.self_s, (parent.dur_s - child.dur_s).max(0.0));
        }
        // The root subtracts both b instances and not their c grandchildren.
        let a = &r[4];
        assert_eq!(a.self_s, (a.dur_s - (r[1].dur_s + r[3].dur_s)).max(0.0));
        assert!(a.self_s < a.dur_s - 0.002, "both b instances slept under a");
    }

    #[test]
    fn self_time_ignores_other_threads() {
        {
            let _opener = span("selfthread_opener");
            std::thread::spawn(|| {
                let _w = span("selfthread_worker");
                sleep_ms(2);
                assert_eq!(
                    current_path(),
                    "selfthread_worker",
                    "rooted on its own thread"
                );
            })
            .join()
            .unwrap();
        }
        let opener = &recorded("selfthread_opener")[0];
        let worker = records()
            .into_iter()
            .find(|r| r.path == "selfthread_worker")
            .unwrap();
        assert_ne!(worker.tid, opener.tid);
        assert!(opener.dur_s >= worker.dur_s);
        assert_eq!(
            opener.self_s, opener.dur_s,
            "the worker's time stays the opener's"
        );
    }

    #[test]
    fn self_time_subtracts_a_one_worker_par_maps_inline_children() {
        {
            let _p = span("selfpar_parent");
            crate::par::par_map(vec![1, 2, 1], 1, |_, ms| {
                let _item = span("selfpar_item");
                sleep_ms(ms);
            });
        }
        let r = recorded("selfpar_parent");
        let (items, parent) = r.split_at(3);
        assert!(items
            .iter()
            .all(|i| i.path == "selfpar_parent>selfpar_item"));
        let children = items.iter().fold(0.0, |sum, i| sum + i.dur_s);
        assert_eq!(parent[0].self_s, (parent[0].dur_s - children).max(0.0));
        assert!(
            parent[0].self_s < parent[0].dur_s - 0.004,
            "the items ran inline"
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
