//! The benchmark's own in-memory span recorder.
//!
//! Spans are opened from benchmark code around each public call into a
//! layer, kept in memory, and written out when the traced run ends. The
//! recorder is per-thread and off by default; untraced runs record nothing.
//! A span's *self time* is its duration minus the part of it its child
//! spans cover — the time the layer itself was busy.

use std::cell::RefCell;
use std::time::Instant;

use sos_obs::Json;

/// One closed span. `parent` is the span that was open on this thread when
/// this one started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Switch recording on (fresh clock origin) or off for this thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().origin = on.then(Instant::now));
}

/// Closes its span when dropped. Inert while recording is off.
#[must_use = "a span measures until its guard is dropped"]
pub struct Guard(Option<u32>);

/// Open a span under the innermost open one.
pub fn span(name: impl Into<String>) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(origin) = r.origin else {
            return Guard(None);
        };
        let id = r.spans.len() as u32;
        let now = origin.elapsed().as_micros() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_us: now,
            end_us: now,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            // Recording may have been switched off with spans still open;
            // they keep a zero duration.
            let Some(origin) = r.origin else { return };
            let now = origin.elapsed().as_micros() as u64;
            r.spans[id as usize].end_us = now; // ids index `spans` by construction
            r.open.retain(|&open| open != id);
        });
    }
}

/// Run `f` inside a span named `name`.
pub fn in_span<T>(name: impl Into<String>, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Remove and return every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span, in microseconds, index-aligned with `spans`
/// (which must be a complete [`take`] so that ids index it).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) else {
            continue;
        };
        // Only the part of the child inside the parent's interval counts.
        let covered = s
            .end_us
            .min(parent.end_us)
            .saturating_sub(s.start_us.max(parent.start_us));
        let slot = &mut own[parent.id as usize]; // parent came from spans.get(id)
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Durations (seconds) of every span named `name`, in recording order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .collect()
}

/// Total duration (seconds) of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    durations_s(spans, name).iter().sum()
}

/// Total self time (seconds) of every span named `name`.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    let own = self_times_us(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, us)| us as f64 / 1e6)
        .sum()
}

/// The trace document written to `out/trace.<workload>.json`.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times_us(spans);
    let rows: Vec<Json> = spans
        .iter()
        .zip(own)
        .map(|(s, self_us)| {
            let mut row = Json::obj();
            row.set("id", u64::from(s.id));
            match s.parent {
                Some(p) => row.set("parent", u64::from(p)),
                None => row.set("parent", Json::Null),
            };
            row.set("name", s.name.as_str());
            row.set("workload", workload);
            row.set("start_us", s.start_us);
            row.set("end_us", s.end_us);
            row.set("self_us", self_us);
            row
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("workload", workload);
    doc.set("spans", rows);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &str, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren_twice() {
        let spans = vec![
            sp(0, None, "cell", 0, 100),
            sp(1, Some(0), "gen", 10, 40),
            sp(2, Some(0), "scan", 40, 90),
            sp(3, Some(2), "dealias", 50, 70),
        ];
        assert_eq!(self_times_us(&spans), vec![20, 30, 30, 20]);
        assert!((self_s(&spans, "cell") - 20e-6).abs() < 1e-12);
        assert!((total_s(&spans, "scan") - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn a_child_outliving_its_parent_only_counts_inside_it() {
        let spans = vec![sp(0, None, "p", 0, 50), sp(1, Some(0), "c", 40, 80)];
        assert_eq!(self_times_us(&spans), vec![40, 40]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        set_enabled(false);
        drop(span("ignored"));
        assert!(take().is_empty());

        set_enabled(true);
        {
            let _outer = span("outer");
            in_span("inner", || std::hint::black_box(1 + 1));
            in_span("inner", || ());
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[2].end_us <= spans[0].end_us);
        assert_eq!(durations_s(&spans, "inner").len(), 2);
        assert!(take().is_empty(), "take drains");
    }

    #[test]
    fn trace_document_carries_every_span_field() {
        let doc = to_json("w", &[sp(0, None, "a", 1, 5), sp(1, Some(0), "b", 2, 3)]);
        let rows = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[0].get("self_us").and_then(Json::as_u64), Some(3));
        assert_eq!(rows[1].get("workload").and_then(Json::as_str), Some("w"));
    }
}
