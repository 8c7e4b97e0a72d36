//! Trace export: render recorded telemetry for offline analysis.
//!
//! Two consumers, two formats:
//!
//! - [`chrome_trace`] renders span records as Chrome trace-event JSON
//!   (the `traceEvents` array format), loadable in Perfetto or
//!   `chrome://tracing`. Spans appear under one `spans` process with one
//!   lane per recording thread, so a fan-out's workers are the lanes its
//!   `cell` or `scan_shard` spans land on, and straggler cells are
//!   visible at a glance.
//! - [`collapsed_stacks`] sums the self time spans recorded at close, per
//!   path, in the collapsed stack format `path;to;span <microseconds>` that
//!   `flamegraph.pl`, `inferno-flamegraph`, and speedscope all accept.
//!
//! Both are pure functions over already-recorded data — exporting a trace
//! can never perturb the run it describes (the run is over by then).

use std::io;
use std::path::Path;

use crate::json::Json;
use crate::span::{self, SpanRecord};

/// Process id used for span lanes in the trace.
const SPAN_PID: u64 = 1;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn meta(name: &str, tid: u64, value: &str) -> Json {
    let mut args = Json::obj();
    args.set("name", value);
    let mut e = Json::obj();
    e.set("name", name);
    e.set("ph", "M");
    e.set("pid", SPAN_PID);
    e.set("tid", tid);
    e.set("args", args);
    e
}

/// Render spans as a Chrome trace-event document: `{"traceEvents":
/// [...], "displayTimeUnit": "ms"}` with one complete (`ph: "X"`) event
/// per record, whose `ts`/`dur` are microseconds since the process clock
/// origin, plus one metadata (`ph: "M"`) event naming the process and one
/// naming each lane.
pub fn chrome_trace(records: &[SpanRecord]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(records.len() + 16);

    // Span lanes: one per recording thread.
    events.push(meta("process_name", 0, "spans"));
    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("thread-{tid}")
        };
        events.push(meta("thread_name", tid, &label));
    }
    for r in records {
        let name = r.path.rsplit('>').next().unwrap_or(&r.path);
        let mut args = Json::obj();
        args.set("path", r.path.as_str());
        if !r.detail.is_empty() {
            args.set("detail", r.detail.as_str());
        }
        let mut e = Json::obj();
        e.set("name", name);
        e.set("cat", "span");
        e.set("ph", "X");
        e.set("ts", us(r.start_s));
        e.set("dur", us(r.dur_s));
        e.set("pid", SPAN_PID);
        e.set("tid", r.tid);
        e.set("args", args);
        events.push(e);
    }

    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", "ms");
    doc
}

/// Render recorded self times in collapsed-stack format: one line per
/// distinct span path, `a;b;c <self-µs>`, summed over all occurrences and
/// sorted by path. Paths whose rounded self time is zero are dropped
/// (flamegraph tooling treats the value as a sample count; zero-weight
/// frames only add noise).
pub fn collapsed_stacks(records: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        let v = us(r.self_s).round() as u64;
        if v == 0 {
            continue;
        }
        *by_stack.entry(r.path.replace('>', ";")).or_default() += v;
    }
    let mut out = String::new();
    for (stack, v) in by_stack {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Snapshot all recorded spans and write a Chrome trace-event file
/// (compact JSON — traces get large).
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    let doc = chrome_trace(&span::records());
    std::fs::write(path, doc.to_string() + "\n")
}

/// Snapshot all recorded spans and write a collapsed-stack profile.
pub fn write_collapsed(path: &Path) -> io::Result<()> {
    std::fs::write(path, collapsed_stacks(&span::records()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, start_s: f64, dur_s: f64, self_s: f64, tid: u64) -> SpanRecord {
        SpanRecord {
            path: path.into(),
            detail: if path.contains("cell") {
                "k=v".into()
            } else {
                String::new()
            },
            start_s,
            dur_s,
            self_s,
            tid,
        }
    }

    #[test]
    fn trace_events_have_required_fields() {
        let records = vec![
            rec("study", 0.0, 10.0, 8.0, 0),
            rec("study>cell", 1.0, 2.0, 2.0, 0),
            rec("cell", 1.5, 2.0, 2.0, 3),
        ];
        let doc = chrome_trace(&records);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        let mut complete = 0;
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "M"), "only complete + metadata events");
            assert_eq!(e.get("pid").and_then(Json::as_u64), Some(SPAN_PID));
            assert!(e.get("tid").is_some());
            if ph == "X" {
                complete += 1;
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
        // One event per record, plus the process name and two lane names.
        assert_eq!((complete, events.len()), (records.len(), records.len() + 3));
    }

    #[test]
    fn trace_round_trips_through_the_parser() {
        let records = vec![rec("a", 0.0, 1.0, 0.5, 0), rec("a>cell", 0.25, 0.5, 0.5, 0)];
        let doc = chrome_trace(&records);
        let back = Json::parse(&doc.to_string()).expect("trace parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn collapsed_stacks_sum_self_time_per_path() {
        let records = vec![
            rec("a", 0.0, 10.0, 4.0, 0),
            rec("a>b", 1.0, 3.0, 2.5, 0),
            rec("a>b", 5.0, 3.0, 3.0, 0),
            rec("a>b", 8.5, 0.5, 0.5, 1),
        ];
        let text = collapsed_stacks(&records);
        let mut lines: Vec<(&str, u64)> = text
            .lines()
            .map(|l| {
                let (stack, v) = l.rsplit_once(' ').expect("stack value");
                (stack, v.parse().expect("integer µs"))
            })
            .collect();
        lines.sort();
        assert_eq!(lines, vec![("a", 4_000_000), ("a;b", 6_000_000)]);
    }

    #[test]
    fn zero_self_time_paths_are_dropped() {
        // parent fully covered by its child
        let records = vec![rec("p", 0.0, 2.0, 0.0, 0), rec("p>q", 0.0, 2.0, 2.0, 0)];
        let text = collapsed_stacks(&records);
        assert_eq!(text, "p;q 2000000\n");
    }
}
