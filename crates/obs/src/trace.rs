//! Trace export: render recorded telemetry for offline analysis.
//!
//! Two consumers, two formats:
//!
//! - [`chrome_trace`] renders span records and `par_map` worker stats as
//!   Chrome trace-event JSON (the `traceEvents` array format), loadable
//!   in Perfetto or `chrome://tracing`. Spans appear under a `spans`
//!   process with one lane per recording thread; every `par_map`
//!   invocation gets its own process with one lane per worker thread, so
//!   queue convoys and straggler cells are visible at a glance.
//! - [`collapsed_stacks`] renders self-time attribution in the collapsed
//!   stack format `path;to;span <microseconds>` that `flamegraph.pl`,
//!   `inferno-flamegraph`, and speedscope all accept.
//!
//! Both are pure functions over already-recorded data — exporting a trace
//! can never perturb the run it describes (the run is over by then).

use std::io;
use std::path::Path;

use crate::json::Json;
use crate::par::ParStats;
use crate::span::{self, SpanRecord};

/// Process id used for span lanes in the trace.
const SPAN_PID: u64 = 1;
/// First process id used for `par_map` invocation lanes; invocation `k`
/// gets `PAR_PID_BASE + k`.
const PAR_PID_BASE: u64 = 100;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn meta(name: &str, pid: u64, tid: u64, value: &str) -> Json {
    let mut args = Json::obj();
    args.set("name", value);
    let mut e = Json::obj();
    e.set("name", name);
    e.set("ph", "M");
    e.set("pid", pid);
    e.set("tid", tid);
    e.set("args", args);
    e
}

/// Render spans plus `par_map` statistics as a Chrome trace-event
/// document: `{"traceEvents": [...], "displayTimeUnit": "ms"}` with
/// complete (`ph: "X"`) events whose `ts`/`dur` are microseconds since
/// the process clock origin.
pub fn chrome_trace(records: &[SpanRecord], par: &[ParStats]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(records.len() + 16);

    // Span lanes: one per recording thread.
    events.push(meta("process_name", SPAN_PID, 0, "spans"));
    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("thread-{tid}")
        };
        events.push(meta("thread_name", SPAN_PID, tid, &label));
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

    // One process per par_map invocation, one lane per worker thread.
    for (k, stats) in par.iter().enumerate() {
        let pid = PAR_PID_BASE + k as u64;
        events.push(meta(
            "process_name",
            pid,
            0,
            &format!("par:{}", stats.label),
        ));
        for w in 0..stats.workers.len() {
            events.push(meta("thread_name", pid, w as u64, &format!("worker-{w}")));
        }
        for c in &stats.cells {
            let mut args = Json::obj();
            args.set("index", c.index);
            args.set("wait_s", c.wait_s);
            let mut e = Json::obj();
            e.set("name", format!("item {}", c.index));
            e.set("cat", "par");
            e.set("ph", "X");
            e.set("ts", us(stats.start_s + c.wait_s));
            e.set("dur", us(c.exec_s));
            e.set("pid", pid);
            e.set("tid", c.worker);
            e.set("args", args);
            events.push(e);
        }
    }

    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", "ms");
    doc
}

/// Render self-time attribution in collapsed-stack format: one line per
/// distinct span path, `a;b;c <self-µs>`, summed over all occurrences and
/// sorted by path. Paths whose rounded self time is zero are dropped
/// (flamegraph tooling treats the value as a sample count; zero-weight
/// frames only add noise).
pub fn collapsed_stacks(records: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    let selfs = span::self_times(records);
    let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
    for (r, &s) in records.iter().zip(selfs.iter()) {
        let v = us(s).round() as u64;
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

/// Snapshot all recorded spans and `par_map` stats and write a Chrome
/// trace-event file (compact JSON — traces get large).
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    let doc = chrome_trace(&span::records(), &crate::par::snapshot());
    std::fs::write(path, doc.to_string() + "\n")
}

/// Snapshot all recorded spans and write a collapsed-stack profile.
pub fn write_collapsed(path: &Path) -> io::Result<()> {
    std::fs::write(path, collapsed_stacks(&span::records()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{ParCell, ParWorker};

    fn rec(path: &str, start_s: f64, dur_s: f64, tid: u64) -> SpanRecord {
        SpanRecord {
            path: path.into(),
            detail: if path.contains("cell") {
                "k=v".into()
            } else {
                String::new()
            },
            start_s,
            dur_s,
            tid,
        }
    }

    fn sample_par() -> ParStats {
        ParStats {
            label: "grid".into(),
            threads: 2,
            start_s: 1.0,
            wall_s: 3.0,
            cells: vec![
                ParCell {
                    index: 0,
                    wait_s: 0.0,
                    exec_s: 1.0,
                    worker: 0,
                },
                ParCell {
                    index: 1,
                    wait_s: 0.5,
                    exec_s: 2.0,
                    worker: 1,
                },
            ],
            workers: vec![
                ParWorker {
                    busy_s: 1.0,
                    items: 1,
                },
                ParWorker {
                    busy_s: 2.0,
                    items: 1,
                },
            ],
        }
    }

    #[test]
    fn trace_events_have_required_fields() {
        let records = vec![rec("study", 0.0, 10.0, 0), rec("study>cell", 1.0, 2.0, 0)];
        let doc = chrome_trace(&records, &[sample_par()]);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "M"), "only complete + metadata events");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if ph == "X" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn trace_round_trips_through_the_parser() {
        let records = vec![rec("a", 0.0, 1.0, 0), rec("a>cell", 0.25, 0.5, 0)];
        let doc = chrome_trace(&records, &[]);
        let back = Json::parse(&doc.to_string()).expect("trace parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn par_invocations_get_one_lane_per_worker() {
        let stats = sample_par();
        let doc = chrome_trace(&[], std::slice::from_ref(&stats));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mut lanes: Vec<u64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("par"))
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), stats.workers.len(), "one lane per worker");
        // item 1 starts at invocation start + its queue wait
        let item1 = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("item 1"))
            .unwrap();
        assert!((item1.get("ts").and_then(Json::as_f64).unwrap() - us(1.5)).abs() < 1e-6);
        assert!((item1.get("dur").and_then(Json::as_f64).unwrap() - us(2.0)).abs() < 1e-6);
    }

    #[test]
    fn collapsed_stacks_sum_self_time_per_path() {
        let records = vec![
            rec("a", 0.0, 10.0, 0),
            rec("a>b", 1.0, 3.0, 0),
            rec("a>b", 5.0, 3.0, 0),
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
        let records = vec![rec("p", 0.0, 2.0, 0), rec("p>q", 0.0, 2.0, 0)];
        let text = collapsed_stacks(&records);
        assert_eq!(text, "p;q 2000000\n");
    }
}
