//! Trace export against *real* recorded telemetry: spans created through
//! the public [`sos_obs::span`] API on multiple threads, exported with
//! [`sos_obs::trace::write_chrome_trace`], and read back through
//! [`Json::parse`]. The unit tests in `trace.rs` use hand-built records;
//! this file proves the whole loop — record → export → parse → validate —
//! holds for telemetry the instrumentation layer actually produces.

use sos_obs::json::Json;
use sos_obs::trace;

/// Record a realistic span tree: an outer phase with two inner phases on
/// the main thread, plus one span on a second thread.
fn record_spans() {
    let _outer = sos_obs::span("e2e_outer");
    {
        let _inner = sos_obs::span_detail("e2e_first", "k=1".to_string());
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    {
        let _inner = sos_obs::span("e2e_second");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    std::thread::spawn(|| {
        let _w = sos_obs::span("e2e_worker_side");
        std::thread::sleep(std::time::Duration::from_millis(2));
    })
    .join()
    .expect("worker thread");
}

/// Export the global telemetry to a temp file and parse it back.
fn exported() -> Json {
    let path = std::env::temp_dir().join(format!("sos_obs_trace_e2e_{}.json", std::process::id()));
    trace::write_chrome_trace(&path).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    Json::parse(&text).expect("trace file is valid JSON")
}

fn span_events(doc: &Json) -> Vec<&Json> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("span"))
        .collect()
}

#[test]
fn real_run_exports_a_valid_nested_trace() {
    record_spans();
    let doc = exported();

    // Every recorded span made it out, with its full path in args.
    let spans = span_events(&doc);
    let paths: Vec<&str> = spans
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("path"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(
        paths.contains(&"e2e_outer"),
        "outer span exported: {paths:?}"
    );
    assert!(
        paths.contains(&"e2e_outer>e2e_first"),
        "nesting encoded in path"
    );
    assert!(paths.contains(&"e2e_outer>e2e_second"));
    assert!(paths.contains(&"e2e_worker_side"), "thread spans are roots");

    // Spans nest: every child interval lies inside its parent's interval,
    // on the same lane.
    let find = |path: &str| {
        spans
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Json::as_str)
                    == Some(path)
            })
            .copied()
            .unwrap_or_else(|| panic!("span {path} present"))
    };
    let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).expect("ts");
    let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).expect("dur");
    let tid = |e: &Json| e.get("tid").and_then(Json::as_u64).expect("tid");
    let outer = find("e2e_outer");
    for child in ["e2e_outer>e2e_first", "e2e_outer>e2e_second"] {
        let c = find(child);
        assert_eq!(tid(c), tid(outer), "{child} on the parent's lane");
        assert!(ts(c) >= ts(outer), "{child} starts after parent");
        assert!(
            ts(c) + dur(c) <= ts(outer) + dur(outer) + 1.0,
            "{child} ends inside parent"
        );
    }
    // The two inner phases ran sequentially: no overlap on the lane.
    let (a, b) = (find("e2e_outer>e2e_first"), find("e2e_outer>e2e_second"));
    assert!(ts(a) + dur(a) <= ts(b) + 1.0, "siblings do not overlap");
    // The worker-thread span landed on a different lane.
    assert_ne!(tid(find("e2e_worker_side")), tid(outer));
    // Detail text survives export.
    assert_eq!(
        find("e2e_outer>e2e_first")
            .get("args")
            .and_then(|a| a.get("detail"))
            .and_then(Json::as_str),
        Some("k=1")
    );
}
