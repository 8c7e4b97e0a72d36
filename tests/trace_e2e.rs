//! End-to-end trace export: run the real `seedscan` binary on a tiny
//! study with `--trace`, `--flame`, and `--manifest`, then validate the
//! artifacts against each other — the trace parses as trace-event JSON,
//! spans nest properly on their lanes, the grid's cells and model fits
//! run inside the `grid` span on no more lanes than its `threads=`, and
//! the trace holds one event per span the manifest counts.

use std::collections::BTreeSet;
use std::path::PathBuf;

use sos_obs::Json;

struct Artifacts {
    trace: Json,
    manifest: Json,
    flame: String,
}

fn run_seedscan() -> Artifacts {
    let dir = std::env::temp_dir().join(format!("sos_trace_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| -> PathBuf { dir.join(name) };
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args([
            "rq1",
            "--scale",
            "tiny",
            "--threads",
            "2",
            "--budget",
            "300",
        ])
        .arg("--trace")
        .arg(path("trace.json"))
        .arg("--flame")
        .arg(path("flame.txt"))
        .arg("--manifest")
        .arg(path("manifest.json"))
        .output()
        .expect("run seedscan");
    assert!(
        out.status.success(),
        "seedscan failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| std::fs::read_to_string(path(name)).expect(name);
    let arts = Artifacts {
        trace: Json::parse(&read("trace.json")).expect("trace parses"),
        manifest: Json::parse(&read("manifest.json")).expect("manifest parses"),
        flame: read("flame.txt"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    arts
}

#[test]
fn seedscan_trace_is_valid_and_consistent_with_the_manifest() {
    let arts = run_seedscan();
    let events = arts
        .trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(
        arts.trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );

    let f = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap();
    fn s<'a>(e: &'a Json, k: &str) -> Option<&'a str> {
        e.get(k).and_then(Json::as_str)
    }

    // --- spans: present, well-formed, and nested ---
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| s(e, "cat") == Some("span"))
        .collect();
    assert!(!spans.is_empty(), "a real run records spans");
    fn path_of(e: &Json) -> &str {
        e.get("args")
            .and_then(|a| a.get("path"))
            .and_then(Json::as_str)
            .expect("path arg")
    }
    for e in &spans {
        assert_eq!(s(e, "ph"), Some("X"));
        assert!(f(e, "dur") >= 0.0);
        // the event name is the last path segment
        assert_eq!(s(e, "name"), path_of(e).rsplit('>').next());
    }
    // the study build's phase structure shows up as nested paths, and each
    // child's interval lies within some same-lane parent instance
    let child_paths: Vec<&str> = spans
        .iter()
        .map(|e| path_of(e))
        .filter(|p| p.contains('>'))
        .collect();
    assert!(
        child_paths.contains(&"study_build>world_build"),
        "{child_paths:?}"
    );
    let mut checked = 0;
    for c in &spans {
        let p = path_of(c);
        let Some(cut) = p.rfind('>') else { continue };
        let parent = &p[..cut];
        let enclosed = spans.iter().any(|q| {
            path_of(q) == parent
                && q.get("tid") == c.get("tid")
                && f(q, "ts") <= f(c, "ts") + 1.0
                && f(c, "ts") + f(c, "dur") <= f(q, "ts") + f(q, "dur") + 1.0
        });
        assert!(enclosed, "span {p} has no enclosing parent instance");
        checked += 1;
    }
    assert!(checked > 0, "at least one nested span was validated");

    // --- the grid's width is its span's: cells inside it, on <= threads lanes ---
    let grid: Vec<&&Json> = spans.iter().filter(|e| path_of(e) == "grid").collect();
    assert_eq!(grid.len(), 1, "rq1 runs one grid");
    let grid = grid[0];
    let detail = grid
        .get("args")
        .and_then(|a| a.get("detail"))
        .and_then(Json::as_str);
    assert!(
        detail.is_some_and(|d| d.split(' ').any(|kv| kv == "threads=2")),
        "{detail:?}"
    );
    let cells: Vec<&&Json> = spans.iter().filter(|e| path_of(e) == "cell").collect();
    assert!(!cells.is_empty(), "the grid records its cells");
    for c in &cells {
        assert!(
            f(grid, "ts") <= f(c, "ts") + 1.0
                && f(c, "ts") + f(c, "dur") <= f(grid, "ts") + f(grid, "dur") + 1.0,
            "a cell outside the grid span"
        );
    }
    let tid = |e: &Json| e.get("tid").and_then(Json::as_u64).expect("tid");
    let lanes: BTreeSet<u64> = cells.iter().map(|e| tid(e)).collect();
    assert!(lanes.len() <= 2, "cells on {lanes:?}, threads=2");
    // each (dataset, TGA) model is fit once, by the worker that runs its cells
    let fits: Vec<&&Json> = spans.iter().filter(|e| path_of(e) == "fit").collect();
    assert_eq!(
        fits.len() * 4,
        cells.len(),
        "one fit per dataset and TGA, four ports each"
    );
    for c in &fits {
        assert!(
            f(grid, "ts") <= f(c, "ts") + 1.0
                && f(c, "ts") + f(c, "dur") <= f(grid, "ts") + f(grid, "dur") + 1.0,
            "a fit outside the grid span"
        );
    }
    let fit_lanes: BTreeSet<u64> = fits.iter().map(|e| tid(e)).collect();
    assert!(
        fit_lanes.len() <= 2 && fit_lanes.is_subset(&lanes),
        "fits on {fit_lanes:?}, cells on {lanes:?}"
    );

    // --- spans are the trace: one X event per span record, plus lane names ---
    let recorded: u64 = arts
        .manifest
        .get("spans")
        .and_then(Json::entries)
        .expect("manifest spans")
        .iter()
        .map(|(_, agg)| agg.get("count").and_then(Json::as_u64).expect("count"))
        .sum();
    assert_eq!(
        spans.len() as u64,
        recorded,
        "one trace event per span record"
    );
    let span_lanes: BTreeSet<u64> = spans.iter().map(|e| tid(e)).collect();
    assert_eq!(
        events.len(),
        spans.len() + 1 + span_lanes.len(),
        "besides the spans, one process name and one name per lane"
    );
    assert!(arts.manifest.get("par_map").is_none());
    for e in events.iter() {
        assert_eq!(
            e.get("pid").and_then(Json::as_u64),
            Some(1),
            "spans render under one process"
        );
        assert!(
            s(e, "cat") == Some("span") || s(e, "ph") == Some("M"),
            "an event that is no span"
        );
    }

    // --- flame profile: parseable collapsed stacks with positive weights ---
    assert!(!arts.flame.is_empty());
    for line in arts.flame.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().expect("integer µs") > 0);
    }
    assert!(
        arts.flame.lines().any(|l| l.starts_with("study_build;")),
        "self-time attributed below the study build"
    );
}
