//! `BENCHMARK.json` at the repository root is what `src/names.rs` and the
//! workload list say it is, and stays inside the driver's limits.

use sos_benchmark::report::{contract, read_json};
use sos_obs::Json;
use std::path::Path;

#[test]
fn benchmark_json_matches_the_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = read_json(&path).expect("BENCHMARK.json");
    assert_eq!(
        committed,
        contract(),
        "BENCHMARK.json is stale: regenerate with `benchmark/run.sh contract > BENCHMARK.json`"
    );
    let size = std::fs::metadata(&path).expect("BENCHMARK.json").len();
    assert!(size <= 64 * 1024, "{size} bytes");
}

#[test]
fn the_contract_is_within_the_driver_limits() {
    let doc = contract();
    let keys: Vec<&str> = doc
        .entries()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let workloads = rows("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    assert!((1..=16).contains(&rows("end_to_end").len()));
    assert!((1..=128).contains(&rows("per_layer").len()));
    for m in rows("end_to_end").iter().chain(&rows("per_layer")) {
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        assert!(matches!(
            m.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
    }
    let setup = &rows("end_to_end")[0];
    assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}
