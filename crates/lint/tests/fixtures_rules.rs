//! Fixture-driven tests of the rule engine: every rule fires on its
//! fixture, stays quiet on allowlisted paths/classes, and obeys
//! suppressions — plus end-to-end CLI exit codes.

use sos_lint::{lint_source, Config, Finding, RULES};
use sos_obs::json::Json;

const UNORDERED: &str = include_str!("fixtures/det_unordered.rs");
const HASH_ITER: &str = include_str!("fixtures/det_hash_iter.rs");
const CONC: &str = include_str!("fixtures/conc.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const TEST_REGION: &str = include_str!("fixtures/test_region.rs");
const METRIC_NAMES: &str = include_str!("fixtures/obs_metric_names.rs");
const UNORDERED_ITER: &str = include_str!("fixtures/det_unordered_iter.rs");
const FLOAT_REDUCE: &str = include_str!("fixtures/det_float_reduce.rs");
const PAR_SHARED_MUT: &str = include_str!("fixtures/par_shared_mut.rs");
const LOCK_ORDER: &str = include_str!("fixtures/lock_order.rs");
const REGRESSION_PR9: &str = include_str!("fixtures/regression_pr9.rs");

/// Why each rule is here and not in `[workspace.lints]`: the fixture that
/// fires it (linted as `path`), and what neither rustc nor clippy reports
/// about that fixture. A rule the compiler or clippy can enforce is handed
/// over, not kept — `every_rule_is_exercised_by_these_fixtures` fails for
/// a rule in `RULES` with no row.
const ONLY_HERE: &[(&str, &str, &str, &str)] = &[
    (
        "det-unordered-collection",
        "crates/core/src/report.rs",
        UNORDERED,
        "a HashMap is banned by *file* (report/manifest/export assembly); `disallowed_types` is all-or-nothing per package",
    ),
    (
        "det-hash-iter",
        "crates/core/src/grid.rs",
        HASH_ITER,
        "`m.values().copied().collect()` leaks order; clippy's `iter_over_hash_type` sees only `for` loops and cannot accept the sort two lines down",
    ),
    (
        "det-unordered-iter",
        "crates/core/src/fx.rs",
        UNORDERED_ITER,
        "a `.keys().collect()` chain one call below a deterministic root; no lint follows a call graph from a declared root",
    ),
    (
        "det-float-reduce",
        "crates/core/src/fx.rs",
        FLOAT_REDUCE,
        "`sum::<f64>()` under a root; `float_arithmetic` flags `a + b` wherever it stands, not `sum`/`fold`, and knows no path or order",
    ),
    (
        "par-shared-mut",
        "crates/core/src/fx.rs",
        PAR_SHARED_MUT,
        "a `par_map` closure locking a captured Mutex type-checks (`Mutex: Sync`) and breaks only the merge contract",
    ),
    (
        "lock-order",
        "crates/core/src/fx.rs",
        LOCK_ORDER,
        "two fns taking the same lock pair in opposite orders; every lock lint is local to one fn body",
    ),
    (
        "conc-relaxed",
        "crates/core/src/fx.rs",
        CONC,
        "`Ordering::Relaxed` with no written argument; no lint restricts an enum variant, or exempts the telemetry crate",
    ),
    (
        "conc-lock-in-hot-loop",
        "crates/core/src/fx.rs",
        CONC,
        "a lock inside the per-target loop of a fn *named* `probe_burst`; the policy is keyed on this workspace's hot path",
    ),
    (
        "obs-metric-names",
        "crates/probe/src/fx.rs",
        METRIC_NAMES,
        "a string literal where a `names::` const belongs; to every other tool it is a `&str` argument like any other",
    ),
    (
        "suppression-reason",
        "crates/tga/src/fx.rs",
        SUPPRESSED,
        "a reasonless `// sos-lint: allow(..)` comment; `allow_attributes_without_reason` reads attributes, not this tool's comments",
    ),
];

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn lint(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src, &Config::default())
}

/// The workspace pipeline (file rules + dataflow rules) over one fixture.
fn lint_ws(path: &str, src: &str) -> Vec<Finding> {
    sos_lint::lint_files(&[(path.to_string(), src.to_string())], &Config::default())
}

// --- determinism ---------------------------------------------------------

#[test]
fn unordered_collections_banned_only_on_result_paths() {
    let on_path = lint("crates/core/src/report.rs", UNORDERED);
    assert!(rules_of(&on_path).contains(&"det-unordered-collection"), "{on_path:?}");
    let off_path = lint("crates/core/src/grid.rs", UNORDERED);
    assert!(!rules_of(&off_path).contains(&"det-unordered-collection"));
}

#[test]
fn hash_iteration_flagged_unless_order_restored() {
    let hits = lint("crates/core/src/grid.rs", HASH_ITER);
    let iter_hits: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "det-hash-iter").collect();
    assert_eq!(iter_hits.len(), 1, "{hits:?}");
    assert!(iter_hits[0].excerpt.contains("m.values()"), "{iter_hits:?}");
}

// --- workspace dataflow rules --------------------------------------------

#[test]
fn unordered_iter_fires_on_deterministic_paths_and_dedupes_hash_iter() {
    let hits = lint_ws("crates/core/src/fx.rs", UNORDERED_ITER);
    let taint: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "det-unordered-iter").collect();
    // collect_candidates fires; sorted_ok (sort escape) and budget
    // (suppressed) stay quiet; render_report is not on a root path.
    assert_eq!(taint.len(), 1, "{hits:?}");
    assert!(taint[0].message.contains("deterministic root `generate`"), "{:?}", taint[0]);
    // the file-scoped counterpart on the deduped line is superseded…
    assert!(
        !hits.iter().any(|f| f.rule == "det-hash-iter" && f.line == taint[0].line),
        "{hits:?}"
    );
    // …but still owns the non-tainted render path
    let file_scoped: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "det-hash-iter").collect();
    assert_eq!(file_scoped.len(), 1, "{hits:?}");
    assert!(file_scoped[0].excerpt.contains("for k in seeds.keys()"), "{file_scoped:?}");
}

#[test]
fn float_reduce_fires_on_deterministic_paths_only() {
    let hits = lint_ws("crates/core/src/fx.rs", FLOAT_REDUCE);
    let taint: Vec<&Finding> = hits.iter().filter(|f| f.rule == "det-float-reduce").collect();
    // reduce (sum turbofish) + fold_reduce (float fold) + accum (+=);
    // stable is suppressed, int_total is integer, chart_mean unreachable.
    assert_eq!(taint.len(), 3, "{hits:?}");
    assert!(taint.iter().all(|f| f.message.contains("deterministic root `export_grid`")));
}

#[test]
fn par_shared_mut_flags_captured_state_not_locals() {
    let hits = lint_ws("crates/core/src/fx.rs", PAR_SHARED_MUT);
    let fired: Vec<&Finding> = hits.iter().filter(|f| f.rule == "par-shared-mut").collect();
    // lock_in_closure + captured_push + captured_assign; per_item_ok is
    // all locals and justified carries a reasoned allow.
    assert_eq!(fired.len(), 3, "{hits:?}");
    assert!(fired.iter().any(|f| f.message.contains(".lock()")), "{fired:?}");
    assert!(fired.iter().any(|f| f.message.contains("sink.push")), "{fired:?}");
    assert!(fired.iter().any(|f| f.message.contains("captured `total`")), "{fired:?}");
}

#[test]
fn lock_order_flags_the_inverted_side_only() {
    let hits = lint_ws("crates/core/src/fx.rs", LOCK_ORDER);
    let fired: Vec<&Finding> = hits.iter().filter(|f| f.rule == "lock-order").collect();
    // Engine::report inverts Engine::enqueue (flagged); Shard::backward
    // inverts Shard::forward but is suppressed with a reason.
    assert_eq!(fired.len(), 1, "{hits:?}");
    assert!(fired[0].message.contains("Engine::report"), "{fired:?}");
    assert!(fired[0].message.contains("Engine::enqueue"), "{fired:?}");
}

#[test]
fn pr9_style_unordered_generate_always_fails_lint() {
    // The acceptance gate: reintroducing PR 9-style unordered iteration in
    // a `generate` path (root via the registry, no annotation) must fail.
    let hits = lint_ws("crates/tga/src/fx.rs", REGRESSION_PR9);
    let taint: Vec<&Finding> = hits.iter().filter(|f| f.rule == "det-unordered-iter").collect();
    assert_eq!(taint.len(), 1, "{hits:?}");
    assert!(taint[0].excerpt.contains("self.regions.iter()"), "{taint:?}");
    // root attribution names the registry root, not an annotation
    assert!(taint[0].message.contains("RegionBatcher::generate"), "{:?}", taint[0]);
    // and the file-scoped duplicate is deduped away
    assert!(!rules_of(&hits).contains(&"det-hash-iter"), "{hits:?}");
}

// --- concurrency ---------------------------------------------------------

#[test]
fn concurrency_rules_fire() {
    let hits = lint("crates/core/src/fx.rs", CONC);
    let rules = rules_of(&hits);
    assert!(rules.contains(&"conc-relaxed"), "{hits:?}");
    let lock_hits: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "conc-lock-in-hot-loop").collect();
    // only the lock inside probe_burst's per-target loop; fine() hoists it
    assert_eq!(lock_hits.len(), 1, "{hits:?}");
}

// --- observability --------------------------------------------------------

#[test]
fn metric_name_literals_flagged_outside_the_obs_layer() {
    let hits = lint("crates/probe/src/fx.rs", METRIC_NAMES);
    let fired: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "obs-metric-names").collect();
    // counter, histogram — one each in violations(); the const-table and
    // format! forms in permitted() and the #[cfg(test)] literal stay quiet.
    assert_eq!(fired.len(), 2, "{hits:?}");
    assert!(fired.iter().all(|f| f.line <= 13), "{fired:?}");
    // The observability layer itself is the one place literals may live.
    assert!(!rules_of(&lint("crates/obs/src/fx.rs", METRIC_NAMES)).contains(&"obs-metric-names"));
    // Tests may use ad-hoc names.
    assert!(!rules_of(&lint("crates/probe/tests/fx.rs", METRIC_NAMES))
        .contains(&"obs-metric-names"));
}

// --- suppressions and test regions ---------------------------------------

#[test]
fn suppression_with_reason_silences_without_reason_reports() {
    let hits = lint("crates/tga/src/fx.rs", SUPPRESSED);
    let rules = rules_of(&hits);
    // both Relaxed sites are suppressed...
    assert!(!rules.contains(&"conc-relaxed"), "{hits:?}");
    // ...but the reasonless allow is itself a finding
    assert_eq!(rules, vec!["suppression-reason"], "{hits:?}");
}

#[test]
fn test_regions_exempt_from_every_rule() {
    // the #[cfg(test)] module iterates a HashMap and relaxes an atomic
    let hits = lint_ws("crates/tga/src/fx.rs", TEST_REGION);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn every_rule_is_exercised_by_these_fixtures() {
    for rule in RULES {
        let Some((_, path, src, unseen)) = ONLY_HERE.iter().find(|(id, ..)| *id == rule.id) else {
            panic!("`{}` has no ONLY_HERE row: name its fixture and what rustc and clippy miss", rule.id)
        };
        assert!(!unseen.trim().is_empty(), "`{}`: say what neither rustc nor clippy reports", rule.id);
        let fired = rules_of(&lint_ws(path, src));
        assert!(fired.contains(&rule.id), "`{}` does not fire on its fixture: {fired:?}", rule.id);
    }
    assert_eq!(ONLY_HERE.len(), RULES.len(), "a row for a rule that no longer exists");
}

// --- the hand-off ---------------------------------------------------------

/// The eight rules retired in favour of rustc and clippy, and the
/// configuration that took each over. An `#[expect]` at an excused site
/// witnesses a `clippy.toml` *entry* (drop `Instant::now` and clippy
/// reports an unfulfilled expectation) but not a lint *level*: `#[expect]`
/// raises the level inside its own scope, so lowering `expect_used` to
/// `allow` leaves clippy green. This table is the check for what no
/// expectation witnesses.
const HANDED_OVER: &[(&str, &str, &[&str])] = &[
    ("det-wallclock", "clippy.toml", &["\"std::time::Instant::now\""]),
    ("det-wall-clock", "clippy.toml", &["\"std::time::SystemTime::now\""]),
    ("det-fault-entropy", "clippy.toml", &["\"rand::thread_rng\"", "\"rand::random\"", "\"rand::rngs::OsRng\""]),
    ("det-random-state", "clippy.toml", &["\"std::collections::hash_map::RandomState\""]),
    ("panic-unwrap", "Cargo.toml", &["unwrap_used = \"warn\"", "expect_used = \"warn\""]),
    (
        "panic-macro",
        "Cargo.toml",
        &["panic = \"warn\"", "unreachable = \"warn\"", "todo = \"warn\"", "unimplemented = \"warn\""],
    ),
    ("conc-static-mut", "Cargo.toml", &["unsafe_code = \"forbid\""]),
    // clippy's `indexing_slicing` fires 198 times on the scan-path crates
    // and is not adopted; the single-byte damage sweeps execute the
    // read-back decoders instead
    ("panic-indexing", "Cargo.toml", &[]),
];

#[test]
fn handed_over_rules_keep_their_successor_configured() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    for (rule, file, needles) in HANDED_OVER {
        assert!(sos_lint::rule_info(rule).is_none(), "`{rule}` is back in RULES");
        let config = read(file);
        for needle in *needles {
            assert!(config.contains(needle), "{file} lost `{needle}`, the successor of `{rule}`");
        }
    }
    // the panic lints reach the six scan-path crates by inheritance; every
    // other crate still forbids `unsafe`
    for krate in ["core", "dealias", "lint", "netmodel", "obs", "probe", "seeds", "tga", "v6addr"] {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        let inherits = manifest.contains("[lints]\nworkspace = true");
        let scan_path = ["probe", "tga", "dealias", "netmodel", "v6addr", "seeds"].contains(&krate);
        assert_eq!(inherits, scan_path, "crates/{krate}: `[lints] workspace = true`");
        assert!(inherits || manifest.contains("unsafe_code = \"forbid\""), "crates/{krate} allows unsafe");
    }
}

// --- CLI exit codes ------------------------------------------------------

#[test]
fn cli_exit_codes_clean_baselined_and_new_violation() {
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_sos-lint");
    let root = std::env::temp_dir().join(format!("sos-lint-it-{}", std::process::id()));
    let src_dir = root.join("crates/tga/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    let run = |args: &[&str]| Command::new(bin).args(args).output().unwrap();
    let rootarg = root.to_str().unwrap().to_string();

    // 1. clean tree → exit 0
    std::fs::write(src_dir.join("lib.rs"), "pub fn ok() -> u32 { 1 }\n").unwrap();
    let out = run(&["--root", &rootarg]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // 2. violation → exit 1, finding on stdout
    std::fs::write(
        src_dir.join("lib.rs"),
        "use std::collections::HashMap;\npub fn generate(m: &HashMap<u8, u8>) -> Vec<u8> { m.keys().copied().collect() }\n",
    )
    .unwrap();
    let out = run(&["--root", &rootarg, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.get("total").and_then(Json::as_u64), Some(1));

    std::fs::remove_dir_all(&root).ok();
}
