//! Fixture-driven tests of the rule engine: every rule fires on its
//! fixture, stays quiet on allowlisted paths/classes, and obeys
//! suppressions — plus end-to-end CLI exit codes.

use sos_lint::{lint_source, Config, Finding, RULES};
use sos_obs::json::Json;

const WALLCLOCK: &str = include_str!("fixtures/det_wallclock.rs");
const UNORDERED: &str = include_str!("fixtures/det_unordered.rs");
const HASH_ITER: &str = include_str!("fixtures/det_hash_iter.rs");
const RANDOM_STATE: &str = include_str!("fixtures/det_random_state.rs");
const FAULT_ENTROPY: &str = include_str!("fixtures/det_fault_entropy.rs");
const PANIC_FAMILY: &str = include_str!("fixtures/panic_family.rs");
const CONC: &str = include_str!("fixtures/conc.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const TEST_REGION: &str = include_str!("fixtures/test_region.rs");
const METRIC_NAMES: &str = include_str!("fixtures/obs_metric_names.rs");
const UNORDERED_ITER: &str = include_str!("fixtures/det_unordered_iter.rs");
const WALL_CLOCK: &str = include_str!("fixtures/det_wall_clock.rs");
const FLOAT_REDUCE: &str = include_str!("fixtures/det_float_reduce.rs");
const PAR_SHARED_MUT: &str = include_str!("fixtures/par_shared_mut.rs");
const LOCK_ORDER: &str = include_str!("fixtures/lock_order.rs");
const REGRESSION_PR9: &str = include_str!("fixtures/regression_pr9.rs");

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
fn wallclock_fires_in_lib_and_bin_but_not_in_obs_or_tests() {
    let hits = lint("crates/probe/src/fx.rs", WALLCLOCK);
    assert!(rules_of(&hits).contains(&"det-wallclock"), "{hits:?}");
    assert!(rules_of(&lint("crates/core/src/bin/fx.rs", WALLCLOCK)).contains(&"det-wallclock"));
    // the observability crate owns time
    assert!(!rules_of(&lint("crates/obs/src/fx.rs", WALLCLOCK)).contains(&"det-wallclock"));
    // integration tests may time things
    assert!(!rules_of(&lint("crates/probe/tests/fx.rs", WALLCLOCK)).contains(&"det-wallclock"));
}

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
    assert!(iter_hits[0].excerpt.contains("m.iter()"), "{iter_hits:?}");
}

#[test]
fn random_state_flagged_in_production_code() {
    assert!(rules_of(&lint("crates/probe/src/fx.rs", RANDOM_STATE)).contains(&"det-random-state"));
    assert!(
        !rules_of(&lint("crates/probe/tests/fx.rs", RANDOM_STATE)).contains(&"det-random-state")
    );
}

#[test]
fn fault_entropy_fires_only_in_fault_and_retry_files() {
    for path in [
        "crates/probe/src/retry.rs",
        "crates/probe/src/sim.rs",
        "crates/probe/src/campaign.rs",
        "crates/netmodel/src/faults.rs",
    ] {
        let hits = lint(path, FAULT_ENTROPY);
        let fired: Vec<&Finding> =
            hits.iter().filter(|f| f.rule == "det-fault-entropy").collect();
        // thread_rng, rand::random, from_entropy, OsRng — one each; the
        // seeded mix2/seed_from_u64 forms stay quiet.
        assert_eq!(fired.len(), 4, "{path}: {hits:?}");
    }
    // Outside the fault/retry surface the same source is not this rule's
    // business (engine randomness has its own salt discipline).
    assert!(!rules_of(&lint("crates/probe/src/engine.rs", FAULT_ENTROPY))
        .contains(&"det-fault-entropy"));
    // Tests may use ambient entropy.
    assert!(!rules_of(&lint("crates/probe/tests/retry.rs", FAULT_ENTROPY))
        .contains(&"det-fault-entropy"));
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
fn wall_clock_follows_the_call_graph_even_inside_obs() {
    let hits = lint_ws("crates/obs/src/fx.rs", WALL_CLOCK);
    let taint: Vec<&Finding> = hits.iter().filter(|f| f.rule == "det-wall-clock").collect();
    // header (Instant) + body (thread_rng); watch_latency is not on a
    // root path and emit_event is suppressed with a reason.
    assert_eq!(taint.len(), 2, "{hits:?}");
    assert!(taint.iter().any(|f| f.excerpt.contains("Instant::now")), "{taint:?}");
    assert!(taint.iter().any(|f| f.excerpt.contains("thread_rng")), "{taint:?}");
    // the obs crate is exempt from the file-scoped rule — these findings
    // exist only because the dataflow pass reaches into it
    assert!(!rules_of(&hits).contains(&"det-wallclock"), "{hits:?}");
    assert!(!rules_of(&hits).contains(&"suppression-reason"), "{hits:?}");
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

// --- panic safety --------------------------------------------------------

#[test]
fn panic_family_fires_in_panic_crate_libraries() {
    let hits = lint("crates/tga/src/fx.rs", PANIC_FAMILY);
    let rules = rules_of(&hits);
    assert!(rules.contains(&"panic-unwrap"), "{hits:?}");
    assert!(rules.contains(&"panic-macro"), "{hits:?}");
    assert!(rules.contains(&"panic-indexing"), "{hits:?}");
    // the permitted() forms — literal, modular, commented — stay quiet:
    // exactly one indexing finding (the bare xs[i] in violations()).
    assert_eq!(rules.iter().filter(|r| **r == "panic-indexing").count(), 1, "{hits:?}");
}

#[test]
fn panic_family_quiet_in_bins_tests_and_nonpanic_crates() {
    for path in [
        "crates/core/src/bin/fx.rs", // binary entry point
        "crates/tga/tests/fx.rs",    // integration test
        "crates/tga/benches/fx.rs",  // benchmark
        "crates/core/src/fx.rs",     // core is not a panic-safety crate
    ] {
        let rules = rules_of(&lint(path, PANIC_FAMILY));
        assert!(
            !rules.iter().any(|r| r.starts_with("panic-")),
            "{path}: {rules:?}"
        );
    }
}

// --- concurrency ---------------------------------------------------------

#[test]
fn concurrency_rules_fire() {
    let hits = lint("crates/core/src/fx.rs", CONC);
    let rules = rules_of(&hits);
    assert!(rules.contains(&"conc-static-mut"), "{hits:?}");
    assert!(rules.contains(&"conc-relaxed"), "{hits:?}");
    let lock_hits: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "conc-lock-in-hot-loop").collect();
    // only the lock inside probe_burst's per-target loop; fine() hoists it
    assert_eq!(lock_hits.len(), 1, "{hits:?}");
}

#[test]
fn relaxed_allowed_in_obs_and_static_mut_everywhere_banned() {
    let obs = lint("crates/obs/src/fx.rs", CONC);
    let rules = rules_of(&obs);
    assert!(!rules.contains(&"conc-relaxed"), "{obs:?}");
    assert!(rules.contains(&"conc-static-mut"));
    // static mut is flagged even inside #[cfg(test)]
    assert!(rules_of(&lint("crates/core/src/fx.rs", TEST_REGION)).contains(&"conc-static-mut"));
}

// --- observability --------------------------------------------------------

#[test]
fn metric_name_literals_flagged_outside_the_obs_layer() {
    let hits = lint("crates/probe/src/fx.rs", METRIC_NAMES);
    let fired: Vec<&Finding> =
        hits.iter().filter(|f| f.rule == "obs-metric-names").collect();
    // counter, histogram, counter_with, histogram_with — one each in
    // violations(); the const-table and format! forms in permitted() and
    // the #[cfg(test)] literal stay quiet.
    assert_eq!(fired.len(), 4, "{hits:?}");
    assert!(fired.iter().all(|f| f.line <= 15), "{fired:?}");
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
    // both unwraps are suppressed...
    assert!(!rules.contains(&"panic-unwrap"), "{hits:?}");
    // ...but the reasonless allow is itself a finding
    assert_eq!(rules, vec!["suppression-reason"], "{hits:?}");
}

#[test]
fn test_regions_exempt_from_panic_rules() {
    let hits = lint("crates/tga/src/fx.rs", TEST_REGION);
    let rules = rules_of(&hits);
    assert!(!rules.iter().any(|r| r.starts_with("panic-")), "{hits:?}");
}

#[test]
fn every_rule_is_exercised_by_these_fixtures() {
    let mut seen: Vec<&str> = Vec::new();
    for (path, src) in [
        ("crates/probe/src/fx.rs", WALLCLOCK),
        ("crates/core/src/report.rs", UNORDERED),
        ("crates/core/src/grid.rs", HASH_ITER),
        ("crates/probe/src/fx.rs", RANDOM_STATE),
        ("crates/probe/src/retry.rs", FAULT_ENTROPY),
        ("crates/tga/src/fx.rs", PANIC_FAMILY),
        ("crates/core/src/fx.rs", CONC),
        ("crates/tga/src/fx.rs", SUPPRESSED),
        ("crates/probe/src/fx.rs", METRIC_NAMES),
    ] {
        seen.extend(rules_of(&lint(path, src)));
    }
    // the dataflow rules need the workspace pipeline
    for (path, src) in [
        ("crates/core/src/fx.rs", UNORDERED_ITER),
        ("crates/obs/src/fx.rs", WALL_CLOCK),
        ("crates/core/src/fx.rs", FLOAT_REDUCE),
        ("crates/core/src/fx.rs", PAR_SHARED_MUT),
        ("crates/core/src/fx.rs", LOCK_ORDER),
    ] {
        seen.extend(rules_of(&lint_ws(path, src)));
    }
    for rule in RULES {
        assert!(seen.contains(&rule.id), "no fixture exercises `{}`", rule.id);
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
        "pub fn bad(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
    )
    .unwrap();
    let out = run(&["--root", &rootarg, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.get("total").and_then(Json::as_u64), Some(1));

    std::fs::remove_dir_all(&root).ok();
}
