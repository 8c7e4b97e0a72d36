//! Fixture-driven tests of the rule engine: every rule fires on its
//! fixture, stays quiet on allowlisted paths/classes, and obeys
//! suppressions — plus end-to-end CLI exit codes.

use sos_lint::symbols::Workspace;
use sos_lint::{lint_files, lint_source, Config, Finding, RULES};
use sos_obs::json::Json;

const UNORDERED: &str = include_str!("fixtures/det_unordered.rs");
const HASH_ITER: &str = include_str!("fixtures/det_hash_iter.rs");
const CONC: &str = include_str!("fixtures/conc.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const TEST_REGION: &str = include_str!("fixtures/test_region.rs");
const METRIC_NAMES: &str = include_str!("fixtures/obs_metric_names.rs");
const REGRESSION_PR9: &str = include_str!("fixtures/regression_pr9.rs");
const ADDR_ALIASES: &str = include_str!("fixtures/addr_aliases.rs");

/// Why each rule is here and not in `[workspace.lints]` or a test: the
/// fixture that fires it (linted as `path`), the planted bug that only it
/// catches, and what neither rustc nor clippy reports. A rule the compiler
/// or clippy can enforce is handed over, not kept; a rule stays only for a
/// planted bug that no test, CI step or other rule catches (the mutation
/// table in DESIGN.md § "Static analysis" has its row).
/// `every_rule_is_exercised_by_these_fixtures` fails for a rule in `RULES`
/// with no row.
const ONLY_HERE: &[(&str, &str, &str, &str)] = &[
    (
        "det-unordered-collection",
        "crates/core/src/report.rs",
        UNORDERED,
        "mutant U1, `probe::metrics::counter` finding a name through a `HashMap` index: every test passes (only `get` reads it); a HashMap is banned by *file* (report/manifest/export assembly); `disallowed_types` is all-or-nothing per package",
    ),
    (
        "det-hash-iter",
        "crates/core/src/grid.rs",
        HASH_ITER,
        "mutant H1, `OnlineDealiaser::aliased_prefixes` without its sort: every test passes; `m.values().copied().collect()` leaks order; clippy's `iter_over_hash_type` sees only `for` loops and cannot accept the sort two lines down",
    ),
    (
        "conc-relaxed",
        "crates/core/src/fx.rs",
        CONC,
        "mutant R1, the campaign's cancel-flag load left `Relaxed` with its argument deleted: every test passes; no lint restricts an enum variant, or exempts the telemetry crate",
    ),
    (
        "conc-lock-in-hot-loop",
        "crates/core/src/fx.rs",
        CONC,
        "mutant L1, `SimTransport::probe_burst` bumping a process-wide `Mutex` tally per attempt: every test passes; the policy is keyed on this workspace's hot path, a fn *named* `probe_burst`",
    ),
    (
        "obs-metric-names",
        "crates/probe/src/fx.rs",
        METRIC_NAMES,
        "mutants O1–O3, a drifted inline name in tga, dealias and probe: every test passes; to every other tool a string literal where a `names::` const belongs is a `&str` argument like any other",
    ),
    (
        "suppression-reason",
        "crates/tga/src/fx.rs",
        SUPPRESSED,
        "mutant S1, rq3's progress-counter allow with its reason deleted: every test passes; a reasonless, unknown-rule, unfulfilled or malformed `// sos-lint: allow(..)` comment is no attribute, which is all `allow_attributes_without_reason` and unfulfilled `#[expect]`s see",
    ),
];

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn lint(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src, &Config::default())
}

// --- determinism ---------------------------------------------------------

#[test]
fn unordered_collections_banned_only_on_result_paths() {
    let on_path = lint("crates/core/src/report.rs", UNORDERED);
    assert!(
        rules_of(&on_path).contains(&"det-unordered-collection"),
        "{on_path:?}"
    );
    let off_path = lint("crates/core/src/grid.rs", UNORDERED);
    assert!(!rules_of(&off_path).contains(&"det-unordered-collection"));
}

#[test]
fn hash_iteration_flagged_unless_order_restored() {
    let hits = lint("crates/core/src/grid.rs", HASH_ITER);
    let iter_hits: Vec<&Finding> = hits.iter().filter(|f| f.rule == "det-hash-iter").collect();
    assert_eq!(iter_hits.len(), 1, "{hits:?}");
    assert!(iter_hits[0].excerpt.contains("m.values()"), "{iter_hits:?}");
}

#[test]
fn file_scoped_determinism_rules_cover_what_no_root_reaches() {
    // A rule reads one file's tokens, so an unsorted hash iteration is
    // flagged where it stands: in a function a deterministic output calls
    // (`on_path`, under the checkpoint's `read_state`) and in one nothing
    // calls (`off_path`) alike, once per line — as in a `par_map` closure,
    // which is a body of its caller.
    let sin = "for k in seen.keys() { drop(k); }";
    let files = vec![
        (
            "crates/probe/src/campaign.rs".to_string(),
            "pub fn read_state(state: u64) -> u64 { on_path(state) }".to_string(),
        ),
        (
            "crates/probe/src/retry.rs".to_string(),
            format!(
                "use std::collections::HashMap;
                 pub fn on_path(state: u64) -> u64 {{
                 let seen: HashMap<u64, u64> = HashMap::new();
                 {sin}
                 state
                 }}
                 pub fn off_path(state: u64) -> u64 {{
                 let seen: HashMap<u64, u64> = HashMap::new();
                 {sin}
                 state
                 }}"
            ),
        ),
    ];
    let found: Vec<(&str, u32)> = lint_files(&files, &Config::default())
        .iter()
        .filter(|f| f.file == "crates/probe/src/retry.rs")
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(found, [("det-hash-iter", 4), ("det-hash-iter", 9)]);
}

/// The address substrate's aliases are generic (`pub type AddrMap<K, V> =
/// HashMap<K, V, …>`), declared once in `v6addr`, and used by name in
/// every other crate. Both hash rules must see through them: the real
/// declaration file registers both names, and a file that only *uses*
/// them is held to the same rules as one that says `HashMap`.
#[test]
fn generic_address_aliases_are_hash_containers_to_every_hash_rule() {
    const DECLARATIONS: &str = include_str!("../../v6addr/src/hash.rs");
    let lint_at = |path: &str| {
        let files = vec![
            (
                "crates/v6addr/src/hash.rs".to_string(),
                DECLARATIONS.to_string(),
            ),
            (path.to_string(), ADDR_ALIASES.to_string()),
        ];
        assert_eq!(
            Workspace::build(&files).hash_aliases,
            ["AddrMap", "AddrSet"],
            "both aliases register"
        );
        let mut found: Vec<(&'static str, u32)> = lint_files(&files, &Config::default())
            .into_iter()
            .filter(|f| f.file == path)
            .map(|f| (f.rule, f.line))
            .collect();
        found.sort_unstable();
        found
    };
    // The file-scoped rule flags the two unsorted iterations (lines 7 and
    // 12) and accepts the sorted one.
    assert_eq!(
        lint_at("crates/core/src/grid.rs"),
        [("det-hash-iter", 7), ("det-hash-iter", 12)]
    );
    // In report assembly the *types* are banned by name, wherever they
    // appear (the import and the three signatures).
    let on_result_path = lint_at("crates/core/src/report.rs");
    let banned: Vec<u32> = on_result_path
        .iter()
        .filter(|(r, _)| *r == "det-unordered-collection")
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(banned, [4, 4, 6, 10, 18]);
}

#[test]
fn pr9_style_unordered_generate_always_fails_lint() {
    // The acceptance gate: reintroducing PR 9-style unordered iteration in
    // a `generate` path must fail, by the file-scoped rule.
    let hits = lint("crates/tga/src/fx.rs", REGRESSION_PR9);
    assert_eq!(rules_of(&hits), ["det-hash-iter"], "{hits:?}");
    assert!(hits[0].excerpt.contains("self.regions.iter()"), "{hits:?}");
}

// --- concurrency ---------------------------------------------------------

#[test]
fn concurrency_rules_fire() {
    let hits = lint("crates/core/src/fx.rs", CONC);
    let rules = rules_of(&hits);
    assert!(rules.contains(&"conc-relaxed"), "{hits:?}");
    let lock_hits: Vec<&Finding> = hits
        .iter()
        .filter(|f| f.rule == "conc-lock-in-hot-loop")
        .collect();
    // only the lock inside probe_burst's per-target loop; fine() hoists it
    assert_eq!(lock_hits.len(), 1, "{hits:?}");
}

// --- observability --------------------------------------------------------

#[test]
fn metric_name_literals_flagged_outside_the_obs_layer() {
    let hits = lint("crates/probe/src/fx.rs", METRIC_NAMES);
    let fired: Vec<&Finding> = hits
        .iter()
        .filter(|f| f.rule == "obs-metric-names")
        .collect();
    // The counter in violations(); the const-table and format! forms in
    // permitted() and the #[cfg(test)] literal stay quiet.
    assert_eq!(fired.len(), 1, "{hits:?}");
    assert!(fired.iter().all(|f| f.line <= 11), "{fired:?}");
    // The observability layer itself is the one place literals may live.
    assert!(!rules_of(&lint("crates/obs/src/fx.rs", METRIC_NAMES)).contains(&"obs-metric-names"));
    // Tests may use ad-hoc names.
    assert!(
        !rules_of(&lint("crates/probe/tests/fx.rs", METRIC_NAMES)).contains(&"obs-metric-names")
    );
}

// --- suppressions and test regions ---------------------------------------

#[test]
fn suppression_with_reason_silences_without_reason_reports() {
    let hits = lint("crates/tga/src/fx.rs", SUPPRESSED);
    let rules = rules_of(&hits);
    // both Relaxed sites are suppressed...
    assert!(!rules.contains(&"conc-relaxed"), "{hits:?}");
    // ...but the reasonless allow is itself a finding, and so are the
    // allow naming a retired rule, the one with nothing to suppress, the
    // empty one and the one whose parenthesis never closes
    assert_eq!(rules, ["suppression-reason"; 5], "{hits:?}");
    let said = |line: u32, what: &str| {
        hits.iter()
            .any(|f| f.line == line && f.message.contains(what))
    };
    assert!(said(11, "has no reason"), "{hits:?}");
    assert!(said(16, "names no rule"), "{hits:?}");
    assert!(said(21, "suppresses nothing"), "{hits:?}");
    assert!(said(26, "malformed"), "{hits:?}");
    assert!(said(31, "malformed"), "{hits:?}");
}

#[test]
fn test_regions_exempt_from_every_rule() {
    // the #[cfg(test)] module iterates a HashMap and relaxes an atomic
    let hits = lint("crates/tga/src/fx.rs", TEST_REGION);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn every_rule_is_exercised_by_these_fixtures() {
    for rule in RULES {
        let Some((_, path, src, unseen)) = ONLY_HERE.iter().find(|(id, ..)| *id == rule.id) else {
            panic!(
                "`{}` has no ONLY_HERE row: name its fixture and what rustc and clippy miss",
                rule.id
            )
        };
        assert!(
            unseen.starts_with("mutant"),
            "`{}`: name the planted bug only it catches, then what neither rustc nor clippy reports",
            rule.id
        );
        let fired = rules_of(&lint(path, src));
        assert!(
            fired.contains(&rule.id),
            "`{}` does not fire on its fixture: {fired:?}",
            rule.id
        );
    }
    assert_eq!(
        ONLY_HERE.len(),
        RULES.len(),
        "a row for a rule that no longer exists"
    );
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
    (
        "det-wallclock",
        "clippy.toml",
        &["\"std::time::Instant::now\""],
    ),
    (
        "det-wall-clock",
        "clippy.toml",
        &["\"std::time::SystemTime::now\""],
    ),
    (
        "det-fault-entropy",
        "clippy.toml",
        &[
            "\"rand::thread_rng\"",
            "\"rand::random\"",
            "\"rand::rngs::OsRng\"",
        ],
    ),
    (
        "det-random-state",
        "clippy.toml",
        &["\"std::collections::hash_map::RandomState\""],
    ),
    (
        "panic-unwrap",
        "Cargo.toml",
        &["unwrap_used = \"warn\"", "expect_used = \"warn\""],
    ),
    (
        "panic-macro",
        "Cargo.toml",
        &[
            "panic = \"warn\"",
            "unreachable = \"warn\"",
            "todo = \"warn\"",
            "unimplemented = \"warn\"",
        ],
    ),
    (
        "conc-static-mut",
        "Cargo.toml",
        &["unsafe_code = \"forbid\""],
    ),
    // clippy's `indexing_slicing` fires 198 times on the scan-path crates
    // and is not adopted; the single-byte damage sweeps execute the
    // read-back decoders instead
    ("panic-indexing", "Cargo.toml", &[]),
];

#[test]
fn handed_over_rules_keep_their_successor_configured() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    for (rule, file, needles) in HANDED_OVER {
        assert!(
            sos_lint::rule_info(rule).is_none(),
            "`{rule}` is back in RULES"
        );
        let config = read(file);
        for needle in *needles {
            assert!(
                config.contains(needle),
                "{file} lost `{needle}`, the successor of `{rule}`"
            );
        }
    }
    // the panic lints reach the six scan-path crates by inheritance; every
    // other crate still forbids `unsafe`
    for krate in [
        "core", "dealias", "lint", "netmodel", "obs", "probe", "seeds", "tga", "v6addr",
    ] {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        let inherits = manifest.contains("[lints]\nworkspace = true");
        let scan_path = ["probe", "tga", "dealias", "netmodel", "v6addr", "seeds"].contains(&krate);
        assert_eq!(
            inherits, scan_path,
            "crates/{krate}: `[lints] workspace = true`"
        );
        assert!(
            inherits || manifest.contains("unsafe_code = \"forbid\""),
            "crates/{krate} allows unsafe"
        );
    }
}

// --- CLI exit codes ------------------------------------------------------

#[test]
fn cli_exit_codes_clean_new_violation_and_usage_error() {
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

    // 3. usage and I/O errors → exit 2, before or instead of a report
    let missing = root.join("no-such-dir");
    for args in [
        &["--root", &rootarg, "--format", "bogus"][..],
        &["--explain", "nosuch"],
        &["--root", missing.to_str().unwrap()],
        &["--root", &rootarg, "--out"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }

    std::fs::remove_dir_all(&root).ok();
}
