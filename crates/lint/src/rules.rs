//! The rule set: the six determinism, concurrency and observability
//! invariants only this tool can see.
//!
//! Every rule is a token-pattern matcher over one file's
//! [`crate::lexer::lex`] output, scoped by [`crate::classify::FileClass`]
//! and the crate the file lives in; the one thing a rule learns from other
//! files is the workspace's hash-container aliases. The rules encode
//! *workspace policy*, not general Rust style:
//!
//! - **Determinism** — scan reports, manifests, and candidate lists must
//!   be bit-identical across runs and worker counts (the grid's merge
//!   contract, and the precondition for every comparative claim in the
//!   paper). Nothing may iterate a randomized-order container without
//!   restoring an order, and report assembly holds none at all.
//! - **Concurrency** — `Relaxed` atomics carry a written argument, and
//!   per-target hot loops take no locks.
//!
//! What a type-resolving tool already enforces is not re-guessed from
//! tokens here: wall-clock, ambient entropy and `RandomState` are clippy's
//! `disallowed_methods` / `disallowed_types` (tables in `clippy.toml`),
//! panic-safety of the scan-path libraries is `clippy::{unwrap_used,
//! expect_used, panic, unreachable, todo, unimplemented}`, and `static mut`
//! falls to `unsafe_code = "forbid"` — all levelled in the root
//! `Cargo.toml`'s `[workspace.lints]`. What the dynamic suites already
//! catch is not re-guessed either: DESIGN.md § "Static analysis" holds the
//! mutation table that retired the rules they cover.

use crate::classify::in_test_region;
use crate::lexer::{Tok, TokKind};
use crate::symbols::{FileData, Workspace};

/// One rule's identity, one-line rationale, severity, and canonical fix
/// (shown by `--list-rules` and `--explain`).
pub struct RuleInfo {
    pub id: &'static str,
    pub group: &'static str,
    pub rationale: &'static str,
    /// `"error"` for determinism/concurrency invariants,
    /// `"warn"` for observability hygiene and meta rules.
    pub severity: &'static str,
    /// The canonical remediation, one line.
    pub fix: &'static str,
}

/// The full rule set, in display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-unordered-collection",
        group: "determinism",
        rationale: "HashMap/HashSet (or a workspace alias of one: AddrMap, AddrSet) in report/manifest/export assembly can leak iteration order into results; use BTreeMap/BTreeSet or sort",
        severity: "error",
        fix: "replace with BTreeMap/BTreeSet, or an explicitly sorted Vec",
    },
    RuleInfo {
        id: "det-hash-iter",
        group: "determinism",
        rationale: "iterating a HashMap/HashSet (or a workspace alias of one: AddrMap, AddrSet) yields an arbitrary order; sort nearby, reduce order-insensitively, use a BTree collection, or justify via suppression",
        severity: "error",
        fix: "sort the iterated items before consuming them, or switch the container to a BTree type",
    },
    RuleInfo {
        id: "conc-relaxed",
        group: "concurrency",
        rationale: "Relaxed ordering on state shared across the grid's par_map workers needs a written justification (sos-lint: allow)",
        severity: "error",
        fix: "use AcqRel/SeqCst, or suppress with the monotonicity argument written down",
    },
    RuleInfo {
        id: "conc-lock-in-hot-loop",
        group: "concurrency",
        rationale: "taking a lock inside a per-target hot loop (probe_burst) pays for the lock on every probe, and serializes any workers that share it; hoist it",
        severity: "error",
        fix: "acquire the lock once before the loop",
    },
    RuleInfo {
        id: "obs-metric-names",
        group: "observability",
        rationale: "counter registered under an inline string literal drifts from the central name tables; route names through a `names` const module so manifests, snapshots, and dashboards stay in sync",
        severity: "warn",
        fix: "replace the literal with a const from the central `names` module",
    },
    RuleInfo {
        id: "suppression-reason",
        group: "meta",
        rationale: "every `sos-lint: allow(...)` must name a rule, carry a written reason, and suppress a finding on its line or the next; undocumented and stale exceptions rot",
        severity: "warn",
        fix: "append the reason to the allow comment (`// sos-lint: allow(rule) because …`), or delete an allow that names no rule or suppresses nothing",
    },
];

/// Look up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding. `excerpt` is the trimmed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// 1-based column of the flagged token.
    pub col: u32,
    pub message: String,
    pub excerpt: String,
}

impl Finding {
    /// The rule's severity from the central table.
    pub fn severity(&self) -> &'static str {
        rule_info(self.rule).map_or("error", |r| r.severity)
    }
}

/// Which crates/files each rule binds. Defaults encode current workspace
/// policy; tests override to exercise the engine.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate dirs allowed `Ordering::Relaxed` without per-site annotation
    /// (sos-obs counters are monotonic telemetry, not results).
    pub relaxed_crates: Vec<String>,
    /// Workspace-relative path substrings of result-path files where
    /// unordered collection *types* are banned outright.
    pub result_path_files: Vec<String>,
    /// Function names whose per-target loops must stay lock-free.
    pub hot_fns: Vec<String>,
    /// Workspace-relative path substrings exempt from `obs-metric-names`:
    /// the observability layer itself (which defines the registry API and
    /// documents names in prose) — everywhere else, metric names must be
    /// consts from a central `names` table, not inline literals.
    pub metric_table_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            relaxed_crates: vec!["obs".to_string()],
            result_path_files: [
                "crates/core/src/report.rs",
                "crates/core/src/export.rs",
                "crates/core/src/metrics.rs",
                "crates/obs/src/manifest.rs",
                "crates/obs/src/trace.rs",
                "crates/probe/src/metrics.rs",
            ]
            .map(String::from)
            .to_vec(),
            hot_fns: vec!["probe_burst".to_string()],
            metric_table_files: vec!["crates/obs/src/".to_string()],
        }
    }
}

/// Lint one source file as a workspace of its own ([`lint_files`]).
/// `rel_path` is workspace-relative with `/` separators; it drives
/// classification and allowlists. Hash-container aliases declared in
/// *other* files are unknown here.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), src.to_string())], cfg)
}

/// Lint a whole workspace: every rule over every file, with the
/// hash-container aliases of all of them. Findings inside `#[cfg(test)]`
/// regions are dropped, those an `allow` comment covers are suppressed,
/// and every allow comment that is malformed, names no rule, gives no
/// reason or suppresses nothing is itself a `suppression-reason` finding.
/// Sorted by `(file, line, rule)`.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let ws = Workspace::build(files);
    let mut all: Vec<Finding> = Vec::new();
    for fd in &ws.files {
        let mut used = vec![false; fd.supps.len()];
        for f in file_rules(fd, cfg, &ws.hash_aliases) {
            if in_test_region(&fd.regions, f.line) {
                continue; // tests may hash, relax, and name metrics freely
            }
            let mut suppressed = false;
            for (s, used) in fd.supps.iter().zip(used.iter_mut()) {
                if s.covers(f.rule, f.line) {
                    *used = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                all.push(f);
            }
        }
        for (s, used) in fd.supps.iter().zip(used) {
            let problem = if s.rule.is_empty() {
                "malformed `allow(…)`: name the rule between closed parentheses".to_string()
            } else if rule_info(&s.rule).is_none() {
                format!("`allow({})` names no rule (see --list-rules)", s.rule)
            } else if !s.has_reason {
                format!(
                    "suppression of `{}` has no reason; write why the exception is sound",
                    s.rule
                )
            } else if !used {
                format!(
                    "`allow({})` suppresses nothing on its line or the next; delete it",
                    s.rule
                )
            } else {
                continue;
            };
            all.push(Finding {
                rule: "suppression-reason",
                file: fd.rel.clone(),
                line: s.line,
                col: 1,
                message: problem,
                excerpt: fd.excerpt(s.line),
            });
        }
    }
    all.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    all
}

/// Every file-scoped rule over one file, unfiltered. `aliases` are the
/// workspace's hash-container alias names (`AddrSet`, `AddrMap`, …), which
/// the hash rules treat like `HashMap`.
fn file_rules(fd: &FileData, cfg: &Config, aliases: &[String]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, col: u32, message: String| {
        raw.push(Finding {
            rule,
            file: fd.rel.clone(),
            line,
            col,
            message,
            excerpt: fd.excerpt(line),
        });
    };
    let prod_code = fd.prod();
    let toks = &fd.lexed.toks;

    // --- determinism -----------------------------------------------------
    if prod_code
        && cfg
            .result_path_files
            .iter()
            .any(|f| fd.rel.contains(f.as_str()))
    {
        for t in toks {
            if t.is_ident("HashMap")
                || t.is_ident("HashSet")
                || aliases.iter().any(|a| t.is_ident(a))
            {
                push(
                    "det-unordered-collection",
                    t.line,
                    t.col,
                    format!(
                        "`{}` on a result path: use BTreeMap/BTreeSet or an explicitly sorted Vec",
                        t.text
                    ),
                );
            }
        }
    }

    if prod_code {
        hash_iter_rule(toks, aliases, &mut push);
    }

    // --- concurrency -----------------------------------------------------
    if prod_code && !cfg.relaxed_crates.contains(&fd.krate) {
        for t in toks {
            if t.is_ident("Relaxed") {
                push(
                    "conc-relaxed",
                    t.line,
                    t.col,
                    "`Ordering::Relaxed` needs a written justification that no par_map worker reads it unsynchronized"
                        .to_string(),
                );
            }
        }
    }

    hot_loop_rule(toks, &cfg.hot_fns, &mut push);

    // --- observability ---------------------------------------------------
    if prod_code
        && !cfg
            .metric_table_files
            .iter()
            .any(|f| fd.rel.contains(f.as_str()))
    {
        metric_name_rule(toks, &mut push);
    }
    raw
}

/// `det-hash-iter`: find identifiers bound to hash-container types in this
/// file — `name: [&][mut] HashMap<..>` ascriptions and `name = HashMap::..`
/// initializers, `aliases` counting as hash containers — then flag
/// order-dependent iteration over them. Order restored (`sort*`) or erased
/// (an order-insensitive reduction) within a few lines is fine.
fn hash_iter_rule(
    toks: &[Tok],
    aliases: &[String],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    const ORDER_DEPENDENT: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
    ];
    const ESCAPES: &[&str] = &[
        "sort",
        "sort_unstable",
        "sort_by",
        "sort_by_key",
        "sort_unstable_by",
        "sort_unstable_by_key",
        "count",
        "sum",
        "min",
        "max",
        "any",
        "all",
    ];
    let is_hash = |t: &Tok| {
        t.is_ident("HashMap") || t.is_ident("HashSet") || aliases.iter().any(|a| t.is_ident(a))
    };
    let mut bound: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if next.is_punct(':') && !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
            // type ascription: skip `&`, `mut`, lifetimes
            let mut j = i + 2;
            while toks.get(j).is_some_and(|t| {
                t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime
            }) {
                j += 1;
            }
            if toks.get(j).is_some_and(is_hash) {
                bound.push(&toks[i].text);
            }
        }
        if next.is_punct('=') && toks.get(i + 2).is_some_and(is_hash) {
            bound.push(&toks[i].text);
        }
    }
    if bound.is_empty() {
        return;
    }
    let escaped = |start: usize, line: u32| {
        toks[start..]
            .iter()
            .take_while(|t| t.line <= line + 6)
            .any(|t| t.kind == TokKind::Ident && ESCAPES.contains(&t.text.as_str()))
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !bound.contains(&t.text.as_str()) {
            continue;
        }
        // `name.iter()` and friends, or `for pat in [&][mut] name {`.
        let method = toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| ORDER_DEPENDENT.iter().any(|m| n.is_ident(m)));
        let mut j = i;
        while j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let for_loop = j >= 1
            && toks[j - 1].is_ident("in")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('{'));
        let desc = if method {
            format!("`{}.{}()`", t.text, toks[i + 2].text)
        } else if for_loop {
            format!("`for … in {}`", t.text)
        } else {
            continue;
        };
        if !escaped(i + 1, t.line) {
            push(
                "det-hash-iter",
                t.line,
                t.col,
                format!("{desc} iterates a hash container in per-process order; sort or use a BTree collection"),
            );
        }
    }
}

/// `obs-metric-names`: flag a string literal as the *name* argument of a
/// registry lookup — `counter("...")`. Names must come from a central
/// const table (`counter(names::HITS)`); dynamic names built with
/// `format!` are not literals and stay out of scope.
fn metric_name_rule(toks: &[Tok], push: &mut impl FnMut(&'static str, u32, u32, String)) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("counter")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            push(
                "obs-metric-names",
                t.line,
                t.col,
                "`counter(\"…\")` with an inline name literal; use a const from the central `names` table"
                    .to_string(),
            );
        }
    }
}

/// `conc-lock-in-hot-loop`: inside the body of any configured hot
/// function, flag lock acquisition within `for`/`while`/`loop` bodies.
fn hot_loop_rule(
    toks: &[Tok],
    hot_fns: &[String],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("fn") && hot_fns.iter().any(|f| toks[i + 1].is_ident(f))) {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // Find the fn body: first `{` after the signature.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0i32;
        let mut body_end = toks.len();
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    body_end = j;
                    break;
                }
            }
            j += 1;
        }
        // Loop bodies inside the fn.
        let mut k = body_start;
        while k < body_end {
            if toks[k].is_ident("for") || toks[k].is_ident("while") || toks[k].is_ident("loop") {
                let mut m = k + 1;
                while m < body_end && !toks[m].is_punct('{') {
                    m += 1;
                }
                let mut d = 0i32;
                let loop_start = m;
                let mut loop_end = body_end;
                while m < body_end {
                    if toks[m].is_punct('{') {
                        d += 1;
                    } else if toks[m].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            loop_end = m;
                            break;
                        }
                    }
                    m += 1;
                }
                for n in loop_start..loop_end {
                    let t = &toks[n];
                    let dotted_lock = t.is_punct('.')
                        && toks.get(n + 1).is_some_and(|x| {
                            x.is_ident("lock") || x.is_ident("read") || x.is_ident("write")
                        })
                        && toks.get(n + 2).is_some_and(|x| x.is_punct('('));
                    let ctor = (t.is_ident("Mutex") || t.is_ident("RwLock"))
                        && toks.get(n + 1).is_some_and(|x| x.is_punct(':'));
                    if dotted_lock || ctor {
                        let what = if t.kind == TokKind::Punct {
                            format!(".{}()", toks[n + 1].text)
                        } else {
                            t.text.clone()
                        };
                        push(
                            "conc-lock-in-hot-loop",
                            t.line,
                            t.col,
                            format!(
                                "`{what}` inside `{fn_name}`'s per-target loop; acquire before the loop"
                            ),
                        );
                    }
                }
                k = loop_end.max(k + 1);
            } else {
                k += 1;
            }
        }
        i = body_end.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    fn find(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src, &cfg())
    }

    #[test]
    fn suppression_with_reason_silences_without_reason_reports() {
        let ok = "fn f(c: &AtomicU64) {\n    // sos-lint: allow(conc-relaxed) progress counter, never merged\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(find("crates/tga/src/det.rs", ok).is_empty());
        let bad = "fn f(c: &AtomicU64) {\n    // sos-lint: allow(conc-relaxed)\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let fs = find("crates/tga/src/det.rs", bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "suppression-reason");
    }

    #[test]
    fn stale_and_unknown_suppressions_report() {
        // the allow names a rule but nothing on its line or the next fires
        let stale = "fn f(c: &AtomicU64) {\n    // sos-lint: allow(conc-relaxed) the ordering below used to be Relaxed\n    c.fetch_add(1, Ordering::SeqCst);\n}";
        let fs = find("crates/tga/src/det.rs", stale);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].rule, fs[0].line), ("suppression-reason", 2));
        assert!(fs[0].message.contains("suppresses nothing"), "{fs:?}");
        // a retired rule's id is no rule at all: the allow reports, and the
        // finding it was meant for still fires
        let unknown = "fn f(c: &AtomicU64) {\n    // sos-lint: allow(conc-relaxd) progress counter, never merged\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let rules: Vec<&str> = find("crates/tga/src/det.rs", unknown)
            .iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, ["suppression-reason", "conc-relaxed"]);
        // the syntax quoted in a doc comment is documentation, not an allow
        assert!(find(
            "crates/tga/src/det.rs",
            "//! write `// sos-lint: allow(rule) why` at the site\n"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_needs_annotation_outside_obs() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }";
        assert_eq!(find("crates/core/src/runner.rs", src).len(), 1);
        assert!(find("crates/obs/src/metrics.rs", src).is_empty());
        let annotated = "fn f(c: &std::sync::atomic::AtomicU64) {\n    // sos-lint: allow(conc-relaxed) progress counter, merged with fence\n    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n}";
        assert!(find("crates/core/src/runner.rs", annotated).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_via_alias_too() {
        let src = "type FlowMap = HashMap<u64, u32>;\nfn f(attempts: &FlowMap) -> Vec<u64> {\n    attempts.keys().copied().collect()\n}";
        let fs = find("crates/probe/src/sim.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "det-hash-iter");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn hash_for_loop_flagged() {
        let src = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    for kv in &m { drop(kv); }\n}";
        let fs = find("crates/seeds/src/overlap.rs", src);
        assert!(
            fs.iter().any(|f| f.rule == "det-hash-iter" && f.line == 4),
            "{fs:?}"
        );
    }

    #[test]
    fn hash_lookup_is_fine() {
        let src = "fn f(m: &HashMap<u64, u32>) -> Option<u32> { m.get(&1).copied() }";
        assert!(find("crates/probe/src/sim.rs", src).is_empty());
    }

    #[test]
    fn unordered_type_banned_on_result_paths() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); drop(m); }";
        let fs = find("crates/core/src/report.rs", src);
        assert!(
            fs.iter().all(|f| f.rule == "det-unordered-collection"),
            "{fs:?}"
        );
        assert!(!fs.is_empty());
        assert!(find("crates/core/src/runner.rs", src)
            .iter()
            .all(|f| f.rule != "det-unordered-collection"));
    }

    #[test]
    fn lock_in_hot_loop_flagged() {
        let src = "fn probe_burst(&mut self) {\n    for t in targets {\n        let g = self.state.lock().unwrap();\n        drop(g);\n    }\n}";
        let fs = find("crates/probe/src/transport.rs", src);
        assert!(
            fs.iter().any(|f| f.rule == "conc-lock-in-hot-loop"),
            "{fs:?}"
        );
        let hoisted = "fn probe_burst(&mut self) {\n    let g = self.state.lock();\n    for t in targets { use_it(&g, t); }\n}";
        assert!(find("crates/probe/src/transport.rs", hoisted)
            .iter()
            .all(|f| f.rule != "conc-lock-in-hot-loop"));
    }

    #[test]
    fn metric_name_literals_flagged_in_prod_code_only() {
        let lit = "fn f() { sos_obs::counter(\"probe.hits\").inc(); }";
        let fs = find("crates/probe/src/engine.rs", lit);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "obs-metric-names");
        // Names routed through a const table are the sanctioned shape.
        let named = "fn f() { sos_obs::counter(names::HITS).inc(); }";
        assert!(find("crates/probe/src/engine.rs", named).is_empty());
        // Dynamic names are not literals; out of scope.
        let dynamic = "fn f(label: &str) { sos_obs::counter(&format!(\"tga.{label}.x\")).inc(); }";
        assert!(find("crates/tga/src/lib.rs", dynamic).is_empty());
        // Tests and the observability layer itself are exempt.
        let in_tests = "#[cfg(test)]\nmod tests { fn t() { sos_obs::counter(\"x\").inc(); } }";
        assert!(find("crates/probe/src/engine.rs", in_tests).is_empty());
        assert!(find("crates/obs/src/metrics.rs", lit).is_empty());
    }

    #[test]
    fn findings_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str { \"HashMap m.iter() counter(\\\"x\\\") Relaxed\" }\n// Ordering::Relaxed in prose\n";
        assert!(find("crates/probe/src/engine.rs", src).is_empty());
    }

    #[test]
    fn rule_table_is_consistent() {
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "rule ids are unique");
        assert!(rule_info("det-hash-iter").is_some());
        assert!(rule_info("nonexistent").is_none());
    }
}
