//! The rule set: the determinism and concurrency invariants only this
//! tool can see.
//!
//! Every rule is a token-pattern matcher over [`crate::lexer::lex`] output,
//! scoped by [`crate::classify::FileClass`] and the crate the file lives
//! in. The rules encode *workspace policy*, not general Rust style:
//!
//! - **Determinism** — scan reports, manifests, and candidate lists must
//!   be bit-identical across runs and shard counts (the sharded scanner's
//!   merge contract, and the precondition for every comparative claim in
//!   the paper). Nothing on those paths may iterate a randomized-order
//!   container or reduce floats in an order that can vary.
//! - **Concurrency** — the `par_map` merge boundary only preserves the
//!   bit-identity argument if cross-shard state is either absent or
//!   explicitly annotated; per-target hot loops must not take locks.
//!
//! What a type-resolving tool already enforces is not re-guessed from
//! tokens here: wall-clock, ambient entropy and `RandomState` are clippy's
//! `disallowed_methods` / `disallowed_types` (tables in `clippy.toml`),
//! panic-safety of the scan-path libraries is `clippy::{unwrap_used,
//! expect_used, panic, unreachable, todo, unimplemented}`, and `static mut`
//! falls to `unsafe_code = "forbid"` — all levelled in the root
//! `Cargo.toml`'s `[workspace.lints]`.

use crate::classify::{
    crate_of, in_test_region, suppressed, suppressions, test_regions, FileClass,
};
use crate::lexer::{lex, Tok, TokKind};

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

/// The full rule set, in display order. File-scoped rules first, then the
/// workspace dataflow rules (which need the parser + call graph).
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
        id: "det-unordered-iter",
        group: "determinism",
        rationale: "hash-container iteration inside a function reachable from a deterministic root (TGA generate paths, digest/manifest writers, journal emitters, checkpoint serializers) leaks per-process order into bytes that must be bit-identical at any worker count",
        severity: "error",
        fix: "use a BTree collection, or collect and sort before the order can escape; only an explicit sort excuses a site on a deterministic path",
    },
    RuleInfo {
        id: "det-float-reduce",
        group: "determinism",
        rationale: "float addition does not commute under rounding, so sum::<f64>/fold(0.0,..)/x += inside a function on a deterministic path changes digest bytes whenever reduction order changes — even over the same value set",
        severity: "error",
        fix: "fix the reduction order (sort first), accumulate in integers, or suppress with the total-order argument written down",
    },
    RuleInfo {
        id: "par-shared-mut",
        group: "concurrency",
        rationale: "a par_map closure that locks or mutates captured state makes worker interleaving observable, breaking the merge contract that W-invariance rests on (workers return per-slot results; the join merges deterministically)",
        severity: "error",
        fix: "return per-item values from the closure and merge after the join",
    },
    RuleInfo {
        id: "lock-order",
        group: "concurrency",
        rationale: "two functions acquiring the same pair of locks in opposite orders deadlock the moment shard workers interleave them",
        severity: "error",
        fix: "adopt one global acquisition order (alphabetical by field) and re-order the flagged function to match",
    },
    RuleInfo {
        id: "conc-relaxed",
        group: "concurrency",
        rationale: "Relaxed ordering on state crossing the par_map merge boundary needs a written justification (sos-lint: allow)",
        severity: "error",
        fix: "use AcqRel/SeqCst, or suppress with the monotonicity argument written down",
    },
    RuleInfo {
        id: "conc-lock-in-hot-loop",
        group: "concurrency",
        rationale: "taking a lock inside a per-target hot loop (probe_burst) serializes the shards the loop exists to parallelize; hoist it",
        severity: "error",
        fix: "acquire the lock once before the loop",
    },
    RuleInfo {
        id: "obs-metric-names",
        group: "observability",
        rationale: "counter/histogram registered under an inline string literal drifts from the central name tables; route names through a `names` const module so manifests, snapshots, and dashboards stay in sync",
        severity: "warn",
        fix: "replace the literal with a const from the central `names` module",
    },
    RuleInfo {
        id: "suppression-reason",
        group: "meta",
        rationale: "every `sos-lint: allow(...)` must carry a written reason; undocumented exceptions rot",
        severity: "warn",
        fix: "append the reason to the allow comment: `// sos-lint: allow(rule) because …`",
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
    /// Deterministic-root registry: `(path substring, fn name)` pairs.
    /// Functions matching an entry seed the taint pass; the default comes
    /// from [`crate::taint::DETERMINISTIC_ROOTS`]. Definition-site
    /// `// sos-lint: deterministic-root` comments add to this set.
    pub roots: Vec<(String, String)>,
    /// The `par_map` family: functions whose closure arguments must not
    /// mutate shared state (`par-shared-mut`).
    pub par_fns: Vec<String>,
    /// Method-call resolution fallback cutoff: a method name implemented
    /// by more than this many workspace types draws no call-graph edges.
    pub method_fallback_max: usize,
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
            roots: crate::taint::DETERMINISTIC_ROOTS
                .iter()
                .map(|(path, name, _)| (path.to_string(), name.to_string()))
                .collect(),
            par_fns: vec!["par_map".to_string()],
            method_fallback_max: 6,
        }
    }
}

/// Lint one source file on its own. `rel_path` is workspace-relative with
/// `/` separators; it drives classification and allowlists. Hash-container
/// aliases declared in *other* files are unknown here — [`lint_files`]
/// supplies them.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    lint_source_with(rel_path, src, cfg, &[])
}

/// [`lint_source`] with the workspace's hash-container alias names
/// (`AddrSet`, `AddrMap`, …), which the hash rules treat like `HashMap`.
fn lint_source_with(rel_path: &str, src: &str, cfg: &Config, aliases: &[String]) -> Vec<Finding> {
    let class = FileClass::of(rel_path);
    let krate = crate_of(rel_path).unwrap_or("");
    let lexed = lex(src);
    let regions = test_regions(&lexed);
    let supps = suppressions(&lexed.comments);
    let lines: Vec<&str> = src.lines().collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, col: u32, message: String| {
        let excerpt = lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        raw.push(Finding { rule, file: rel_path.to_string(), line, col, message, excerpt });
    };

    let prod_code = matches!(class, FileClass::Lib | FileClass::Bin);
    let toks = &lexed.toks;

    // --- determinism -----------------------------------------------------
    if prod_code && cfg.result_path_files.iter().any(|f| rel_path.contains(f.as_str())) {
        let own = crate::parse::hash_alias_names(toks);
        let is_alias = |t: &Tok| aliases.iter().any(|a| t.is_ident(a)) || own.iter().any(|a| t.is_ident(a));
        for t in toks {
            if t.is_ident("HashMap") || t.is_ident("HashSet") || is_alias(t) {
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
    if prod_code && !cfg.relaxed_crates.iter().any(|c| c == krate) {
        for t in toks {
            if t.is_ident("Relaxed") {
                push(
                    "conc-relaxed",
                    t.line,
                    t.col,
                    "`Ordering::Relaxed` needs a written justification that it cannot cross the par_map merge boundary unsynchronized"
                        .to_string(),
                );
            }
        }
    }

    hot_loop_rule(toks, &cfg.hot_fns, &mut push);

    // --- observability ---------------------------------------------------
    if prod_code && !cfg.metric_table_files.iter().any(|f| rel_path.contains(f.as_str())) {
        metric_name_rule(toks, &mut push);
    }

    // --- meta: suppressions without reasons ------------------------------
    for s in &supps {
        if !s.has_reason {
            push(
                "suppression-reason",
                s.line,
                1,
                format!("suppression of `{}` has no reason; write why the exception is sound", s.rule),
            );
        }
    }

    // --- filtering: test regions, then suppressions ----------------------
    raw.retain(|f| {
        if f.rule == "suppression-reason" {
            return true; // reasons are required everywhere, and un-suppressible
        }
        if in_test_region(&regions, f.line) {
            return false; // tests may hash, relax, and name metrics freely
        }
        !suppressed(&supps, f.rule, f.line)
    });
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw
}

/// Lint a whole workspace: every file-scoped rule per file, then the
/// dataflow rules over the parsed workspace (symbol table → call graph →
/// taint), with the same test-region/suppression filtering applied to
/// workspace findings.
///
/// One offending line reports once: where `det-unordered-iter` and its
/// file-scoped counterpart `det-hash-iter` both see a line, the dataflow
/// finding is kept for its root attribution. Neither covers the other —
/// taint reaches only what a deterministic root calls, the file-scoped
/// rule only what lexically looks unsorted (`workspace_dataflow.rs` pins
/// both halves).
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let ws = crate::symbols::Workspace::build(files, cfg);
    let graph = crate::callgraph::CallGraph::build(&ws, cfg);
    let taint = crate::taint::Taint::build(&ws, &graph, cfg);

    let mut all: Vec<Finding> = Vec::new();
    for (rel, src) in files {
        all.extend(lint_source_with(rel, src, cfg, &ws.hash_aliases));
    }
    for f in crate::taint::workspace_rules(&ws, &graph, &taint, cfg) {
        let Some(fd) = ws.files.iter().find(|d| d.rel == f.file) else { continue };
        if in_test_region(&fd.regions, f.line) || suppressed(&fd.supps, f.rule, f.line) {
            continue;
        }
        all.push(f);
    }

    let tainted: Vec<(String, u32)> = all
        .iter()
        .filter(|f| f.rule == "det-unordered-iter")
        .map(|f| (f.file.clone(), f.line))
        .collect();
    all.retain(|f| {
        f.rule != "det-hash-iter"
            || !tainted.iter().any(|(file, line)| *file == f.file && *line == f.line)
    });
    all.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    all
}

/// Identifiers bound to hash-container types anywhere in the file:
/// `name: [&][mut] HashMap<..>` ascriptions and `name = HashMap::..`
/// initializers. `extra_aliases` adds workspace-wide alias names (the
/// file's own `type X = HashMap<..>` aliases are always included).
pub(crate) fn hash_bound_names(toks: &[Tok], extra_aliases: &[String]) -> Vec<String> {
    let mut hash_types: Vec<&str> = vec!["HashMap", "HashSet"];
    hash_types.extend(extra_aliases.iter().map(String::as_str));
    hash_types.extend(crate::parse::hash_alias_names(toks));
    let mut bound: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = &toks[i].text;
        if let Some(next) = toks.get(i + 1) {
            if next.is_punct(':') && !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
                // type ascription: skip `&`, `mut`, lifetimes
                let mut j = i + 2;
                while toks.get(j).is_some_and(|t| {
                    t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime
                }) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| hash_types.iter().any(|h| t.is_ident(h))) {
                    bound.push(name.clone());
                }
            }
            if next.is_punct('=')
                && toks
                    .get(i + 2)
                    .is_some_and(|t| hash_types.iter().any(|h| t.is_ident(h)))
            {
                bound.push(name.clone());
            }
        }
    }
    bound
}

/// One order-dependent iteration over a hash-bound identifier.
pub(crate) struct IterSite {
    /// Token index of the iterated identifier.
    pub idx: usize,
    pub line: u32,
    pub col: u32,
    /// `` `name.keys()` `` / `` `for … in name` `` for messages.
    pub desc: String,
    /// A `sort*` call follows within a few lines — order restored.
    pub sorted: bool,
    /// An order-insensitive reduction (`count`/`sum`/…) follows. The
    /// file-scoped rule accepts this escape; the dataflow rule does not
    /// (it cannot tell integer sums from float sums).
    pub reduced: bool,
}

/// Find order-dependent iteration sites over `bound` identifiers.
pub(crate) fn hash_iter_sites(toks: &[Tok], bound: &[String]) -> Vec<IterSite> {
    const ORDER_DEPENDENT: &[&str] =
        &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain"];
    const SORTS: &[&str] = &[
        "sort", "sort_unstable", "sort_by", "sort_by_key", "sort_unstable_by",
        "sort_unstable_by_key",
    ];
    const REDUCTIONS: &[&str] = &["count", "sum", "min", "max", "any", "all"];
    let soon = |start: usize, line: u32, names: &[&str]| {
        toks[start..]
            .iter()
            .take_while(|t| t.line <= line + 6)
            .any(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !bound.iter().any(|b| b == &t.text) {
            continue;
        }
        // `name.iter()` and friends.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| ORDER_DEPENDENT.iter().any(|m| n.is_ident(m)))
        {
            out.push(IterSite {
                idx: i,
                line: t.line,
                col: t.col,
                desc: format!("`{}.{}()`", t.text, toks[i + 2].text),
                sorted: soon(i + 3, t.line, SORTS),
                reduced: soon(i + 3, t.line, REDUCTIONS),
            });
        }
        // `for pat in [&][mut] name {`.
        if i >= 1 {
            let mut j = i;
            while j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j >= 1
                && toks[j - 1].is_ident("in")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
            {
                out.push(IterSite {
                    idx: i,
                    line: t.line,
                    col: t.col,
                    desc: format!("`for … in {}`", t.text),
                    sorted: soon(i + 1, t.line, SORTS),
                    reduced: soon(i + 1, t.line, REDUCTIONS),
                });
            }
        }
    }
    out
}

/// `det-hash-iter`: find identifiers bound to hash-container types in this
/// file, then flag order-dependent iteration over them. Order restored
/// (`sort*`) or erased (an order-insensitive reduction) close by is fine.
fn hash_iter_rule(
    toks: &[Tok],
    aliases: &[String],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let bound = hash_bound_names(toks, aliases);
    if bound.is_empty() {
        return;
    }
    for site in hash_iter_sites(toks, &bound) {
        if site.sorted || site.reduced {
            continue;
        }
        push(
            "det-hash-iter",
            site.line,
            site.col,
            format!(
                "{} iterates a hash container in per-process order; sort or use a BTree collection",
                site.desc
            ),
        );
    }
}

/// `obs-metric-names`: flag a string literal as the *name* argument of a
/// registry lookup — `counter("...")`, `histogram("...")`, and their
/// `_with` labeled variants. Names must be consts from a central `names`
/// module (`counter(names::HITS)`); dynamic names built with `format!`
/// are not literals and stay out of scope.
fn metric_name_rule(toks: &[Tok], push: &mut impl FnMut(&'static str, u32, u32, String)) {
    const REGISTRY_FNS: &[&str] = &["counter", "histogram", "counter_with", "histogram_with"];
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && REGISTRY_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            push(
                "obs-metric-names",
                t.line,
                t.col,
                format!(
                    "`{}(\"…\")` with an inline name literal; use a const from the central `names` table",
                    t.text
                ),
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
        assert!(fs.iter().any(|f| f.rule == "det-hash-iter" && f.line == 4), "{fs:?}");
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
        assert!(fs.iter().all(|f| f.rule == "det-unordered-collection"), "{fs:?}");
        assert!(!fs.is_empty());
        assert!(find("crates/core/src/runner.rs", src)
            .iter()
            .all(|f| f.rule != "det-unordered-collection"));
    }

    #[test]
    fn lock_in_hot_loop_flagged() {
        let src = "fn probe_burst(&mut self) {\n    for t in targets {\n        let g = self.state.lock().unwrap();\n        drop(g);\n    }\n}";
        let fs = find("crates/probe/src/transport.rs", src);
        assert!(fs.iter().any(|f| f.rule == "conc-lock-in-hot-loop"), "{fs:?}");
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
        let labeled = "fn f(r: &Registry) { r.histogram_with(\"wait.us\", &Labels::new()).record(1); }";
        let fs = find("crates/core/src/runner.rs", labeled);
        assert!(fs.iter().any(|f| f.rule == "obs-metric-names"), "{fs:?}");
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
