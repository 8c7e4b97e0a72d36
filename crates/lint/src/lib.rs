//! `sos-lint` — in-house static analysis for the seeds-of-scanning
//! workspace.
//!
//! The reproduction's headline property is *bit-identical determinism*:
//! sharded scans must merge to the sequential report, and every
//! comparative number in the paper assumes reruns reproduce. The dynamic
//! suites (stream pins, worker and shard invariance, the grid fan-out and
//! outlier-cut pins, kill+resume, the goldens) catch every planted bug
//! that changes bytes on a test world; this tool keeps the rules that
//! catch what they cannot — six of them, each with a fixture that only it
//! flags. It is a zero-dependency lexer (`lexer`), file/region
//! classification and suppression parsing (`classify`), hash-alias
//! recovery (`parse`), the per-file artifacts (`symbols`), and the
//! file-scoped token rules (`rules`). Any finding fails CI; the one way to
//! carry an exception is a reasoned allow comment at the site
//! (`sos-lint: allow(rule-id) reason`), and one that is malformed, names
//! no rule or suppresses nothing is itself a finding.
//!
//! See `README.md` § "Static analysis" for the rule list and DESIGN.md
//! § "Static analysis" for the mutation table behind it.

pub mod classify;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;

use std::path::{Path, PathBuf};

use sos_obs::json::Json;

pub use rules::{lint_files, lint_source, rule_info, Config, Finding, RuleInfo, RULES};

/// Directories never linted: build output, VCS, the lint crate's own rule
/// fixtures (which violate rules on purpose), and the repo benchmark — a
/// separate workspace whose job is wall-clock timing and allocation
/// counting, outside the deterministic pipeline these rules guard.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures", "benchmark"];

/// Collect every `.rs` file under `root` in sorted order (directory
/// iteration order is OS-dependent; sorting keeps reports
/// deterministic — the same property this tool enforces).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every source file under `root` ([`collect_sources`]): its path relative
/// to `root`, with `/` separators, and its text.
pub fn read_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(files)
}

/// Lint every source file under `root` with `cfg` ([`lint_files`]);
/// findings come back sorted by `(file, line, rule)`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    Ok(rules::lint_files(&read_sources(root)?, cfg))
}

/// Machine-readable report: the rule table and every finding. CI
/// archives it.
pub fn report_json(findings: &[Finding]) -> Json {
    let finding_json = |f: &Finding| {
        let mut span = Json::obj();
        span.set("line", u64::from(f.line))
            .set("col", u64::from(f.col));
        let mut o = Json::obj();
        o.set("rule", f.rule)
            .set("severity", f.severity())
            .set("file", f.file.as_str())
            .set("line", u64::from(f.line))
            .set("span", span)
            .set("message", f.message.as_str())
            .set("excerpt", f.excerpt.as_str());
        o
    };
    let mut doc = Json::obj();
    doc.set("version", 2u64).set("tool", "sos-lint");
    doc.set(
        "rules",
        Json::Arr(
            RULES
                .iter()
                .map(|r| {
                    let mut o = Json::obj();
                    o.set("id", r.id)
                        .set("group", r.group)
                        .set("severity", r.severity)
                        .set("rationale", r.rationale)
                        .set("fix", r.fix);
                    o
                })
                .collect(),
        ),
    );
    doc.set(
        "findings",
        Json::Arr(findings.iter().map(finding_json).collect()),
    );
    doc.set("total", findings.len());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_is_stable() {
        let f = Finding {
            rule: "det-hash-iter",
            file: "crates/a/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "m".into(),
            excerpt: "m.iter()".into(),
        };
        let doc = report_json(&[f]);
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(1));
        let first = &doc
            .get("findings")
            .and_then(Json::as_arr)
            .expect("findings")[0];
        assert_eq!(first.get("severity").and_then(Json::as_str), Some("error"));
        let span = first.get("span").expect("span");
        assert_eq!(span.get("line").and_then(Json::as_u64), Some(3));
        assert_eq!(span.get("col").and_then(Json::as_u64), Some(7));
        assert_eq!(
            doc.get("rules").and_then(Json::as_arr).map(<[Json]>::len),
            Some(RULES.len())
        );
        // the report itself round-trips through the parser
        assert!(Json::parse(&doc.to_string_pretty()).is_ok());
    }
}
