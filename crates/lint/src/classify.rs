//! File classification, `#[cfg(test)]` region detection, and suppression
//! comments.
//!
//! Rule applicability depends on *where* code lives: the rules bind
//! library and binary code, not tests, benches, or examples. Suppressions
//! are ordinary comments —
//! `// sos-lint: allow(rule-id) reason` — and the reason is mandatory:
//! an allow without one still silences the target finding but raises a
//! `suppression-reason` finding of its own, as does one that names no
//! rule or suppresses nothing, so undocumented and stale exceptions
//! cannot accumulate silently.

use crate::lexer::{Comment, Lexed};

/// Where a source file sits in the crate layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/*/src/**` excluding `src/bin` — library code.
    Lib,
    /// `src/bin/**` or `src/main.rs` — binary entry points.
    Bin,
    /// `tests/**` — integration tests.
    Test,
    /// `benches/**` — benchmarks.
    Bench,
    /// `examples/**` — runnable examples.
    Example,
    /// `build.rs`.
    BuildScript,
}

impl FileClass {
    /// Classify a path relative to the workspace root (always with `/`
    /// separators).
    pub fn of(rel_path: &str) -> FileClass {
        let dirs: Vec<&str> = rel_path.split('/').collect();
        let has_dir = |name: &str| dirs[..dirs.len().saturating_sub(1)].contains(&name);
        // a build script sits beside `Cargo.toml`; `src/build.rs` is a module
        if dirs.last() == Some(&"build.rs") && !has_dir("src") {
            FileClass::BuildScript
        } else if has_dir("tests") {
            FileClass::Test
        } else if has_dir("benches") {
            FileClass::Bench
        } else if has_dir("examples") {
            FileClass::Example
        } else if rel_path.contains("/src/bin/") || rel_path.ends_with("src/main.rs") {
            FileClass::Bin
        } else {
            FileClass::Lib
        }
    }
}

/// Crate directory name from a workspace-relative path
/// (`crates/probe/src/sim.rs` → `probe`); files outside `crates/` (the
/// root `tests/` and `examples/`) return `None`.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// Inclusive line ranges covered by `#[cfg(test)]` items.
///
/// Token-level scan: each `#[cfg(test)]` attribute is matched to the item
/// that follows it (skipping further attributes); the item's body is the
/// brace-balanced block after its first `{`. Items that end at a `;`
/// (e.g. a `use`) cover only their own lines.
pub fn test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 5 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Skip to the end of this attribute's `]`.
        let mut j = i + 2;
        let mut bracket = 1i32;
        while j < toks.len() && bracket > 0 {
            if toks[j].is_punct('[') {
                bracket += 1;
            } else if toks[j].is_punct(']') {
                bracket -= 1;
            }
            j += 1;
        }
        // Skip any further attributes on the same item.
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The item body: everything to the matching `}` of its first `{`,
        // or to a `;` if one comes first (item without a body).
        let mut brace = 0i32;
        let mut end_line = start_line;
        while j < toks.len() {
            if brace == 0 && toks[j].is_punct(';') {
                end_line = toks[j].line;
                j += 1;
                break;
            }
            if toks[j].is_punct('{') {
                brace += 1;
            } else if toks[j].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    end_line = toks[j].line;
                    j += 1;
                    break;
                }
            }
            end_line = toks[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

/// Is `line` inside any test region?
pub fn in_test_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// One parsed `sos-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule id being allowed; empty for a malformed directive (`allow()`,
    /// or an `allow(` never closed), which allows nothing.
    pub rule: String,
    /// Line of the comment; the suppression covers this line and the next.
    pub line: u32,
    /// Whether a written reason follows the `allow(...)`.
    pub has_reason: bool,
}

impl Suppression {
    /// Does this suppression cover a `rule` finding on `line`?
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Extract suppressions from comments. Syntax, anywhere in a plain (not
/// doc) comment:
///
/// ```text
/// // sos-lint: allow(rule-a, rule-b) why this exception is sound
/// ```
///
/// An `allow(` that names no rule or never closes comes back as one
/// suppression with an empty rule, so it is reported rather than ignored.
pub fn suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // `///`, `//!`, `/**` and `/*!` document the syntax; they allow nothing
        if c.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let Some(at) = c.text.find("sos-lint:") else {
            continue;
        };
        let rest = c.text[at + "sos-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            continue;
        };
        let (rules, reason) = rest.split_once(')').unwrap_or(("", ""));
        let has_reason = reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3;
        let mut rules: Vec<&str> = rules
            .split(',')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            rules.push(""); // malformed: reported, allows nothing
        }
        for rule in rules {
            out.push(Suppression {
                rule: rule.to_string(),
                line: c.line,
                has_reason,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classes_from_paths() {
        assert_eq!(FileClass::of("crates/probe/src/sim.rs"), FileClass::Lib);
        assert_eq!(
            FileClass::of("crates/core/src/bin/seedscan.rs"),
            FileClass::Bin
        );
        assert_eq!(
            FileClass::of("crates/probe/tests/parallel_scan.rs"),
            FileClass::Test
        );
        assert_eq!(FileClass::of("tests/end_to_end.rs"), FileClass::Test);
        assert_eq!(
            FileClass::of("crates/bench/benches/substrates.rs"),
            FileClass::Bench
        );
        assert_eq!(FileClass::of("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(
            FileClass::of("crates/netmodel/build.rs"),
            FileClass::BuildScript
        );
        assert_eq!(
            FileClass::of("crates/netmodel/src/build.rs"),
            FileClass::Lib
        );
    }

    #[test]
    fn crate_names_from_paths() {
        assert_eq!(crate_of("crates/probe/src/sim.rs"), Some("probe"));
        assert_eq!(crate_of("tests/end_to_end.rs"), None);
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn more() {}";
        let lexed = lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions, vec![(2, 5)]);
        assert!(in_test_region(&regions, 4));
        assert!(!in_test_region(&regions, 1));
        assert!(!in_test_region(&regions, 6));
    }

    #[test]
    fn cfg_test_with_extra_attrs_and_semicolon_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { body(); }\n#[cfg(test)]\nuse std::fmt;\nfn after() {}";
        let regions = test_regions(&lex(src));
        assert_eq!(regions, vec![(1, 3), (4, 5)]);
    }

    #[test]
    fn suppression_parsing_and_coverage() {
        let lexed = lex(
            "// sos-lint: allow(det-hash-iter) length checked above\nx.unwrap();\n// sos-lint: allow(conc-relaxed)\ny();\n",
        );
        let supps = suppressions(&lexed.comments);
        assert_eq!(supps.len(), 2);
        assert!(supps[0].has_reason);
        assert!(!supps[1].has_reason);
        assert!(supps[0].covers("det-hash-iter", 2));
        assert!(!supps[0].covers("det-hash-iter", 4));
        assert!(supps[1].covers("conc-relaxed", 4));
    }

    #[test]
    fn multi_rule_suppressions() {
        let lexed = lex("// sos-lint: allow(det-hash-iter, conc-relaxed) both are sorted two lines down\ncode();\n");
        let supps = suppressions(&lexed.comments);
        assert_eq!(supps.len(), 2);
        assert!(supps[1].covers("conc-relaxed", 2));
    }
}
