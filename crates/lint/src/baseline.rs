//! Baseline load/save/diff.
//!
//! CI does not fail on pre-existing debt: the committed
//! `LINT_BASELINE.json` records known findings, and a run fails only when
//! a finding appears that the baseline does not cover.
//!
//! **Format v2** keys entries on `(rule, file, content hash of the
//! trimmed flagged line)`. Hashing (rather than storing the raw line as
//! the key, as v1 did) keeps the matching property — edits elsewhere in a
//! file shift line numbers without churning the baseline, while *changing*
//! a flagged line makes the finding count as new again — and makes the
//! key's identity explicit: two different rules on the same line are two
//! entries, and an entry can never accidentally match a line it was not
//! minted from. The human-readable `excerpt` is still stored alongside,
//! but only the hash participates in matching. v1 documents (excerpt-keyed,
//! no `hash` field) load transparently: the excerpt is hashed on parse.

use std::collections::BTreeMap;

use sos_obs::json::Json;

use crate::rules::Finding;

/// Baseline document format version written by [`to_json`].
pub const BASELINE_VERSION: u64 = 2;

/// FNV-1a 64-bit over the trimmed line — stable across platforms and
/// releases (unlike `DefaultHasher`), cheap, and collision-safe at
/// baseline scale (dozens of entries).
pub fn content_hash(line: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line.trim().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One baseline entry: the matching key `(rule, file, hash)` plus the
/// excerpt the hash was minted from (carried for human review only).
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    /// [`content_hash`] of the trimmed flagged line.
    pub hash: u64,
    pub excerpt: String,
}

/// The part of an entry that participates in matching.
type Key = (String, String, u64);

impl BaselineEntry {
    fn of(f: &Finding) -> BaselineEntry {
        BaselineEntry {
            rule: f.rule.to_string(),
            file: f.file.clone(),
            hash: content_hash(&f.excerpt),
            excerpt: f.excerpt.clone(),
        }
    }

    fn key(&self) -> Key {
        (self.rule.clone(), self.file.clone(), self.hash)
    }
}

/// Outcome of diffing current findings against a baseline.
#[derive(Debug, Default)]
pub struct Diff {
    /// Findings the baseline does not cover — these fail the build.
    pub new: Vec<Finding>,
    /// Baseline entries no findings matched — fixed debt; rewrite the
    /// baseline to drop them.
    pub resolved: Vec<BaselineEntry>,
}

/// Encode findings as a v2 baseline document.
pub fn to_json(findings: &[Finding]) -> Json {
    let mut doc = Json::obj();
    doc.set("version", BASELINE_VERSION).set("tool", "sos-lint");
    let mut sorted: Vec<BaselineEntry> = findings.iter().map(BaselineEntry::of).collect();
    sorted.sort_by_key(BaselineEntry::key);
    let mut entries: Vec<Json> = Vec::with_capacity(sorted.len());
    for e in &sorted {
        let mut o = Json::obj();
        o.set("rule", e.rule.as_str())
            .set("file", e.file.as_str())
            .set("hash", format!("{:016x}", e.hash).as_str())
            .set("excerpt", e.excerpt.as_str());
        entries.push(o);
    }
    doc.set("findings", Json::Arr(entries));
    doc
}

/// Parse a baseline document (v1 or v2) into a multiset of entries.
///
/// v1 entries carry no `hash`; the stored excerpt *was* the key, so
/// hashing it reproduces exactly the v2 key the same finding would mint —
/// migration changes the representation, never the match outcome.
pub fn parse(doc: &Json) -> Result<Vec<BaselineEntry>, String> {
    let version = doc.get("version").and_then(Json::as_u64).unwrap_or(1);
    if version > BASELINE_VERSION {
        return Err(format!(
            "baseline version {version} is newer than this sos-lint (max {BASELINE_VERSION}); rebuild or refresh"
        ));
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("baseline has no `findings` array")?;
    let mut out = Vec::with_capacity(findings.len());
    for f in findings {
        let field = |k: &str| {
            f.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry missing `{k}`"))
        };
        let excerpt = field("excerpt")?;
        let hash = match f.get("hash").and_then(Json::as_str) {
            Some(hex) => u64::from_str_radix(hex, 16)
                .map_err(|_| format!("baseline entry has bad hash `{hex}`"))?,
            // v1 migration: the excerpt was the key; hash it.
            None => content_hash(&excerpt),
        };
        out.push(BaselineEntry { rule: field("rule")?, file: field("file")?, hash, excerpt });
    }
    Ok(out)
}

/// Diff current findings against baseline entries (multiset semantics:
/// two identical lines need two baseline entries).
pub fn diff(current: &[Finding], baseline: &[BaselineEntry]) -> Diff {
    let mut budget: BTreeMap<Key, Vec<BaselineEntry>> = BTreeMap::new();
    for e in baseline {
        budget.entry(e.key()).or_default().push(e.clone());
    }
    let mut out = Diff::default();
    for f in current {
        let key = BaselineEntry::of(f).key();
        match budget.get_mut(&key) {
            Some(v) if !v.is_empty() => {
                v.pop();
            }
            _ => out.new.push(f.clone()),
        }
    }
    for (_, leftovers) in budget {
        out.resolved.extend(leftovers);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, excerpt: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: String::new(),
            excerpt: excerpt.to_string(),
        }
    }

    #[test]
    fn baseline_round_trips_at_v2() {
        let fs = vec![
            finding("panic-unwrap", "crates/a/src/lib.rs", 10, "x.unwrap()"),
            finding("det-wallclock", "crates/b/src/lib.rs", 3, "Instant::now()"),
        ];
        let doc = to_json(&fs);
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        let back = parse(&Json::parse(&doc.to_string_pretty()).expect("parses")).expect("entries");
        assert_eq!(back.len(), 2);
        let d = diff(&fs, &back);
        assert!(d.new.is_empty());
        assert!(d.resolved.is_empty());
    }

    #[test]
    fn line_drift_does_not_create_new_findings() {
        let old = vec![finding("panic-unwrap", "f.rs", 10, "x.unwrap()")];
        let entries = parse(&to_json(&old)).expect("entries");
        let drifted = vec![finding("panic-unwrap", "f.rs", 99, "x.unwrap()")];
        assert!(diff(&drifted, &entries).new.is_empty());
    }

    #[test]
    fn changed_line_or_new_site_is_new() {
        let entries = parse(&to_json(&[finding("panic-unwrap", "f.rs", 1, "a.unwrap()")]))
            .expect("entries");
        let changed = vec![finding("panic-unwrap", "f.rs", 1, "b.unwrap()")];
        let d = diff(&changed, &entries);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.resolved.len(), 1, "old entry reported as resolved");
    }

    #[test]
    fn multiset_counts_duplicates() {
        let one = vec![finding("panic-unwrap", "f.rs", 1, "x.unwrap()")];
        let entries = parse(&to_json(&one)).expect("entries");
        let twice = vec![
            finding("panic-unwrap", "f.rs", 1, "x.unwrap()"),
            finding("panic-unwrap", "f.rs", 2, "x.unwrap()"),
        ];
        let d = diff(&twice, &entries);
        assert_eq!(d.new.len(), 1, "second identical line needs its own entry");
    }

    #[test]
    fn v1_documents_migrate_by_hashing_the_excerpt() {
        let v1 = r#"{
            "version": 1,
            "tool": "sos-lint",
            "findings": [
                {"rule": "panic-unwrap", "file": "f.rs", "excerpt": "x.unwrap()"}
            ]
        }"#;
        let entries = parse(&Json::parse(v1).expect("json")).expect("entries");
        assert_eq!(entries[0].hash, content_hash("x.unwrap()"));
        let current = vec![finding("panic-unwrap", "f.rs", 42, "x.unwrap()")];
        assert!(diff(&current, &entries).new.is_empty(), "v1 entry still covers the finding");
    }

    #[test]
    fn hash_keys_not_excerpts_participate_in_matching() {
        // Same key fields, hand-corrupted excerpt: matching must follow
        // the hash, so the doctored entry does NOT cover the finding.
        let mut e = parse(&to_json(&[finding("panic-unwrap", "f.rs", 1, "a.unwrap()")]))
            .expect("entries");
        e[0].hash = content_hash("something else entirely");
        let d = diff(&[finding("panic-unwrap", "f.rs", 1, "a.unwrap()")], &e);
        assert_eq!(d.new.len(), 1);
    }

    #[test]
    fn content_hash_trims_and_is_stable() {
        assert_eq!(content_hash("  x.unwrap()  "), content_hash("x.unwrap()"));
        // pinned value: the hash is part of the committed-baseline format
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn malformed_baselines_error() {
        assert!(parse(&Json::parse("{}").expect("json")).is_err());
        assert!(parse(&Json::parse(r#"{"findings":[{"rule":"x"}]}"#).expect("json")).is_err());
        assert!(
            parse(&Json::parse(r#"{"version": 99, "findings": []}"#).expect("json")).is_err(),
            "future versions are rejected, not misread"
        );
    }
}
