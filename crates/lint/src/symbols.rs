//! Workspace symbol table: every file lexed, parsed, and classified once,
//! every production function indexed by name.
//!
//! [`Workspace::build`] is the single entry point the dataflow passes
//! share: it owns the per-file artifacts (tokens, comments, parsed items,
//! test regions, suppressions) and the global function table the call
//! graph resolves against. Everything is ordered by file path and token
//! position, so analysis output is deterministic — the same property the
//! rules enforce.

use std::collections::BTreeMap;

use crate::classify::{crate_of, suppressions, test_regions, FileClass, Suppression};
use crate::lexer::{lex, Lexed};
use crate::parse::{parse, ParsedFile};

/// One file's analysis artifacts.
pub struct FileData {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Trimmed source lines, for excerpts ([`FileData::excerpt`]).
    pub lines: Vec<String>,
    pub lexed: Lexed,
    pub parsed: ParsedFile,
    pub class: FileClass,
    /// Crate directory name (`crates/<krate>/…`), or `""` outside crates.
    pub krate: String,
    pub regions: Vec<(u32, u32)>,
    pub supps: Vec<Suppression>,
}

impl FileData {
    /// Production code: findings bind lib and bin classes only.
    pub fn prod(&self) -> bool {
        matches!(self.class, FileClass::Lib | FileClass::Bin)
    }

    /// The trimmed text of 1-based `line` (empty past the end).
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }
}

/// Global id of a function: `(file index, fn index within that file)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    pub file: usize,
    pub idx: usize,
}

/// The analyzed workspace.
pub struct Workspace {
    pub files: Vec<FileData>,
    /// Every production-code function, in `(file, source)` order. Test
    /// files and `#[cfg(test)]` regions are excluded: test helpers must
    /// not create call-graph edges or become taint roots.
    pub fns: Vec<FnId>,
    /// Function name → indices into [`Workspace::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Hash-container type aliases declared anywhere in the workspace.
    pub hash_aliases: Vec<String>,
}

impl Workspace {
    /// Lex, parse, and index every file.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let mut out = Workspace {
            files: Vec::with_capacity(files.len()),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            hash_aliases: Vec::new(),
        };
        for (rel, src) in files {
            let lexed = lex(src);
            let parsed = parse(&lexed);
            let regions = test_regions(&lexed);
            let supps = suppressions(&lexed.comments);
            out.files.push(FileData {
                rel: rel.clone(),
                lines: src.lines().map(|l| l.trim().to_string()).collect(),
                lexed,
                parsed,
                class: FileClass::of(rel),
                krate: crate_of(rel).unwrap_or("").to_string(),
                regions,
                supps,
            });
        }
        for (fi, fd) in out.files.iter().enumerate() {
            fd.parsed
                .hash_aliases
                .iter()
                .for_each(|a| out.hash_aliases.push(a.clone()));
            if !fd.prod() {
                continue;
            }
            for (idx, f) in fd.parsed.fns.iter().enumerate() {
                if crate::classify::in_test_region(&fd.regions, f.line) {
                    continue;
                }
                let gid = out.fns.len();
                out.fns.push(FnId { file: fi, idx });
                out.by_name.entry(f.name.clone()).or_default().push(gid);
            }
        }
        out.hash_aliases.sort();
        out.hash_aliases.dedup();
        out
    }

    /// The [`crate::parse::FnDef`] behind a global fn index.
    pub fn def(&self, gid: usize) -> &crate::parse::FnDef {
        let FnId { file, idx } = self.fns[gid];
        &self.files[file].parsed.fns[idx]
    }

    /// File of a global fn index.
    pub fn file_of(&self, gid: usize) -> &FileData {
        &self.files[self.fns[gid].file]
    }

    /// Human-readable qualified name (`Owner::name` or `name`).
    pub fn qual_name(&self, gid: usize) -> String {
        let d = self.def(gid);
        match &d.owner {
            Some(o) => format!("{o}::{}", d.name),
            None => d.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        Workspace::build(&owned)
    }

    #[test]
    fn prod_fns_indexed_tests_excluded() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn alpha() {}\n#[cfg(test)]\nmod t { fn helper() {} }",
            ),
            ("crates/a/tests/it.rs", "fn test_only() {}"),
            ("crates/b/src/lib.rs", "pub fn alpha() {}"),
        ]);
        assert_eq!(
            w.by_name.get("alpha").map(Vec::len),
            Some(2),
            "one per crate"
        );
        assert!(
            !w.by_name.contains_key("helper"),
            "#[cfg(test)] fns excluded"
        );
        assert!(!w.by_name.contains_key("test_only"), "test files excluded");
    }

    #[test]
    fn aliases_are_workspace_wide() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub type FlowMap = HashMap<u64, u32>;",
            ),
            ("crates/b/src/lib.rs", "fn uses(m: &FlowMap) {}"),
        ]);
        assert_eq!(w.hash_aliases, vec!["FlowMap"]);
    }
}
