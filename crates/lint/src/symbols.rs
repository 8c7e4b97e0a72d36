//! The linted workspace: every file lexed and classified once, and the
//! hash-container aliases declared anywhere in it.
//!
//! [`Workspace::build`] owns the per-file artifacts every rule reads
//! (tokens, comments, test regions, suppressions). Files keep the order
//! they are given in — sorted by path when they come from
//! [`crate::read_sources`] — so the report is deterministic, the same
//! property the rules enforce.

use crate::classify::{crate_of, suppressions, test_regions, FileClass, Suppression};
use crate::lexer::{lex, Lexed};
use crate::parse::hash_alias_names;

/// One file's analysis artifacts.
pub struct FileData {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Trimmed source lines, for excerpts ([`FileData::excerpt`]).
    pub lines: Vec<String>,
    pub lexed: Lexed,
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

/// The analyzed workspace.
pub struct Workspace {
    pub files: Vec<FileData>,
    /// Hash-container type aliases declared anywhere in the workspace,
    /// sorted and deduplicated.
    pub hash_aliases: Vec<String>,
}

impl Workspace {
    /// Lex and classify every file, and collect the aliases.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let mut hash_aliases = Vec::new();
        let files = files
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                hash_aliases.extend(hash_alias_names(&lexed.toks).into_iter().map(String::from));
                FileData {
                    rel: rel.clone(),
                    lines: src.lines().map(|l| l.trim().to_string()).collect(),
                    class: FileClass::of(rel),
                    krate: crate_of(rel).unwrap_or("").to_string(),
                    regions: test_regions(&lexed),
                    supps: suppressions(&lexed.comments),
                    lexed,
                }
            })
            .collect();
        hash_aliases.sort();
        hash_aliases.dedup();
        Workspace {
            files,
            hash_aliases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_are_workspace_wide() {
        let files = [
            (
                "crates/a/src/lib.rs",
                "pub type FlowMap = HashMap<u64, u32>;",
            ),
            ("crates/b/src/lib.rs", "fn uses(m: &FlowMap) {}"),
        ]
        .map(|(a, b)| (a.to_string(), b.to_string()));
        assert_eq!(Workspace::build(&files).hash_aliases, vec!["FlowMap"]);
    }
}
