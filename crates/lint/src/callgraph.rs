//! Call-site extraction and the intra-workspace call graph.
//!
//! Resolution is name-based (no type inference, by design — the linter
//! must stay fast and zero-dependency), with three precision levers:
//!
//! - **Free calls** (`helper(x)`, `module::helper(x)`) resolve to
//!   workspace functions of that name, preferring same-file, then
//!   same-crate candidates, falling back to every candidate (that is what
//!   makes cross-crate edges like `tga → v6addr` appear).
//! - **Qualified calls** (`Type::method(x)`) prefer functions whose
//!   `impl`/`trait` owner matches the qualifier.
//! - **Method calls** (`x.sample()`) cannot see the receiver type, so
//!   they fall back to *every* `impl`/`trait` function of that name —
//!   unless the name is a ubiquitous std method (`push`, `len`, …) or
//!   implemented by more than [`Config::method_fallback_max`] types, in
//!   which case no edge is drawn (an ambiguity cutoff, not a soundness
//!   claim; registry roots do not depend on it).

use crate::lexer::{Tok, TokKind};
use crate::rules::Config;
use crate::symbols::Workspace;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (last path segment).
    pub callee: String,
    /// Path segment directly before `::name(`, when present.
    pub qualifier: Option<String>,
    /// `receiver.name(...)` — resolved via owner fallback.
    pub method: bool,
}

/// Method names so ubiquitous (std collections, iterators, formatting)
/// that owner fallback would connect unrelated code. Calls to these never
/// create edges; workspace types that shadow them must be reached through
/// free or qualified calls (or declared as registry roots).
const STOP_METHODS: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "next",
    "len",
    "is_empty",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "to_string",
    "to_vec",
    "to_owned",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "sort",
    "sort_by",
    "sort_unstable",
    "min",
    "max",
    "map",
    "filter",
    "fold",
    "sum",
    "count",
    "collect",
    "unwrap",
    "expect",
    "clamp",
    "and_then",
    "unwrap_or",
    "ok_or",
    "take",
    "set",
    "write_all",
    "flush",
    "read_to_string",
    "trim",
    "split",
];

/// Keywords that look like `ident (` in expression position.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "fn", "as", "where",
    "impl", "dyn", "use", "pub", "mod", "unsafe", "else", "break", "continue",
];

/// Extract call sites from the token range `[a, b]` (a fn body).
pub fn call_sites(toks: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let (a, b) = range;
    let mut out = Vec::new();
    for i in a..=b.min(toks.len().saturating_sub(1)) {
        if toks[i].kind != TokKind::Ident || CALL_KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        // The call operator: `(` directly after the name, or after a
        // turbofish `::<...>`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k <= b {
                if toks[k].is_punct('<') {
                    depth += 1;
                } else if toks[k].is_punct('>') && !toks[k - 1].is_punct('-') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // `ident!(` is a macro, `fn ident(` a definition.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if prev.is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        let method = prev.is_some_and(|t| t.is_punct('.'));
        let qualifier = if !method
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].kind == TokKind::Ident
        {
            Some(toks[i - 3].text.clone())
        } else {
            None
        };
        out.push(CallSite {
            callee: toks[i].text.clone(),
            qualifier,
            method,
        });
    }
    out
}

/// The workspace call graph: `edges[gid]` lists callee gids.
pub struct CallGraph {
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build edges for every production function in `ws`.
    pub fn build(ws: &Workspace, cfg: &Config) -> CallGraph {
        let mut edges = Vec::with_capacity(ws.fns.len());
        for gid in 0..ws.fns.len() {
            let def = ws.def(gid);
            let fd = ws.file_of(gid);
            let sites = match def.body {
                Some(range) => call_sites(&fd.lexed.toks, range),
                None => Vec::new(),
            };
            let mut out: Vec<usize> = Vec::new();
            for s in &sites {
                out.extend(resolve(ws, cfg, gid, s));
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        CallGraph { edges }
    }
}

/// Resolve one call site to candidate callee gids.
fn resolve(ws: &Workspace, cfg: &Config, caller: usize, site: &CallSite) -> Vec<usize> {
    let Some(cands) = ws.by_name.get(&site.callee) else {
        return Vec::new();
    };
    if site.method {
        if STOP_METHODS.contains(&site.callee.as_str()) {
            return Vec::new();
        }
        let impls: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&g| ws.def(g).owner.is_some())
            .collect();
        // Trait-method fallback with an ambiguity cutoff: a name carried
        // by too many types connects everything to everything.
        if impls.is_empty() || impls.len() > cfg.method_fallback_max {
            return Vec::new();
        }
        return impls;
    }
    if let Some(q) = &site.qualifier {
        let owned: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&g| ws.def(g).owner.as_deref() == Some(q.as_str()))
            .collect();
        if !owned.is_empty() {
            return owned;
        }
        // Module-path call (`par::par_map`): fall through to
        // plain name resolution.
    }
    let caller_file = ws.fns[caller].file;
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&g| ws.fns[g].file == caller_file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let caller_crate = &ws.files[caller_file].krate;
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&g| &ws.file_of(g).krate == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn sites_capture_free_qualified_method_and_turbofish() {
        let lexed = lex("fn f() { helper(1); module::qual(2); x.method(3); it.sum::<f64>(); mac!(4); if (a) {} }");
        let end = lexed.toks.len() - 1;
        let sites = call_sites(&lexed.toks, (0, end));
        let names: Vec<&str> = sites.iter().map(|s| s.callee.as_str()).collect();
        assert_eq!(names, vec!["helper", "qual", "method", "sum"]);
        assert_eq!(sites[1].qualifier.as_deref(), Some("module"));
        assert!(sites[2].method);
        assert!(sites[3].method);
        assert!(!sites[0].method && sites[0].qualifier.is_none());
    }
}
