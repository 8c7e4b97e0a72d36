//! Item/function-level parser on top of the lexer.
//!
//! The dataflow rules need more structure than a flat token stream: which
//! function a token belongs to, which `impl`/`trait` block owns that
//! function, and where each body starts and ends. This parser recovers
//! exactly that — no expressions, no types, no precedence — by brace
//! matching over [`crate::lexer::lex`] output. Like the lexer it is
//! *total*: files rustc would reject still parse to a best-effort item
//! list, so linting never aborts.

use crate::lexer::{Lexed, TokKind};

/// One `fn` item: name, owning `impl`/`trait` type (if any), source
/// position, and the token range of its body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name (the identifier after `fn`).
    pub name: String,
    /// Enclosing `impl Type` / `impl Trait for Type` / `trait Type` name,
    /// when the fn sits inside one. Method-call resolution keys on this.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inclusive token range `[open brace, close brace]` of the body;
    /// `None` for bodyless signatures (trait requirements, extern fns).
    pub body: Option<(usize, usize)>,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every fn item, in source order.
    pub fns: Vec<FnDef>,
    /// Local type aliases that resolve to hash containers
    /// (`type FlowMap = HashMap<..>`); the hash rules treat these names
    /// as hash containers workspace-wide.
    pub hash_aliases: Vec<String>,
}

/// Keywords that can directly precede an `impl`/`trait` item keyword.
/// `impl` in type position (`-> impl Iterator`, `&impl Fn()`) is preceded
/// by expression/type punctuation instead and must not open an owner
/// block.
fn item_position(prev: Option<&crate::lexer::Tok>) -> bool {
    match prev {
        None => true,
        Some(t) => {
            t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct(']') // end of an attribute
                || t.is_punct(')') // end of pub(crate)
                || t.is_ident("pub")
                || t.is_ident("unsafe")
                || t.is_ident("default")
        }
    }
}

/// Parse one lexed file into items.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.toks;
    let mut out = ParsedFile::default();

    // --- owner blocks: impl / trait ----------------------------------
    // (start_tok, end_tok, type name) for each block body.
    let mut owners: Vec<(usize, usize, String)> = Vec::new();
    for i in 0..toks.len() {
        let is_impl = toks[i].is_ident("impl");
        let is_trait = toks[i].is_ident("trait");
        if !(is_impl || is_trait) || !item_position(i.checked_sub(1).map(|p| &toks[p])) {
            continue;
        }
        // Walk the header up to its `{`, tracking angle depth so generic
        // parameters never contribute a name. `->` inside `Fn(..) -> R`
        // bounds must not close an angle bracket.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
                angle = (angle - 1).max(0);
            } else if angle == 0 {
                if t.is_punct('{') {
                    break;
                }
                if t.is_ident("where") {
                    // where-clauses carry bounds, never the type name.
                    while j < toks.len() && !toks[j].is_punct('{') {
                        j += 1;
                    }
                    break;
                }
                if t.is_ident("for") {
                    // `impl Trait for Type`: the name collected so far was
                    // the trait; the implementing type follows.
                    name = None;
                } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                    // Last path segment wins (`v6addr::Trie` → `Trie`).
                    name = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let Some(open) = toks.get(j).filter(|t| t.is_punct('{')).map(|_| j) else {
            continue;
        };
        let close = match_brace(toks, open);
        if let Some(n) = name {
            owners.push((open, close, n));
        }
    }

    // --- fn items -----------------------------------------------------
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("fn") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Scan the signature for the body `{` or a terminating `;`.
        // `;` inside `[u8; 16]` array types must not terminate.
        let mut j = i + 2;
        let mut bracket = 0i32;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if t.is_punct(';') && bracket == 0 {
                break; // bodyless signature
            } else if t.is_punct('{') {
                body = Some((j, match_brace(toks, j)));
                break;
            }
            j += 1;
        }
        let owner = owners
            .iter()
            .filter(|(a, b, _)| (*a..=*b).contains(&i))
            .min_by_key(|(a, b, _)| b - a)
            .map(|(_, _, n)| n.clone());
        out.fns.push(FnDef {
            name,
            owner,
            line: toks[i].line,
            body,
        });
        // Continue scanning *inside* the body too: nested fns get their
        // own (smaller) definitions.
        i += 2;
    }

    out.hash_aliases = hash_alias_names(&lexed.toks)
        .into_iter()
        .map(String::from)
        .collect();
    out
}

/// Names this token stream aliases to a hash container: `type X =
/// HashMap<..>` and the generic form `type X<K, V> = HashMap<K, V, S>`
/// (the alias's own parameter list, with any bounds and defaults, is
/// skipped to find the `=`).
pub(crate) fn hash_alias_names(toks: &[crate::lexer::Tok]) -> Vec<&str> {
    let mut names = Vec::new();
    for (i, w) in toks.windows(2).enumerate() {
        if !(w[0].is_ident("type") && w[1].kind == TokKind::Ident) {
            continue;
        }
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while let Some(t) = toks.get(j) {
                depth += i32::from(t.is_punct('<')) - i32::from(t.is_punct('>'));
                j += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if toks.get(j).is_some_and(|t| t.is_punct('='))
            && toks
                .get(j + 1)
                .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            names.push(w[1].text.as_str());
        }
    }
    names
}

/// Index of the `}` matching the `{` at `open` (or the last token when
/// unbalanced — total, like the lexer).
fn match_brace(toks: &[crate::lexer::Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fns_and_methods_get_owners() {
        let src = "
            pub fn free(x: u8) -> u8 { x }
            struct S;
            impl S {
                fn method(&self) -> u8 { 1 }
            }
            impl Clone for S {
                fn clone(&self) -> S { S }
            }
            trait T {
                fn required(&self);
                fn defaulted(&self) -> u8 { 0 }
            }
        ";
        let p = parse_src(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect(n);
        assert_eq!(by_name("free").owner, None);
        assert_eq!(by_name("method").owner.as_deref(), Some("S"));
        assert_eq!(
            by_name("clone").owner.as_deref(),
            Some("S"),
            "impl Trait for Type → Type"
        );
        assert_eq!(by_name("required").owner.as_deref(), Some("T"));
        assert!(
            by_name("required").body.is_none(),
            "trait requirement has no body"
        );
        assert!(by_name("defaulted").body.is_some());
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_owners() {
        let src = "
            impl<'a, F: FnMut(usize) -> u64> Runner<'a, F> where F: Send {
                fn run(&mut self) {}
            }
            fn generic<T: Into<u64>>(x: T) -> u64 where T: Copy { x.into() }
        ";
        let p = parse_src(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Runner"));
        assert_eq!(p.fns[1].name, "generic");
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn impl_in_return_position_is_not_an_owner() {
        let src = "
            fn maker() -> impl Iterator<Item = u8> { std::iter::empty() }
            fn after() {}
        ";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(
            p.fns[1].owner, None,
            "`-> impl Iterator` must not own `after`"
        );
    }

    #[test]
    fn array_semicolons_do_not_end_signatures() {
        let p = parse_src("fn f(x: [u8; 16]) -> [u8; 4] { [0; 4] }");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn nested_fns_resolve_to_innermost() {
        let src = "fn outer() {\n    fn inner() { work(); }\n    inner();\n}";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let toks = lex(src).toks;
        let work = toks.iter().position(|t| t.is_ident("work")).unwrap();
        let inner_call = toks.iter().rposition(|t| t.is_ident("inner")).unwrap();
        let (outer, inner) = (p.fns[0].body.unwrap(), p.fns[1].body.unwrap());
        assert_eq!(p.fns[1].name, "inner");
        assert!(
            outer.0 < inner.0 && inner.1 < outer.1,
            "inner's body nests in outer's"
        );
        assert!((inner.0..=inner.1).contains(&work));
        assert!(
            !(inner.0..=inner.1).contains(&inner_call) && (outer.0..=outer.1).contains(&inner_call)
        );
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let p = parse_src("type F = fn(u32) -> u32;\nfn real() {}");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn hash_aliases_collected() {
        let p = parse_src(
            "type FlowMap = HashMap<u64, u32>;\ntype Seen = HashSet<u128>;\ntype Plain = Vec<u8>;",
        );
        assert_eq!(p.hash_aliases, vec!["FlowMap", "Seen"]);
    }

    #[test]
    fn generic_hash_aliases_collected() {
        let p = parse_src(
            "pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;\n\
             pub type AddrSet<K = u128> = HashSet<K, S>;\n\
             type Nested<T: Into<Vec<u8>>> = HashSet<T>;\n\
             type Rows<T> = Vec<T>;\ntype Unclosed<K = HashMap",
        );
        assert_eq!(p.hash_aliases, vec!["AddrMap", "AddrSet", "Nested"]);
    }
}
