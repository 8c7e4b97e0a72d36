//! Hash-container type aliases, recovered from the token stream.
//!
//! The hash rules treat a workspace alias of `HashMap`/`HashSet`
//! (`v6addr::AddrMap`, `AddrSet`, …) like the container itself, wherever
//! the alias is used; [`crate::symbols::Workspace::build`] collects the
//! names from every file with `hash_alias_names`.

use crate::lexer::{Tok, TokKind};

/// Names this token stream aliases to a hash container: `type X =
/// HashMap<..>` and the generic form `type X<K, V> = HashMap<K, V, S>`
/// (the alias's own parameter list, with any bounds and defaults, is
/// skipped to find the `=`).
pub(crate) fn hash_alias_names(toks: &[Tok]) -> Vec<&str> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn aliases(src: &str) -> Vec<String> {
        hash_alias_names(&lex(src).toks)
            .into_iter()
            .map(String::from)
            .collect()
    }

    #[test]
    fn hash_aliases_collected() {
        assert_eq!(
            aliases(
                "type FlowMap = HashMap<u64, u32>;\ntype Seen = HashSet<u128>;\ntype Plain = Vec<u8>;"
            ),
            ["FlowMap", "Seen"]
        );
    }

    #[test]
    fn generic_hash_aliases_collected() {
        assert_eq!(
            aliases(
                "pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;\n\
                 pub type AddrSet<K = u128> = HashSet<K, S>;\n\
                 type Nested<T: Into<Vec<u8>>> = HashSet<T>;\n\
                 type Rows<T> = Vec<T>;\ntype Unclosed<K = HashMap"
            ),
            ["AddrMap", "AddrSet", "Nested"]
        );
    }
}
