//! A lightweight Rust lexer: just enough token structure for rule matching.
//!
//! The workspace builds offline (no `syn`), so rules run over a flat token
//! stream instead of an AST. The lexer's one job is to never misread
//! program text: string literals (including raw strings with arbitrary
//! `#` fences), char literals vs. lifetimes, nested block comments, and
//! numeric literals are all recognized so that a `panic!` inside a string
//! or a `HashMap` in a doc comment can never produce a finding.

/// Token categories. Rules match on `Ident`/`Punct` sequences; literal
/// kinds exist so their *content* is opaque to every rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Integer literal (any radix, with suffix).
    Int,
    /// Float literal.
    Float,
    /// String / raw-string / byte-string literal.
    Str,
    /// Char or byte literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One token with its 1-based source line and starting column.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A comment with its 1-based starting line; `text` excludes the comment
/// markers but keeps interior text verbatim.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Lexed file: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize one source file. Unterminated literals/comments end their
/// token at EOF (the lexer is total: linting must not abort on files
/// rustc would reject — rustc reports those separately).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    // Index of the first char of the current line; cols are 1-based
    // char offsets from it.
    let mut line_start = 0usize;

    // Count newlines in chars[from..to] into `line`, tracking where the
    // last line begins so columns stay correct after multiline literals.
    let bump_lines =
        |line: &mut u32, line_start: &mut usize, chars: &[char], from: usize, to: usize| {
            for (k, &c) in chars[from..to].iter().enumerate() {
                if c == '\n' {
                    *line += 1;
                    *line_start = from + k + 1;
                }
            }
        };

    while i < chars.len() {
        let c = chars[i];
        let at = |k: usize| chars.get(i + k).copied();
        let col = (i - line_start + 1) as u32;

        if c == '\n' {
            line += 1;
            line_start = i + 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && at(1) == Some('/') {
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: chars[start..j].iter().collect(),
            });
            i = j;
            continue;
        }
        if c == '/' && at(1) == Some('*') {
            let start_line = line;
            let start = i + 2;
            let mut depth = 1usize;
            let mut j = start;
            while j < chars.len() && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = if depth == 0 { j - 2 } else { j };
            bump_lines(&mut line, &mut line_start, &chars, i, j);
            out.comments.push(Comment {
                line: start_line,
                text: chars[start..end].iter().collect(),
            });
            i = j;
            continue;
        }

        // Raw strings and raw identifiers: r"..", r#".."#, br".." / r#ident.
        // (Plain `b"…"`/`b'…'` literals have escapes and are handled below.)
        let is_raw_start = (c == 'r' && matches!(at(1), Some('"' | '#')))
            || (c == 'b' && at(1) == Some('r') && matches!(at(2), Some('"' | '#')));
        if is_raw_start {
            // Figure out the literal shape without consuming yet.
            let mut j = i + 1;
            if c == 'b' {
                j += 1;
            }
            let mut fence = 0usize;
            while chars.get(j) == Some(&'#') {
                fence += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                // Raw (byte) string: scan for `"` followed by `fence` hashes.
                let start_line = line;
                j += 1;
                loop {
                    match chars.get(j) {
                        None => break,
                        Some('"') => {
                            let mut k = 0usize;
                            while k < fence && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == fence {
                                j += 1 + fence;
                                break;
                            }
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                bump_lines(&mut line, &mut line_start, &chars, i, j);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                    col,
                });
                i = j;
                continue;
            }
            if c == 'r' && fence == 1 && chars.get(j).copied().is_some_and(is_ident_start) {
                // Raw identifier r#ident.
                let start = j;
                let mut k = j;
                while k < chars.len() && is_ident_continue(chars[k]) {
                    k += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..k].iter().collect(),
                    line,
                    col,
                });
                i = k;
                continue;
            }
            // Fall through: a plain ident starting with r/b (e.g. `rb`).
        }

        // Byte char/string: b'..', b"..".
        if c == 'b' && matches!(at(1), Some('\'' | '"')) {
            let quote = at(1).unwrap_or('"');
            let start_line = line;
            let mut j = i + 2;
            j = scan_quoted(&chars, j, quote);
            bump_lines(&mut line, &mut line_start, &chars, i, j);
            out.toks.push(Tok {
                kind: if quote == '"' {
                    TokKind::Str
                } else {
                    TokKind::Char
                },
                text: String::new(),
                line: start_line,
                col,
            });
            i = j;
            continue;
        }

        // String literal.
        if c == '"' {
            let start_line = line;
            let j = scan_quoted(&chars, i + 1, '"');
            bump_lines(&mut line, &mut line_start, &chars, i, j);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
                col,
            });
            i = j;
            continue;
        }

        // Char literal or lifetime.
        if c == '\'' {
            let next = at(1);
            let is_char = match next {
                Some('\\') => true,
                Some(n) if is_ident_continue(n) => at(2) == Some('\''),
                Some(_) => true, // e.g. '(' — only valid as a char literal
                None => false,
            };
            if is_char {
                let j = scan_quoted(&chars, i + 1, '\'');
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                    col,
                });
                i = j;
            } else {
                // Lifetime: 'ident
                let mut j = i + 1;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[i + 1..j].iter().collect(),
                    line,
                    col,
                });
                i = j;
            }
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
                col,
            });
            continue;
        }

        // Numeric literal. A `.` joins only when followed by a digit, so
        // ranges (`0..n`) and method calls (`1.max(x)`) stay separate; an
        // `e`/`E` exponent (with optional sign) marks a float, so `1e9`
        // and `2.5e-3` lex as single Float tokens — hex literals are safe
        // because `0x..` never reaches the exponent check with a sign.
        if c.is_ascii_digit() {
            let start = i;
            let is_hex = c == '0' && matches!(at(1), Some('x' | 'X' | 'b' | 'o'));
            let mut is_float = false;
            i += 1;
            while i < chars.len() {
                let d = chars[i];
                if !is_hex
                    && (d == 'e' || d == 'E')
                    && (chars
                        .get(i + 1)
                        .copied()
                        .is_some_and(|n| n.is_ascii_digit())
                        || (matches!(chars.get(i + 1), Some('+' | '-'))
                            && chars
                                .get(i + 2)
                                .copied()
                                .is_some_and(|n| n.is_ascii_digit())))
                {
                    is_float = true;
                    i += 1; // the e/E
                    if matches!(chars.get(i), Some('+' | '-')) {
                        i += 1;
                    }
                } else if is_ident_continue(d) {
                    i += 1;
                } else if d == '.'
                    && chars
                        .get(i + 1)
                        .copied()
                        .is_some_and(|n| n.is_ascii_digit())
                    && !is_float
                {
                    is_float = true;
                    i += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: chars[start..i].iter().collect(),
                line,
                col,
            });
            continue;
        }

        // Everything else: one punctuation character per token.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
        i += 1;
    }

    out
}

/// Scan past a quoted literal body starting *inside* the quotes at `from`;
/// returns the index just past the closing quote (or EOF).
fn scan_quoted(chars: &[char], from: usize, quote: char) -> usize {
    let mut j = from;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            c if c == quote => return j + 1,
            _ => j += 1,
        }
    }
    // a trailing `\` steps one past the end
    chars.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn code_in_strings_and_comments_is_opaque() {
        let src = r##"
            let s = "HashMap::new() panic!()";
            // HashMap in a line comment
            /* Instant::now() in /* a nested */ block */
            let r = r#"static mut "inner" quotes"#;
            let c = '"';
            call(s);
        "##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|s| s == "HashMap" || s == "panic" || s == "Instant"));
        assert!(ids.iter().any(|s| s == "call"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").toks;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let toks = lex(r"let q = '\''; after(q);").toks;
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn lines_are_tracked_through_multiline_literals() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let toks = lex(src).toks;
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b token");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let toks = lex("for i in 0..16 { x[i]; } let f = 1.5;").toks;
        let ints: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Int).collect();
        assert_eq!(ints.len(), 2, "0 and 16");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Float).count(), 1);
    }

    #[test]
    fn raw_idents_lex_as_idents() {
        let toks = lex("let r#match = 1;").toks;
        assert!(toks.iter().any(|t| t.is_ident("match")));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let lexed = lex("// first\nlet x = 1; // second\n/* third */");
        assert_eq!(lexed.comments.len(), 3);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.comments[1].text.trim(), "second");
        assert_eq!(lexed.comments[2].line, 3);
    }
}
