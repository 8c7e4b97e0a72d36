//! Lexer edge-case fixtures. Every rule and the test-region brace matching
//! sit on top of the lexer, so a literal that leaks a stray `{` or `"`
//! into the token stream silently corrupts region recovery — these tests
//! pin the corners: raw strings with hash fences, nested block comments,
//! byte/char literals containing braces and quotes, lifetime-vs-char
//! disambiguation, and float exponents.

use sos_lint::classify::test_regions;
use sos_lint::lexer::{lex, TokKind};

fn kinds(src: &str) -> Vec<(TokKind, String)> {
    lex(src)
        .toks
        .into_iter()
        .map(|t| (t.kind, t.text))
        .collect()
}

fn texts(src: &str) -> Vec<String> {
    lex(src).toks.into_iter().map(|t| t.text).collect()
}

#[test]
fn raw_strings_with_hash_fences_swallow_interior_quotes() {
    // one-hash fence: `"hi"` inside does not terminate; only `"#` at the
    // real end does. Literal contents are opaque by design, so assert
    // that none of the interior words leaked into the token stream.
    let lexed = lex(r##"let s = r#"say "hi" and move on"#; let y = 1;"##);
    let strs = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count();
    assert_eq!(strs, 1);
    for word in ["say", "hi", "and", "on"] {
        assert!(
            !lexed.toks.iter().any(|t| t.is_ident(word)),
            "`{word}` leaked"
        );
    }
    // the code after the raw string still lexes
    assert!(lexed.toks.iter().any(|t| t.is_ident("y")));
}

#[test]
fn double_hash_fences_ignore_single_hash_closers() {
    // interior `"#` must NOT close an `r##"…"##` string
    let src = "let s = r##\"tail \"# not the end\"##; let z = 2;";
    let lexed = lex(src);
    let strs = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count();
    assert_eq!(strs, 1);
    for word in ["tail", "not", "the", "end"] {
        assert!(
            !lexed.toks.iter().any(|t| t.is_ident(word)),
            "`{word}` leaked"
        );
    }
    assert!(lexed.toks.iter().any(|t| t.is_ident("z")));
}

#[test]
fn byte_raw_strings_and_hashless_raw_strings_lex_as_one_token() {
    let lexed = lex(r#"let a = br"bytes { here"; let b = r"plain } text";"#);
    let strs: Vec<&str> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(strs.len(), 2, "{strs:?}");
    // the braces inside never became Punct tokens
    assert!(lexed
        .toks
        .iter()
        .all(|t| !t.is_punct('{') && !t.is_punct('}')));
}

#[test]
fn nested_block_comments_track_depth_and_lines() {
    let src = "before();\n/* outer /* inner */ still outer\n*/\nafter();";
    let lexed = lex(src);
    assert!(lexed.toks.iter().any(|t| t.is_ident("before")));
    let after = lexed
        .toks
        .iter()
        .find(|t| t.is_ident("after"))
        .expect("after survives");
    assert_eq!(
        after.line, 4,
        "line counting continues through the nested comment"
    );
    // `still` and `outer` stayed inside the comment
    assert!(!lexed.toks.iter().any(|t| t.is_ident("still")));
    assert_eq!(lexed.comments.len(), 1);
    assert!(lexed.comments[0].text.contains("inner"));
}

#[test]
fn unterminated_block_comment_is_total_not_fatal() {
    let lexed = lex("ok();\n/* runs to the end of file {{{ \" ");
    assert!(lexed.toks.iter().any(|t| t.is_ident("ok")));
    assert_eq!(lexed.comments.len(), 1);
    // nothing after the opener leaked into the token stream
    assert!(!lexed.toks.iter().any(|t| t.is_punct('{')));
}

#[test]
fn char_and_byte_literals_holding_braces_do_not_unbalance_parsing() {
    // the classic trap: '{' / b'}' / '"' as literals around real braces
    let src = "#[cfg(test)]
        pub fn depth(c: char) -> i32 {
            let open = '{';
            let close = b'}';
            let quote = '\"';
            if c == open { 1 } else { -(close as i32) }
        }
        pub fn after_the_traps() -> u8 { b'{' }
    ";
    assert_eq!(
        test_regions(&lex(src)),
        [(1, 7)],
        "brace-bearing literals must not desync region recovery"
    );
    // every literal lexed as Char, not as punctuation
    let chars = lex(src)
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Char)
        .count();
    assert_eq!(chars, 4, "'{{', b'}}', '\"', and b'{{'");
}

#[test]
fn escaped_and_unicode_char_literals_stay_single_tokens() {
    let toks = kinds(r"let tab = '\t'; let q = '\''; let star = '\u{2A}';");
    let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
    assert_eq!(chars, 3, "{toks:?}");
    // nothing from inside the literals leaked: no lone `u`, no `{`, and
    // the escaped quote did not end the literal early
    assert!(
        toks.iter().all(|(_, t)| t != "u" && t != "{" && t != "2A"),
        "{toks:?}"
    );
}

#[test]
fn lifetimes_are_distinguished_from_chars_in_context() {
    let src = "fn f<'a>(x: &'a str, c: char) -> bool { c == 'a' && x.len() > '0' as usize }";
    let lexed = lex(src);
    let lifetimes: Vec<&str> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    let chars: Vec<&str> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["a", "a"], "declaration and use sites");
    assert_eq!(chars.len(), 2, "'a' and '0' literals: {chars:?}");
}

#[test]
fn loop_labels_lex_as_lifetimes_not_chars() {
    let lexed = lex("'outer: for i in 0..n { if i > 3 { break 'outer; } }");
    let lifetimes: Vec<&str> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["outer", "outer"]);
    assert!(lexed.toks.iter().all(|t| t.kind != TokKind::Char));
}

#[test]
fn float_exponents_lex_as_single_float_tokens() {
    let toks = kinds("let a = 1e9; let b = 2.5e-3; let c = 7E+2; let d = 0x1e9;");
    let floats: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Float)
        .map(|(_, t)| t.as_str())
        .collect();
    assert_eq!(
        floats,
        ["1e9", "2.5e-3", "7E+2"],
        "hex 0x1e9 is not a float"
    );
    assert!(
        toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0x1e9"),
        "{toks:?}"
    );
}

#[test]
fn exponent_detection_never_eats_operators_or_idents() {
    // `1e` with no digit after is an int followed by nothing to join;
    // `2e+x` must leave `+ x` intact; ranges still split
    let toks = texts("let a = 2e+x; let r = 0..10; let m = 3.max(y);");
    assert!(toks.contains(&"2e".to_string()), "{toks:?}");
    assert!(toks.contains(&"+".to_string()), "{toks:?}");
    assert!(toks.contains(&"x".to_string()), "{toks:?}");
    assert!(
        toks.contains(&"0".to_string()) && toks.contains(&"10".to_string()),
        "{toks:?}"
    );
    assert!(
        toks.contains(&"3".to_string()) && toks.contains(&"max".to_string()),
        "{toks:?}"
    );
}

#[test]
fn multiline_literals_keep_line_and_column_bookkeeping_honest() {
    let src = "let s = \"line one\nline two\"; let marker = 9;";
    let lexed = lex(src);
    let marker = lexed
        .toks
        .iter()
        .find(|t| t.is_ident("marker"))
        .expect("marker");
    assert_eq!(marker.line, 2);
    // col is measured from the start of line 2: `line two"; let marker`
    assert_eq!(marker.col, 16, "{marker:?}");
}

#[test]
fn strings_containing_comment_openers_and_braces_are_opaque() {
    let src = r#"render("/* not a comment */ } { // nor this"); next();"#;
    let lexed = lex(src);
    assert!(
        lexed.comments.is_empty(),
        "comment markers inside strings are text"
    );
    assert!(lexed.toks.iter().any(|t| t.is_ident("next")));
    assert!(lexed
        .toks
        .iter()
        .all(|t| !t.is_punct('{') && !t.is_punct('}')));
}

/// ROADMAP 6 for the one reader of *source* text: whatever single byte of
/// a small file exercising every literal shape is lost or changed, the
/// lexer — and the region finder and rules on top of it — return.
#[test]
fn single_byte_damage_never_panics_the_lexer_or_what_sits_on_it() {
    let sample = r###"// sos-lint: allow(conc-relaxed) progress only
use std::collections::HashMap;
/* outer /* nested */ still outer */
pub fn generate<'a>(m: &'a HashMap<u64, f64>) -> Vec<u64> {
    let s = r#"raw "quoted" text"#; let b = br"bytes"; let c = b'}';
    let x = 2.5e-3 + 1e9 + 0x1e9 as f64; let q = '\''; let l = "a\"b";
    'outer: for (k, _) in m.iter() { if *k > 9 { break 'outer; } }
    m.keys().copied().collect()
}
#[cfg(test)]
mod tests { #[test] fn t() { super::generate(&Default::default()); } }
"###;
    let lint = |text: &str| {
        let files = [("crates/tga/src/fx.rs".to_string(), text.to_string())];
        sos_lint::lint_files(&files, &sos_lint::Config::default())
    };
    assert!(
        !lint(sample).is_empty(),
        "the intact sample lints to a finding"
    );
    sos_obs::json::single_byte_damage(sample.as_bytes(), |damaged| {
        let text = String::from_utf8_lossy(damaged);
        let _ = lex(&text);
        let _ = lint(&text);
    });
}

/// An opener that never closes swallows the rest of the file in one pass:
/// a megabyte of raw-string or nested-comment openers lexes in time linear
/// in its length (a rescan per opener would be ~10⁶ times slower).
#[test]
fn pathological_megabyte_inputs_lex_in_linear_time() {
    let secs = |src: &str| {
        let t0 = sos_obs::now_s();
        let lexed = lex(src);
        assert!(lexed.toks.len() + lexed.comments.len() >= 1);
        sos_obs::now_s() - t0
    };
    for (name, unit) in [
        ("unterminated raw strings", "r##\"x\" "),
        ("raw-string fences that never open", "r#### "),
        ("nested comment openers", "/* /* a */ "),
        ("unterminated strings and chars", "\"\\\" '\\' "),
    ] {
        let quarter = unit.repeat((1 << 20) / unit.len());
        let full = unit.repeat((1 << 22) / unit.len());
        // The fastest of five runs of each, alternating sizes so that a
        // busy spell on the machine falls on both.
        let (t_quarter, t_full) = (0..5)
            .map(|_| (secs(&quarter), secs(&full)))
            .fold((f64::INFINITY, f64::INFINITY), |(q, f), (tq, tf)| {
                (q.min(tq), f.min(tf))
            });
        // linear is 4×; quadratic would be 16×
        assert!(
            t_full < 8.0 * t_quarter.max(1e-3),
            "{name}: 1 MiB in {t_quarter:.4}s but 4 MiB in {t_full:.4}s"
        );
    }
}
