//! The workspace dataflow rules: `det-float-reduce` inside every function
//! a deterministic root reaches through the call graph, `par-shared-mut`
//! inside every `par_map` closure, and `lock-order` across every pair of
//! functions.
//!
//! Each guards a bug the dynamic suites cannot see. A float sum whose
//! order varies changes its last bits, and the one comparison those bits
//! decide rarely flips on a test world — the bug ships and waits for
//! another world. A closure that pushes into captured state breaks the
//! `par_map` contract even where its caller re-keys the results today, so
//! no byte moves yet. An inverted lock pair deadlocks only when two
//! workers interleave inside it. DESIGN.md § "Static analysis" holds the
//! mutation table that kept these three and retired `det-unordered-iter`.
//!
//! Roots are declared in one place, the [`DETERMINISTIC_ROOTS`] registry
//! below, matched by `(path substring, fn name)`.
//! `every_registered_root_names_a_function_of_the_workspace` fails on an
//! entry that names no function (after a rename or a move), which would
//! otherwise root nothing and lint clean.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::rules::{Config, Finding};
use crate::symbols::{FileData, Workspace};

/// The deterministic-roots registry: `(path substring, fn name, what the
/// root guards)`. Every entry is an output surface whose bytes must be
/// identical across runs, shard counts, and worker counts.
pub const DETERMINISTIC_ROOTS: &[(&str, &str, &str)] = &[
    // TGA candidate emission — every generator's impl, by name.
    (
        "crates/tga/src/",
        "generate",
        "TGA candidate stream (untagged entry)",
    ),
    (
        "crates/tga/src/",
        "generate_tagged",
        "TGA candidate stream + provenance log",
    ),
    (
        "crates/obs/src/par.rs",
        "par_map",
        "the W-invariant fan-out (grids, generation, sharded scans)",
    ),
    (
        "crates/tga/src/space_tree.rs",
        "build_regions_par",
        "parallel space-tree construction",
    ),
    // Digest / manifest writers — the bytes CI and A/B reruns compare.
    (
        "crates/obs/src/manifest.rs",
        "write_to_file",
        "run-manifest bytes",
    ),
    (
        "crates/obs/src/manifest.rs",
        "record_digest",
        "result digest computation",
    ),
    // Journal emitters — replay ≡ live folding depends on these bytes.
    (
        "crates/obs/src/journal.rs",
        "write_batch",
        "journal event lines",
    ),
    (
        "crates/obs/src/journal.rs",
        "encode",
        "journal record encoding",
    ),
    // Checkpoint serializers — kill+resume bit-identity.
    (
        "crates/probe/src/campaign.rs",
        "read_state",
        "campaign checkpoint state (read from the scanner)",
    ),
    (
        "crates/probe/src/engine.rs",
        "add_task",
        "campaign round delta (the rows its tasks hand back)",
    ),
    (
        "crates/probe/src/campaign.rs",
        "encode_line",
        "campaign checkpoint lines (state and round)",
    ),
    // Experiment exports — the CSVs the paper figures are drawn from.
    (
        "crates/core/src/export.rs",
        "write_grid_csv",
        "experiment grid CSV",
    ),
    (
        "crates/core/src/export.rs",
        "write_ratio_csv",
        "figure ratio CSV",
    ),
];

/// Result of the reachability pass: for every function on a deterministic
/// path, the global fn id of the root it is reachable from (itself for a
/// root).
pub struct Taint {
    pub tainted: Vec<Option<usize>>,
}

impl Taint {
    /// BFS from every registered root over the call graph.
    pub fn build(ws: &Workspace, graph: &CallGraph) -> Taint {
        let mut tainted: Vec<Option<usize>> = vec![None; ws.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for (gid, slot) in tainted.iter_mut().enumerate() {
            let (def, rel) = (ws.def(gid), &ws.file_of(gid).rel);
            if DETERMINISTIC_ROOTS
                .iter()
                .any(|(path, name, _)| rel.contains(path) && def.name == *name)
            {
                *slot = Some(gid);
                queue.push_back(gid);
            }
        }
        while let Some(gid) = queue.pop_front() {
            let root = tainted[gid];
            for &callee in &graph.edges[gid] {
                if tainted[callee].is_none() {
                    tainted[callee] = root;
                    queue.push_back(callee);
                }
            }
        }
        Taint { tainted }
    }
}

/// Run every workspace-level rule; findings are unfiltered (the caller
/// applies test-region and suppression filtering per file).
pub fn workspace_rules(ws: &Workspace, taint: &Taint, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    det_float_reduce(ws, taint, &mut out);
    par_shared_mut(ws, cfg, &mut out);
    lock_order(ws, &mut out);
    out
}

/// `det-float-reduce`: order-sensitive float accumulation on a
/// deterministic path. Float addition does not commute under rounding, so
/// a reduction order that varies (hash iteration, shard merge order)
/// changes the digest bytes even when the set of values is identical.
fn det_float_reduce(ws: &Workspace, taint: &Taint, out: &mut Vec<Finding>) {
    for gid in 0..ws.fns.len() {
        let Some(root) = taint.tainted[gid] else {
            continue;
        };
        let Some((a, b)) = ws.def(gid).body else {
            continue;
        };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);
        // "reachable from deterministic root `X` (file:line)": the witness
        // the fix (or the suppression reason) argues against.
        let via = format!(
            "reachable from deterministic root `{}` ({}:{})",
            ws.qual_name(root),
            ws.file_of(root).rel,
            ws.def(root).line
        );

        // Float-bound accumulators declared in this body: `x: f64`,
        // `let mut x = 0.0`.
        let mut floats: Vec<&str> = Vec::new();
        for i in a..=end {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
            {
                floats.push(name);
            }
            if toks.get(i + 1).is_some_and(|t| t.is_punct('='))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct('='))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Float)
            {
                floats.push(name);
            }
        }

        for i in a..=end {
            let t = &toks[i];
            let what = if (t.is_ident("sum") || t.is_ident("product"))
                && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 3).is_some_and(|x| x.is_punct('<'))
                && toks
                    .get(i + 4)
                    .is_some_and(|x| x.is_ident("f64") || x.is_ident("f32"))
            {
                // `.sum::<f64>()` / `.product::<f32>()`
                format!("`{}::<float>()`", t.text)
            } else if t.is_ident("fold")
                && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 2).is_some_and(|x| x.kind == TokKind::Float)
            {
                "`fold(float, …)`".to_string()
            } else if t.kind == TokKind::Ident
                && floats.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|x| {
                    x.is_punct('+') || x.is_punct('-') || x.is_punct('*') || x.is_punct('/')
                })
                && toks.get(i + 2).is_some_and(|x| x.is_punct('='))
            {
                // `acc += …` on a float-bound accumulator
                format!("`{} {}= …`", t.text, toks[i + 1].text)
            } else {
                continue;
            };
            out.push(Finding {
                rule: "det-float-reduce",
                file: fd.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!("{what} is an order-sensitive float reduction {via}; fix the iteration order, accumulate in integers, or state why the order is already total"),
                excerpt: fd.excerpt(t.line),
            });
        }
    }
}

/// `par-shared-mut`: a `par_map`-family closure capturing and mutating
/// shared state. The `par_map` merge contract is per-slot results only —
/// cross-shard writes make the merge order observable.
fn par_shared_mut(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for gid in 0..ws.fns.len() {
        let Some((a, b)) = ws.def(gid).body else {
            continue;
        };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);
        for i in a..=end {
            if !(toks[i].kind == TokKind::Ident
                && cfg.par_fns.iter().any(|f| toks[i].text == *f)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            let call_end = match_paren(toks, i + 1).min(end);
            scan_closures(toks, i + 1, call_end, &toks[i].text, fd, out);
        }
    }
}

/// Find closures among a par call's arguments and flag shared-state
/// mutation inside them.
fn scan_closures(
    toks: &[Tok],
    open: usize,
    close: usize,
    par_fn: &str,
    fd: &FileData,
    out: &mut Vec<Finding>,
) {
    let mut i = open + 1;
    while i < close {
        let starts_closure = toks[i].is_punct('|')
            && i >= 1
            && (toks[i - 1].is_punct('(')
                || toks[i - 1].is_punct(',')
                || toks[i - 1].is_ident("move"));
        if !starts_closure {
            i += 1;
            continue;
        }
        // Params up to the closing `|`; every ident binds locally (types
        // in ascriptions over-approximate harmlessly).
        let mut locals: Vec<&str> = Vec::new();
        let mut j = i + 1;
        while j < close && !toks[j].is_punct('|') {
            if toks[j].kind == TokKind::Ident {
                locals.push(&toks[j].text);
            }
            j += 1;
        }
        // Body: to the end of this argument — `,` at depth 0 or the call's `)`.
        let body_start = j + 1;
        let mut depth = 0i32;
        let mut k = body_start;
        while k < close {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                break;
            }
            k += 1;
        }
        let body_end = k;
        // `let` bindings inside the body are locals too.
        for m in body_start..body_end {
            if toks[m].is_ident("let") {
                let mut n = m + 1;
                while n < body_end
                    && (toks[n].is_ident("mut") || toks[n].is_punct('(') || toks[n].is_punct('&'))
                {
                    n += 1;
                }
                while n < body_end && toks[n].kind == TokKind::Ident {
                    locals.push(&toks[n].text);
                    // tuple patterns: `let (a, b) = …`
                    if toks.get(n + 1).is_some_and(|t| t.is_punct(',')) {
                        n += 2;
                    } else {
                        break;
                    }
                }
            }
        }
        let local = |name: &str| name == "_" || locals.contains(&name);
        let mut flag = |t: &Tok, what: String| {
            out.push(Finding {
                rule: "par-shared-mut",
                file: fd.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "{what} inside a `{par_fn}` closure mutates shared state across workers; return per-item results and merge after the join"
                ),
                excerpt: fd.excerpt(t.line),
            });
        };
        const MUTATORS: &[&str] = &[
            "push", "insert", "extend", "append", "remove", "push_str", "clear",
        ];
        for m in body_start..body_end {
            let t = &toks[m];
            // `shared.lock()` / `shared.borrow_mut()`
            if t.is_punct('.')
                && toks
                    .get(m + 1)
                    .is_some_and(|x| x.is_ident("lock") || x.is_ident("borrow_mut"))
                && toks.get(m + 2).is_some_and(|x| x.is_punct('('))
            {
                flag(&toks[m + 1], format!("`.{}()`", toks[m + 1].text));
            }
            // `captured.push(…)`-style mutation of a non-local receiver
            if t.kind == TokKind::Ident
                && MUTATORS.contains(&t.text.as_str())
                && m >= 2
                && toks[m - 1].is_punct('.')
                && toks.get(m + 1).is_some_and(|x| x.is_punct('('))
            {
                if let Some(base) = receiver_base(toks, m - 1) {
                    if !local(base) {
                        flag(t, format!("`{base}.{}(…)`", t.text));
                    }
                }
            }
            // assignment to a non-local lvalue
            if t.is_punct('=')
                && !toks.get(m + 1).is_some_and(|x| x.is_punct('='))
                && m >= 1
                && !(toks[m - 1].is_punct('=')
                    || toks[m - 1].is_punct('<')
                    || toks[m - 1].is_punct('>')
                    || toks[m - 1].is_punct('!'))
            {
                // skip one compound-op char (`+=`, `|=`, …)
                let mut lv = m - 1;
                if ["+", "-", "*", "/", "%", "&", "|", "^"].contains(&toks[lv].text.as_str())
                    && toks[lv].kind == TokKind::Punct
                {
                    if lv == 0 {
                        continue;
                    }
                    lv -= 1;
                }
                if let Some(base) = receiver_base(toks, lv + 1) {
                    let declared = toks[..lv + 1]
                        .iter()
                        .rev()
                        .take(4)
                        .any(|x| x.is_ident("let"));
                    if !local(base) && !declared && lv >= body_start {
                        flag(&toks[m], format!("assignment to captured `{base}`"));
                    }
                }
            }
        }
        i = body_end;
    }
}

/// Walk a dotted/indexed lvalue chain leftward from just past its end;
/// returns the base identifier (`self.a[i].b` → `self`).
fn receiver_base(toks: &[Tok], chain_end: usize) -> Option<&str> {
    let mut k = chain_end as isize - 1;
    let mut base: Option<&str> = None;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.kind == TokKind::Ident {
            base = Some(&t.text);
            if k == 0 || !toks[k as usize - 1].is_punct('.') {
                break;
            }
            k -= 2;
        } else if t.is_punct(']') {
            // skip the index expression
            let mut depth = 0i32;
            while k >= 0 {
                if toks[k as usize].is_punct(']') {
                    depth += 1;
                } else if toks[k as usize].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            k -= 1;
        } else {
            break;
        }
    }
    base
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// `lock-order`: inconsistent lock-acquisition order across functions.
/// Zero-arg `.lock()` / `.read()` / `.write()` calls are treated as
/// acquisitions (argument-taking `read(buf)`/`write(buf)` are I/O, not
/// locks); if one function acquires `a` before `b` and another `b`
/// before `a`, shard workers interleaving them can deadlock.
fn lock_order(ws: &Workspace, out: &mut Vec<Finding>) {
    struct Acq {
        gid: usize,
        /// distinct receivers in first-acquisition order
        seq: Vec<String>,
        /// receiver → (line, col) of first acquisition
        at: BTreeMap<String, (u32, u32)>,
    }
    let mut fns: Vec<Acq> = Vec::new();
    for gid in 0..ws.fns.len() {
        let Some((a, b)) = ws.def(gid).body else {
            continue;
        };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);
        let mut seq: Vec<String> = Vec::new();
        let mut at = BTreeMap::new();
        for i in a..=end {
            let t = &toks[i];
            let is_acquire = t.is_punct('.')
                && toks.get(i + 1).is_some_and(|x| {
                    x.is_ident("lock") || x.is_ident("read") || x.is_ident("write")
                })
                && toks.get(i + 2).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 3).is_some_and(|x| x.is_punct(')'));
            if !is_acquire {
                continue;
            }
            let Some(base) = lock_key(toks, i) else {
                continue;
            };
            if !seq.contains(&base) {
                at.insert(base.clone(), (toks[i + 1].line, toks[i + 1].col));
                seq.push(base);
            }
        }
        if seq.len() >= 2 {
            fns.push(Acq { gid, seq, at });
        }
    }
    // Ordered pairs per fn; conflict = (a,b) here and (b,a) elsewhere.
    for x in &fns {
        for ai in 0..x.seq.len() {
            for bi in ai + 1..x.seq.len() {
                let (a, b) = (&x.seq[ai], &x.seq[bi]);
                let Some(other) = fns.iter().find(|y| {
                    y.gid != x.gid
                        && y.seq
                            .iter()
                            .position(|k| k == b)
                            .zip(y.seq.iter().position(|k| k == a))
                            .is_some_and(|(pb, pa)| pb < pa)
                }) else {
                    continue;
                };
                // Flag the non-canonical (alphabetically inverted) side
                // only, so each conflict yields exactly one finding pair
                // site and the fix direction is prescribed.
                if a < b {
                    continue;
                }
                let fd = ws.file_of(x.gid);
                let (line, col) = x.at[b];
                out.push(Finding {
                    rule: "lock-order",
                    file: fd.rel.clone(),
                    line,
                    col,
                    message: format!(
                        "`{}` acquires `{a}` then `{b}`, but `{}` ({}) acquires them in the opposite order; adopt one global order",
                        ws.qual_name(x.gid),
                        ws.qual_name(other.gid),
                        ws.file_of(other.gid).rel
                    ),
                    excerpt: fd.excerpt(line),
                });
            }
        }
    }
}

/// Receiver key for a lock acquisition at the `.` before `lock/read/write`:
/// the dotted chain base-to-dot, minus a leading `self`.
fn lock_key(toks: &[Tok], dot: usize) -> Option<String> {
    let mut names: Vec<String> = Vec::new();
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.kind == TokKind::Ident {
            names.push(t.text.clone());
            if k == 0 || !toks[k as usize - 1].is_punct('.') {
                break;
            }
            k -= 2;
        } else {
            break;
        }
    }
    names.reverse();
    if names.first().is_some_and(|n| n == "self") {
        names.remove(0);
    }
    if names.is_empty() {
        None
    } else {
        Some(names.join("."))
    }
}
