//! Workspace-level dataflow tests on synthetic multi-crate workspaces:
//! call-graph resolution (cross-crate edges, qualified calls, trait-method
//! fallback, ambiguity cutoffs) and taint reachability (roots from the
//! registry; non-root paths stay unflagged).

use sos_lint::callgraph::CallGraph;
use sos_lint::rules::Config;
use sos_lint::symbols::Workspace;
use sos_lint::taint::{Taint, DETERMINISTIC_ROOTS};
use sos_lint::{lint_files, read_sources, Finding};

fn ws(files: &[(&str, &str)]) -> (Workspace, CallGraph, Taint, Config) {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let cfg = Config::default();
    let w = Workspace::build(&owned);
    let g = CallGraph::build(&w, &cfg);
    let t = Taint::build(&w, &g);
    (w, g, t, cfg)
}

fn gid(w: &Workspace, name: &str) -> usize {
    let ids = w
        .by_name
        .get(name)
        .unwrap_or_else(|| panic!("no fn `{name}`"));
    assert_eq!(ids.len(), 1, "`{name}` is ambiguous in this fixture");
    ids[0]
}

fn calls(w: &Workspace, g: &CallGraph, from: &str, to: &str) -> bool {
    g.edges[gid(w, from)].contains(&gid(w, to))
}

#[test]
fn cross_crate_edges_resolve_by_name() {
    let (w, g, _, _) = ws(&[
        (
            "crates/tga/src/lib.rs",
            "pub fn emit(seed: u64) -> u64 { expand_prefix(seed) }",
        ),
        (
            "crates/v6addr/src/lib.rs",
            "pub fn expand_prefix(seed: u64) -> u64 { seed * 3 }",
        ),
    ]);
    assert!(
        calls(&w, &g, "emit", "expand_prefix"),
        "cross-crate free call draws an edge"
    );
}

#[test]
fn same_file_and_same_crate_candidates_win_over_foreign_ones() {
    let (w, g, _, _) = ws(&[
        (
            "crates/a/src/lib.rs",
            "pub fn caller() -> u64 { helper() }\nfn helper() -> u64 { 1 }",
        ),
        ("crates/b/src/lib.rs", "pub fn helper() -> u64 { 2 }"),
    ]);
    let callees = &g.edges[gid(&w, "caller")];
    assert_eq!(callees.len(), 1, "one candidate only");
    assert_eq!(
        w.file_of(callees[0]).rel,
        "crates/a/src/lib.rs",
        "same-file helper preferred"
    );
}

#[test]
fn qualified_calls_prefer_the_owning_impl() {
    let (w, g, _, _) = ws(&[(
        "crates/a/src/lib.rs",
        "
        pub struct Trie;
        impl Trie {
            pub fn build(x: u64) -> u64 { x }
        }
        pub struct Graph;
        impl Graph {
            pub fn build(x: u64) -> u64 { x * 2 }
        }
        pub fn entry() -> u64 { Trie::build(7) }
        ",
    )]);
    let callees = &g.edges[gid(&w, "entry")];
    assert_eq!(callees.len(), 1, "{callees:?}");
    assert_eq!(w.qual_name(callees[0]), "Trie::build");
}

#[test]
fn method_calls_fall_back_to_all_impls_unless_ubiquitous_or_ambiguous() {
    let (w, g, _, _) = ws(&[(
        "crates/a/src/lib.rs",
        "
        pub trait Sampler {
            fn sample(&self, n: u64) -> u64;
        }
        pub struct Uniform;
        impl Sampler for Uniform {
            fn sample(&self, n: u64) -> u64 { n }
        }
        pub struct Weighted;
        impl Sampler for Weighted {
            fn sample(&self, n: u64) -> u64 { n * 2 }
        }
        pub fn run(s: &dyn Sampler) -> u64 { s.sample(5) }
        pub fn noisy(v: &mut Vec<u64>) { v.push(1) }
        pub fn free_sample() -> u64 { 3 }
        ",
    )]);
    // trait-method fallback: `s.sample(..)` edges to BOTH impls (the
    // bodyless trait requirement defines no body and still indexes, but
    // only owner-carrying defs are fallback candidates — all three here).
    let run_edges = &g.edges[gid(&w, "run")];
    let impls: Vec<String> = run_edges.iter().map(|&c| w.qual_name(c)).collect();
    assert!(impls.contains(&"Uniform::sample".to_string()), "{impls:?}");
    assert!(impls.contains(&"Weighted::sample".to_string()), "{impls:?}");
    // `free_sample` is not an impl method, so method fallback skips it
    assert!(!impls.contains(&"free_sample".to_string()), "{impls:?}");
    // ubiquitous std methods never draw edges
    assert!(
        g.edges[gid(&w, "noisy")].is_empty(),
        "push is a stop method"
    );
}

#[test]
fn method_fallback_respects_the_ambiguity_cutoff() {
    // Nine types implement `tick`; with method_fallback_max = 6 the
    // method call draws no edges at all.
    let mut src = String::new();
    for i in 0..9 {
        src.push_str(&format!(
            "pub struct T{i};\nimpl T{i} {{ pub fn tick(&self) -> u64 {{ {i} }} }}\n"
        ));
    }
    src.push_str("pub fn drive(x: &T0) -> u64 { x.tick() }\n");
    let (w, g, _, _) = ws(&[("crates/a/src/lib.rs", &src)]);
    assert!(
        g.edges[gid(&w, "drive")].is_empty(),
        "over-implemented method draws no edges"
    );
}

#[test]
fn taint_reaches_through_the_graph_from_registry_roots() {
    let (w, _, t, _) = ws(&[
        // registry root: crates/tga/src/ + `generate`
        (
            "crates/tga/src/det.rs",
            "pub fn generate(seed: u64) -> u64 { stage_one(seed) }
             fn stage_one(seed: u64) -> u64 { stage_two(seed) }
             fn stage_two(seed: u64) -> u64 { digest_ids(&[seed]) }",
        ),
        // a crate the registry does not mention, reached across crates
        (
            "crates/seeds/src/lib.rs",
            "pub fn digest_ids(xs: &[u64]) -> u64 { xs.len() as u64 }
             pub fn untouched() -> u64 { 0 }",
        ),
    ]);
    for name in ["generate", "stage_one", "stage_two", "digest_ids"] {
        assert!(
            t.tainted[gid(&w, name)].is_some(),
            "`{name}` should be tainted"
        );
    }
    assert!(t.tainted[gid(&w, "untouched")].is_none());
    // attribution points at the root
    let root = t.tainted[gid(&w, "digest_ids")].unwrap();
    assert_eq!(w.def(root).name, "generate");
}

#[test]
fn test_code_neither_roots_nor_extends_the_graph() {
    let (w, _, t, _) = ws(&[
        (
            "crates/tga/src/det.rs",
            "pub fn helper(x: u64) -> u64 { x }
             #[cfg(test)]
             mod tests {
                 pub fn generate(x: u64) -> u64 { super::helper(x) }
             }",
        ),
        (
            "crates/tga/tests/it.rs",
            "pub fn generate(x: u64) -> u64 { x }",
        ),
    ]);
    assert!(
        !w.by_name.contains_key("generate"),
        "test fns never enter the table"
    );
    assert!(
        t.tainted[gid(&w, "helper")].is_none(),
        "no root reaches helper"
    );
}

#[test]
fn hash_iteration_off_the_deterministic_paths_is_not_taint_flagged() {
    // Report *rendering* iterates a HashMap and sums floats. It is never
    // reachable from a deterministic root, so the dataflow rule stays
    // quiet there — only the file-scoped det-hash-iter speaks.
    let files = vec![
        (
            "crates/tga/src/det.rs".to_string(),
            "pub fn generate(seed: u64) -> u64 { seed * 3 }".to_string(),
        ),
        (
            "crates/core/src/render.rs".to_string(),
            "use std::collections::HashMap;
             pub fn render_total(shares: &[f64]) -> String {
                 format!(\"{}\", shares.iter().sum::<f64>())
             }
             pub fn render_table(cells: &HashMap<u64, u64>) -> String {
                 let mut out = String::new();
                 for k in cells.keys() {
                     out.push_str(&format!(\"{k} \"));
                 }
                 out
             }"
            .to_string(),
        ),
    ];
    let findings = lint_files(&files, &Config::default());
    let in_render: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file == "crates/core/src/render.rs")
        .collect();
    assert!(
        in_render.iter().all(|f| f.rule != "det-float-reduce"),
        "rendering is not a deterministic path: {in_render:?}"
    );
    assert!(
        in_render.iter().any(|f| f.rule == "det-hash-iter"),
        "the file-scoped rule still sees the iteration: {in_render:?}"
    );
}

#[test]
fn file_scoped_determinism_rules_cover_what_no_root_reaches() {
    // Taint flows from a root to its callees, so an unsorted hash
    // iteration in a function no root calls — `engine::scan_shard` is one,
    // `par_map` closures being bodies of their caller — is no dataflow
    // rule's. The file-scoped det-hash-iter sees it, on and off the
    // deterministic paths alike, once per line.
    let sin = "for k in seen.keys() { drop(k); }";
    let files = vec![
        (
            "crates/probe/src/campaign.rs".to_string(),
            "pub fn read_state(state: u64) -> u64 { on_path(state) }".to_string(),
        ),
        (
            "crates/probe/src/retry.rs".to_string(),
            format!(
                "use std::collections::HashMap;
                 pub fn on_path(state: u64) -> u64 {{
                 let seen: HashMap<u64, u64> = HashMap::new();
                 {sin}
                 state
                 }}
                 pub fn off_path(state: u64) -> u64 {{
                 let seen: HashMap<u64, u64> = HashMap::new();
                 {sin}
                 state
                 }}"
            ),
        ),
    ];
    let found: Vec<(&str, u32)> = lint_files(&files, &Config::default())
        .iter()
        .filter(|f| f.file == "crates/probe/src/retry.rs")
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(found, [("det-hash-iter", 4), ("det-hash-iter", 9)]);
}

/// The address substrate's aliases are generic (`pub type AddrMap<K, V> =
/// HashMap<K, V, …>`), declared once in `v6addr`, and used by name in
/// every other crate. All three hash rules must see through them: the
/// real declaration file registers both names, and a file that only
/// *uses* them is held to the same rules as one that says `HashMap`.
#[test]
fn generic_address_aliases_are_hash_containers_to_every_hash_rule() {
    const DECLARATIONS: &str = include_str!("../../v6addr/src/hash.rs");
    const USES: &str = include_str!("fixtures/addr_aliases.rs");
    let lint_at = |path: &str| {
        let files = vec![
            (
                "crates/v6addr/src/hash.rs".to_string(),
                DECLARATIONS.to_string(),
            ),
            (path.to_string(), USES.to_string()),
        ];
        let w = Workspace::build(&files);
        assert_eq!(
            w.hash_aliases,
            ["AddrMap", "AddrSet"],
            "both aliases register"
        );
        let mut found: Vec<(&'static str, u32)> = lint_files(&files, &Config::default())
            .into_iter()
            .filter(|f| f.file == path)
            .map(|f| (f.rule, f.line))
            .collect();
        found.sort_unstable();
        found
    };
    // The file-scoped rule flags the two unsorted iterations (lines 7 and
    // 12) and accepts the sorted one.
    assert_eq!(
        lint_at("crates/core/src/grid.rs"),
        [("det-hash-iter", 7), ("det-hash-iter", 12)]
    );
    // In report assembly the *types* are banned by name, wherever they
    // appear (the import and the three signatures).
    let on_result_path = lint_at("crates/core/src/report.rs");
    let banned: Vec<u32> = on_result_path
        .iter()
        .filter(|(r, _)| *r == "det-unordered-collection")
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(banned, [4, 4, 6, 10, 18]);
}

/// A registry entry matches by path substring and fn name, so one whose
/// function was renamed or moved roots nothing — and lints clean. Every
/// entry must name at least one production function of the real
/// workspace.
#[test]
fn every_registered_root_names_a_function_of_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let w = Workspace::build(&read_sources(&root).unwrap());
    for (path, name, guards) in DETERMINISTIC_ROOTS {
        let ids = w.by_name.get(*name).map(Vec::as_slice).unwrap_or_default();
        assert!(
            ids.iter().any(|&gid| w.file_of(gid).rel.contains(path)),
            "the root for {guards} names no fn `{name}` under {path}"
        );
    }
}
