//! `sos-lint` CLI: lint the workspace and emit a text or JSON report.
//!
//! Exit codes: 0 — no finding; 1 — at least one finding that no reasoned
//! `allow` comment covers; 2 — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use sos_lint::{lint_workspace, report_json, rule_info, Config, RULES};

fn usage(code: i32) -> ! {
    eprintln!(
        "sos-lint: static analysis enforcing the determinism and concurrency invariants no compiler or clippy lint sees

USAGE:
    sos-lint [OPTIONS]

OPTIONS:
    --root DIR             workspace root to lint (default: .)
    --format text|json     report format on stdout (default: text)
    --json                 shorthand for --format json
    --out FILE             also write the JSON report to FILE
    --list-rules           print rule ids with rationales and exit
    --explain RULE         print one rule's rationale and fix, then exit
    -h, --help             show this help

RULES:"
    );
    for r in RULES {
        eprintln!(
            "    {:<24} [{}/{}] {}",
            r.id, r.group, r.severity, r.rationale
        );
    }
    eprintln!(
        "
SUPPRESSIONS:
    // sos-lint: allow(rule-id) reason why this exception is sound
    on the flagged line or the line above. The reason is mandatory:
    an allow without one raises `suppression-reason`. Any finding left
    fails the run (exit 1)."
    );
    std::process::exit(code)
}

struct Args {
    root: PathBuf,
    json: bool,
    out: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        out: None,
        list_rules: false,
        explain: None,
    };
    let need = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().unwrap_or_else(|| {
            eprintln!("sos-lint: {flag} needs a value");
            std::process::exit(2)
        })
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(need(&mut argv, "--root")),
            "--format" => match need(&mut argv, "--format").as_str() {
                "json" => args.json = true,
                "text" => args.json = false,
                other => {
                    eprintln!("sos-lint: unknown format '{other}'");
                    std::process::exit(2)
                }
            },
            "--json" => args.json = true,
            "--out" => args.out = Some(PathBuf::from(need(&mut argv, "--out"))),
            "--list-rules" => args.list_rules = true,
            "--explain" => args.explain = Some(need(&mut argv, "--explain")),
            "-h" | "--help" => usage(0),
            other => {
                eprintln!("sos-lint: unknown argument '{other}'");
                usage(2)
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.list_rules {
        for r in RULES {
            println!("{:<24} [{}/{}] {}", r.id, r.group, r.severity, r.rationale);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &args.explain {
        let Some(r) = rule_info(id) else {
            eprintln!("sos-lint: no rule named `{id}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{} [{}/{}]", r.id, r.group, r.severity);
        println!("\nwhat it catches:\n    {}", r.rationale);
        println!("\nfix:\n    {}", r.fix);
        println!(
            "\nsuppress (only with a written reason):\n    // sos-lint: allow({}) reason why this exception is sound",
            r.id
        );
        return ExitCode::SUCCESS;
    }

    let cfg = Config::default();
    let findings = match lint_workspace(&args.root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sos-lint: cannot lint {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    let doc = report_json(&findings);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("sos-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.json {
        println!("{}", doc.to_string_pretty());
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        eprintln!("sos-lint: {} findings", findings.len());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
