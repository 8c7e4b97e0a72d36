//! `seedscan` — run any experiment of the study from the command line.
//!
//! ```text
//! seedscan <experiment> [flags]
//! seedscan watch <journal> [--interval-ms N] [--max-idle-polls N]
//! seedscan explain <manifest|journal> [--json] [--top N]
//! ```
//!
//! `seedscan --help` lists every experiment, what it prints and the flags
//! only it takes: they are one table, `sos_core::experiments::EXPERIMENTS`,
//! and `sos_core::cli::Options` documents each flag. An experiment builds
//! the world, the study and the master grid only when it first needs them.
//!
//! `seedscan watch <journal>` tails a campaign's `--journal` from another
//! terminal and renders a live status table until the campaign ends.
//! `seedscan explain <manifest|journal>` renders where a campaign's probes,
//! hits and aliases landed (by /32 region, addressing scheme and origin
//! AS, with a coverage heatmap), cross-checked against its scan counters;
//! on a journal it prints the final status, the discovery table and the
//! last counter snapshot, byte for byte the run's `.prom` file.
//!
//! Observability: progress goes to stderr at the level `SOS_LOG` selects
//! (default `info`). `--manifest FILE` writes a JSON run manifest (the
//! configuration, span timings, engine counters and an FNV-1a digest of
//! every printed block: equal runs, equal digests); `--trace FILE` a
//! Chrome trace-event timeline, one lane per thread; `--flame FILE`
//! self-time as collapsed stacks. Each artifact's directory must exist
//! before the run starts.

use std::process::ExitCode;

use sos_core::cli::{usage, value, Options};
use sos_core::experiments::Run;

/// Answer a bare usage request (`e` empty) with the usage text on stdout;
/// report a command-line error with the usage text on stderr, and fail.
fn usage_exit(e: &str) -> ExitCode {
    if e.is_empty() {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {e}");
    eprintln!("{}", usage());
    ExitCode::FAILURE
}

/// `seedscan watch <journal> [--interval-ms N] [--max-idle-polls N]`
///
/// Tails the journal live until a `campaign_end` record arrives (on a
/// finished journal: prints the final status and exits);
/// `--max-idle-polls N` detaches after N consecutive empty polls (for
/// scripted use against a killed campaign's journal).
fn run_watch(rest: Vec<String>) -> ExitCode {
    let mut journal: Option<String> = None;
    let mut interval_ms: u64 = 500;
    let mut max_idle_polls: Option<u64> = None;
    let mut it = rest.into_iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--interval-ms" => interval_ms = value(&mut it, "--interval-ms")?,
                "--max-idle-polls" => max_idle_polls = Some(value(&mut it, "--max-idle-polls")?),
                other if journal.is_none() && !other.starts_with('-') => {
                    journal = Some(other.to_string())
                }
                other => return Err(format!("unexpected watch argument: {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_exit(&e);
    }
    let Some(journal) = journal else {
        return usage_exit("watch needs a journal path");
    };
    let (path, poll) = (
        std::path::Path::new(&journal),
        std::time::Duration::from_millis(interval_ms),
    );
    match sos_core::watch::watch_live(path, poll, max_idle_polls, &mut std::io::stdout()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: watching {journal}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `seedscan explain <manifest|journal> [--json] [--top N]`
///
/// Auto-detects the artifact kind: a run manifest (one JSON document)
/// yields the full attribution view — ranked regions, per-scheme and
/// per-AS hit tables, waste histograms, coverage heatmap; a telemetry
/// journal yields the final status block, the folded per-source discovery
/// totals and the last counter snapshot as the run's `.prom` file renders
/// it. `--json` emits the same content machine-readably.
fn run_explain(rest: Vec<String>) -> ExitCode {
    let mut artifact: Option<String> = None;
    let mut json = false;
    let mut top: usize = 15;
    let mut it = rest.into_iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => json = true,
                "--top" => top = value(&mut it, "--top")?,
                other if artifact.is_none() && !other.starts_with('-') => {
                    artifact = Some(other.to_string())
                }
                other => return Err(format!("unexpected explain argument: {other}")),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return usage_exit(&e);
    }
    let Some(artifact) = artifact else {
        return usage_exit("explain needs a manifest or journal path");
    };
    match sos_core::explain::explain(std::path::Path::new(&artifact), json, top.max(1)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Refuse what could not be written before anything is built (an
/// artifact's directory, an experiment's output directory), then run each
/// selected experiment and write the artifacts.
fn run(opts: Options) -> Result<(), String> {
    opts.artifacts.check()?;
    for e in &opts.selected {
        if let Some(dir) = (e.out_dir)(&opts) {
            std::fs::create_dir_all(dir).map_err(|err| format!("creating {dir}/: {err}"))?;
        }
    }
    let run = Run::new(opts);
    for e in &run.opts.selected {
        (e.run)(&run)?;
    }
    run.finish()
}

fn main() -> ExitCode {
    sos_obs::log::init_from_env_or(sos_obs::Level::Info);
    let mut args = std::env::args().skip(1);
    let opts = match args.next() {
        Some(cmd) if cmd == "watch" => return run_watch(args.collect()),
        Some(cmd) if cmd == "explain" => return run_explain(args.collect()),
        first => Options::parse(first.into_iter().chain(args)),
    };
    match opts.map(run) {
        Err(e) => usage_exit(&e),
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}
