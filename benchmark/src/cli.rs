//! Command line: `run`, `compare`, and the single-workload form the
//! benchmark driver calls.

use std::path::{Path, PathBuf};
use std::process::Command;

use sos_obs::Json;

use crate::report::{self, out_dir, EndToEndRun, TracedRun};
use crate::trace;
use crate::workloads::WorkloadId;

pub const USAGE: &str = "\
usage:
  sos-benchmark run [--seed S] [--reps N] [--seconds T] [--traced]
      run the four workloads, each in its own process; print every metric
      and write out/result.json (with --traced also the per-layer metrics
      and out/trace.<workload>.json)
  sos-benchmark compare A.json B.json
      apply the regression bounds to two result files; exit 1 on a
      regression or a higher failed_share
  sos-benchmark contract
      print BENCHMARK.json as the metric tables in src/names.rs define it
  sos-benchmark --workload NAME [--seed S] [--seconds T] [--reps N] [--trace 0|1] [--detail FILE]
      one workload in this process; the last line printed is the result
      object the benchmark driver reads (with --detail, the samples go to
      FILE instead)

defaults: --seed 7 (8 is the held-out seed), --reps 3 (the minimum number of
repetitions), --seconds 20 (keep repeating while another repetition fits)";

/// Flags shared by `run` and the single-workload form.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub trace: bool,
    pub detail: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workload: None,
            seed: 7,
            reps: 3,
            seconds: report::RUN_SECONDS as f64,
            trace: false,
            detail: None,
        }
    }
}

/// Parse `--flag value` pairs (`--traced` takes no value).
pub fn parse_opts(args: &[String]) -> Result<Opts, String> {
    fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
        let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => opts.workload = Some(value(flag, it.next())?),
            "--seed" => opts.seed = value(flag, it.next())?,
            "--reps" => opts.reps = value::<usize>(flag, it.next())?.max(1),
            "--seconds" => opts.seconds = value(flag, it.next())?,
            "--trace" => opts.trace = value::<u8>(flag, it.next())? != 0,
            "--traced" => opts.trace = true,
            "--detail" => opts.detail = Some(PathBuf::from(value::<String>(flag, it.next())?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds < 0.0 {
        return Err(format!("--seconds: {} is not a duration", opts.seconds));
    }
    Ok(opts)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_opts(&args[1..]).and_then(|opts| run_all(&opts)),
        Some("compare") => match args {
            [_, a, b] => compare_files(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("contract") => {
            println!("{}", report::contract().to_string_pretty());
            return 0;
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return 0;
        }
        Some(_) => parse_opts(args).and_then(|opts| one_workload(&opts)),
        None => Err("no command".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sos-benchmark: {e}\n{USAGE}");
            2
        }
    }
}

/// The driver's form: one workload, in this process.
fn one_workload(opts: &Opts) -> Result<i32, String> {
    let name = opts.workload.as_deref().ok_or("--workload is required")?;
    let workload =
        WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let io = |e: std::io::Error| format!("write results: {e}");
    let (detail, line) = if opts.trace {
        let run = TracedRun {
            workload,
            seed: opts.seed,
            layers: workload.traced(opts.seed),
        };
        run.print();
        let missing = run.missing();
        if !missing.is_empty() {
            return Err(format!("traced run of {name} did not measure {missing:?}"));
        }
        let path = out_dir().join(format!("trace.{name}.json"));
        report::write_json(&path, &trace::to_json(name, &run.layers.spans)).map_err(io)?;
        println!("  trace written to {}", path.display());
        (run.to_json(), run.driver_line())
    } else {
        let reps = workload.measure(opts.seed, opts.seconds, opts.reps);
        let run = EndToEndRun::from_reps(workload, opts.seed, &reps);
        run.print();
        (run.to_json(), run.driver_line())
    };
    match &opts.detail {
        // Called by `run`, which reads the detail file instead.
        Some(path) => report::write_json(path, &detail).map_err(io)?,
        None => println!("{line}"),
    }
    Ok(0)
}

/// Run `workload` in a child process and read back its detail document.
fn child(opts: &Opts, workload: WorkloadId, trace: bool) -> Result<Json, String> {
    let tag = if trace { "traced" } else { "untraced" };
    let detail = out_dir().join(format!("detail.{}.{tag}.json", workload.name()));
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--reps", &opts.reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("start {} ({tag}): {e}", workload.name()))?;
    if !status.success() {
        return Err(format!("{} ({tag}) exited with {status}", workload.name()));
    }
    let doc = report::read_json(&detail)?;
    // The merged result.json supersedes the per-child files.
    let _ = std::fs::remove_file(&detail);
    Ok(doc)
}

/// `run`: every workload in its own process, merged into `out/result.json`.
fn run_all(opts: &Opts) -> Result<i32, String> {
    let mut rows = Vec::new();
    let mut failed_total = 0u64;
    for workload in WorkloadId::ALL {
        let mut doc = child(opts, workload, false)?;
        if opts.trace {
            let layers = child(opts, workload, true)?;
            doc.set("layers", layers);
        }
        failed_total += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        rows.push(doc);
    }

    println!(
        "\n{:<16} {:>9} {:>9} {:>12} {:>13} {:>12} {:>13}",
        "workload",
        "setup_s",
        "wall_s",
        "cand_per_s",
        "probes_per_s",
        "peak_rss_mb",
        "failed_share"
    );
    for doc in &rows {
        let median = |m: &str| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m))
                .and_then(|r| r.get("median"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>12.0} {:>13.0} {:>12.1} {:>13.4}",
            doc.get("workload").and_then(Json::as_str).unwrap_or("?"),
            median("setup_s"),
            median("wall_s"),
            median("cand_per_s"),
            median("probes_per_s"),
            median("peak_rss_mb"),
            doc.get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }

    let mut result = Json::obj();
    result.set("schema", 1u64);
    result.set("seed", opts.seed);
    result.set("workloads", rows);
    let path = out_dir().join("result.json");
    report::write_json(&path, &result).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nresult written to {}", path.display());
    Ok(i32::from(failed_total > 0))
}

/// `compare`: print one row per workload; 1 on any regression.
fn compare_files(a: &Path, b: &Path) -> Result<i32, String> {
    let cmp = crate::compare::compare(&report::read_json(a)?, &report::read_json(b)?)?;
    for row in &cmp.rows {
        println!("{row}");
    }
    println!("{} regressed, {} unresolved", cmp.regressed, cmp.unresolved);
    Ok(i32::from(cmp.regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let opts = parse_opts(&args(
            "--workload scan-oneshot --seed 11 --seconds 5 --trace 1",
        ))
        .expect("parse");
        assert_eq!(opts.workload.as_deref(), Some("scan-oneshot"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.reps),
            (11, 5.0, true, 3)
        );
        assert!(!parse_opts(&args("--trace 0")).expect("parse").trace);
        assert!(parse_opts(&args("--traced --reps 0")).is_ok_and(|o| o.trace && o.reps == 1));
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse_opts(&args("--seed")).is_err());
        assert!(parse_opts(&args("--seed x")).is_err());
        assert!(parse_opts(&args("--seconds -1")).is_err());
        assert!(parse_opts(&args("--bogus 1")).is_err());
        assert_eq!(main(&args("--workload nope")), 2);
        assert_eq!(main(&[]), 2);
    }
}
