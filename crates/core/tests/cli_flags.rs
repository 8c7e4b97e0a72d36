//! The binaries' shared flag reader, through the real executables: a flag
//! whose value is missing or malformed fails before any work starts, with
//! an error naming the flag.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

/// Non-zero exit, and the `error:` line (not just the usage text, which
/// lists every flag) names `flag`.
fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{flag}: exit 0, stderr {stderr}");
    let named = stderr.lines().any(|l| l.starts_with("error:") && l.contains(flag));
    assert!(named, "{flag} not named in an error line: {stderr}");
}

#[test]
fn worldgen_refuses_a_flag_without_its_value() {
    for flag in ["--manifest", "--trace", "--flame", "--dump-dir", "--seed", "--scale"] {
        let out = run(env!("CARGO_BIN_EXE_worldgen"), &["--scale", "tiny", flag]);
        assert_refused(&out, flag);
    }
    let out = run(env!("CARGO_BIN_EXE_worldgen"), &["--seed", "0xC0FFEE"]);
    assert_refused(&out, "--seed");
}

#[test]
fn seedscan_refuses_missing_malformed_and_zero_values() {
    let seedscan = env!("CARGO_BIN_EXE_seedscan");
    for flag in ["--manifest", "--budget", "--stop-after"] {
        assert_refused(&run(seedscan, &["rq1", "--scale", "tiny", flag]), flag);
    }
    assert_refused(&run(seedscan, &["rq1", "--threads", "abc"]), "--threads");
    for flag in ["--scan-shards", "--gen-workers"] {
        let out = run(seedscan, &["rq1", flag, "0"]);
        assert_refused(&out, flag);
        assert!(String::from_utf8_lossy(&out.stderr).contains("must be >= 1"));
    }
    assert_refused(&run(seedscan, &["watch", "j.jsonl", "--interval-ms", "soon"]), "--interval-ms");
    assert_refused(&run(seedscan, &["explain", "m.json", "--top"]), "--top");
}
