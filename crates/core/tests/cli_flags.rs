//! `seedscan`'s command line, through the real executable: a flag whose
//! value is missing or malformed fails before any work starts, with an
//! error naming the flag.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

/// Non-zero exit, and the `error:` line (not just the usage text, which
/// lists every flag) names `flag`.
fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{flag}: exit 0, stderr {stderr}");
    let named = stderr
        .lines()
        .any(|l| l.starts_with("error:") && l.contains(flag));
    assert!(named, "{flag} not named in an error line: {stderr}");
}

#[test]
fn world_refuses_a_flag_without_its_value() {
    let seedscan = env!("CARGO_BIN_EXE_seedscan");
    for flag in [
        "--manifest",
        "--trace",
        "--flame",
        "--dump-dir",
        "--seed",
        "--scale",
    ] {
        let out = run(seedscan, &["world", "--scale", "tiny", flag]);
        assert_refused(&out, flag);
    }
    for (flag, bad) in [("--seed", "0xC0FFEE"), ("--scale", "bogus")] {
        assert_refused(&run(seedscan, &["world", flag, bad]), flag);
    }
}

#[test]
fn seedscan_refuses_missing_malformed_and_zero_values() {
    let seedscan = env!("CARGO_BIN_EXE_seedscan");
    for flag in ["--manifest", "--budget", "--stop-after"] {
        assert_refused(&run(seedscan, &["rq1", "--scale", "tiny", flag]), flag);
    }
    for (flag, bad) in [
        ("--threads", "abc"),
        ("--scale", "bogus"),
        ("--faults", "bogus"),
    ] {
        assert_refused(&run(seedscan, &["rq1", flag, bad]), flag);
    }
    let out = run(seedscan, &["rq1", "--threads", "0"]);
    assert_refused(&out, "--threads");
    assert!(String::from_utf8_lossy(&out.stderr).contains("must be >= 1"));
    // generation and scans run on one thread each: their former worker
    // flags are unknown
    for flag in ["--gen-workers", "--scan-shards"] {
        let out = run(seedscan, &["rq1", flag, "4"]);
        assert_refused(&out, flag);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unexpected argument: {flag}")));
        assert!(stderr.contains("usage: seedscan"));
    }
    assert_refused(
        &run(seedscan, &["watch", "j.jsonl", "--interval-ms", "soon"]),
        "--interval-ms",
    );
    assert_refused(&run(seedscan, &["explain", "m.json", "--top"]), "--top");
}

/// A directory no run creates: an artifact path inside it cannot be written.
fn missing_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sos-cli-missing-{tag}-{}", std::process::id()))
}

/// An artifact path in a directory that does not exist fails before the
/// study is built, naming the flag, instead of after the whole run.
#[test]
fn seedscan_checks_artifact_paths_before_building_the_study() {
    let manifest = missing_dir("seedscan").join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args(["rq1", "--scale", "tiny", "--manifest"])
        .arg(&manifest)
        .output()
        .expect("run binary");
    assert_refused(&out, "--manifest");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("building study"),
        "the study was built: {stderr}"
    );
}

/// `world` checks its artifact paths the same way, before the world is
/// built (it prints the world's composition once it is).
#[test]
fn world_checks_artifact_paths_before_building_the_world() {
    let trace = missing_dir("world").join("t.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args(["world", "--scale", "tiny", "--trace"])
        .arg(&trace)
        .output()
        .expect("run binary");
    assert_refused(&out, "--trace");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("building world"),
        "the world was built: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `--dump-dir` is created before the world is built: a path that cannot
/// be a directory (it runs through a regular file) is an `error:` line
/// and exit 1, with nothing built or printed.
#[test]
fn world_refuses_a_dump_dir_it_cannot_create() {
    let dir = std::env::temp_dir().join(format!("sos-cli-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("file"), "kept\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .current_dir(&dir)
        .args(["world", "--scale", "tiny", "--dump-dir", "file/sub"])
        .output()
        .expect("run binary");
    assert_refused(&out, "file/sub");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("building world"),
        "the world was built: {stderr}"
    );
    assert!(out.stdout.is_empty());
    assert_eq!(std::fs::read_to_string(dir.join("file")).unwrap(), "kept\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two ground-truth lists `world --dump-dir` writes read back through
/// `seeds::io`, and hold what their headers say.
#[test]
fn world_dump_files_parse_back() {
    let dir = std::env::temp_dir().join(format!("sos-cli-dumped-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args(["world", "--scale", "tiny", "--dump-dir"])
        .arg(&dir)
        .output()
        .expect("run binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let open = |name: &str| std::io::BufReader::new(std::fs::File::open(dir.join(name)).unwrap());
    let prefixes = seeds::io::read_prefix_list(open("aliased-prefixes.txt")).unwrap();
    assert!(!prefixes.is_empty());
    let addrs = seeds::io::read_address_list(open("icmp-responsive.txt")).unwrap();
    let text = std::fs::read_to_string(dir.join("icmp-responsive.txt")).unwrap();
    assert!(
        text.contains(&format!("# {} addresses", addrs.len())),
        "{}",
        text.lines().take(2).collect::<Vec<_>>().join("\n")
    );
    assert!(!addrs.is_empty());
    assert!(addrs.iter().all(|&a| !prefixes.contains_addr(a)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--help` and `-h` are usage requests, not errors: they print the
/// usage, which lists every experiment in the table, on stdout and exit 0.
/// A command line that names no experiment is refused: exit 1, with the
/// usage on stderr and nothing on stdout.
#[test]
fn help_lists_every_experiment() {
    let seedscan = env!("CARGO_BIN_EXE_seedscan");
    for flag in ["--help", "-h"] {
        let help = run(seedscan, &[flag]);
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(help.status.success(), "{flag}: {:?}", help.status);
        for e in sos_core::experiments::EXPERIMENTS {
            let listed = stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(e.name));
            assert!(listed, "{} missing from {flag}: {stdout}", e.name);
        }
    }
    for args in [&[][..], &["--scale", "tiny"]] {
        let out = run(seedscan, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: seedscan"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A misspelled experiment fails before the study is built, instead of
/// building it, running nothing and exiting 0.
#[test]
fn seedscan_refuses_an_unknown_experiment() {
    let out = run(env!("CARGO_BIN_EXE_seedscan"), &["rq5", "--scale", "tiny"]);
    assert_refused(&out, "rq5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: seedscan"), "{stderr}");
    assert!(
        !stderr.contains("building study"),
        "the study was built: {stderr}"
    );
}

/// The campaign's own flags (breakers, checkpoints, journal) mean nothing
/// to another experiment: it refuses them before building the study
/// instead of running and writing none of the files they name. `--faults`
/// shapes the world, so every experiment takes it.
#[test]
fn seedscan_refuses_campaign_flags_outside_campaign() {
    let dir = std::env::temp_dir().join(format!("sos-cli-campaign-only-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flags: [&[&str]; 7] = [
        &["--breaker"],
        &["--checkpoint", "c.json"],
        &["--checkpoint-every", "64"],
        &["--resume", "c.json"],
        &["--stop-after", "2"],
        &["--journal", "j.jsonl"],
        &["--snapshot-every", "1"],
    ];
    for flag in flags {
        let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
            .current_dir(&dir)
            .args(["summary", "--scale", "tiny"])
            .args(flag)
            .output()
            .expect("run binary");
        assert_refused(&out, flag[0]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: seedscan"), "{stderr}");
        assert!(
            !stderr.contains("building study"),
            "the study was built: {stderr}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "files written: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `export` writes into ./export/: when that cannot be a directory, the
/// run says so on an `error:` line and exits 1 before building the study.
#[test]
fn export_refuses_an_unwritable_export_directory() {
    let dir = std::env::temp_dir().join(format!("sos-cli-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("export"), "kept\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .current_dir(&dir)
        .args(["export", "--scale", "tiny"])
        .output()
        .expect("run binary");
    assert_refused(&out, "export/");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("building study"),
        "the study was built: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("export")).unwrap(),
        "kept\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One snapshot, several views: `explain <journal>` ends with exactly the
/// bytes of the run's `.prom` file, and `explain` is the one reader of a
/// finished journal — `watch` has no `--replay` mode to fall back on.
#[test]
fn explain_of_a_journal_ends_with_its_prom_file() {
    let dir = std::env::temp_dir().join(format!("sos-cli-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seedscan = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_seedscan"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("run binary")
    };
    let campaign = seedscan(&[
        "campaign",
        "--scale",
        "tiny",
        "--faults",
        "hostile",
        "--breaker",
        "--checkpoint-every",
        "64",
        "--journal",
        "j.jsonl",
    ]);
    assert!(
        campaign.status.success(),
        "{}",
        String::from_utf8_lossy(&campaign.stderr)
    );
    let explained = seedscan(&["explain", "j.jsonl"]);
    assert!(explained.status.success());
    let prom = std::fs::read(dir.join("j.prom")).unwrap();
    assert!(
        prom.starts_with(b"# TYPE "),
        "{}",
        String::from_utf8_lossy(&prom)
    );
    assert!(
        explained.stdout.ends_with(&prom),
        "{}",
        String::from_utf8_lossy(&explained.stdout)
    );

    let replay = seedscan(&["watch", "j.jsonl", "--replay"]);
    assert_refused(&replay, "--replay");
    assert!(String::from_utf8_lossy(&replay.stderr).contains("usage: seedscan"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `.prom` snapshot goes beside the journal, at the journal's path
/// with a `prom` extension — for `--journal x.prom`, the journal itself.
/// The campaign refuses to start, names the file and leaves it alone.
#[test]
fn campaign_refuses_a_journal_that_is_its_own_snapshot() {
    let dir = std::env::temp_dir().join(format!("sos-cli-sinks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("x.prom");
    std::fs::write(&journal, "kept\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .current_dir(&dir)
        .args(["campaign", "--scale", "tiny", "--journal", "x.prom"])
        .output()
        .expect("run binary");
    assert_refused(&out, "x.prom");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "kept\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two spellings of one file are one file: `./x.json` is `x.json`, and
/// `./x.tmp` is the temporary file `--checkpoint x.json` is rewritten
/// through. Had either run started, the checkpoint's rename would have
/// replaced the journal.
#[test]
fn campaign_refuses_sink_paths_that_differ_only_in_spelling() {
    let dir = std::env::temp_dir().join(format!("sos-cli-spelled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (checkpoint, journal, named) in [
        ("./x.json", "x.json", "x.json"),
        ("x.json", "./x.tmp", "x.tmp"),
        ("x.json", "../sub/x.json", "x.json"),
    ] {
        let sub = dir.join("sub");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("x.json"), "kept\n").unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
            .current_dir(&sub)
            .args(["campaign", "--scale", "tiny", "--checkpoint-every", "64"])
            .args(["--checkpoint", checkpoint, "--journal", journal])
            .output()
            .expect("run binary");
        assert_refused(&out, named);
        assert_eq!(
            std::fs::read_to_string(sub.join("x.json")).unwrap(),
            "kept\n",
            "{checkpoint} {journal}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
