//! Kill + resume determinism: a campaign interrupted at ANY round
//! boundary and resumed from its checkpoint must finish with reports,
//! counters, and a final checkpoint bit-identical to the uninterrupted
//! run — under hostile faults, circuit breakers, sharding, and (in the
//! degenerate single-shard path) a live token-bucket rate limiter.

// Helpers here sit outside `#[test]` bodies, which is all clippy's
// `allow-*-in-tests` exempts; the panic lints guard the library, not these.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use std::io::{Seek as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::Budgeted;
use netmodel::{FaultConfig, Protocol, World, WorldConfig};
use sos_obs::json::{single_byte_damage, Json};
use sos_probe::{
    BreakerConfig, BreakerMap, BreakerState, Campaign, CampaignCheckpoint, CampaignRun,
    RetryPolicy, RunOptions, Scanner, ScannerConfig, SimTransport,
};

fn hostile_world(seed: u64) -> Arc<World> {
    let mut wc = WorldConfig::tiny(seed);
    wc.faults = FaultConfig::hostile();
    Arc::new(World::build(wc))
}

fn scanner(world: Arc<World>, rate_pps: Option<f64>) -> Scanner<SimTransport> {
    Scanner::new(
        ScannerConfig {
            retry: RetryPolicy::exponential(3, 0.01),
            breaker: Some(BreakerConfig::default()),
            rate_pps,
            ..ScannerConfig::default()
        },
        SimTransport::new(world),
    )
}

fn targets(world: &World) -> Vec<std::net::Ipv6Addr> {
    let mut out: Vec<std::net::Ipv6Addr> = world
        .hosts()
        .iter()
        .map(|(a, _)| a)
        .step_by(2)
        .take(200)
        .collect();
    for i in 0..30u128 {
        out.push(std::net::Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    out
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sos-ckpt-{}-{tag}.json", std::process::id()))
}

/// Strip the one counter that legitimately distinguishes a resumed run
/// from an uninterrupted one: how many targets it skipped past on wakeup.
fn normalized(mut ckpt: CampaignCheckpoint) -> CampaignCheckpoint {
    ckpt.counters.remove("probe.resumed_targets");
    ckpt
}

#[test]
fn resume_is_bit_identical_at_every_round_boundary() {
    const EVERY: usize = 48;
    let w = hostile_world(0xCE5);
    let t = targets(&w);

    // Arm provenance so the report-equality assertions below also pin the
    // per-region attribution tables across every kill/resume boundary —
    // ScanReport's PartialEq covers the table field.
    let prov = Arc::new(sos_probe::ProvenanceLog::for_targets(&t));
    let full_path = tmp("full");
    let opts = RunOptions {
        shards: 4,
        checkpoint_every: EVERY,
        checkpoint_path: Some(full_path.clone()),
        provenance: Some(prov),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), None);
    let full = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(full.completed);
    assert_eq!(full.resumed_targets, 0);
    let full_attr = sos_probe::merged_attribution(&full.result.reports);
    assert!(!full_attr.is_empty(), "tagged campaign must attribute");
    for (proto, r) in &full.result.reports {
        let (probes, hits, _) = r.attribution.totals();
        assert_eq!(probes, r.probed as u64, "{proto:?} attribution probe sum");
        assert_eq!(hits, r.hits.len() as u64, "{proto:?} attribution hit sum");
    }
    let mut full_counters = s.metrics().counters();
    full_counters.remove("probe.resumed_targets");
    let full_ckpt = CampaignCheckpoint::load(&full_path).unwrap();

    for k in 1..full.rounds {
        let path = tmp(&format!("kill-{k}"));
        let kill_opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            stop_after_rounds: Some(k),
            ..opts.clone()
        };
        let mut s = scanner(w.clone(), None);
        let partial = Campaign::standard(&mut s)
            .run_with(&t, &kill_opts, None)
            .unwrap();
        assert!(!partial.completed, "stop_after_rounds={k} must interrupt");
        assert_eq!(partial.rounds, k);
        // The scanner "dies" here; a fresh one picks the checkpoint up.
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.done, (k * EVERY).min(t.len()));

        let resume_opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            ..opts.clone()
        };
        let mut s2 = scanner(w.clone(), None);
        let resumed = Campaign::standard(&mut s2)
            .run_with(&t, &resume_opts, Some(&ckpt))
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.rounds, full.rounds, "killed at round {k}");
        assert_eq!(resumed.resumed_targets, ckpt.done);
        assert_eq!(
            resumed.result.reports, full.result.reports,
            "reports diverged after kill at round {k}"
        );
        assert_eq!(
            sos_probe::merged_attribution(&resumed.result.reports),
            full_attr,
            "attribution diverged after kill at round {k}"
        );
        let mut counters = s2.metrics().counters();
        assert_eq!(
            counters.remove("probe.resumed_targets"),
            Some(ckpt.done as u64)
        );
        assert_eq!(
            counters, full_counters,
            "counters diverged after kill at round {k}"
        );
        assert_eq!(
            normalized(CampaignCheckpoint::load(&path).unwrap()),
            normalized(full_ckpt.clone()),
            "final checkpoint diverged after kill at round {k}"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full_path);
}

/// The single-shard, single-protocol path runs through the scanner's own
/// token bucket — resuming must restore the bucket mid-stream so even the
/// virtual rate-limit waits come out bit-identical.
#[test]
fn resume_restores_the_rate_limiter_mid_stream() {
    let w = hostile_world(0x11A7E);
    let t = targets(&w);
    let opts = RunOptions {
        shards: 1,
        checkpoint_every: 30,
        ..RunOptions::default()
    };

    let mut s = scanner(w.clone(), Some(25.0));
    let full = Campaign::new(&mut s, vec![Protocol::Icmp])
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(full.completed);
    let full_report = &full.result.reports[0].1;
    assert!(
        full_report.limited_seconds > 0.0,
        "limiter must actually bite"
    );

    for k in [1, 3] {
        let path = tmp(&format!("limit-{k}"));
        let kill_opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            stop_after_rounds: Some(k),
            ..opts.clone()
        };
        let mut s = scanner(w.clone(), Some(25.0));
        Campaign::new(&mut s, vec![Protocol::Icmp])
            .run_with(&t, &kill_opts, None)
            .unwrap();
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert!(
            ckpt.limiter.is_some(),
            "rate-limited campaign must snapshot its bucket"
        );

        let mut s2 = scanner(w.clone(), Some(25.0));
        let resumed = Campaign::new(&mut s2, vec![Protocol::Icmp])
            .run_with(&t, &opts, Some(&ckpt))
            .unwrap();
        assert_eq!(
            resumed.result.reports, full.result.reports,
            "rate-limited resume diverged after kill at round {k}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Cancelling before the first round still writes a resumable checkpoint
/// recording zero progress; resuming it reproduces the whole campaign.
#[test]
fn cancelled_before_first_round_resumes_from_zero() {
    let w = hostile_world(0xCA9C);
    let t = targets(&w);
    let path = tmp("cancelled");
    let cancel = Arc::new(AtomicBool::new(true));
    let opts = RunOptions {
        shards: 2,
        checkpoint_every: 64,
        checkpoint_path: Some(path.clone()),
        cancel: Some(cancel),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), None);
    let stopped = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(!stopped.completed);
    assert_eq!(stopped.rounds, 0);

    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.done, 0);
    let resume_opts = RunOptions {
        cancel: None,
        checkpoint_path: None,
        ..opts.clone()
    };
    let mut s2 = scanner(w.clone(), None);
    let resumed = Campaign::standard(&mut s2)
        .run_with(&t, &resume_opts, Some(&ckpt))
        .unwrap();
    assert!(resumed.completed);

    let mut s3 = scanner(w, None);
    let uninterrupted = Campaign::standard(&mut s3)
        .run_with(
            &t,
            &RunOptions {
                shards: 2,
                checkpoint_every: 64,
                ..RunOptions::default()
            },
            None,
        )
        .unwrap();
    assert_eq!(resumed.result.reports, uninterrupted.result.reports);
    let _ = std::fs::remove_file(&path);
}

/// A campaign-scale checkpoint must load back, equal, in test time: the
/// JSON string scanner used to re-validate the rest of the document for
/// every character, which put a 50 000-hit checkpoint at minutes.
#[test]
fn large_checkpoint_saves_and_loads_equal() {
    let hits = (0..50_000u128)
        .map(|i| std::net::Ipv6Addr::from((0x2001_0db8_u128 << 96) | (i * 0x1_0001)))
        .collect();
    let report = sos_probe::ScanReport {
        hits,
        probed: 50_000,
        ..Default::default()
    };
    let ckpt = CampaignCheckpoint {
        fingerprint: 0x5ca1e,
        done: 50_000,
        rounds: 7,
        reports: vec![(Protocol::Icmp, report)],
        limiter: None,
        fault_state: (0..2_000u128)
            .map(|d| (d << 80, (d % 4) as u8, d as u32))
            .collect(),
        breaker: None,
        counters: [("probe.hits".to_string(), 50_000u64)]
            .into_iter()
            .collect(),
    };
    let path = tmp("large");
    ckpt.save(&path).unwrap();
    // One compact line: 35 bytes a hit.
    assert!(std::fs::metadata(&path).unwrap().len() > 1_750_000);
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint that cannot be written ends the campaign with an error
/// naming the path, at the first boundary, before the write is journaled;
/// checkpoints elsewhere are not touched.
#[test]
fn unwritable_checkpoint_path_fails_the_first_boundary() {
    let w = hostile_world(0x10E1);
    let t = targets(&w);
    let good = tmp("io-good");
    let opts = RunOptions {
        shards: 2,
        checkpoint_every: 64,
        ..RunOptions::default()
    };
    let kill_opts = RunOptions {
        checkpoint_path: Some(good.clone()),
        stop_after_rounds: Some(1),
        ..opts.clone()
    };
    let mut s = scanner(w.clone(), None);
    Campaign::standard(&mut s)
        .run_with(&t, &kill_opts, None)
        .unwrap();
    let good_bytes = std::fs::read(&good).unwrap();

    let missing_dir = tmp("io-missing-dir");
    let _ = std::fs::remove_dir_all(&missing_dir);
    let bad = missing_dir.join("ckpt.json");
    let journal = tmp("io-journal");
    let bad_opts = RunOptions {
        checkpoint_path: Some(bad.clone()),
        journal_path: Some(journal.clone()),
        ..opts
    };
    let mut s = scanner(w, None);
    let err = Campaign::standard(&mut s)
        .run_with(&t, &bad_opts, None)
        .expect_err("the checkpoint directory does not exist");
    assert!(err.contains(&bad.display().to_string()), "{err}");
    let kinds: Vec<&str> = sos_obs::journal::read_records(&journal)
        .unwrap()
        .iter()
        .map(|r| r.event.kind())
        .collect();
    assert_eq!(
        kinds.iter().filter(|k| **k == "round_end").count(),
        1,
        "{kinds:?}"
    );
    assert!(
        !kinds.contains(&"checkpoint"),
        "a failed write is not journaled: {kinds:?}"
    );
    assert!(!bad.exists() && !missing_dir.exists());
    assert_eq!(std::fs::read(&good).unwrap(), good_bytes);
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&journal);
}

/// A journal that cannot be opened fails the campaign before any probe.
#[test]
fn unopenable_journal_fails_before_the_first_probe() {
    let w = hostile_world(0x10E2);
    let t = targets(&w);
    let dir = std::env::temp_dir();
    let opts = RunOptions {
        checkpoint_every: 64,
        journal_path: Some(dir.clone()),
        ..RunOptions::default()
    };
    let mut s = scanner(w, None);
    let err = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .expect_err("a directory is not a journal");
    assert!(err.contains(&dir.display().to_string()), "{err}");
    assert_eq!(s.packets_sent(), 0);
}

/// Damaged checkpoint files are refused with an error naming the file,
/// never a panic — and never loaded as something else: an out-of-range
/// protocol index, breaker tag, prefix length or count names its field
/// instead of being narrowed into state nobody wrote.
#[test]
fn damaged_checkpoints_load_as_errors() {
    let report = sos_probe::ScanReport {
        hits: (0..64u128)
            .map(|i| std::net::Ipv6Addr::from((0x2001_0db8_u128 << 96) | i))
            .collect(),
        probed: 64,
        ..Default::default()
    };
    let ckpt = CampaignCheckpoint {
        fingerprint: 0xda4a6ed,
        done: 64,
        rounds: 1,
        reports: vec![(Protocol::Icmp, report)],
        limiter: None,
        fault_state: vec![(0xf1 << 80, 1, 777), (0xf2 << 80, 2, 888)],
        breaker: Some(BreakerMap::restore(
            BreakerConfig::default(),
            [((0xb1, 3), BreakerState::Open { skipped: 999 })],
            1,
            999,
        )),
        counters: Default::default(),
    };
    let path = tmp("damaged");
    ckpt.save(&path).unwrap();
    // The state as one compact line, which the one-value edits below change.
    let compact = ckpt.to_json().to_string();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{compact}\n")
    );
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);
    // The pretty-printed document older versions wrote loads the same.
    let pretty = ckpt.to_json().to_string_pretty();
    std::fs::write(&path, &pretty).unwrap();
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);

    let mid_hits = |text: &str| {
        let at = text.find("\"hits\"").unwrap() + 200;
        assert!(at < text.find("\"probed\"").unwrap());
        text[..at].to_string()
    };
    let edit = |from: &str, to: &str| {
        assert_eq!(
            compact.matches(from).count(),
            1,
            "{from} must name one value"
        );
        compact.replacen(from, to, 1)
    };
    // The one report, with an attribution table of the one row given.
    let attributed = |row: &str| {
        edit(
            "\"limited_seconds_bits\":0}",
            &format!("\"limited_seconds_bits\":0,\"attribution\":[{row}]}}"),
        )
    };
    std::fs::write(&path, attributed("[255,1,1,0,0,0,0]")).unwrap();
    let with_row = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(with_row.reports[0].1.attribution.totals(), (1, 0, 0));
    for (what, body, names) in [
        ("truncated mid-hits", mid_hits(&compact), "line 1"),
        (
            "a pretty document truncated mid-hits",
            mid_hits(&pretty),
            "line 1",
        ),
        ("empty", String::new(), "line 1"),
        (
            "wrong version",
            edit("\"version\":1,", "\"version\":2,"),
            "version",
        ),
        (
            "fault row protocol 300 (44 as u8)",
            edit(",1,777]", ",300,777]"),
            "fault_state",
        ),
        (
            "fault row count 2^40",
            edit(",1,777]", ",1,1099511627776]"),
            "fault_state",
        ),
        ("fault row of two", edit(",2,888]", ",2]"), "fault_state"),
        (
            "breaker row protocol 4",
            edit(",3,1,999]", ",4,1,999]"),
            "breaker.entries",
        ),
        (
            "breaker row tag 3",
            edit(",3,1,999]", ",3,3,999]"),
            "breaker.entries",
        ),
        (
            "breaker row tag 257 (1 as u8)",
            edit(",3,1,999]", ",3,257,999]"),
            "breaker.entries",
        ),
        (
            "breaker row count 2^32",
            edit(",3,1,999]", ",3,1,4294967296]"),
            "breaker.entries",
        ),
        (
            "prefix_len 304 (48 as u8)",
            edit("\"prefix_len\":48,", "\"prefix_len\":304,"),
            "prefix_len",
        ),
        (
            "prefix_len 0",
            edit("\"prefix_len\":48,", "\"prefix_len\":0,"),
            "prefix_len",
        ),
        (
            "threshold 2^32 + 8",
            edit("\"threshold\":8,", "\"threshold\":4294967304,"),
            "threshold",
        ),
        (
            "attribution source 300 (44 as u8)",
            attributed("[300,1,1,0,0,0,0]"),
            "source",
        ),
        (
            "attribution region 2^40",
            attributed("[255,1099511627776,1,0,0,0,0]"),
            "region",
        ),
        (
            "attribution round 70 000 (4 464 as u16)",
            attributed("[255,1,1,0,0,0,70000]"),
            "first_round",
        ),
        ("arrays 100 000 deep", "[".repeat(100_000), "nesting"),
        ("objects 100 000 deep", "{\"a\":".repeat(100_000), "nesting"),
    ] {
        std::fs::write(&path, body).unwrap();
        let err = CampaignCheckpoint::load(&path).expect_err(what);
        assert!(
            err.contains(&path.display().to_string()),
            "{what}: {err:?} must name the file"
        );
        assert!(err.contains(names), "{what}: {err:?} must name {names:?}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `save` goes through `<path>.tmp`; one left behind by a kill mid-save
/// is neither read by `load` nor in the way of the next save.
#[test]
fn stale_tmp_file_is_ignored_and_overwritten() {
    let ckpt = CampaignCheckpoint {
        fingerprint: 0x57a1e,
        done: 7,
        rounds: 1,
        reports: Vec::new(),
        limiter: None,
        fault_state: vec![(1 << 80, 2, 3)],
        breaker: None,
        counters: Default::default(),
    };
    let path = tmp("stale");
    let stale = path.with_extension("tmp");
    ckpt.save(&path).unwrap();
    std::fs::write(&stale, "{\"version\": 1, \"fingerprint\": \"trunc").unwrap();
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);

    let next = CampaignCheckpoint {
        done: 9,
        rounds: 2,
        ..ckpt
    };
    next.save(&path).unwrap();
    assert!(
        !stale.exists(),
        "the tmp file was renamed over the checkpoint"
    );
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), next);
    let _ = std::fs::remove_file(&path);
}

/// The hostile four-shard campaign the hard-kill tests interrupt, with the
/// uninterrupted run's outcome to converge on.
struct Hostile {
    world: Arc<World>,
    targets: Vec<std::net::Ipv6Addr>,
    opts: RunOptions,
    full: CampaignRun,
    full_counters: std::collections::BTreeMap<String, u64>,
    full_ckpt: CampaignCheckpoint,
}

impl Hostile {
    const EVERY: usize = 48;

    fn new(tag: &str) -> Hostile {
        let world = hostile_world(0xCE5);
        let targets = targets(&world);
        let path = tmp(&format!("{tag}-full"));
        let opts = RunOptions {
            shards: 4,
            checkpoint_every: Self::EVERY,
            checkpoint_path: Some(path.clone()),
            provenance: Some(Arc::new(sos_probe::ProvenanceLog::for_targets(&targets))),
            ..RunOptions::default()
        };
        let mut s = scanner(world.clone(), None);
        let full = Campaign::standard(&mut s)
            .run_with(&targets, &opts, None)
            .unwrap();
        assert!(full.completed && full.rounds >= 5, "{} rounds", full.rounds);
        assert_eq!(lines_of(&path).len(), 1, "a completed run leaves one line");
        let mut full_counters = s.metrics().counters();
        full_counters.remove("probe.resumed_targets");
        let full_ckpt = CampaignCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        Hostile {
            world,
            targets,
            opts,
            full,
            full_counters,
            full_ckpt,
        }
    }

    fn at(&self, path: &Path) -> RunOptions {
        RunOptions {
            checkpoint_path: Some(path.to_path_buf()),
            ..self.opts.clone()
        }
    }

    /// Stop cooperatively after `k` rounds: the checkpoint that leaves and
    /// the packets sent up to that boundary.
    fn stopped_after(&self, k: usize, path: &Path) -> (CampaignCheckpoint, u64) {
        let opts = RunOptions {
            stop_after_rounds: Some(k),
            ..self.at(path)
        };
        let mut s = scanner(self.world.clone(), None);
        let partial = Campaign::standard(&mut s)
            .run_with(&self.targets, &opts, None)
            .unwrap();
        assert!(!partial.completed && partial.rounds == k);
        assert_eq!(
            lines_of(path).len(),
            1,
            "a cooperative stop leaves one line"
        );
        (
            CampaignCheckpoint::load(path).unwrap(),
            partial.result.packets_sent(),
        )
    }

    /// Kill the campaign on the first packet after boundary `k`: what is
    /// on disk at `path` afterwards is what boundaries `1..=k` wrote.
    fn killed_after(&self, k: usize, path: &Path) {
        let scratch = path.with_extension("scratch.json");
        let (_, packets) = self.stopped_after(k, &scratch);
        let _ = std::fs::remove_file(&scratch);
        let mut s = budgeted(self.world.clone(), None, packets + 1, || {
            panic!("killed mid-round")
        });
        let opts = self.at(path);
        let died = catch_unwind(AssertUnwindSafe(|| {
            Campaign::standard(&mut s).run_with(&self.targets, &opts, None)
        }));
        assert!(
            died.is_err(),
            "the budget must run out inside round {}",
            k + 1
        );
    }

    /// Resume from `ckpt` with a fresh scanner and check the campaign ends
    /// where the uninterrupted run did.
    fn resume_converges(&self, ckpt: &CampaignCheckpoint, path: &Path, what: &str) {
        let mut s = scanner(self.world.clone(), None);
        let resumed = Campaign::standard(&mut s)
            .run_with(&self.targets, &self.at(path), Some(ckpt))
            .unwrap();
        assert!(resumed.completed, "{what}");
        assert_eq!(resumed.rounds, self.full.rounds, "{what}");
        assert_eq!(
            resumed.result.reports, self.full.result.reports,
            "reports diverged: {what}"
        );
        assert_eq!(
            sos_probe::merged_attribution(&resumed.result.reports),
            sos_probe::merged_attribution(&self.full.result.reports),
            "attribution diverged: {what}"
        );
        let mut counters = s.metrics().counters();
        assert_eq!(
            counters.remove("probe.resumed_targets"),
            Some(ckpt.done as u64),
            "{what}"
        );
        assert_eq!(counters, self.full_counters, "counters diverged: {what}");
        assert_eq!(
            normalized(CampaignCheckpoint::load(path).unwrap()),
            normalized(self.full_ckpt.clone()),
            "final checkpoint diverged: {what}"
        );
        assert_eq!(
            lines_of(path).len(),
            1,
            "a completed run leaves one line: {what}"
        );
    }
}

/// [`scanner`] over a transport that runs `spent` once `budget` packets
/// are out.
fn budgeted(
    world: Arc<World>,
    rate_pps: Option<f64>,
    budget: u64,
    spent: impl Fn() + Send + Sync + 'static,
) -> Scanner<Budgeted> {
    let config = scanner(world.clone(), rate_pps).config().clone();
    Scanner::new(config, Budgeted::new(world, budget, spent))
}

/// The checkpoint file's lines.
fn lines_of(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The state line at `path` alone, without the round lines after it.
fn first_line(path: &Path) -> CampaignCheckpoint {
    CampaignCheckpoint::from_json(&Json::parse(&lines_of(path)[0]).unwrap()).unwrap()
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// A kill that is not at a boundary — the process dies mid-round, nothing
/// gets to rewrite the file — leaves the first boundary's state line and
/// one round line per later boundary, and that file is the checkpoint: it
/// loads as the state a cooperative stop at the same boundary leaves, and
/// resumes to the uninterrupted run's result.
#[test]
fn hard_kill_after_every_boundary_resumes_bit_identically() {
    let h = Hostile::new("hard-kill");
    for k in 1..h.full.rounds {
        let path = tmp(&format!("hard-kill-{k}"));
        remove(&path);
        let (stopped, _) = h.stopped_after(k, &path);
        remove(&path);
        h.killed_after(k, &path);

        // The structure that makes a boundary cost what its round did:
        // the state line is still the first boundary's.
        assert_eq!(first_line(&path).rounds, 1, "killed after boundary {k}");
        assert_eq!(lines_of(&path).len(), k, "killed after boundary {k}");

        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.rounds, k);
        assert_eq!(
            normalized(ckpt.clone()),
            normalized(stopped),
            "killed after boundary {k}"
        );
        h.resume_converges(&ckpt, &path, &format!("killed after boundary {k}"));
        remove(&path);
    }
}

/// The same through the scanner's own token bucket: a round line carries
/// the limiter's state whole, so a killed rate-limited campaign loads and
/// resumes with its virtual waits bit-identical.
#[test]
fn hard_kill_restores_the_rate_limiter_from_the_write_ahead_log() {
    const K: usize = 3;
    let w = hostile_world(0x11A7E);
    let t = targets(&w);
    let path = tmp("hard-kill-limit");
    remove(&path);
    let opts = RunOptions {
        shards: 1,
        checkpoint_every: 30,
        checkpoint_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let run =
        |s: &mut Scanner<SimTransport>, opts: &RunOptions, from: Option<&CampaignCheckpoint>| {
            Campaign::new(s, vec![Protocol::Icmp])
                .run_with(&t, opts, from)
                .unwrap()
        };
    let full = run(&mut scanner(w.clone(), Some(25.0)), &opts, None);
    let stop = RunOptions {
        stop_after_rounds: Some(K),
        ..opts.clone()
    };
    let partial = run(&mut scanner(w.clone(), Some(25.0)), &stop, None);
    let stopped = CampaignCheckpoint::load(&path).unwrap();
    remove(&path);

    let budget = partial.result.packets_sent() + 1;
    let mut s = budgeted(w.clone(), Some(25.0), budget, || panic!("killed mid-round"));
    let died = catch_unwind(AssertUnwindSafe(|| {
        Campaign::new(&mut s, vec![Protocol::Icmp]).run_with(&t, &opts, None)
    }));
    assert!(died.is_err());
    assert_eq!(first_line(&path).rounds, 1);
    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert!(ckpt.limiter.is_some() && ckpt.limiter != first_line(&path).limiter);
    assert_eq!(ckpt, stopped);
    let resumed = run(&mut scanner(w.clone(), Some(25.0)), &opts, Some(&ckpt));
    assert_eq!(resumed.result.reports, full.result.reports);
    remove(&path);
}

fn field<'j>(j: &'j mut Json, key: &str) -> &'j mut Json {
    let Json::Obj(fields) = j else {
        panic!("{key}: not an object")
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key}"))
}

fn items(j: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = j else {
        panic!("not an array")
    };
    items
}

/// What `load` makes of round lines that are not what a run wrote in full:
/// a cut or torn last line is dropped, anything else is an error naming
/// the file and the line — never a panic, never state nobody wrote.
#[test]
fn write_ahead_log_damage_is_dropped_or_refused() {
    const K: usize = 4;
    let h = Hostile::new("wal-damage");
    let path = tmp("wal-damage");
    remove(&path);
    h.killed_after(K, &path);
    let file = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = file.lines().collect();
    assert_eq!(lines.len(), K, "the state line and K - 1 round lines");

    // A kill mid-append: the last line is cut short. The rounds before it
    // load, and resuming from there still converges.
    std::fs::write(&path, &file[..file.len() - lines[K - 1].len() / 2]).unwrap();
    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.rounds, K - 1);
    h.resume_converges(&ckpt, &path, "last line cut mid-way");
    // A last line torn with its newline already written is dropped too.
    std::fs::write(
        &path,
        format!("{}\n{}\n", lines[..K - 1].join("\n"), &lines[K - 1][..40]),
    )
    .unwrap();
    assert_eq!(CampaignCheckpoint::load(&path).unwrap().rounds, K - 1);

    // Everything else is refused, naming the file and the line.
    let edited = |edit: &dyn Fn(&mut Json)| {
        let mut line = Json::parse(lines[1]).unwrap();
        edit(&mut line);
        format!("{}\n{line}\n{}\n", lines[0], lines[2..].join("\n"))
    };
    let row = |table: &[&str], column: usize, value: u64| {
        edited(&|line| {
            let rows = table.iter().fold(line, |j, key| field(j, key));
            items(&mut items(rows)[0])[column] = Json::U64(value);
        })
    };
    // The same for a row of the first report's attribution table.
    let attribution = |column: usize, value: u64| {
        edited(&|line| {
            let report = field(&mut items(field(line, "reports"))[0], "report");
            items(&mut items(field(report, "attribution"))[0])[column] = Json::U64(value);
        })
    };
    for (what, body, names) in [
        (
            "a missing round",
            format!("{}\n{}\n", lines[0], lines[2..].join("\n")),
            "line 2: round 3 follows round 1",
        ),
        (
            "a repeated round",
            format!("{}\n{}\n{}\n", lines[0], lines[1], lines[1]),
            "line 3: round 2 follows round 2",
        ),
        (
            "another campaign's line",
            edited(&|line| *field(line, "fingerprint") = Json::Str("00000000deadbeef".into())),
            "fingerprint",
        ),
        (
            "progress going backwards",
            edited(&|line| *field(line, "done") = Json::U64(0)),
            "done",
        ),
        (
            "a torn state line",
            format!("{}\n{}\n", &lines[0][..40], lines[1]),
            "line 1",
        ),
        (
            "a torn line before the last",
            format!("{}\n{}\n{}\n", lines[0], &lines[1][..40], lines[2]),
            "line 2",
        ),
        (
            "fault row protocol 300",
            row(&["fault_state"], 1, 300),
            "fault_state",
        ),
        (
            "fault row count 2^40",
            row(&["fault_state"], 2, 1 << 40),
            "fault_state",
        ),
        (
            "breaker row protocol 300",
            row(&["breaker", "entries"], 1, 300),
            "breaker.entries",
        ),
        (
            "breaker row tag 3",
            row(&["breaker", "entries"], 2, 3),
            "breaker.entries",
        ),
        (
            "breaker row count 2^40",
            row(&["breaker", "entries"], 3, 1 << 40),
            "breaker.entries",
        ),
        (
            "reports out of order",
            edited(&|line| items(field(line, "reports")).swap(0, 1)),
            "reports",
        ),
        (
            "a report short",
            edited(&|line| drop(items(field(line, "reports")).pop())),
            "reports",
        ),
        (
            "no breaker where the state has one",
            edited(&|line| *field(line, "breaker") = Json::Null),
            "breaker",
        ),
        ("attribution source 300", attribution(0, 300), "source"),
        ("attribution region 2^40", attribution(1, 1 << 40), "region"),
        (
            "attribution round 70 000",
            attribution(6, 70_000),
            "first_round",
        ),
        (
            "a line nested 100 000 deep",
            format!("{}\n{}\n{}\n", lines[0], "[".repeat(100_000), lines[2]),
            "nesting",
        ),
    ] {
        std::fs::write(&path, body).unwrap();
        let err = CampaignCheckpoint::load(&path).expect_err(what);
        assert!(
            err.contains(&path.display().to_string()),
            "{what}: {err:?} must name the file"
        );
        assert!(err.contains(names), "{what}: {err:?} must name {names:?}");
    }
    remove(&path);
}

/// The lines the streaming writer produces are canonical JSON: parsed and
/// re-serialized, each is the same bytes, and each decodes to a value
/// that encodes back to it — the state line, a round line (decoded as the
/// state of its own round), and every kind of journal record, all from a
/// hostile, attributed campaign that was killed and resumed.
#[test]
fn checkpoint_and_journal_lines_are_canonical() {
    let h = Hostile::new("canonical");
    let path = tmp("canonical");
    let journal = tmp("canonical-journal");
    remove(&path);
    h.killed_after(3, &path);
    let lines = lines_of(&path);
    assert_eq!(lines.len(), 3, "the state line and two round lines");
    for (number, line) in lines.iter().enumerate() {
        let parsed = Json::parse(line).unwrap();
        assert_eq!(&parsed.to_string(), line, "checkpoint line {}", number + 1);
        let decoded = CampaignCheckpoint::from_json(&parsed).unwrap();
        assert_eq!(
            &decoded.to_json().to_string(),
            line,
            "checkpoint line {} re-encoded",
            number + 1
        );
        assert!(
            line.contains("\"attribution\":[["),
            "line {} carries attribution",
            number + 1
        );
    }

    remove(&path);
    let with_journal = RunOptions {
        journal_path: Some(journal.clone()),
        ..h.at(&path)
    };
    let stop = RunOptions {
        stop_after_rounds: Some(2),
        ..with_journal.clone()
    };
    let mut s = scanner(h.world.clone(), None);
    Campaign::standard(&mut s)
        .run_with(&h.targets, &stop, None)
        .unwrap();
    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    let mut s = scanner(h.world.clone(), None);
    Campaign::standard(&mut s)
        .run_with(&h.targets, &with_journal, Some(&ckpt))
        .unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for line in lines_of(&journal) {
        assert_eq!(Json::parse(&line).unwrap().to_string(), line);
        let record = sos_obs::Record::parse_line(&line).unwrap();
        assert_eq!(record.to_line(), line);
        kinds.insert(record.event.kind());
    }
    assert_eq!(kinds.len(), 10, "every kind of record: {kinds:?}");
    remove(&path);
    remove(&journal);
}

/// A round line is never appended to a file that is not there: once the
/// checkpoint is deleted after the first boundary, the second boundary —
/// the first one that appends — ends the campaign with an error naming
/// it, creates nothing, and the failed write is not journaled.
#[test]
fn unwritable_write_ahead_log_fails_the_second_boundary() {
    let h = Hostile::new("wal-io");
    let path = tmp("wal-io");
    let journal = tmp("wal-io-journal");
    remove(&path);
    let (_, first_round) = h.stopped_after(1, &path);
    remove(&path);
    // Once round 2 is under way, the checkpoint the first boundary wrote
    // is deleted.
    let delete = {
        let path = path.clone();
        move || remove(&path)
    };
    let mut s = budgeted(h.world.clone(), None, first_round + 1, delete);
    let opts = RunOptions {
        journal_path: Some(journal.clone()),
        ..h.at(&path)
    };
    let err = Campaign::standard(&mut s)
        .run_with(&h.targets, &opts, None)
        .expect_err("a missing checkpoint cannot be appended to");
    assert!(err.contains(&path.display().to_string()), "{err}");
    assert!(!path.exists(), "append created no file");
    let kinds: Vec<&str> = sos_obs::journal::read_records(&journal)
        .unwrap()
        .iter()
        .map(|r| r.event.kind())
        .collect();
    assert_eq!(
        kinds.iter().filter(|k| **k == "round_end").count(),
        2,
        "{kinds:?}"
    );
    assert_eq!(
        kinds.iter().filter(|k| **k == "checkpoint").count(),
        1,
        "{kinds:?}"
    );
    let _ = std::fs::remove_file(&journal);
}

/// A cancel that lands mid-run, after lines were appended, still ends on
/// one state line and no round lines.
#[test]
fn cancel_after_appends_leaves_a_document_and_no_log() {
    let h = Hostile::new("wal-cancel");
    let path = tmp("wal-cancel");
    let scratch = tmp("wal-cancel-scratch");
    remove(&path);
    let (_, packets) = h.stopped_after(3, &scratch);
    let _ = std::fs::remove_file(&scratch);
    let cancel = Arc::new(AtomicBool::new(false));
    let raise = {
        let cancel = cancel.clone();
        move || cancel.store(true, Ordering::SeqCst)
    };
    let mut s = budgeted(h.world.clone(), None, packets + 1, raise);
    let opts = RunOptions {
        cancel: Some(cancel),
        ..h.at(&path)
    };
    let stopped = Campaign::standard(&mut s)
        .run_with(&h.targets, &opts, None)
        .unwrap();
    assert!(!stopped.completed);
    assert_eq!(
        stopped.rounds, 4,
        "the cancel is honored at the boundary after it was raised"
    );
    assert_eq!(lines_of(&path).len(), 1);
    let ckpt = first_line(&path);
    assert_eq!(ckpt.rounds, 4);
    h.resume_converges(&ckpt, &path, "cancelled during round 4");
    remove(&path);
}

/// A checkpoint is one file whatever it is called: one named `*.wal`
/// stops, resumes, survives a hard kill and ends present and equal.
#[test]
fn a_checkpoint_named_wal_stops_resumes_and_survives_a_kill() {
    let h = Hostile::new("named-wal");
    let path = std::env::temp_dir().join(format!("sos-ckpt-{}-named.wal", std::process::id()));
    remove(&path);
    let (stopped, _) = h.stopped_after(2, &path);
    assert_eq!(stopped.rounds, 2);
    h.resume_converges(&stopped, &path, "named .wal, stopped after 2");

    let (stopped, _) = h.stopped_after(3, &path);
    remove(&path);
    h.killed_after(3, &path);
    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(
        normalized(ckpt.clone()),
        normalized(stopped),
        "named .wal, killed after 3"
    );
    h.resume_converges(&ckpt, &path, "named .wal, killed after 3");
    remove(&path);
}

/// What older versions left: the state as one pretty-printed document,
/// and a write-ahead log beside it (`<name>.wal`). The document loads on
/// its own — the log is not read — and resuming from it redoes the
/// log's rounds to the uninterrupted run's result.
#[test]
fn a_parent_document_with_a_stale_wal_beside_it_resumes() {
    let h = Hostile::new("parent-doc");
    let path = tmp("parent-doc");
    let wal = path.with_extension("wal");
    remove(&path);
    let (stopped, _) = h.stopped_after(2, &path);
    remove(&path);
    h.killed_after(4, &path);
    // Rounds 2 to 4, as round lines.
    let later_rounds = lines_of(&path)[1..].join("\n") + "\n";
    std::fs::write(&path, stopped.to_json().to_string_pretty()).unwrap();
    std::fs::write(&wal, &later_rounds).unwrap();

    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(
        ckpt, stopped,
        "the document alone, rounds 3 and 4 not folded in"
    );
    h.resume_converges(&ckpt, &path, "a parent document with a stale .wal");
    assert_eq!(
        std::fs::read_to_string(&wal).unwrap(),
        later_rounds,
        "the stale .wal is not touched"
    );
    remove(&path);
    remove(&wal);
}

/// Two of a campaign's files at one path would overwrite each other — the
/// checkpoint, the `<checkpoint>.tmp` it is rewritten through, the journal
/// and the snapshot. Such a run is refused before the first probe with an
/// error naming the path, and writes nothing.
#[test]
fn sinks_at_one_path_are_refused_before_the_first_probe() {
    let w = hostile_world(0x5175);
    let t = targets(&w);
    let dir = tmp("sinks");
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let at = |name: &str| Some(dir.join(name));
    let none = RunOptions {
        checkpoint_every: 64,
        ..RunOptions::default()
    };
    for (what, opts, named) in [
        (
            "a checkpoint that is its own temporary file",
            RunOptions {
                checkpoint_path: at("c.tmp"),
                ..none.clone()
            },
            "c.tmp",
        ),
        (
            "a journal at the checkpoint",
            RunOptions {
                checkpoint_path: at("c.json"),
                journal_path: at("c.json"),
                ..none.clone()
            },
            "c.json",
        ),
        (
            "a journal at the checkpoint's temporary file",
            RunOptions {
                checkpoint_path: at("c.json"),
                journal_path: at("c.tmp"),
                ..none.clone()
            },
            "c.tmp",
        ),
        (
            "a snapshot at the checkpoint",
            RunOptions {
                checkpoint_path: at("c.json"),
                snapshot_path: at("c.json"),
                ..none.clone()
            },
            "c.json",
        ),
        (
            "a journal that is its own snapshot, spelled two ways",
            RunOptions {
                journal_path: at("j.prom"),
                snapshot_path: Some(dir.join(".").join("j.prom")),
                ..none.clone()
            },
            "j.prom",
        ),
        (
            "a journal at the checkpoint, reached through `..`",
            RunOptions {
                checkpoint_path: at("c.json"),
                journal_path: at("sub/../c.json"),
                ..none.clone()
            },
            "c.json",
        ),
    ] {
        for name in ["c.json", "c.tmp", "j.prom"] {
            std::fs::write(dir.join(name), "kept").unwrap();
        }
        let mut s = scanner(w.clone(), None);
        let err = Campaign::standard(&mut s)
            .run_with(&t, &opts, None)
            .expect_err(what);
        assert!(
            err.contains(&dir.join(named).display().to_string()),
            "{what}: {err}"
        );
        assert_eq!(s.packets_sent(), 0, "{what}: refused before any probe");
        for name in ["c.json", "c.tmp", "j.prom"] {
            assert_eq!(
                std::fs::read_to_string(dir.join(name)).unwrap(),
                "kept",
                "{what}: {name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reports are folded by position, so a checkpoint whose fingerprint
/// matches but whose report list is not one per protocol, in order, is
/// refused before any probe instead of indexing out of bounds or adding
/// one protocol's rounds to another's report.
#[test]
fn resume_refuses_reports_that_do_not_match_the_protocols() {
    let h = Hostile::new("bad-reports");
    let path = tmp("bad-reports");
    remove(&path);
    let (good, _) = h.stopped_after(1, &path);
    remove(&path);
    for what in ["empty", "short", "reordered", "duplicated"] {
        let mut ckpt = good.clone();
        let reports = &mut ckpt.reports;
        match what {
            "empty" => reports.clear(),
            "short" => drop(reports.pop()),
            "reordered" => reports.swap(0, 1),
            _ => reports[1] = reports[0].clone(),
        }
        let mut s = scanner(h.world.clone(), None);
        let opts = RunOptions {
            checkpoint_path: None,
            ..h.opts.clone()
        };
        let err = Campaign::standard(&mut s)
            .run_with(&h.targets, &opts, Some(&ckpt))
            .expect_err(what);
        assert!(err.contains("reports"), "{what}: {err}");
        assert_eq!(s.packets_sent(), 0, "{what}: refused before any probe");
    }
}

/// ROADMAP 6a for the checkpoint loader: whatever single byte of a state
/// line or of a round line is lost or changed, `load` returns — a state
/// or an error — and never panics. The campaign is cut down to one
/// protocol and two targets a round so the sweep can try every offset.
#[test]
fn single_byte_damage_to_a_checkpoint_never_panics_the_loader() {
    let w = hostile_world(0xCE5);
    let t: Vec<_> = targets(&w).into_iter().step_by(40).collect();
    let path = tmp("sweep");
    remove(&path);
    let opts = RunOptions {
        checkpoint_every: 2,
        checkpoint_path: Some(path.clone()),
        provenance: Some(Arc::new(sos_probe::ProvenanceLog::for_targets(&t))),
        ..RunOptions::default()
    };
    let stop = RunOptions {
        stop_after_rounds: Some(2),
        ..opts.clone()
    };
    let mut s = scanner(w.clone(), None);
    let partial = Campaign::new(&mut s, vec![Protocol::Icmp])
        .run_with(&t, &stop, None)
        .unwrap();
    assert!(!partial.completed);
    let two_rounds = CampaignCheckpoint::load(&path).unwrap();
    let state_line = std::fs::read(&path).unwrap();
    remove(&path);
    let mut s = budgeted(w, None, partial.result.packets_sent() + 1, || {
        panic!("killed mid-round")
    });
    let died = catch_unwind(AssertUnwindSafe(|| {
        Campaign::new(&mut s, vec![Protocol::Icmp]).run_with(&t, &opts, None)
    }));
    assert!(died.is_err());
    let killed = std::fs::read(&path).unwrap();
    let first = killed.iter().position(|&b| b == b'\n').unwrap() + 1;
    let (first_line, round_line) = killed.split_at(first);
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), two_rounds);

    // Both samples hold every kind of row there is to damage.
    for sample in [&state_line[..], round_line] {
        let sample = String::from_utf8_lossy(sample);
        for rows in ["\"attribution\":[[", "\"fault_state\":[[", "\"entries\":[["] {
            assert!(sample.contains(rows), "no {rows} in {sample}");
        }
    }
    // The file is rewritten in place: creating it anew for each of its
    // ~15 000 variants would cost more than loading them does. A damaged
    // state line is the whole file; a damaged round line follows the
    // first boundary's state line.
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let mut rewrite = |bytes: &[u8]| {
        file.set_len(bytes.len() as u64).unwrap();
        file.rewind().and_then(|()| file.write_all(bytes)).unwrap();
        let _ = CampaignCheckpoint::load(&path);
    };
    single_byte_damage(round_line, |damaged| {
        rewrite(&[first_line, damaged].concat())
    });
    single_byte_damage(&state_line, |damaged| rewrite(damaged));
    remove(&path);
}
