//! Kill + resume determinism: a campaign interrupted at ANY round
//! boundary and resumed from its checkpoint must finish with reports,
//! counters, and a final checkpoint bit-identical to the uninterrupted
//! run — under hostile faults, circuit breakers, sharding, and (in the
//! degenerate single-shard path) a live token-bucket rate limiter.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use netmodel::{FaultConfig, Protocol, World, WorldConfig};
use sos_probe::{
    BreakerConfig, BreakerMap, BreakerState, Campaign, CampaignCheckpoint, RetryPolicy,
    RunOptions, Scanner, ScannerConfig, SimTransport,
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
    let mut out: Vec<std::net::Ipv6Addr> =
        world.hosts().iter().map(|(a, _)| a).step_by(2).take(200).collect();
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
    let full = Campaign::standard(&mut s).run_with(&t, &opts, None).unwrap();
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
        let partial = Campaign::standard(&mut s).run_with(&t, &kill_opts, None).unwrap();
        assert!(!partial.completed, "stop_after_rounds={k} must interrupt");
        assert_eq!(partial.rounds, k);
        // The scanner "dies" here; a fresh one picks the checkpoint up.
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.done, (k * EVERY).min(t.len()));

        let resume_opts = RunOptions { checkpoint_path: Some(path.clone()), ..opts.clone() };
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
        assert_eq!(counters, full_counters, "counters diverged after kill at round {k}");
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
    let opts = RunOptions { shards: 1, checkpoint_every: 30, ..RunOptions::default() };

    let mut s = scanner(w.clone(), Some(25.0));
    let full = Campaign::new(&mut s, vec![Protocol::Icmp])
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(full.completed);
    let full_report = &full.result.reports[0].1;
    assert!(full_report.limited_seconds > 0.0, "limiter must actually bite");

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
        assert!(ckpt.limiter.is_some(), "rate-limited campaign must snapshot its bucket");

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
    let stopped = Campaign::standard(&mut s).run_with(&t, &opts, None).unwrap();
    assert!(!stopped.completed);
    assert_eq!(stopped.rounds, 0);

    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.done, 0);
    let resume_opts = RunOptions { cancel: None, checkpoint_path: None, ..opts.clone() };
    let mut s2 = scanner(w.clone(), None);
    let resumed = Campaign::standard(&mut s2)
        .run_with(&t, &resume_opts, Some(&ckpt))
        .unwrap();
    assert!(resumed.completed);

    let mut s3 = scanner(w, None);
    let uninterrupted = Campaign::standard(&mut s3)
        .run_with(&t, &RunOptions { shards: 2, checkpoint_every: 64, ..RunOptions::default() }, None)
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
    let report = sos_probe::ScanReport { hits, probed: 50_000, ..Default::default() };
    let ckpt = CampaignCheckpoint {
        fingerprint: 0x5ca1e,
        done: 50_000,
        rounds: 7,
        reports: vec![(Protocol::Icmp, report)],
        limiter: None,
        fault_state: (0..2_000u128).map(|d| (d << 80, (d % 4) as u8, d as u32)).collect(),
        breaker: None,
        counters: [("probe.hits".to_string(), 50_000u64)].into_iter().collect(),
    };
    let path = tmp("large");
    ckpt.save(&path).unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() > 2_000_000);
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
    let opts = RunOptions { shards: 2, checkpoint_every: 64, ..RunOptions::default() };
    let kill_opts = RunOptions {
        checkpoint_path: Some(good.clone()),
        stop_after_rounds: Some(1),
        ..opts.clone()
    };
    let mut s = scanner(w.clone(), None);
    Campaign::standard(&mut s).run_with(&t, &kill_opts, None).unwrap();
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
    assert_eq!(kinds.iter().filter(|k| **k == "round_end").count(), 1, "{kinds:?}");
    assert!(!kinds.contains(&"checkpoint"), "a failed write is not journaled: {kinds:?}");
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

/// Damaged checkpoint files are refused with an error, never a panic —
/// and never loaded as something else: an out-of-range protocol index,
/// breaker tag, prefix length or count names its field instead of being
/// narrowed into state nobody wrote.
#[test]
fn damaged_checkpoints_load_as_errors() {
    let report = sos_probe::ScanReport {
        hits: (0..64u128).map(|i| std::net::Ipv6Addr::from((0x2001_0db8_u128 << 96) | i)).collect(),
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
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);
    // The same document without whitespace, for the one-value edits below.
    let compact = ckpt.to_json().to_string();
    std::fs::write(&path, &compact).unwrap();
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ckpt);

    let mid_hits = text.find("\"hits\"").unwrap() + 200;
    assert!(mid_hits < text.find("\"probed\"").unwrap());
    let edit = |from: &str, to: &str| {
        assert_eq!(compact.matches(from).count(), 1, "{from} must name one value");
        compact.replacen(from, to, 1)
    };
    for (what, body, names) in [
        ("truncated mid-hits", text[..mid_hits].to_string(), ""),
        ("empty", String::new(), ""),
        ("wrong version", edit("\"version\":1,", "\"version\":2,"), "version"),
        ("fault row protocol 300 (44 as u8)", edit(",1,777]", ",300,777]"), "fault_state"),
        ("fault row count 2^40", edit(",1,777]", ",1,1099511627776]"), "fault_state"),
        ("fault row of two", edit(",2,888]", ",2]"), "fault_state"),
        ("breaker row protocol 4", edit(",3,1,999]", ",4,1,999]"), "breaker.entries"),
        ("breaker row tag 3", edit(",3,1,999]", ",3,3,999]"), "breaker.entries"),
        ("breaker row tag 257 (1 as u8)", edit(",3,1,999]", ",3,257,999]"), "breaker.entries"),
        ("breaker row count 2^32", edit(",3,1,999]", ",3,1,4294967296]"), "breaker.entries"),
        ("prefix_len 304 (48 as u8)", edit("\"prefix_len\":48,", "\"prefix_len\":304,"), "prefix_len"),
        ("prefix_len 0", edit("\"prefix_len\":48,", "\"prefix_len\":0,"), "prefix_len"),
        ("threshold 2^32 + 8", edit("\"threshold\":8,", "\"threshold\":4294967304,"), "threshold"),
    ] {
        std::fs::write(&path, body).unwrap();
        let err = CampaignCheckpoint::load(&path).expect_err(what);
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

    let next = CampaignCheckpoint { done: 9, rounds: 2, ..ckpt };
    next.save(&path).unwrap();
    assert!(!stale.exists(), "the tmp file was renamed over the checkpoint");
    assert_eq!(CampaignCheckpoint::load(&path).unwrap(), next);
    let _ = std::fs::remove_file(&path);
}
