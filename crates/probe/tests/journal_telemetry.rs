//! Journal acceptance: the live telemetry stream a campaign writes must
//! be replay-grade. Replaying a journal reconstructs the final counter
//! totals bit-identically to the live run — with and without faults and
//! breakers — and a campaign killed mid-run
//! leaves a journal whose last snapshot mirrors the on-disk checkpoint.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use netmodel::{FaultConfig, World, WorldConfig};
use sos_obs::journal::read_records;
use sos_obs::{render_prometheus, Event, Record};
use sos_probe::{
    BreakerConfig, Campaign, CampaignCheckpoint, RetryPolicy, RunOptions, Scanner, ScannerConfig,
    SimTransport,
};

fn world(seed: u64, hostile: bool) -> Arc<World> {
    let mut wc = WorldConfig::tiny(seed);
    if hostile {
        wc.faults = FaultConfig::hostile();
    }
    Arc::new(World::build(wc))
}

fn scanner(world: Arc<World>, breaker: bool) -> Scanner<SimTransport> {
    Scanner::new(
        ScannerConfig {
            retry: RetryPolicy::exponential(3, 0.01),
            breaker: breaker.then(BreakerConfig::default),
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
        .take(160)
        .collect();
    for i in 0..20u128 {
        out.push(std::net::Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    out
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sos-journal-{}-{tag}.jsonl", std::process::id()))
}

/// The last snapshot record's payload: (fingerprint, done, counters).
#[expect(
    clippy::expect_used,
    reason = "a test helper: `allow-*-in-tests` sees only `#[test]` bodies"
)]
fn last_snapshot(records: &[Record]) -> (u64, u64, BTreeMap<String, u64>) {
    records
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            Event::Snapshot {
                fingerprint,
                done,
                counters,
            } => Some((*fingerprint, *done, counters.clone())),
            _ => None,
        })
        .expect("journal must contain a snapshot record")
}

#[test]
fn replaying_a_journal_reconstructs_live_counters_bit_identically() {
    // The acceptance matrix: with and without faults/breakers. In every
    // cell the journal's final snapshot must equal the live scanner's
    // counter totals exactly.
    for (hostile, breaker) in [(false, false), (true, false), (true, true)] {
        let w = world(
            0x9A11 + u64::from(hostile) + 2 * u64::from(breaker),
            hostile,
        );
        let t = targets(&w);
        let tag = format!("replay-h{}-b{}", u8::from(hostile), u8::from(breaker));
        let path = tmp(&tag);
        let _ = std::fs::remove_file(&path);
        let opts = RunOptions {
            checkpoint_every: 48,
            journal_path: Some(path.clone()),
            snapshot_every: 2,
            ..RunOptions::default()
        };
        let mut s = scanner(w.clone(), breaker);
        let outcome = Campaign::standard(&mut s)
            .run_with(&t, &opts, None)
            .unwrap();
        assert!(outcome.completed);

        let records = read_records(&path).unwrap();
        assert!(matches!(
            records.first().unwrap().event,
            Event::CampaignStart { .. }
        ));
        assert!(matches!(
            records.last().unwrap().event,
            Event::CampaignEnd { .. }
        ));
        // seq dense, vclock monotone: the journal is a well-formed tail.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "dense sequence in {tag}");
        }
        assert!(
            records.windows(2).all(|w| w[0].vclock_us <= w[1].vclock_us),
            "vclock must be monotone in {tag}"
        );

        let (_, done, replayed) = last_snapshot(&records);
        assert_eq!(
            done as usize,
            t.len(),
            "final snapshot covers the whole campaign"
        );
        assert_eq!(
            replayed,
            s.metrics().counters(),
            "replayed counters must equal live counters in {tag}"
        );
        // Labeled per-protocol series travel through the journal too.
        assert!(replayed.keys().any(|k| k.starts_with("probe.hits{")));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn hostile_journal_carries_breaker_and_fault_epoch_transitions() {
    let w = world(0xFA17, true);
    let t = targets(&w);
    let opts = |path: &PathBuf| RunOptions {
        checkpoint_every: 32,
        journal_path: Some(path.clone()),
        ..RunOptions::default()
    };

    // Breakers disarmed: the dark /48 soaks up probes until its fault
    // epoch clocks tick over, so fault-epoch transitions must appear.
    let path = tmp("transitions-faults");
    let _ = std::fs::remove_file(&path);
    let mut s = scanner(w.clone(), false);
    Campaign::standard(&mut s)
        .run_with(&t, &opts(&path), None)
        .unwrap();
    let records = read_records(&path).unwrap();
    let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    assert!(
        kinds.contains(&"fault_epoch"),
        "hostile preset must advance fault epochs"
    );
    // Epoch transitions are per-(domain, proto, family) and monotone.
    let mut epochs: BTreeMap<(u128, u8, String), u64> = BTreeMap::new();
    for r in &records {
        if let Event::FaultEpoch {
            domain,
            proto,
            kind,
            epoch,
        } = &r.event
        {
            let prev = epochs
                .insert((*domain, *proto, kind.clone()), *epoch)
                .unwrap_or(0);
            assert!(
                *epoch > prev,
                "epoch clocks only advance ({kind}: {prev} -> {epoch})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);

    // Breakers armed: opens must surface as journaled transitions whose
    // `from` chains off the previous `to` for the same (domain, proto).
    let path = tmp("transitions-breaker");
    let _ = std::fs::remove_file(&path);
    let mut s = scanner(w.clone(), true);
    Campaign::standard(&mut s)
        .run_with(&t, &opts(&path), None)
        .unwrap();
    let records = read_records(&path).unwrap();
    let has_breaker = records.iter().any(|r| r.event.kind() == "breaker");
    assert!(
        s.metrics().counters()["probe.breaker.opened"] == 0 || has_breaker,
        "breaker opens must be journaled as transitions"
    );
    let mut prior: BTreeMap<(u128, u8), String> = BTreeMap::new();
    for r in &records {
        if let Event::Breaker {
            domain,
            proto,
            from,
            to,
        } = &r.event
        {
            let expected = prior
                .insert((*domain, *proto), to.clone())
                .unwrap_or_else(|| "closed".to_string());
            assert_eq!(*from, expected, "breaker transitions must chain");
            assert_ne!(from, to, "no-op transitions must not be journaled");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_campaign_leaves_snapshot_matching_the_checkpoint() {
    let w = world(0x0B51, true);
    let t = targets(&w);
    let journal = tmp("kill");
    let ckpt_path = tmp("kill-ckpt");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
    let opts = RunOptions {
        checkpoint_every: 48,
        checkpoint_path: Some(ckpt_path.clone()),
        journal_path: Some(journal.clone()),
        // Deliberately sparse periodic snapshots: only the
        // checkpoint-paired snapshot rule keeps journal and checkpoint
        // aligned at the kill boundary.
        snapshot_every: 1000,
        stop_after_rounds: Some(2),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), true);
    let outcome = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(!outcome.completed, "stop_after_rounds must interrupt");

    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    let records = read_records(&journal).unwrap();
    let (fp, done, counters) = last_snapshot(&records);
    assert_eq!(
        fp, ckpt.fingerprint,
        "snapshot must carry the checkpoint fingerprint"
    );
    assert_eq!(done as usize, ckpt.done);
    assert_eq!(
        counters, ckpt.counters,
        "journal snapshot must mirror the checkpoint"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
}

#[test]
fn resumed_campaign_appends_to_the_journal_and_converges() {
    let w = world(0x2E5, true);
    let t = targets(&w);

    // Uninterrupted reference run (its own journal).
    let full_journal = tmp("resume-full");
    let _ = std::fs::remove_file(&full_journal);
    let opts = RunOptions {
        checkpoint_every: 48,
        journal_path: Some(full_journal.clone()),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), true);
    let full = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(full.completed);
    let (_, _, mut full_counters) = last_snapshot(&read_records(&full_journal).unwrap());
    full_counters.remove("probe.resumed_targets");

    // Kill after 1 round, then resume into the SAME journal file.
    let journal = tmp("resume");
    let ckpt_path = tmp("resume-ckpt");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
    let kill_opts = RunOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        journal_path: Some(journal.clone()),
        stop_after_rounds: Some(1),
        ..opts.clone()
    };
    let mut s1 = scanner(w.clone(), true);
    Campaign::standard(&mut s1)
        .run_with(&t, &kill_opts, None)
        .unwrap();
    let killed_len = read_records(&journal).unwrap().len();

    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    let resume_opts = RunOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        journal_path: Some(journal.clone()),
        ..opts.clone()
    };
    let mut s2 = scanner(w, true);
    let resumed = Campaign::standard(&mut s2)
        .run_with(&t, &resume_opts, Some(&ckpt))
        .unwrap();
    assert!(resumed.completed);

    let records = read_records(&journal).unwrap();
    assert!(
        records.len() > killed_len,
        "resume must append, not truncate"
    );
    // One dense sequence across the kill: the writer continued seq.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "sequence must continue across resume");
    }
    assert!(
        matches!(records[killed_len].event, Event::Resume { .. }),
        "resume must open with a resume record"
    );
    // Historical breaker/fault transitions must not be re-emitted: the
    // resumed stream's first post-resume events are round records.
    assert!(matches!(
        records[killed_len + 1].event,
        Event::RoundStart { .. }
    ));

    let (_, done, mut counters) = last_snapshot(&records);
    assert_eq!(done as usize, t.len());
    counters.remove("probe.resumed_targets");
    assert_eq!(
        counters, full_counters,
        "kill+resume journal must converge to the uninterrupted run's totals"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&full_journal);
}

/// A resume after a kill that tore the journal's last line: the resumed
/// writer cuts the fragment off, so the journal reads back whole — one
/// dense sequence — and converges to the uninterrupted run's totals.
#[test]
fn resume_after_a_torn_journal_keeps_it_readable() {
    let w = world(0x70E2, true);
    let t = targets(&w);
    let opts = |journal: &PathBuf| RunOptions {
        checkpoint_every: 48,
        journal_path: Some(journal.clone()),
        ..RunOptions::default()
    };
    let full_journal = tmp("torn-full");
    let _ = std::fs::remove_file(&full_journal);
    let full = Campaign::standard(&mut scanner(w.clone(), true))
        .run_with(&t, &opts(&full_journal), None)
        .unwrap();
    assert!(full.completed);
    let (_, _, mut full_counters) = last_snapshot(&read_records(&full_journal).unwrap());
    full_counters.remove("probe.resumed_targets");

    let (journal, ckpt_path) = (tmp("torn"), tmp("torn-ckpt"));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
    let kill_opts = RunOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        stop_after_rounds: Some(2),
        ..opts(&journal)
    };
    Campaign::standard(&mut scanner(w.clone(), true))
        .run_with(&t, &kill_opts, None)
        .unwrap();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    std::io::Write::write_all(&mut file, b"{\"v\":1,\"seq\":1,\"ev\":\"round_e").unwrap();

    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    let resume_opts = RunOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        ..opts(&journal)
    };
    let resumed = Campaign::standard(&mut scanner(w, true))
        .run_with(&t, &resume_opts, Some(&ckpt))
        .unwrap();
    assert!(resumed.completed);

    let records = read_records(&journal).expect("the resumed journal reads back");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "one dense sequence across the torn kill");
    }
    let (_, _, mut counters) = last_snapshot(&records);
    counters.remove("probe.resumed_targets");
    assert_eq!(
        counters, full_counters,
        "the torn kill + resume converges to the uninterrupted totals"
    );
    for p in [&journal, &ckpt_path, &full_journal] {
        let _ = std::fs::remove_file(p);
    }
}

/// The snapshot file is a sink of its own: it needs no journal, and its
/// last rewrite happens after the last round.
#[test]
fn snapshot_path_alone_leaves_the_final_counters() {
    let w = world(0x5A47, true);
    let t = targets(&w);
    let prom = tmp("alone.prom");
    let _ = std::fs::remove_file(&prom);
    let opts = RunOptions {
        checkpoint_every: 32,
        snapshot_path: Some(prom.clone()),
        snapshot_every: 3,
        ..RunOptions::default()
    };
    let mut s = scanner(w, true);
    let outcome = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(outcome.completed && outcome.rounds > 3);
    // The file is this campaign's final counter snapshot, rendered — not
    // the process-wide registry the other tests of this binary feed too.
    assert_eq!(
        std::fs::read_to_string(&prom).unwrap(),
        render_prometheus(&s.metrics().counters()),
        "the last rewrite renders the final counters"
    );
    let _ = std::fs::remove_file(&prom);
}

/// One cadence: the file is rewritten exactly when a `snapshot` record is
/// journaled, and that cadence counts the campaign's lifetime rounds, not
/// the rounds since this process started. A snapshot path that cannot be
/// written makes the first rewrite visible as the run's error.
#[test]
fn snapshot_file_follows_the_journal_cadence_across_a_resume() {
    const EVERY: usize = 32;
    let w = world(0x5A48, true);
    let t = targets(&w);
    let journal = tmp("cadence");
    let ckpt_path = tmp("cadence-ckpt");
    let prom = tmp("cadence.prom");
    for p in [&journal, &ckpt_path, &prom] {
        let _ = std::fs::remove_file(p);
    }
    let opts = RunOptions {
        checkpoint_every: EVERY,
        journal_path: Some(journal.clone()),
        snapshot_every: 3,
        ..RunOptions::default()
    };

    // Killed after 2 rounds; the checkpoint writes pair with snapshots,
    // so the file already exists.
    let kill_opts = RunOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        snapshot_path: Some(prom.clone()),
        stop_after_rounds: Some(2),
        ..opts.clone()
    };
    let mut s1 = scanner(w.clone(), true);
    Campaign::standard(&mut s1)
        .run_with(&t, &kill_opts, None)
        .unwrap();
    let killed_len = read_records(&journal).unwrap().len();
    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    assert_eq!(ckpt.rounds, 2);
    assert_eq!(
        std::fs::read_to_string(&prom).unwrap(),
        render_prometheus(&ckpt.counters),
        "the killed run's file renders the checkpoint's counters"
    );

    // Resumed without a checkpoint path, snapshots are due at lifetime
    // rounds 3, 6, …: the first round of this process.
    let unwritable = std::env::temp_dir();
    let resume_opts = RunOptions {
        snapshot_path: Some(unwritable.clone()),
        ..opts.clone()
    };
    let mut s2 = scanner(w, true);
    let err = Campaign::standard(&mut s2)
        .run_with(&t, &resume_opts, Some(&ckpt))
        .expect_err("a directory cannot be rewritten as the snapshot file");
    assert!(err.contains(&unwritable.display().to_string()), "{err}");
    let records = read_records(&journal).unwrap();
    let resumed = &records[killed_len..];
    assert!(matches!(resumed[0].event, Event::Resume { .. }));
    let round_ends = resumed
        .iter()
        .filter(|r| r.event.kind() == "round_end")
        .count();
    assert_eq!(round_ends, 1, "the rewrite was due at lifetime round 3");
    match &resumed.last().unwrap().event {
        Event::Snapshot { done, .. } => assert_eq!(*done as usize, 3 * EVERY),
        other => panic!("the failed rewrite follows its snapshot record, not {other:?}"),
    }
    for p in [&journal, &ckpt_path, &prom] {
        let _ = std::fs::remove_file(p);
    }
}
