//! End-to-end journal replay (what `seedscan explain <journal>` folds) and
//! live tail (`seedscan watch`): fold the journal a real campaign wrote
//! and check the reconstruction against the live scanner — counter totals
//! bit-identical, progress exact, Prometheus snapshot file the last
//! snapshot record rendered.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use netmodel::{FaultConfig, World, WorldConfig};
use sos_core::watch;
use sos_probe::{
    BreakerConfig, Campaign, CampaignCheckpoint, RetryPolicy, RunOptions, Scanner, ScannerConfig,
    SimTransport,
};

fn hostile_world(seed: u64) -> Arc<World> {
    let mut wc = WorldConfig::tiny(seed);
    wc.faults = FaultConfig::hostile();
    Arc::new(World::build(wc))
}

fn scanner(world: Arc<World>) -> Scanner<SimTransport> {
    Scanner::new(
        ScannerConfig {
            retry: RetryPolicy::exponential(3, 0.01),
            breaker: Some(BreakerConfig::default()),
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
        .take(120)
        .collect();
    for i in 0..16u128 {
        out.push(std::net::Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    out
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sos-watch-{}-{tag}", std::process::id()))
}

#[test]
fn replay_reconstructs_a_live_campaign_exactly() {
    let w = hostile_world(0x77A7C4);
    let t = targets(&w);
    let journal = tmp("replay.jsonl");
    let prom = tmp("replay.prom");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&prom);
    let opts = RunOptions {
        shards: 4,
        checkpoint_every: 40,
        journal_path: Some(journal.clone()),
        snapshot_path: Some(prom.clone()),
        snapshot_every: 1,
        ..RunOptions::default()
    };
    let mut s = scanner(w);
    let outcome = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(outcome.completed);

    let state = watch::replay(&journal).unwrap();
    assert_eq!(state.completed, Some(true));
    assert_eq!(state.done as usize, t.len());
    assert_eq!(state.rounds as usize, outcome.rounds);
    assert_eq!(
        state.counters,
        s.metrics().counters(),
        "replay must reconstruct the manifest counters bit-identically"
    );
    // The per-round fold agrees with the engine's own totals.
    assert_eq!(Some(&state.hits), state.counters.get("probe.hits"));
    assert_eq!(
        Some(&state.packets),
        state.counters.get("probe.packets_sent")
    );
    // The Prometheus snapshot file is the last snapshot record, rendered.
    assert_eq!(
        std::fs::read_to_string(&prom).unwrap(),
        sos_obs::render_prometheus(&state.counters)
    );
    // The rendered status table is ready for the terminal.
    let table = state.render();
    assert!(table.contains("completed") && table.contains("pkt/s"));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&prom);
}

#[test]
fn replay_of_a_killed_campaign_matches_its_checkpoint() {
    let w = hostile_world(0x51CC);
    let t = targets(&w);
    let journal = tmp("kill.jsonl");
    let ckpt_path = tmp("kill.ckpt.json");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
    let opts = RunOptions {
        shards: 4,
        checkpoint_every: 40,
        checkpoint_path: Some(ckpt_path.clone()),
        journal_path: Some(journal.clone()),
        stop_after_rounds: Some(2),
        ..RunOptions::default()
    };
    let mut s = scanner(w);
    let outcome = Campaign::standard(&mut s)
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(!outcome.completed);

    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    let state = watch::replay(&journal).unwrap();
    assert_eq!(
        state.completed,
        Some(false),
        "campaign_end records the interruption"
    );
    assert_eq!(state.snapshot_fingerprint, Some(ckpt.fingerprint));
    assert_eq!(state.snapshot_done as usize, ckpt.done);
    assert_eq!(
        state.counters, ckpt.counters,
        "journal snapshot mirrors the checkpoint"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt_path);
}

/// A round can be journaled twice: its `round_end` record is written, the
/// checkpoint write after it fails, and a resume from the boundary before
/// redoes the round into the same journal. Here the checkpoint a failed
/// boundary 2 leaves — the one boundary 1 wrote — comes from a run stopped
/// there, and the journal from a run that got past boundary 2. The fold
/// counts the redone round once, so its totals are the engine's.
#[test]
fn a_round_redone_after_a_resume_counts_once() {
    let w = hostile_world(0x2ED0);
    let t = targets(&w);
    let (journal, first, second) = (tmp("redo.jsonl"), tmp("redo-1.json"), tmp("redo-2.json"));
    for path in [&journal, &first, &second] {
        let _ = std::fs::remove_file(path);
    }
    let opts = |checkpoint: &PathBuf, stop: Option<usize>| RunOptions {
        shards: 4,
        checkpoint_every: 40,
        checkpoint_path: Some(checkpoint.clone()),
        stop_after_rounds: stop,
        ..RunOptions::default()
    };
    Campaign::standard(&mut scanner(w.clone()))
        .run_with(&t, &opts(&first, Some(1)), None)
        .unwrap();
    let journaled = RunOptions {
        journal_path: Some(journal.clone()),
        ..opts(&second, Some(2))
    };
    Campaign::standard(&mut scanner(w.clone()))
        .run_with(&t, &journaled, None)
        .unwrap();
    let ckpt = CampaignCheckpoint::load(&first).unwrap();
    let resumed = RunOptions {
        journal_path: Some(journal.clone()),
        ..opts(&first, None)
    };
    let mut s = scanner(w);
    assert!(
        Campaign::standard(&mut s)
            .run_with(&t, &resumed, Some(&ckpt))
            .unwrap()
            .completed
    );

    let records = sos_obs::journal::read_records(&journal).unwrap();
    let round_2 = records
        .iter()
        .filter(|r| matches!(r.event, sos_obs::Event::RoundEnd { round: 2, .. }));
    assert_eq!(round_2.count(), 2, "round 2 is journaled twice");
    let state = watch::replay(&journal).unwrap();
    assert_eq!(state.counters, s.metrics().counters());
    assert_eq!(Some(&state.hits), state.counters.get("probe.hits"));
    assert_eq!(
        Some(&state.packets),
        state.counters.get("probe.packets_sent")
    );
    for path in [&journal, &first, &second] {
        let _ = std::fs::remove_file(path);
    }
}

/// The status sink of [`live_watch_follows_a_journal_recreated_under_it`]:
/// the first status block the watcher prints replaces the journal it is
/// tailing with `new`, as a fresh campaign started at that moment would.
struct RecreateOnFirstStatus {
    journal: PathBuf,
    new: Option<Vec<u8>>,
    printed: Vec<u8>,
}

impl Write for RecreateOnFirstStatus {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(new) = self.new.take() {
            std::fs::write(&self.journal, new)?;
        }
        self.printed.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A fresh campaign truncates the journal a live watcher is tailing; the
/// watcher starts over on the new journal instead of waiting past its end.
#[test]
fn live_watch_follows_a_journal_recreated_under_it() {
    let w = hostile_world(0xF0110);
    let t = targets(&w);
    let run = |path: &PathBuf, targets: &[std::net::Ipv6Addr], every: usize| {
        let _ = std::fs::remove_file(path);
        let opts = RunOptions {
            shards: 2,
            checkpoint_every: every,
            journal_path: Some(path.clone()),
            ..RunOptions::default()
        };
        let outcome = Campaign::standard(&mut scanner(w.clone()))
            .run_with(targets, &opts, None)
            .unwrap();
        assert!(outcome.completed);
        std::fs::read(path).unwrap()
    };
    let (journal, fresh) = (tmp("recreated.jsonl"), tmp("recreated-fresh.jsonl"));
    // A long campaign whose writer died before its `campaign_end` record…
    let mut old = run(&journal, &t, 20);
    let last_line = old[..old.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    old.truncate(last_line);
    std::fs::write(&journal, &old).unwrap();
    // …and a short one run to completion, whose journal replaces it.
    let new = run(&fresh, &t[..8], 0);
    assert!(new.len() < old.len());

    let mut sink = RecreateOnFirstStatus {
        journal: journal.clone(),
        new: Some(new),
        printed: Vec::new(),
    };
    let state = watch::watch_live(&journal, Duration::from_millis(1), Some(5), &mut sink).unwrap();
    let printed = String::from_utf8_lossy(&sink.printed);
    assert_eq!(
        state.completed,
        Some(true),
        "the new campaign's end was seen:\n{printed}"
    );
    assert_eq!(state.done, 8);
    assert_eq!(
        state.records,
        watch::replay(&fresh).unwrap().records,
        "folded from a fresh state"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&fresh);
}
