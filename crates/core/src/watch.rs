//! `seedscan watch` — live campaign status from a telemetry journal.
//!
//! A campaign run with `--journal FILE` appends one JSON line per event
//! (see `sos_obs::journal`). This module is the read side: it folds the
//! typed records into a [`WatchState`] and renders a terminal status
//! table — progress, per-round hit rate, packets/s, breaker map, fault
//! epochs, ETA. Two drivers share the fold:
//!
//! - [`replay`] reads a complete (or torn) journal once and returns the
//!   final state — what `seedscan explain <journal>` renders. The
//!   snapshot counters it reconstructs are exact `u64` values,
//!   bit-identical to the live run's manifest counters — the acceptance
//!   surface for journal integrity.
//! - [`watch_live`] (`seedscan watch`) tails a journal that a
//!   still-running (or killed) campaign is writing, re-rendering whenever
//!   complete lines land and exiting once a `campaign_end` record arrives.
//!
//! The fold is pure with respect to the journal: nothing here feeds back
//! into scanning, so watching a campaign can never perturb its results.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Duration;

use sos_obs::journal::read_from;
use sos_obs::{eta_s, Event, Record};

/// Campaign status reconstructed by folding journal records in order.
#[derive(Debug, Clone, Default)]
pub struct WatchState {
    /// Campaign identity fingerprint (from start/resume records).
    pub fingerprint: Option<u64>,
    /// Total prepared targets.
    pub targets: u64,
    /// Prepared targets per round.
    pub round_size: u64,
    /// Protocol names, in scan order.
    pub protocols: Vec<String>,
    /// Targets scanned so far.
    pub done: u64,
    /// Rounds executed so far (campaign lifetime, across resumes).
    pub rounds: u64,
    /// Cumulative hits over this journal's rounds (see `round_totals`).
    pub hits: u64,
    /// Cumulative probe packets over this journal's rounds.
    pub packets: u64,
    /// `(hits, packets)` per round number, from its latest `round_end`
    /// record: a round whose record was journaled but whose checkpoint
    /// write failed is redone on resume and journaled again, and counts
    /// once.
    round_totals: BTreeMap<u64, (u64, u64)>,
    /// Hits in the most recent finished round.
    pub round_hits: u64,
    /// Packets in the most recent finished round.
    pub round_packets: u64,
    /// Exact engine counters from the most recent snapshot record.
    pub counters: BTreeMap<String, u64>,
    /// Targets done when the most recent snapshot was taken.
    pub snapshot_done: u64,
    /// Fingerprint carried by the most recent snapshot.
    pub snapshot_fingerprint: Option<u64>,
    /// Current breaker state per (domain, protocol index).
    pub breakers: BTreeMap<(u128, u8), String>,
    /// Current fault epoch per (domain, protocol index, family).
    pub fault_epochs: BTreeMap<(u128, u8, String), u64>,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Resume records seen.
    pub resumes: u64,
    /// Deterministic virtual clock of the newest record, microseconds.
    pub vclock_us: u64,
    /// Wall clock of the first record (seconds, writer-process epoch).
    pub first_wall_s: Option<f64>,
    /// Wall clock of the newest record.
    pub last_wall_s: f64,
    /// Set once a `campaign_end` record arrives.
    pub completed: Option<bool>,
    /// Set by [`replay`] when the journal ends without a `campaign_end`
    /// record — a torn tail from a killed writer, not a live campaign.
    pub truncated: bool,
    /// Per provenance source: (regions, probes, hits, aliases, wasted)
    /// from `discovery` records. Values are cumulative snapshots, so the
    /// fold keeps the field-wise maximum (resume-safe: a resumed journal
    /// can re-emit earlier totals).
    pub discovery: BTreeMap<u64, (u64, u64, u64, u64, u64)>,
    /// Records folded so far.
    pub records: u64,
}

impl WatchState {
    /// An empty state; fold records into it with [`WatchState::apply`].
    pub fn new() -> WatchState {
        WatchState::default()
    }

    /// Fold one journal record into the state.
    pub fn apply(&mut self, rec: &Record) {
        self.records += 1;
        self.vclock_us = rec.vclock_us;
        self.first_wall_s.get_or_insert(rec.wall_s);
        self.last_wall_s = rec.wall_s;
        match &rec.event {
            Event::CampaignStart {
                fingerprint,
                targets,
                protocols,
                round_size,
            } => {
                self.fingerprint = Some(*fingerprint);
                self.targets = *targets;
                self.protocols = protocols.clone();
                self.round_size = *round_size;
            }
            Event::Resume {
                fingerprint,
                done,
                rounds,
            } => {
                self.fingerprint = Some(*fingerprint);
                self.done = (*done).max(self.done);
                self.rounds = (*rounds).max(self.rounds);
                self.resumes += 1;
            }
            Event::RoundStart { .. } => {}
            Event::RoundEnd {
                round,
                done,
                total,
                hits,
                packets,
            } => {
                self.rounds = *round;
                self.done = *done;
                self.targets = *total;
                let (old_hits, old_packets) = self
                    .round_totals
                    .insert(*round, (*hits, *packets))
                    .unwrap_or_default();
                self.hits = self.hits - old_hits + hits;
                self.packets = self.packets - old_packets + packets;
                self.round_hits = *hits;
                self.round_packets = *packets;
            }
            Event::CheckpointWrite { done, rounds, .. } => {
                self.checkpoints += 1;
                self.done = (*done).max(self.done);
                self.rounds = (*rounds).max(self.rounds);
            }
            Event::Breaker {
                domain, proto, to, ..
            } => {
                self.breakers.insert((*domain, *proto), to.clone());
            }
            Event::FaultEpoch {
                domain,
                proto,
                kind,
                epoch,
            } => {
                self.fault_epochs
                    .insert((*domain, *proto, kind.clone()), *epoch);
            }
            Event::Snapshot {
                fingerprint,
                done,
                counters,
            } => {
                self.snapshot_fingerprint = Some(*fingerprint);
                self.snapshot_done = *done;
                self.counters = counters.clone();
            }
            Event::Discovery {
                source,
                regions,
                probes,
                hits,
                aliases,
                wasted,
            } => {
                let slot = self.discovery.entry(*source).or_default();
                slot.0 = slot.0.max(*regions);
                slot.1 = slot.1.max(*probes);
                slot.2 = slot.2.max(*hits);
                slot.3 = slot.3.max(*aliases);
                slot.4 = slot.4.max(*wasted);
            }
            Event::CampaignEnd {
                completed, rounds, ..
            } => {
                self.completed = Some(*completed);
                self.rounds = (*rounds).max(self.rounds);
            }
        }
    }

    /// Hit rate of the most recent finished round (hits per probe packet).
    pub fn round_hit_rate(&self) -> f64 {
        if self.round_packets == 0 {
            0.0
        } else {
            self.round_hits as f64 / self.round_packets as f64
        }
    }

    /// Wall seconds spanned by the records folded so far.
    pub fn wall_elapsed_s(&self) -> f64 {
        self.first_wall_s
            .map_or(0.0, |first| (self.last_wall_s - first).max(0.0))
    }

    /// Average probe packets per wall second across the journal.
    pub fn packets_per_s(&self) -> f64 {
        let elapsed = self.wall_elapsed_s();
        if elapsed > 0.0 {
            self.packets as f64 / elapsed
        } else {
            0.0
        }
    }

    /// Estimated wall seconds to completion, from the journal's own
    /// target-completion rate (`sos_obs::eta_s`).
    pub fn eta_seconds(&self) -> f64 {
        let elapsed = self.wall_elapsed_s();
        if elapsed <= 0.0 || self.done == 0 {
            return 0.0;
        }
        eta_s(self.done, self.targets, self.done as f64 / elapsed)
    }

    /// Count breakers per state name, e.g. `{"open": 2, "half-open": 1}`.
    pub fn breaker_counts(&self) -> BTreeMap<&str, u64> {
        let mut counts = BTreeMap::new();
        for state in self.breakers.values() {
            *counts.entry(state.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Per fault family: (domains at a nonzero epoch, max epoch seen).
    pub fn fault_summary(&self) -> BTreeMap<&str, (u64, u64)> {
        let mut summary = BTreeMap::new();
        for ((_, _, kind), epoch) in &self.fault_epochs {
            let entry = summary.entry(kind.as_str()).or_insert((0u64, 0u64));
            if *epoch > 0 {
                entry.0 += 1;
            }
            entry.1 = entry.1.max(*epoch);
        }
        summary
    }

    /// The campaign's status: `completed` or `stopped` once its
    /// `campaign_end` record is folded; before that `truncated` when
    /// [`replay`] found the journal cut off (the writer was killed —
    /// claiming "running" would be a lie), else `running`.
    pub fn status(&self) -> &'static str {
        match (self.completed, self.truncated) {
            (Some(true), _) => "completed",
            (Some(false), _) => "stopped",
            (None, true) => "truncated",
            (None, false) => "running",
        }
    }

    /// Render the status table (one bordered block, fixed field order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fp = self
            .fingerprint
            .map_or_else(|| "????????????????".to_string(), |f| format!("{f:016x}"));
        let status = self.status();
        let pct = if self.targets > 0 {
            100.0 * self.done as f64 / self.targets as f64
        } else {
            0.0
        };
        out.push_str(&format!("campaign {fp}  [{status}]\n"));
        out.push_str(&format!(
            "  progress   {}/{} targets ({pct:.1}%), round {}, protocols [{}]\n",
            self.done,
            self.targets,
            self.rounds,
            self.protocols.join(", "),
        ));
        out.push_str(&format!(
            "  round      {} hits / {} packets (hit rate {:.4})\n",
            self.round_hits,
            self.round_packets,
            self.round_hit_rate(),
        ));
        out.push_str(&format!(
            "  cumulative {} hits / {} packets, {:.0} pkt/s wall, vclock {:.3}s\n",
            self.hits,
            self.packets,
            self.packets_per_s(),
            self.vclock_us as f64 / 1e6,
        ));
        let breakers = self.breaker_counts();
        if breakers.is_empty() {
            out.push_str("  breakers   (none tripped)\n");
        } else {
            let parts: Vec<String> = breakers
                .iter()
                .map(|(state, n)| format!("{n} {state}"))
                .collect();
            out.push_str(&format!("  breakers   {}\n", parts.join(", ")));
        }
        let faults = self.fault_summary();
        if faults.is_empty() {
            out.push_str("  faults     (no fault layer)\n");
        } else {
            let parts: Vec<String> = faults
                .iter()
                .map(|(kind, (domains, max))| format!("{kind}: {domains} domain(s), epoch<={max}"))
                .collect();
            out.push_str(&format!("  faults     {}\n", parts.join("; ")));
        }
        if !self.discovery.is_empty() {
            let (mut probes, mut hits, mut wasted) = (0u64, 0u64, 0u64);
            for &(_, p, h, _, w) in self.discovery.values() {
                probes += p;
                hits += h;
                wasted += w;
            }
            out.push_str(&format!(
                "  discovery  {} source(s): {hits} hits / {probes} probes attributed, {wasted} wasted\n",
                self.discovery.len(),
            ));
        }
        out.push_str(&format!(
            "  journal    {} record(s), {} checkpoint(s), {} resume(s)\n",
            self.records, self.checkpoints, self.resumes,
        ));
        if status == "running" {
            out.push_str(&format!("  eta        {:.1}s\n", self.eta_seconds()));
        }
        out
    }
}

/// Fold an entire journal file once and return the final state.
///
/// Torn tails are tolerated exactly as `sos_obs::journal::read_from`
/// tolerates them, so replaying the journal of a killed campaign works.
pub fn replay(path: &Path) -> io::Result<WatchState> {
    let mut state = WatchState::new();
    let (records, _) = read_from(path, 0)?;
    for rec in &records {
        state.apply(rec);
    }
    // Replay reads the whole file: no `campaign_end` means the writer
    // died mid-run, not that the campaign is live.
    state.truncated = state.completed.is_none();
    Ok(state)
}

/// Tail a journal, printing a status block whenever new complete records
/// land, until a `campaign_end` record arrives (or, with `max_polls`,
/// until that many empty polls pass — the still-running-writer guard for
/// scripted use). A journal recreated under the watcher (shorter than
/// what was read) is followed from its start with a fresh state. Returns
/// the final state.
pub fn watch_live(
    path: &Path,
    poll: Duration,
    max_polls: Option<u64>,
    out: &mut dyn io::Write,
) -> io::Result<WatchState> {
    let mut state = WatchState::new();
    let mut offset = 0u64;
    let mut idle_polls = 0u64;
    loop {
        // A fresh campaign truncates its journal: a file now shorter than
        // what was read is a new journal, to be folded from its start.
        if std::fs::metadata(path).is_ok_and(|m| m.len() < offset) {
            offset = 0;
            state = WatchState::new();
        }
        let (records, next) = match read_from(path, offset) {
            Ok(ok) => ok,
            // The campaign may not have created the journal yet.
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), offset),
            Err(e) => return Err(e),
        };
        offset = next;
        if records.is_empty() {
            idle_polls += 1;
            if let Some(max) = max_polls {
                if idle_polls >= max {
                    writeln!(
                        out,
                        "watch: no new records after {idle_polls} poll(s); detaching"
                    )?;
                    break;
                }
            }
        } else {
            idle_polls = 0;
            for rec in &records {
                state.apply(rec);
            }
            write!(out, "{}", state.render())?;
            out.flush()?;
        }
        if state.completed.is_some() {
            break;
        }
        std::thread::sleep(poll);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, vclock_us: u64, wall_s: f64, event: Event) -> Record {
        Record {
            seq,
            vclock_us,
            wall_s,
            event,
        }
    }

    fn sample_run() -> Vec<Record> {
        vec![
            rec(
                0,
                0,
                1.0,
                Event::CampaignStart {
                    fingerprint: 0xabcd,
                    targets: 40,
                    protocols: vec!["Icmp".into(), "Tcp80".into()],
                    round_size: 20,
                },
            ),
            rec(
                1,
                0,
                1.0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 20,
                },
            ),
            rec(
                2,
                100,
                2.0,
                Event::Breaker {
                    domain: 7,
                    proto: 0,
                    from: "closed".into(),
                    to: "open".into(),
                },
            ),
            rec(
                3,
                100,
                2.0,
                Event::FaultEpoch {
                    domain: 7,
                    proto: 0,
                    kind: "burst".into(),
                    epoch: 2,
                },
            ),
            rec(
                4,
                100,
                2.0,
                Event::RoundEnd {
                    round: 1,
                    done: 20,
                    total: 40,
                    hits: 5,
                    packets: 200,
                },
            ),
            rec(
                5,
                100,
                2.0,
                Event::CheckpointWrite {
                    fingerprint: 0xabcd,
                    done: 20,
                    rounds: 1,
                },
            ),
            rec(
                6,
                100,
                2.0,
                Event::Snapshot {
                    fingerprint: 0xabcd,
                    done: 20,
                    counters: [("probe.hits".to_string(), 5u64)].into_iter().collect(),
                },
            ),
            rec(
                7,
                100,
                2.0,
                Event::RoundStart {
                    round: 2,
                    from: 20,
                    to: 40,
                },
            ),
            rec(
                8,
                250,
                3.0,
                Event::Breaker {
                    domain: 7,
                    proto: 0,
                    from: "open".into(),
                    to: "half-open".into(),
                },
            ),
            rec(
                9,
                250,
                3.0,
                Event::RoundEnd {
                    round: 2,
                    done: 40,
                    total: 40,
                    hits: 9,
                    packets: 180,
                },
            ),
            rec(
                10,
                250,
                3.0,
                Event::Snapshot {
                    fingerprint: 0xabcd,
                    done: 40,
                    counters: [("probe.hits".to_string(), 14u64)].into_iter().collect(),
                },
            ),
            rec(
                11,
                250,
                3.0,
                Event::CampaignEnd {
                    completed: true,
                    rounds: 2,
                    resumed_targets: 0,
                },
            ),
        ]
    }

    #[test]
    fn fold_reconstructs_progress_and_counters() {
        let mut st = WatchState::new();
        for r in sample_run() {
            st.apply(&r);
        }
        assert_eq!(st.fingerprint, Some(0xabcd));
        assert_eq!((st.done, st.targets, st.rounds), (40, 40, 2));
        assert_eq!((st.hits, st.packets), (14, 380));
        assert_eq!((st.round_hits, st.round_packets), (9, 180));
        assert_eq!(st.counters.get("probe.hits"), Some(&14));
        assert_eq!(st.snapshot_done, 40);
        assert_eq!(st.checkpoints, 1);
        assert_eq!(st.completed, Some(true));
        // Breaker map keeps the latest state only.
        assert_eq!(
            st.breakers.get(&(7, 0)).map(String::as_str),
            Some("half-open")
        );
        assert_eq!(st.breaker_counts().get("half-open"), Some(&1));
        assert_eq!(st.fault_summary().get("burst"), Some(&(1, 2)));
        // Rates come from the journal's own clocks.
        assert!((st.wall_elapsed_s() - 2.0).abs() < 1e-9);
        assert!((st.packets_per_s() - 190.0).abs() < 1e-9);
        assert!((st.round_hit_rate() - 0.05).abs() < 1e-9);
        assert_eq!(st.vclock_us, 250);
    }

    #[test]
    fn resume_records_accumulate_without_double_counting() {
        let mut st = WatchState::new();
        for r in sample_run().into_iter().take(7) {
            st.apply(&r); // through round 1 + checkpoint + snapshot
        }
        st.apply(&rec(
            7,
            100,
            9.0,
            Event::Resume {
                fingerprint: 0xabcd,
                done: 20,
                rounds: 1,
            },
        ));
        assert_eq!(st.resumes, 1);
        assert_eq!(st.done, 20, "resume must not regress progress");
        assert_eq!(st.hits, 5, "resume carries no new hits");
    }

    #[test]
    fn render_mentions_every_status_dimension() {
        let mut st = WatchState::new();
        for r in sample_run() {
            st.apply(&r);
        }
        let table = st.render();
        for needle in [
            "campaign 000000000000abcd",
            "completed",
            "40/40",
            "half-open",
            "burst",
            "pkt/s",
        ] {
            assert!(
                table.contains(needle),
                "render missing {needle:?} in:\n{table}"
            );
        }
        assert_eq!(st.status(), "completed");
    }

    #[test]
    fn replay_and_live_watch_agree_on_a_file() {
        let path = std::env::temp_dir().join("sos_core_watch_replay.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = sos_obs::JournalWriter::create(&path).unwrap();
            for r in sample_run() {
                w.write(r.vclock_us, r.event).unwrap();
            }
        }
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.counters.get("probe.hits"), Some(&14));
        assert_eq!(replayed.completed, Some(true));

        let mut sink = Vec::new();
        let live = watch_live(&path, Duration::from_millis(1), Some(3), &mut sink).unwrap();
        assert_eq!(live.counters, replayed.counters);
        assert_eq!(live.done, replayed.done);
        assert!(String::from_utf8(sink).unwrap().contains("completed"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replaying_a_torn_journal_reports_truncated_not_running() {
        let path = std::env::temp_dir().join("sos_core_watch_torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = sos_obs::JournalWriter::create(&path).unwrap();
            // killed mid-run: everything but the campaign_end record
            for r in sample_run().into_iter().take(10) {
                w.write(r.vclock_us, r.event).unwrap();
            }
        }
        let st = replay(&path).unwrap();
        assert!(st.truncated);
        assert_eq!(st.completed, None);
        assert_eq!(st.status(), "truncated");
        let table = st.render();
        assert!(table.contains("[truncated]"), "got:\n{table}");
        assert!(!table.contains("running"), "torn tail must not claim live");
        assert!(!table.contains("eta"), "no ETA for a dead writer");
        // the partial summary is still there
        assert!(table.contains("40/40"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn discovery_records_fold_with_resume_safe_max_merge() {
        let mut st = WatchState::new();
        let d = |probes, hits| Event::Discovery {
            source: 2,
            regions: 3,
            probes,
            hits,
            aliases: 1,
            wasted: probes - hits,
        };
        st.apply(&rec(0, 0, 1.0, d(100, 10)));
        // a resume re-emits an earlier cumulative snapshot: must not regress
        st.apply(&rec(1, 5, 2.0, d(60, 6)));
        st.apply(&rec(2, 9, 3.0, d(140, 15)));
        assert_eq!(st.discovery.get(&2), Some(&(3, 140, 15, 1, 125)));
        assert!(st
            .render()
            .contains("discovery  1 source(s): 15 hits / 140 probes"));
    }

    #[test]
    fn live_watch_detaches_when_writer_stalls() {
        let path = std::env::temp_dir().join("sos_core_watch_stall.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = sos_obs::JournalWriter::create(&path).unwrap();
            w.write(
                0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 5,
                },
            )
            .unwrap();
        }
        let mut sink = Vec::new();
        let st = watch_live(&path, Duration::from_millis(1), Some(2), &mut sink).unwrap();
        assert_eq!(st.records, 1);
        assert!(st.completed.is_none());
        assert!(String::from_utf8(sink).unwrap().contains("detaching"));
        let _ = std::fs::remove_file(&path);
    }
}
