//! Append-only JSONL campaign event journal.
//!
//! A journal is the live counterpart of the manifest: instead of one
//! document at exit, the campaign appends one self-contained JSON line
//! per event — round boundaries, checkpoint writes, resumes, breaker and
//! fault-epoch transitions, periodic counter snapshots — as they happen.
//! `seedscan watch` tails the file to render live status, and replaying
//! the lines reconstructs the final counter totals bit-identically to the
//! live run (the `snapshot` events carry exact `u64` values).
//!
//! Three properties make the format crash-tolerant:
//!
//! - **Tmp-free writes, one per batch.** The events one campaign step
//!   emits together (a round boundary's transitions, say) are encoded
//!   into one buffer of `\n`-terminated lines and handed to the journal
//!   file in a single `write_all`; there is no rename dance and nothing
//!   is held back between calls, so a killed campaign loses at most the
//!   batch being written, and a reader may see its last line torn.
//! - **Torn-tail tolerance.** Readers parse complete lines only; a
//!   truncated final line (the kill case) is ignored rather than an
//!   error, and a tailing reader picks it up once the newline lands. A
//!   resumed writer cuts such a line off before it appends.
//! - **Deterministic payloads.** Every record carries the campaign's
//!   virtual clock (`vclock_us`, derived from deterministic report
//!   accounting) next to the process wall clock (`wall_s`); everything
//!   except `wall_s` and `seq`-independent ordering is bit-identical
//!   across shard counts.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::json::{from_hex, read_lines, Json, JsonWriter};

/// Bumped when the line schema changes incompatibly.
pub const JOURNAL_VERSION: u64 = 1;

/// One typed campaign event (the payload of a journal line).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A fresh campaign began: identity and shape of the run.
    CampaignStart {
        /// Campaign identity fingerprint (matches the checkpoint's).
        fingerprint: u64,
        /// Prepared targets to scan.
        targets: u64,
        /// Protocol names, in scan order.
        protocols: Vec<String>,
        /// Shards per round.
        shards: u64,
        /// Prepared targets per round.
        round_size: u64,
    },
    /// A checkpoint was restored and the campaign continued.
    Resume {
        /// Fingerprint of the resumed campaign.
        fingerprint: u64,
        /// Targets already done at resume.
        done: u64,
        /// Rounds already executed at resume.
        rounds: u64,
    },
    /// A round of targets is about to be scanned.
    RoundStart {
        /// 1-based round number across the campaign's lifetime.
        round: u64,
        /// First prepared-target index of the round (inclusive).
        from: u64,
        /// One past the last prepared-target index of the round.
        to: u64,
    },
    /// A round finished; deltas are for this round only.
    RoundEnd {
        /// 1-based round number.
        round: u64,
        /// Targets done after this round.
        done: u64,
        /// Total prepared targets.
        total: u64,
        /// Hits this round (summed over protocols).
        hits: u64,
        /// Probe packets this round (summed over protocols).
        packets: u64,
    },
    /// A checkpoint file was written.
    CheckpointWrite {
        /// Fingerprint stored in the checkpoint.
        fingerprint: u64,
        /// Targets done at the checkpoint boundary.
        done: u64,
        /// Rounds executed at the checkpoint boundary.
        rounds: u64,
    },
    /// A circuit breaker changed state at a round boundary.
    Breaker {
        /// Breaker prefix domain (top bits of the address).
        domain: u128,
        /// Protocol index.
        proto: u8,
        /// State before the round (`closed`, `open`, `half-open`).
        from: String,
        /// State after the round.
        to: String,
    },
    /// A fault-domain epoch clock advanced at a round boundary.
    FaultEpoch {
        /// Fault prefix domain.
        domain: u128,
        /// Protocol index.
        proto: u8,
        /// Epoch family (`burst`, `blackhole`, `throttle`).
        kind: String,
        /// The new epoch index.
        epoch: u64,
    },
    /// A periodic counter snapshot (exact values; replay-grade).
    Snapshot {
        /// Campaign fingerprint (ties the snapshot to a checkpoint).
        fingerprint: u64,
        /// Targets done when the snapshot was taken.
        done: u64,
        /// Every engine counter, by name, exact.
        counters: BTreeMap<String, u64>,
    },
    /// Per-source discovery attribution totals (one event per provenance
    /// source at campaign end, when the run carried a provenance map).
    Discovery {
        /// Provenance source id (TGA code, or 255 for raw target lists).
        source: u64,
        /// Distinct regions attributed under this source.
        regions: u64,
        /// Probes attributed to this source.
        probes: u64,
        /// Hits attributed to this source.
        hits: u64,
        /// Attributed hits later classified as aliased.
        aliases: u64,
        /// Attributed probes that produced no hit (wasted-probe mass).
        wasted: u64,
    },
    /// The campaign returned.
    CampaignEnd {
        /// Whether every prepared target was scanned.
        completed: bool,
        /// Rounds executed across the campaign's lifetime.
        rounds: u64,
        /// Targets restored as already-done by a resume.
        resumed_targets: u64,
    },
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("journal record missing integer field {key:?}"))
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("journal record missing string field {key:?}"))
}

/// A domain (`u128`) or a fingerprint (`u64`), read by [`from_hex`].
fn get_hex<T: TryFrom<u128>>(j: &Json, key: &str) -> Result<T, String> {
    j.get(key)
        .and_then(from_hex)
        .ok_or_else(|| format!("journal record field {key:?} is missing or not hex"))
}

/// The study probes four protocols, indexed `0..4` (`netmodel::PROTOCOLS`;
/// this crate sits below `netmodel`, so the bound is restated here).
const PROTOCOLS: u64 = 4;

/// A record's protocol index. One that no protocol has is damage: narrowed
/// with `as u8`, index 300 would replay as protocol 44.
fn get_proto(j: &Json) -> Result<u8, String> {
    let idx = get_u64(j, "proto")?;
    if idx >= PROTOCOLS {
        return Err(format!(
            "journal record field \"proto\" is not a protocol index: {idx}"
        ));
    }
    Ok(idx as u8)
}

impl Event {
    /// The record's `ev` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStart { .. } => "campaign_start",
            Event::Resume { .. } => "resume",
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::CheckpointWrite { .. } => "checkpoint",
            Event::Breaker { .. } => "breaker",
            Event::FaultEpoch { .. } => "fault_epoch",
            Event::Snapshot { .. } => "snapshot",
            Event::Discovery { .. } => "discovery",
            Event::CampaignEnd { .. } => "campaign_end",
        }
    }

    /// Write the event-specific fields into the open record object.
    fn write_fields(&self, w: &mut JsonWriter) {
        let fingerprint = |w: &mut JsonWriter, fp: u64| {
            w.key("fingerprint").str(&crate::manifest::digest_hex(fp));
        };
        match self {
            Event::CampaignStart {
                fingerprint: fp,
                targets,
                protocols,
                shards,
                round_size,
            } => {
                fingerprint(w, *fp);
                w.key("targets").u64(*targets).key("protocols").arr();
                for p in protocols {
                    w.str(p);
                }
                w.end_arr()
                    .key("shards")
                    .u64(*shards)
                    .key("round_size")
                    .u64(*round_size);
            }
            Event::Resume {
                fingerprint: fp,
                done,
                rounds,
            }
            | Event::CheckpointWrite {
                fingerprint: fp,
                done,
                rounds,
            } => {
                fingerprint(w, *fp);
                w.key("done").u64(*done).key("rounds").u64(*rounds);
            }
            Event::RoundStart { round, from, to } => {
                w.key("round")
                    .u64(*round)
                    .key("from")
                    .u64(*from)
                    .key("to")
                    .u64(*to);
            }
            Event::RoundEnd {
                round,
                done,
                total,
                hits,
                packets,
            } => {
                w.key("round")
                    .u64(*round)
                    .key("done")
                    .u64(*done)
                    .key("total")
                    .u64(*total);
                w.key("hits").u64(*hits).key("packets").u64(*packets);
            }
            Event::Breaker {
                domain,
                proto,
                from,
                to,
            } => {
                w.key("domain")
                    .hex128(*domain)
                    .key("proto")
                    .u64((*proto).into());
                w.key("from").str(from).key("to").str(to);
            }
            Event::FaultEpoch {
                domain,
                proto,
                kind,
                epoch,
            } => {
                w.key("domain")
                    .hex128(*domain)
                    .key("proto")
                    .u64((*proto).into());
                w.key("kind").str(kind).key("epoch").u64(*epoch);
            }
            Event::Snapshot {
                fingerprint: fp,
                done,
                counters,
            } => {
                fingerprint(w, *fp);
                w.key("done").u64(*done).key("counters").obj();
                for (name, value) in counters {
                    w.key(name).u64(*value);
                }
                w.end_obj();
            }
            Event::Discovery {
                source,
                regions,
                probes,
                hits,
                aliases,
                wasted,
            } => {
                w.key("source")
                    .u64(*source)
                    .key("regions")
                    .u64(*regions)
                    .key("probes")
                    .u64(*probes);
                w.key("hits")
                    .u64(*hits)
                    .key("aliases")
                    .u64(*aliases)
                    .key("wasted")
                    .u64(*wasted);
            }
            Event::CampaignEnd {
                completed,
                rounds,
                resumed_targets,
            } => {
                w.key("completed")
                    .bool(*completed)
                    .key("rounds")
                    .u64(*rounds);
                w.key("resumed_targets").u64(*resumed_targets);
            }
        }
    }

    /// Parse the event-specific fields of a record object.
    fn from_json(kind: &str, j: &Json) -> Result<Event, String> {
        Ok(match kind {
            "campaign_start" => Event::CampaignStart {
                fingerprint: get_hex(j, "fingerprint")?,
                targets: get_u64(j, "targets")?,
                protocols: j
                    .get("protocols")
                    .and_then(Json::as_arr)
                    .ok_or("campaign_start missing protocols")?
                    .iter()
                    .map(|p| p.as_str().map(str::to_string).ok_or("bad protocol name"))
                    .collect::<Result<Vec<_>, _>>()?,
                shards: get_u64(j, "shards")?,
                round_size: get_u64(j, "round_size")?,
            },
            "resume" => Event::Resume {
                fingerprint: get_hex(j, "fingerprint")?,
                done: get_u64(j, "done")?,
                rounds: get_u64(j, "rounds")?,
            },
            "round_start" => Event::RoundStart {
                round: get_u64(j, "round")?,
                from: get_u64(j, "from")?,
                to: get_u64(j, "to")?,
            },
            "round_end" => Event::RoundEnd {
                round: get_u64(j, "round")?,
                done: get_u64(j, "done")?,
                total: get_u64(j, "total")?,
                hits: get_u64(j, "hits")?,
                packets: get_u64(j, "packets")?,
            },
            "checkpoint" => Event::CheckpointWrite {
                fingerprint: get_hex(j, "fingerprint")?,
                done: get_u64(j, "done")?,
                rounds: get_u64(j, "rounds")?,
            },
            "breaker" => Event::Breaker {
                domain: get_hex(j, "domain")?,
                proto: get_proto(j)?,
                from: get_str(j, "from")?,
                to: get_str(j, "to")?,
            },
            "fault_epoch" => Event::FaultEpoch {
                domain: get_hex(j, "domain")?,
                proto: get_proto(j)?,
                kind: get_str(j, "kind")?,
                epoch: get_u64(j, "epoch")?,
            },
            "snapshot" => Event::Snapshot {
                fingerprint: get_hex(j, "fingerprint")?,
                done: get_u64(j, "done")?,
                counters: j
                    .get("counters")
                    .and_then(Json::entries)
                    .ok_or("snapshot missing counters")?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or("bad counter value")?)))
                    .collect::<Result<BTreeMap<_, _>, String>>()?,
            },
            "discovery" => Event::Discovery {
                source: get_u64(j, "source")?,
                regions: get_u64(j, "regions")?,
                probes: get_u64(j, "probes")?,
                hits: get_u64(j, "hits")?,
                aliases: get_u64(j, "aliases")?,
                wasted: get_u64(j, "wasted")?,
            },
            "campaign_end" => Event::CampaignEnd {
                completed: j
                    .get("completed")
                    .and_then(Json::as_bool)
                    .ok_or("campaign_end missing completed")?,
                rounds: get_u64(j, "rounds")?,
                resumed_targets: get_u64(j, "resumed_targets")?,
            },
            other => return Err(format!("unknown journal event kind {other:?}")),
        })
    }
}

/// One journal line: sequence number, both clocks, and the typed event.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotone per-journal line number (continues across resumes).
    pub seq: u64,
    /// Deterministic campaign virtual clock, microseconds.
    pub vclock_us: u64,
    /// Process wall clock when the line was written (seconds since the
    /// first observability call; diagnostic only, never result-bearing).
    pub wall_s: f64,
    /// The event payload.
    pub event: Event,
}

impl Record {
    /// Encode as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::default();
        self.encode(&mut w);
        w.into_string()
    }

    /// Write the record as one compact JSON object (no newline).
    fn encode(&self, w: &mut JsonWriter) {
        w.obj()
            .key("v")
            .u64(JOURNAL_VERSION)
            .key("seq")
            .u64(self.seq);
        w.key("ev")
            .str(self.event.kind())
            .key("vclock_us")
            .u64(self.vclock_us);
        w.key("wall_s").f64(self.wall_s);
        self.event.write_fields(w);
        w.end_obj();
    }

    /// Parse one complete journal line.
    pub fn parse_line(line: &str) -> Result<Record, String> {
        let j = Json::parse(line)?;
        let version = get_u64(&j, "v")?;
        if version != JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        let kind = get_str(&j, "ev")?;
        Ok(Record {
            seq: get_u64(&j, "seq")?,
            vclock_us: get_u64(&j, "vclock_us")?,
            wall_s: j
                .get("wall_s")
                .and_then(Json::as_f64)
                .ok_or("journal record missing wall_s")?,
            event: Event::from_json(&kind, &j)?,
        })
    }
}

/// Appends journal records to a file: one line per event, one write per
/// call.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    /// The lines of the call being written, reused from call to call.
    lines: JsonWriter,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<JournalWriter> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(JournalWriter {
            file,
            path,
            seq: 0,
            lines: JsonWriter::default(),
        })
    }

    /// Continue an existing journal (campaign resume): records append
    /// after its last complete record, and the sequence number continues
    /// from it. The torn tail a killed writer left is cut off first —
    /// appended to, it would become a corrupt line in the middle. A missing
    /// file starts fresh.
    pub fn append(path: impl Into<PathBuf>) -> io::Result<JournalWriter> {
        let path = path.into();
        let (seq, end) = match read_from(&path, 0) {
            Ok((records, end)) => (records.last().map_or(0, |r| r.seq + 1), end),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 0),
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(end)?;
        Ok(JournalWriter {
            file,
            path,
            seq,
            lines: JsonWriter::default(),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event, stamped with `vclock_us` and the process wall
    /// clock, as one line in one write.
    pub fn write(&mut self, vclock_us: u64, event: Event) -> io::Result<()> {
        self.write_batch(vclock_us, [event])
    }

    /// Append `events`, each stamped with `vclock_us` and the wall clock
    /// when it is encoded, as consecutive lines in one write. An empty
    /// batch writes nothing.
    pub fn write_batch(
        &mut self,
        vclock_us: u64,
        events: impl IntoIterator<Item = Event>,
    ) -> io::Result<()> {
        self.lines.clear();
        let mut seq = self.seq;
        for event in events {
            let record = Record {
                seq,
                vclock_us,
                wall_s: crate::now_s(),
                event,
            };
            record.encode(&mut self.lines);
            self.lines.end_line();
            seq += 1;
        }
        if seq == self.seq {
            return Ok(());
        }
        self.file.write_all(self.lines.as_str().as_bytes())?;
        self.seq = seq;
        Ok(())
    }
}

/// Read every complete, parseable record in the journal. A truncated or
/// corrupt **final** line (the signature a killed writer leaves) is
/// silently dropped; a corrupt line anywhere else is an error.
pub fn read_records(path: &Path) -> io::Result<Vec<Record>> {
    let (records, _) = read_from(path, 0)?;
    Ok(records)
}

/// Incremental read for tailing: parse the complete lines from byte
/// `offset` on with [`read_lines`], returning the records plus the offset
/// where the next read should start. A partial trailing line is left for
/// the next call; a corrupt complete line that is **not** the file's
/// current last line is an error (torn tails are expected, torn middles
/// are not).
pub fn read_from(path: &Path, offset: u64) -> io::Result<(Vec<Record>, u64)> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = String::new();
    file.read_to_string(&mut buf)?;
    let (records, consumed) =
        read_lines(&buf, |_, line| Record::parse_line(line)).map_err(|bad| {
            let error = format!(
                "corrupt journal line at byte {}: {}",
                offset + bad.at as u64,
                bad.error
            );
            io::Error::new(io::ErrorKind::InvalidData, error)
        })?;
    Ok((records, offset + consumed as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CampaignStart {
                fingerprint: 0xdead_beef,
                targets: 100,
                protocols: vec!["Icmp".into(), "Tcp80".into()],
                shards: 4,
                round_size: 25,
            },
            Event::RoundStart {
                round: 1,
                from: 0,
                to: 25,
            },
            Event::Breaker {
                domain: 0x2001_0db8,
                proto: 0,
                from: "closed".into(),
                to: "open".into(),
            },
            Event::FaultEpoch {
                domain: 0x2001_0db8,
                proto: 1,
                kind: "burst".into(),
                epoch: 3,
            },
            Event::RoundEnd {
                round: 1,
                done: 25,
                total: 100,
                hits: 7,
                packets: 310,
            },
            Event::CheckpointWrite {
                fingerprint: 0xdead_beef,
                done: 25,
                rounds: 1,
            },
            Event::Snapshot {
                fingerprint: 0xdead_beef,
                done: 25,
                counters: [
                    ("probe.hits".to_string(), 7u64),
                    ("probe.packets_sent".into(), 310),
                ]
                .into_iter()
                .collect(),
            },
            Event::Resume {
                fingerprint: 0xdead_beef,
                done: 25,
                rounds: 1,
            },
            Event::Discovery {
                source: 3,
                regions: 12,
                probes: 400,
                hits: 25,
                aliases: 2,
                wasted: 375,
            },
            Event::CampaignEnd {
                completed: true,
                rounds: 4,
                resumed_targets: 25,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_a_line() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let rec = Record {
                seq: i as u64,
                vclock_us: 1000 * i as u64,
                wall_s: 0.5,
                event,
            };
            let line = rec.to_line();
            assert!(!line.contains('\n'), "one event, one line");
            let back = Record::parse_line(&line).expect("parses");
            assert_eq!(back, rec, "event {i} must round-trip");
        }
    }

    #[test]
    fn writer_appends_and_reader_replays_in_order() {
        let path = tmp("sos_obs_journal_basic.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::create(&path).unwrap();
            for (i, event) in sample_events().into_iter().enumerate() {
                w.write(i as u64 * 10, event).unwrap();
            }
        }
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), sample_events().len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence is dense");
            assert_eq!(r.vclock_us, i as u64 * 10);
            assert_eq!(r.event, sample_events()[i]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_continues_sequence_numbers() {
        let path = tmp("sos_obs_journal_append.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::create(&path).unwrap();
            w.write(
                0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 10,
                },
            )
            .unwrap();
            w.write(
                5,
                Event::RoundEnd {
                    round: 1,
                    done: 10,
                    total: 20,
                    hits: 1,
                    packets: 10,
                },
            )
            .unwrap();
        }
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.write(
                9,
                Event::Resume {
                    fingerprint: 1,
                    done: 10,
                    rounds: 1,
                },
            )
            .unwrap();
        }
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].seq, 2, "sequence continues after reopen");
        assert!(matches!(records[2].event, Event::Resume { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("sos_obs_journal_torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::create(&path).unwrap();
            w.write(
                0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 10,
                },
            )
            .unwrap();
        }
        // Simulate a kill mid-write: a partial line with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"v\":1,\"seq\":1,\"ev\":\"round_e").unwrap();
        }
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), 1, "torn tail ignored");
        // A complete-but-corrupt final line is also tolerated.
        let path2 = tmp("sos_obs_journal_torn2.jsonl");
        let _ = std::fs::remove_file(&path2);
        {
            let mut w = JournalWriter::create(&path2).unwrap();
            w.write(
                0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 10,
                },
            )
            .unwrap();
            let mut f = OpenOptions::new().append(true).open(&path2).unwrap();
            f.write_all(b"{\"v\":1,garbage\n").unwrap();
        }
        assert_eq!(read_records(&path2).unwrap().len(), 1);
        // ... but corruption in the middle is an error.
        {
            let mut f = OpenOptions::new().append(true).open(&path2).unwrap();
            f.write_all(b"{\"v\":1,\"seq\":9,\"ev\":\"round_start\",\"vclock_us\":0,\"wall_s\":0.0,\"round\":2,\"from\":10,\"to\":20}\n")
                .unwrap();
        }
        assert!(
            read_records(&path2).is_err(),
            "mid-file corruption surfaces"
        );
        // A well-formed line whose protocol index no protocol has is
        // corrupt too: dropped at the tail, an error before it.
        for (ev, rest) in [
            ("breaker", "\"from\":\"closed\",\"to\":\"open\""),
            ("fault_epoch", "\"kind\":\"burst\",\"epoch\":3"),
        ] {
            let line = |proto: u32| {
                format!(
                    "{{\"v\":1,\"seq\":1,\"ev\":\"{ev}\",\"vclock_us\":0,\"wall_s\":0.0,\
                     \"domain\":\"00000000000000000000000020010db8\",\"proto\":{proto},{rest}}}"
                )
            };
            assert!(
                Record::parse_line(&line(3)).is_ok(),
                "{ev}: 3 is the last protocol"
            );
            for proto in [4, 300] {
                let err = Record::parse_line(&line(proto)).expect_err("no such protocol");
                assert!(err.contains("\"proto\""), "{ev} {proto}: {err}");
            }
            JournalWriter::create(&path2)
                .unwrap()
                .write(
                    0,
                    Event::RoundStart {
                        round: 1,
                        from: 0,
                        to: 10,
                    },
                )
                .unwrap();
            let mut f = OpenOptions::new().append(true).open(&path2).unwrap();
            f.write_all(format!("{}\n", line(300)).as_bytes()).unwrap();
            assert_eq!(
                read_records(&path2).unwrap().len(),
                1,
                "{ev}: damaged tail dropped"
            );
            f.write_all(format!("{}\n", line(3)).as_bytes()).unwrap();
            assert!(
                read_records(&path2).is_err(),
                "{ev}: damaged middle surfaces"
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    /// A resume after a kill appends after the last complete record: the
    /// torn tail goes, whether or not its newline landed, and the journal
    /// reads back whole with one dense sequence.
    #[test]
    fn append_cuts_a_torn_tail_before_writing() {
        let path = tmp("sos_obs_journal_append_torn.jsonl");
        for tail in [
            &b"{\"v\":1,\"seq\":1,\"ev\":\"round_e"[..],
            b"{\"v\":1,garbage\n",
        ] {
            let _ = std::fs::remove_file(&path);
            JournalWriter::create(&path)
                .unwrap()
                .write(
                    0,
                    Event::RoundStart {
                        round: 1,
                        from: 0,
                        to: 10,
                    },
                )
                .unwrap();
            OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(tail)
                .unwrap();
            let mut w = JournalWriter::append(&path).unwrap();
            w.write(
                5,
                Event::Resume {
                    fingerprint: 1,
                    done: 0,
                    rounds: 0,
                },
            )
            .unwrap();
            w.write(
                9,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 10,
                },
            )
            .unwrap();
            let records = read_records(&path).expect("the torn tail was cut, not buried");
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, [0, 1, 2], "tail {:?}", String::from_utf8_lossy(tail));
            assert!(matches!(records[1].event, Event::Resume { .. }));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// ROADMAP 6a for the journal reader: whatever single byte of a record
    /// is lost or changed, the line parses to a record or is refused —
    /// never a panic — for each of the ten kinds of record.
    #[test]
    fn single_byte_damage_to_a_record_never_panics_the_reader() {
        let events = sample_events();
        assert_eq!(events.len(), 10);
        for (i, event) in events.into_iter().enumerate() {
            let rec = Record {
                seq: i as u64,
                vclock_us: 1000 * i as u64,
                wall_s: 0.5,
                event,
            };
            crate::json::single_byte_damage(rec.to_line().as_bytes(), |damaged| {
                let _ = Record::parse_line(&String::from_utf8_lossy(damaged));
            });
        }
    }

    #[test]
    fn read_from_tails_incrementally() {
        let path = tmp("sos_obs_journal_tail.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(
            0,
            Event::RoundStart {
                round: 1,
                from: 0,
                to: 5,
            },
        )
        .unwrap();
        let (first, off) = read_from(&path, 0).unwrap();
        assert_eq!(first.len(), 1);
        let (none, off2) = read_from(&path, off).unwrap();
        assert!(none.is_empty());
        assert_eq!(off, off2, "no new data, offset unchanged");
        w.write(
            3,
            Event::RoundEnd {
                round: 1,
                done: 5,
                total: 5,
                hits: 2,
                packets: 9,
            },
        )
        .unwrap();
        let (next, off3) = read_from(&path, off2).unwrap();
        assert_eq!(next.len(), 1);
        assert!(off3 > off2);
        assert!(matches!(next[0].event, Event::RoundEnd { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_append_starts_fresh() {
        let path = tmp("sos_obs_journal_fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        JournalWriter::append(&path)
            .unwrap()
            .write(
                0,
                Event::RoundStart {
                    round: 1,
                    from: 0,
                    to: 10,
                },
            )
            .unwrap();
        let records = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 0, "a fresh journal starts at 0");
        let _ = std::fs::remove_file(&path);
    }
}
