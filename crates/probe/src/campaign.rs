//! Multi-protocol scan campaigns, with checkpoint/resume.
//!
//! §5.3's collection step — "we proceed to scan ... on four ports and
//! protocols" — is the canonical adopter workflow: one target list, every
//! scan target, one merged per-address result. [`Campaign`] packages it:
//! deduplicated targets are scanned per protocol through one scanner, and
//! the outcome is a per-address [`PortSet`] plus per-protocol reports.
//!
//! [`Campaign::run_with`] adds hostile-world endurance: the prepared
//! target list is scanned in *rounds* of `checkpoint_every` targets (each
//! round covering every protocol). The campaign's state *is* a
//! [`CampaignCheckpoint`] — progress and partial reports advance in it,
//! and at each round boundary the cross-target machine state (the fault
//! layer's per-prefix density clocks, circuit-breaker states, the rate
//! limiter's virtual clock, the metric counters) is re-read into it from
//! the scanner once, which also yields the per-prefix rows the round
//! changed. Everything a boundary emits is a view of that state and those
//! rows: the journal's breaker / fault-epoch records are the steps the
//! rows took, the counter snapshot (journal record and `.prom` file, one
//! cadence) carries the state's counters, and the checkpoint is the
//! state's serialization in one of two forms. The **document** is the
//! whole state and is written where the file must stand on its own: at an
//! invocation's first boundary, on a stop or cancel, and at the
//! campaign's last boundary. Every other boundary appends one line to a
//! **write-ahead log** beside it (`<checkpoint>.wal`) holding what the
//! round added — its own per-protocol reports and the changed rows — so a
//! boundary costs what its round touched, not what the campaign has
//! accumulated. [`CampaignCheckpoint::load`] reads the document and folds
//! the log's lines back in; writing the document removes the log.
//!
//! A killed campaign resumed from its last checkpoint produces a
//! [`CampaignRun`] **bit-identical** to the uninterrupted run's, wherever
//! the kill fell: every piece of cross-target state is keyed by
//! `(prefix-or-address, protocol)` and restored exactly, floats travel as
//! raw bits, and a log line folds with the operation the live run used.
//! Cooperative cancellation (an [`AtomicBool`]) and `stop_after_rounds`
//! stop at the same round boundaries the checkpoints are written at.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netmodel::{FaultEpochs, FaultPlan, PortSet, Protocol, PROTOCOLS};
use sos_obs::json::Json;
use sos_obs::manifest::Fnv1a64;
use sos_obs::{Event, JournalWriter};
use v6addr::AddrMap;

use crate::carried::Carried;
use crate::engine::{LaneState, ScanReport, Scanner};
use crate::metrics::RESUMED_TARGETS;
use crate::provenance::{AttributionTable, ProvenanceLog, SourceTotals};
use crate::ratelimit::BucketSnapshot;
use crate::retry::{BreakerConfig, BreakerMap, BreakerState};
use crate::transport::Transport;

/// The merged outcome of scanning one target list on several protocols.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// Observed responsiveness per address (addresses with at least one
    /// positive response; silent addresses are absent).
    responsive: AddrMap<u128, PortSet>,
    /// The per-protocol scan reports, in scan order.
    pub reports: Vec<(Protocol, ScanReport)>,
}

impl CampaignResult {
    /// Merge per-protocol reports (kept in the given order) into the
    /// per-address view: an address is responsive on a protocol iff that
    /// protocol's report lists it as a hit.
    pub fn from_reports(reports: Vec<(Protocol, ScanReport)>) -> Self {
        let mut responsive: AddrMap<u128, PortSet> = AddrMap::default();
        for (proto, report) in &reports {
            for &hit in &report.hits {
                responsive.entry(u128::from(hit)).or_insert(PortSet::EMPTY).insert(*proto);
            }
        }
        CampaignResult { responsive, reports }
    }

    /// Responsiveness of one address (empty when it never answered).
    pub fn ports(&self, addr: Ipv6Addr) -> PortSet {
        self.responsive
            .get(&u128::from(addr))
            .copied()
            .unwrap_or(PortSet::EMPTY)
    }

    /// Number of addresses responsive on ≥1 scanned protocol.
    pub fn responsive_count(&self) -> usize {
        self.responsive.len()
    }

    /// Number of addresses responsive on `proto`.
    pub fn responsive_on(&self, proto: Protocol) -> usize {
        self.responsive.values().filter(|p| p.contains(proto)).count()
    }

    /// Iterate `(address, ports)` for every responsive address, sorted.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, PortSet)> + '_ {
        let mut keys: Vec<u128> = self.responsive.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(move |k| (Ipv6Addr::from(k), self.responsive[&k])) // k drawn from responsive.keys()
    }

    /// Total probe packets across all protocols.
    pub fn packets_sent(&self) -> u64 {
        self.reports.iter().map(|(_, r)| r.packets_sent).sum()
    }
}

/// Knobs for [`Campaign::run_with`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Shards per protocol per round (normalized to ≥ 1). A round runs
    /// `protocols × shards` tasks, so only a one-protocol campaign at one
    /// shard runs on the calling thread — the standard four-protocol
    /// campaign spawns four tasks even at `1`.
    pub shards: usize,
    /// Prepared targets per round. `0` means one single round (no
    /// intermediate checkpoint boundaries).
    pub checkpoint_every: usize,
    /// Where the checkpoint is kept, made durable after every round: the
    /// document at this path plus, between document writes, a write-ahead
    /// log beside it (the same name with a `.wal` extension) — read both
    /// back with [`CampaignCheckpoint::load`]. `None` disables persistence
    /// (rounds and cancellation still apply).
    pub checkpoint_path: Option<PathBuf>,
    /// Cooperative cancellation: checked at every round boundary; when
    /// set, the campaign checkpoints and returns `completed = false`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Stop (checkpoint + return) after this many rounds *in this
    /// invocation* — the test hook that simulates a kill at an exact
    /// checkpoint boundary.
    pub stop_after_rounds: Option<usize>,
    /// Where to write the live JSONL event journal
    /// ([`sos_obs::journal`]): round boundaries, checkpoint writes,
    /// breaker and fault-epoch transitions, and counter snapshots, each
    /// stamped with the campaign's deterministic virtual clock (the
    /// shard-invariant `backoff_waited_us + throttled_us` total). A fresh
    /// run truncates; a resume appends and continues the sequence.
    /// `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Where to write a Prometheus-style text rendering of the global
    /// metrics registry, rewritten at every counter snapshot (see
    /// `snapshot_every`) whether or not a journal is configured. `None`
    /// disables.
    pub snapshot_path: Option<PathBuf>,
    /// The one snapshot cadence: every N lifetime rounds (`0`/`1` = every
    /// round), after every checkpoint write, and once at the end, the
    /// campaign journals a replay-grade counter [`Event::Snapshot`] and
    /// rewrites `snapshot_path`. Checkpoint writes always snapshot, so the
    /// journal's last snapshot matches the on-disk checkpoint after a kill.
    pub snapshot_every: usize,
    /// Discovery provenance for the target list (same emission order),
    /// recorded by the generator that produced it — or
    /// [`ProvenanceLog::for_targets`] for raw lists. When set, every
    /// report accumulates a per-region [`AttributionTable`] (rides
    /// through checkpoints) and the campaign journals per-source
    /// [`Event::Discovery`] totals at the end. `None` scans untagged.
    pub provenance: Option<Arc<ProvenanceLog>>,
}

/// What [`Campaign::run_with`] produced.
#[derive(Debug)]
pub struct CampaignRun {
    /// Merged results over everything scanned so far.
    pub result: CampaignResult,
    /// Whether every prepared target was scanned on every protocol.
    pub completed: bool,
    /// Rounds executed across the campaign's lifetime (including rounds
    /// restored from a checkpoint).
    pub rounds: usize,
    /// Prepared targets restored as already-done by a checkpoint resume.
    pub resumed_targets: usize,
}

/// The campaign's state — progress, partial reports, and every piece of
/// cross-target machine state as of the last round boundary — which is
/// everything needed to resume a killed campaign bit-identically. The
/// checkpoint document is its serialization: JSON (`u128` addresses as
/// 32-digit hex strings, floats as `f64::to_bits`), guarded by a
/// fingerprint over the target list, protocol set, and scanner
/// configuration. The write-ahead log's lines use the same encodings for
/// the part of the state one round changed.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// FNV-1a over the canonical campaign identity (targets, protocols,
    /// scanner config). Resume refuses a checkpoint from a different
    /// campaign.
    pub fingerprint: u64,
    /// Prepared targets fully scanned (on every protocol).
    pub done: usize,
    /// Rounds executed so far.
    pub rounds: usize,
    /// Per-protocol cumulative reports.
    pub reports: Vec<(Protocol, ScanReport)>,
    /// The rate limiter's full state, when one is configured.
    pub limiter: Option<BucketSnapshot>,
    /// The fault layer's per-(domain, protocol) density clocks.
    pub fault_state: Vec<(u128, u8, u32)>,
    /// The circuit-breaker map (tuning, per-domain states, counters),
    /// when breaking is configured.
    pub breaker: Option<BreakerMap>,
    /// Engine metric counters at the checkpoint boundary.
    pub counters: BTreeMap<String, u64>,
}

/// Format version written into checkpoints.
const CHECKPOINT_VERSION: u64 = 1;

fn hex128(v: u128) -> Json {
    Json::Str(format!("{v:032x}"))
}

fn parse_hex128(j: &Json) -> Result<u128, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u128::from_str_radix(s, 16).map_err(|e| format!("bad hex address {s:?}: {e}"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("checkpoint missing integer field {key:?}"))
}

/// A `u64` field that must fit a `u32` counter: a larger value is damage,
/// not something to wrap.
fn get_u32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(j, key)?).map_err(|_| format!("checkpoint field {key:?} exceeds u32"))
}

/// The rows of the per-prefix table stored under `key`.
fn table<'j>(j: &'j Json, key: &str) -> Result<&'j [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("checkpoint missing table {key:?}"))
}

/// One `[domain, protocol index, N counts…]` row of the `fault_state` and
/// `breaker.entries` tables.
fn table_row_json<const N: usize>(domain: u128, proto: u8, counts: [u32; N]) -> Json {
    let counts = counts.into_iter().map(|n| Json::U64(n.into()));
    Json::Arr([hex128(domain), Json::U64(proto.into())].into_iter().chain(counts).collect())
}

/// Decode a row [`table_row_json`] wrote. A protocol index no protocol has
/// and a count over `u32::MAX` are errors naming `table`: narrowing them
/// would resume the campaign on state nobody wrote.
fn table_row<const N: usize>(table: &str, row: &Json) -> Result<((u128, u8), [u32; N]), String> {
    let bad = |what: &str| format!("{table}: {what}");
    let Some([domain, proto, counts @ ..]) = row.as_arr().filter(|r| r.len() == 2 + N) else {
        return Err(bad("row is not [domain, proto, counts…]"));
    };
    let proto = proto.as_u64().ok_or_else(|| bad("protocol index is not an integer"))?;
    let proto = proto_by_index(proto).map_err(|e| bad(&e))?.index() as u8;
    let mut out = [0u32; N];
    for (slot, count) in out.iter_mut().zip(counts) {
        *slot = count
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad("count is not an integer that fits u32"))?;
    }
    Ok(((parse_hex128(domain)?, proto), out))
}

fn report_to_json(r: &ScanReport) -> Json {
    // Exhaustive destructure: a new ScanReport field fails to compile here
    // until its checkpoint representation is decided.
    let ScanReport {
        hits,
        probed,
        duplicates,
        blocked,
        rsts,
        unreachables,
        silent,
        skipped,
        retries,
        packets_sent,
        faults_injected,
        breaker_opened,
        backoff_waited_us,
        throttled_us,
        limited_seconds,
        attribution,
    } = r;
    let mut o = Json::obj();
    o.set("hits", Json::Arr(hits.iter().map(|h| hex128(u128::from(*h))).collect()))
        .set("probed", *probed)
        .set("duplicates", *duplicates)
        .set("blocked", *blocked)
        .set("rsts", *rsts)
        .set("unreachables", *unreachables)
        .set("silent", *silent)
        .set("skipped", *skipped)
        .set("retries", *retries)
        .set("packets_sent", *packets_sent)
        .set("faults_injected", *faults_injected)
        .set("breaker_opened", *breaker_opened)
        .set("backoff_waited_us", *backoff_waited_us)
        .set("throttled_us", *throttled_us)
        .set("limited_seconds_bits", limited_seconds.to_bits());
    if !attribution.is_empty() {
        o.set("attribution", attribution.to_json());
    }
    o
}

fn report_from_json(j: &Json) -> Result<ScanReport, String> {
    let hits = j
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or("checkpoint report missing hits")?
        .iter()
        .map(|h| Ok(Ipv6Addr::from(parse_hex128(h)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ScanReport {
        hits,
        probed: get_u64(j, "probed")? as usize,
        duplicates: get_u64(j, "duplicates")? as usize,
        blocked: get_u64(j, "blocked")? as usize,
        rsts: get_u64(j, "rsts")? as usize,
        unreachables: get_u64(j, "unreachables")? as usize,
        silent: get_u64(j, "silent")? as usize,
        skipped: get_u64(j, "skipped")? as usize,
        retries: get_u64(j, "retries")?,
        packets_sent: get_u64(j, "packets_sent")?,
        faults_injected: get_u64(j, "faults_injected")?,
        breaker_opened: get_u64(j, "breaker_opened")?,
        backoff_waited_us: get_u64(j, "backoff_waited_us")?,
        throttled_us: get_u64(j, "throttled_us")?,
        limited_seconds: f64::from_bits(get_u64(j, "limited_seconds_bits")?),
        // Absent in pre-attribution checkpoints (and untagged runs):
        // decode as empty so CHECKPOINT_VERSION stays 1.
        attribution: match j.get("attribution") {
            None | Some(Json::Null) => AttributionTable::new(),
            Some(a) => AttributionTable::from_json(a)?,
        },
    })
}

fn proto_by_index(idx: u64) -> Result<Protocol, String> {
    PROTOCOLS
        .into_iter()
        .find(|p| p.index() as u64 == idx)
        .ok_or_else(|| format!("unknown protocol index {idx}"))
}

/// The `[{proto, report}, …]` list a document stores cumulatively and a
/// write-ahead line stores for its one round.
fn reports_to_json(reports: &[(Protocol, ScanReport)]) -> Json {
    let entry = |(proto, report): &(Protocol, ScanReport)| {
        let mut o = Json::obj();
        o.set("proto", proto.index() as u64).set("report", report_to_json(report));
        o
    };
    Json::Arr(reports.iter().map(entry).collect())
}

fn reports_from_json(j: &Json) -> Result<Vec<(Protocol, ScanReport)>, String> {
    j.get("reports")
        .and_then(Json::as_arr)
        .ok_or("checkpoint missing reports")?
        .iter()
        .map(|entry| {
            let proto = proto_by_index(get_u64(entry, "proto")?)?;
            let report = report_from_json(entry.get("report").ok_or("report entry missing body")?)?;
            Ok((proto, report))
        })
        .collect()
}

/// Fold one round's per-protocol reports into the cumulative ones, by
/// position ([`same_protocols`] holds between the two) — the one operation
/// both the live run and a replayed write-ahead line advance reports
/// with, so `limited_seconds` adds up in the same order either way.
fn absorb_rounds(total: &mut [(Protocol, ScanReport)], round: Vec<(Protocol, ScanReport)>) {
    for ((_, total), (_, partial)) in total.iter_mut().zip(round) {
        total.absorb_round(partial);
    }
}

fn protocols_of(reports: &[(Protocol, ScanReport)]) -> Vec<Protocol> {
    reports.iter().map(|(proto, _)| *proto).collect()
}

/// Reports are folded by position, so a list that is not exactly one
/// report per protocol of `want`, in order, must be refused before it is
/// folded into (or from): a short list would index out of bounds and a
/// reordered one would add one protocol's rounds to another's report.
fn same_protocols(reports: &[(Protocol, ScanReport)], want: &[Protocol]) -> Result<(), String> {
    let have = protocols_of(reports);
    if have == want {
        return Ok(());
    }
    Err(format!("checkpoint reports cover {have:?}, expected one per protocol of {want:?} in that order"))
}

fn limiter_to_json(limiter: Option<&BucketSnapshot>) -> Json {
    let Some(s) = limiter else { return Json::Null };
    let mut o = Json::obj();
    o.set("rate", s.rate)
        .set("burst", s.burst)
        .set("tokens", s.tokens)
        .set("now", s.now)
        .set("refilled_at", s.refilled_at)
        .set("waited", s.waited)
        .set("stalls", s.stalls);
    o
}

fn limiter_from_json(j: &Json) -> Result<Option<BucketSnapshot>, String> {
    match j.get("limiter") {
        None | Some(Json::Null) => Ok(None),
        Some(l) => Ok(Some(BucketSnapshot {
            rate: get_u64(l, "rate")?,
            burst: get_u64(l, "burst")?,
            tokens: get_u64(l, "tokens")?,
            now: get_u64(l, "now")?,
            refilled_at: get_u64(l, "refilled_at")?,
            waited: get_u64(l, "waited")?,
            stalls: get_u64(l, "stalls")?,
        })),
    }
}

fn fault_rows_from_json(j: &Json) -> Result<Vec<(u128, u8, u32)>, String> {
    table(j, "fault_state")?
        .iter()
        .map(|row| {
            let ((domain, proto), [n]) = table_row("fault_state", row)?;
            Ok((domain, proto, n))
        })
        .collect()
}

/// One breaker as the map lists it: `(domain, protocol index)` and state.
type BreakerRow = ((u128, u8), BreakerState);

fn breaker_row_json(((domain, proto), state): BreakerRow) -> Json {
    let (tag, count) = state.encode();
    table_row_json(domain, proto, [tag.into(), count])
}

/// The part of a `breaker` object that changes from round to round, added
/// to `o`: the map's totals and the given rows (all of them in a
/// document, the changed ones in a write-ahead line).
fn breaker_state_json(mut o: Json, map: &BreakerMap, rows: impl Iterator<Item = BreakerRow>) -> Json {
    o.set("opened", map.opened())
        .set("skipped", map.skipped())
        .set("entries", Json::Arr(rows.map(breaker_row_json).collect()));
    o
}

/// The `entries` rows of a `breaker` object.
fn breaker_rows_from_json(breaker: &Json) -> Result<Vec<BreakerRow>, String> {
    table(breaker, "entries")?
        .iter()
        .map(|row| {
            let (key, [tag, count]) = table_row("breaker.entries", row)?;
            let state = u8::try_from(tag).ok().and_then(|t| BreakerState::decode(t, count));
            Ok((key, state.ok_or_else(|| format!("breaker.entries: unknown state tag {tag}"))?))
        })
        .collect()
}

fn counters_from_json(j: &Json) -> Result<BTreeMap<String, u64>, String> {
    j.get("counters")
        .and_then(Json::entries)
        .ok_or("checkpoint missing counters")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or("bad counter value")?)))
        .collect()
}

fn fingerprint_from_json(j: &Json) -> Result<u64, String> {
    j.get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "checkpoint missing fingerprint".to_string())
}

/// The write-ahead log that rides beside the checkpoint document at `path`.
fn wal_path(path: &Path) -> PathBuf {
    path.with_extension("wal")
}

impl CampaignCheckpoint {
    /// Encode as the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("version", CHECKPOINT_VERSION)
            .set("fingerprint", sos_obs::manifest::digest_hex(self.fingerprint))
            .set("done", self.done)
            .set("rounds", self.rounds);
        doc.set("reports", reports_to_json(&self.reports));
        doc.set("limiter", limiter_to_json(self.limiter.as_ref()));
        doc.set(
            "fault_state",
            Json::Arr(self.fault_state.iter().map(|&(d, p, n)| table_row_json(d, p, [n])).collect()),
        );
        doc.set(
            "breaker",
            match &self.breaker {
                None => Json::Null,
                Some(b) => {
                    let cfg = b.config();
                    let mut o = Json::obj();
                    o.set("prefix_len", u64::from(cfg.prefix_len))
                        .set("threshold", cfg.threshold)
                        .set("cooldown", cfg.cooldown);
                    breaker_state_json(o, b, b.iter())
                }
            },
        );
        doc.set("counters", &self.counters);
        doc
    }

    /// Parse the on-disk JSON document.
    pub fn from_json(doc: &Json) -> Result<CampaignCheckpoint, String> {
        let version = get_u64(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let breaker = match doc.get("breaker") {
            None | Some(Json::Null) => None,
            Some(b) => {
                let entries = breaker_rows_from_json(b)?;
                let prefix_len = get_u64(b, "prefix_len")?;
                if !(1..=128).contains(&prefix_len) {
                    return Err(format!("breaker.prefix_len {prefix_len} is outside 1..=128"));
                }
                let cfg = BreakerConfig {
                    prefix_len: prefix_len as u8,
                    threshold: get_u32(b, "threshold")?,
                    cooldown: get_u32(b, "cooldown")?,
                };
                Some(BreakerMap::restore(
                    cfg,
                    entries,
                    get_u64(b, "opened")?,
                    get_u64(b, "skipped")?,
                ))
            }
        };
        Ok(CampaignCheckpoint {
            fingerprint: fingerprint_from_json(doc)?,
            done: get_u64(doc, "done")? as usize,
            rounds: get_u64(doc, "rounds")? as usize,
            reports: reports_from_json(doc)?,
            limiter: limiter_from_json(doc)?,
            fault_state: fault_rows_from_json(doc)?,
            breaker,
            counters: counters_from_json(doc)?,
        })
    }

    /// One line of the write-ahead log: the round that ended at this
    /// state, as what it adds to the state before it — the round's own
    /// per-protocol `reports`, the per-prefix rows in `delta`, and the
    /// small absolute parts (progress, limiter, breaker totals, counters)
    /// whole. [`CampaignCheckpoint::fold`] is its inverse.
    // sos-lint: deterministic-root a replayed log must rebuild the identical state
    fn wal_line(&self, reports: Json, delta: &Delta) -> Json {
        let mut line = Json::obj();
        line.set("fingerprint", sos_obs::manifest::digest_hex(self.fingerprint))
            .set("done", self.done)
            .set("rounds", self.rounds)
            .set("reports", reports)
            .set("limiter", limiter_to_json(self.limiter.as_ref()));
        let fault = delta.fault.iter().map(|&((d, p), _, n)| table_row_json(d, p, [n]));
        line.set("fault_state", Json::Arr(fault.collect()));
        let breakers = delta.breaker.iter().map(|&(key, _, state)| (key, state));
        line.set(
            "breaker",
            self.breaker.as_ref().map_or(Json::Null, |b| breaker_state_json(Json::obj(), b, breakers)),
        );
        line.set("counters", &self.counters);
        line
    }

    /// Advance by one [`CampaignCheckpoint::wal_line`]. The density rows
    /// are folded into `fault`, which the caller holds keyed for the whole
    /// log (`fault_state` is a sorted list; re-sorting it per line would
    /// make a load quadratic in the campaign's length).
    ///
    /// A line this state already contains (`rounds` not beyond its own) is
    /// a leftover of a document rewrite that died before the log was
    /// removed, and is passed over. A line of another campaign, one that
    /// skips a round, and any damaged field or row is an error: nothing is
    /// narrowed into state nobody wrote, exactly as in the document.
    fn fold(&mut self, line: &Json, fault: &mut BTreeMap<(u128, u8), u32>) -> Result<(), String> {
        let rounds = get_u64(line, "rounds")? as usize;
        if rounds <= self.rounds {
            return Ok(());
        }
        let fingerprint = fingerprint_from_json(line)?;
        if fingerprint != self.fingerprint {
            return Err(format!(
                "fingerprint {} is not the checkpoint's {}",
                sos_obs::manifest::digest_hex(fingerprint),
                sos_obs::manifest::digest_hex(self.fingerprint),
            ));
        }
        if rounds != self.rounds + 1 {
            return Err(format!("round {rounds} follows round {}: a round is missing", self.rounds));
        }
        let done = get_u64(line, "done")? as usize;
        if done < self.done {
            return Err(format!("done {done} is behind the {} already done", self.done));
        }
        let round = reports_from_json(line)?;
        same_protocols(&round, &protocols_of(&self.reports))?;
        let limiter = limiter_from_json(line)?;
        let fault_rows = fault_rows_from_json(line)?;
        let breaker = match (line.get("breaker"), self.breaker.as_mut()) {
            (None | Some(Json::Null), None) => None,
            (Some(b @ Json::Obj(_)), Some(map)) => {
                Some((map, breaker_rows_from_json(b)?, get_u64(b, "opened")?, get_u64(b, "skipped")?))
            }
            _ => return Err("breaker: present on one side of the log only".to_string()),
        };
        let counters = counters_from_json(line)?;
        // Everything decoded: apply.
        absorb_rounds(&mut self.reports, round);
        self.done = done;
        self.rounds = rounds;
        self.limiter = limiter;
        fault.extend(fault_rows.into_iter().map(|(domain, proto, n)| ((domain, proto), n)));
        if let Some((map, entries, opened, skipped)) = breaker {
            map.advance(entries, opened, skipped);
        }
        self.counters = counters;
        Ok(())
    }

    /// Write the whole document to `path` (write-then-rename, so a kill
    /// mid write never corrupts the previous checkpoint), then remove the
    /// write-ahead log beside it: every round it held is in the document.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json().to_string_pretty())?;
        std::fs::rename(&tmp, path)?;
        let wal = wal_path(path);
        match std::fs::remove_file(&wal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(std::io::Error::new(e.kind(), format!("remove {}: {e}", wal.display())))
            }
            _ => Ok(()),
        }
    }

    /// Append the round that ended at this state to the write-ahead log
    /// beside `path`: one line, one `write_all`.
    fn append(&self, path: &Path, reports: Json, delta: &Delta) -> Result<(), String> {
        let wal = wal_path(path);
        let mut line = self.wal_line(reports, delta).to_string();
        line.push('\n');
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal)
            .and_then(|mut file| file.write_all(line.as_bytes()))
            .map_err(|e| format!("append checkpoint wal {}: {e}", wal.display()))
    }

    /// Load the checkpoint at `path`: the document, advanced by every
    /// complete line of the write-ahead log beside it (the rounds a run
    /// appended after it last wrote the document; none after a clean
    /// stop). A final line that is cut short is what a kill mid-append
    /// leaves and is dropped; any other damage is an error naming the log.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        let mut state = Self::from_json(&Json::parse(&text)?)?;
        let wal = wal_path(path);
        let log = match std::fs::read_to_string(&wal) {
            Ok(log) => log,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
            Err(e) => return Err(format!("read checkpoint wal {}: {e}", wal.display())),
        };
        let mut fault: BTreeMap<(u128, u8), u32> =
            std::mem::take(&mut state.fault_state).into_iter().map(|(d, p, n)| ((d, p), n)).collect();
        // Whatever follows the last newline is a line cut short.
        let mut rest = log.as_str();
        let mut number = 0usize;
        while let Some(newline) = rest.find('\n') {
            let (line, tail) = rest.split_at(newline + 1);
            number += 1;
            let bad = |e: String| format!("checkpoint wal {}: line {number}: {e}", wal.display());
            match Json::parse(line) {
                Ok(line) => state.fold(&line, &mut fault).map_err(bad)?,
                // A kill can tear the last line even after its newline is
                // visible; the journal reader makes the same allowance.
                Err(_) if tail.trim().is_empty() => break,
                Err(e) => return Err(bad(e)),
            }
            rest = tail;
        }
        state.fault_state = fault.into_iter().map(|((d, p), n)| (d, p, n)).collect();
        Ok(state)
    }
}

impl CampaignCheckpoint {
    /// The campaign's deterministic virtual clock, in microseconds: the
    /// sum of every protocol's integer backoff and throttle accounting.
    /// Both inputs are shard-summed integers, so the readout is
    /// bit-identical across shard counts (unlike `limited_seconds`, which
    /// max-merges across concurrent shards and is deliberately excluded).
    fn vclock_us(&self) -> u64 {
        self.reports
            .iter()
            .map(|(_, r)| r.backoff_waited_us + r.throttled_us)
            .sum()
    }

    /// Cumulative `(hits, packets)` across every protocol report — diffed
    /// around a round to label [`Event::RoundEnd`] with per-round deltas.
    fn hit_packet_totals(&self) -> (u64, u64) {
        self.reports.iter().fold((0, 0), |(h, p), (_, r)| {
            (h + r.hits.len() as u64, p + r.packets_sent)
        })
    }
}

/// The campaign-wide attribution table: every protocol report's table,
/// key-wise merged (order-invariant, like every other merge of it).
pub fn merged_attribution(reports: &[(Protocol, ScanReport)]) -> AttributionTable {
    let mut merged = AttributionTable::new();
    for (_, r) in reports {
        merged.merge(&r.attribution);
    }
    merged
}

/// One [`Event::Discovery`] per provenance source, in source order, from
/// the merged attribution table.
fn discovery_events(table: &AttributionTable) -> Vec<Event> {
    let event = |(source, t): (u8, SourceTotals)| Event::Discovery {
        source: source.into(),
        regions: t.regions,
        probes: t.probes,
        hits: t.hits,
        aliases: t.aliases,
        wasted: t.wasted,
    };
    table.by_source().into_iter().map(event).collect()
}

/// A per-prefix row a round wrote: its `(domain, protocol index)` key, the
/// value it replaced (`None` for a row the round created) and its value now.
type Changed<V> = ((u128, u8), Option<V>, V);

/// What one round changed in the two per-prefix tables, in key order. It
/// is computed once per boundary and is what both the write-ahead line
/// (the values now) and the journal's transition records (the step from
/// the value before) are built from.
struct Delta {
    fault: Vec<Changed<u32>>,
    breaker: Vec<Changed<BreakerState>>,
}

/// The rows of `now` that `before` lacks or holds with another value: one
/// walk down the two tables, both sorted by key. Rows are never removed,
/// so a key only `before` has does not occur and is passed over.
fn changed<V: Copy + PartialEq>(
    before: impl Iterator<Item = ((u128, u8), V)>,
    now: impl Iterator<Item = ((u128, u8), V)>,
) -> Vec<Changed<V>> {
    let mut before = before.peekable();
    let mut rows = Vec::new();
    for (key, value) in now {
        while before.next_if(|(k, _)| *k < key).is_some() {}
        let old = before.next_if(|(k, _)| *k == key).map(|(_, v)| v);
        if old != Some(value) {
            rows.push((key, old, value));
        }
    }
    rows
}

/// Breaker, then fault-epoch transition events for the rows a round
/// changed, each in sorted `(domain, proto)` order.
///
/// Transitions are detected by the **campaign** at round boundaries — the
/// shard workers never emit events, so the journal's event stream is
/// identical no matter how many shards raced through the round.
fn transitions(delta: &Delta, plan: Option<&FaultPlan>) -> Vec<Event> {
    let mut events = Vec::new();
    for &((domain, proto), before, breaker) in &delta.breaker {
        // Unseen breakers start life closed; their first appearance in
        // the closed state is not a transition.
        let from = before.map_or("closed", BreakerState::name);
        if from != breaker.name() {
            events.push(Event::Breaker {
                domain,
                proto,
                from: from.to_string(),
                to: breaker.name().to_string(),
            });
        }
    }
    // No plan means no active fault layer: nothing to journal.
    let Some(plan) = plan else { return events };
    for &((domain, proto), before, density) in &delta.fault {
        // An unseen domain starts from all-zero epochs.
        let before = before
            .map_or(FaultEpochs { burst: 0, blackhole: 0, throttle: 0 }, |n| plan.epochs_at(n));
        let readout = plan.epochs_at(density);
        for ((kind, now), (_, was)) in readout.families().into_iter().zip(before.families()) {
            if now != was {
                events.push(Event::FaultEpoch {
                    domain,
                    proto,
                    kind: kind.to_string(),
                    epoch: u64::from(now),
                });
            }
        }
    }
    events
}

/// Where a round boundary is written: the checkpoint file (with the
/// write-ahead log beside it), the journal and the `.prom` snapshot file,
/// each optional and independent.
struct Sinks<'o> {
    checkpoint: Option<&'o Path>,
    journal: Option<JournalWriter>,
    snapshot: Option<&'o Path>,
    /// Whether this invocation has written the checkpoint document yet:
    /// until it has, nothing on disk is known to be the state the log's
    /// next line would extend.
    document_written: bool,
}

impl<'o> Sinks<'o> {
    /// Open the journal (a resume appends and continues the sequence, a
    /// fresh run truncates) and note the two file paths.
    fn open(opts: &'o RunOptions, resuming: bool) -> Result<Self, String> {
        let journal = match &opts.journal_path {
            None => None,
            Some(path) => Some(
                if resuming { JournalWriter::append(path) } else { JournalWriter::create(path) }
                    .map_err(|e| format!("open journal {}: {e}", path.display()))?,
            ),
        };
        Ok(Sinks {
            checkpoint: opts.checkpoint_path.as_deref(),
            journal,
            snapshot: opts.snapshot_path.as_deref(),
            document_written: false,
        })
    }

    /// Whether anything is written at a round boundary at all.
    fn any(&self) -> bool {
        self.checkpoint.is_some() || self.journal.is_some() || self.snapshot.is_some()
    }

    /// Journal `make()`'s events at `state`'s virtual clock; nothing is
    /// built when no journal is configured.
    fn events<I: IntoIterator<Item = Event>>(
        &mut self,
        state: &CampaignCheckpoint,
        make: impl FnOnce() -> I,
    ) -> Result<(), String> {
        let Some(journal) = self.journal.as_mut() else { return Ok(()) };
        let vclock = state.vclock_us();
        for event in make() {
            journal
                .write(vclock, event)
                .map_err(|e| format!("write journal {}: {e}", journal.path().display()))?;
        }
        Ok(())
    }

    /// [`Sinks::events`] for one event.
    fn event(
        &mut self,
        state: &CampaignCheckpoint,
        make: impl FnOnce() -> Event,
    ) -> Result<(), String> {
        self.events(state, || [make()])
    }

    /// Make `state` durable and journal the write. `Ok(false)` when no
    /// checkpoint path is configured.
    ///
    /// `round` is what the round that just ended added (its own reports,
    /// encoded, and the rows it changed) and is appended to the
    /// write-ahead log as one line, so a boundary costs what its round
    /// touched. The whole document is written only where the file must
    /// stand on its own: at an invocation's first write (whatever is on
    /// disk may belong to another run), and when `round` is `None` — a
    /// stop or cancel, and the campaign's last boundary.
    fn persist(
        &mut self,
        state: &CampaignCheckpoint,
        round: Option<(Json, &Delta)>,
    ) -> Result<bool, String> {
        let Some(path) = self.checkpoint else { return Ok(false) };
        match round {
            Some((reports, delta)) if self.document_written => state.append(path, reports, delta)?,
            _ => {
                state
                    .save(path)
                    .map_err(|e| format!("write checkpoint {}: {e}", path.display()))?;
                self.document_written = true;
            }
        }
        self.event(state, || Event::CheckpointWrite {
            fingerprint: state.fingerprint,
            done: state.done as u64,
            rounds: state.rounds as u64,
        })?;
        Ok(true)
    }

    /// Journal `state`'s counters and rewrite the `.prom` file. The write
    /// is plain `fs::write` — the file is a monitoring surface, not a
    /// result artifact, so a torn read by a scraper is acceptable.
    fn snapshot(&mut self, state: &CampaignCheckpoint) -> Result<(), String> {
        self.event(state, || Event::Snapshot {
            fingerprint: state.fingerprint,
            done: state.done as u64,
            counters: state.counters.clone(),
        })?;
        if let Some(path) = self.snapshot {
            std::fs::write(path, sos_obs::render_prometheus(sos_obs::registry()))
                .map_err(|e| format!("write snapshot {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// A reusable multi-protocol campaign over one scanner.
pub struct Campaign<'a, T: Transport> {
    scanner: &'a mut Scanner<T>,
    protocols: Vec<Protocol>,
}

impl<'a, T: Transport> Campaign<'a, T> {
    /// Campaign over the study's four standard targets.
    pub fn standard(scanner: &'a mut Scanner<T>) -> Self {
        Campaign {
            scanner,
            protocols: PROTOCOLS.to_vec(),
        }
    }

    /// Campaign over a custom protocol list.
    pub fn new(scanner: &'a mut Scanner<T>, protocols: Vec<Protocol>) -> Self {
        Campaign { scanner, protocols }
    }

    /// The campaign's identity fingerprint: target list + protocol set +
    /// scanner configuration, hashed canonically. A checkpoint only
    /// resumes a campaign with the same fingerprint.
    fn fingerprint(&self, targets: &[Ipv6Addr]) -> u64 {
        // Hashed as it is formatted: the text is 33 bytes per target.
        let mut hash = Fnv1a64::default();
        for t in targets {
            let _ = write!(hash, "{:032x};", u128::from(*t));
        }
        let _ = write!(hash, "|{:?}|{:?}", self.protocols, self.scanner.config());
        hash.finish()
    }

    /// Re-read the scanner's cross-target machine state (limiter, fault
    /// densities, breaker map, counters) into `state` at a round boundary,
    /// handing back the per-prefix rows that differ from the ones it held:
    /// what the round since the previous boundary changed.
    // sos-lint: deterministic-root resume must replay to the identical stream
    fn refresh(&self, state: &mut CampaignCheckpoint) -> Delta {
        let lane = self.scanner.lane.snapshot();
        let delta = Delta {
            fault: changed(
                state.fault_state.iter().map(|&(d, p, n)| ((d, p), n)),
                lane.fault_rows.iter().map(|&(d, p, n)| ((d, p), n)),
            ),
            breaker: changed(
                state.breaker.iter().flat_map(BreakerMap::iter),
                lane.breaker.iter().flat_map(BreakerMap::iter),
            ),
        };
        state.limiter = lane.limiter;
        state.fault_state = lane.fault_rows;
        state.breaker = lane.breaker;
        state.counters = self.scanner.metrics().counters();
        delta
    }
}

impl<'a, T: Transport + Clone + Send> Campaign<'a, T> {
    /// Run (or resume) the campaign in checkpointable rounds.
    ///
    /// The target list is prepared once; rounds of
    /// `opts.checkpoint_every` prepared targets are then scanned on every
    /// protocol (sharded `opts.shards` ways). After each round the machine
    /// state is made durable at `opts.checkpoint_path` (when set; the whole
    /// document or one appended log line, see the module docs), and
    /// cancellation / `stop_after_rounds` is honored at the same
    /// boundaries. Passing the saved [`CampaignCheckpoint`] as `resume`
    /// restores every clock and counter and continues from the next
    /// round; the final [`CampaignRun`] is bit-identical to the
    /// uninterrupted run's.
    ///
    /// Errors on a checkpoint whose fingerprint does not match this
    /// campaign (different targets, protocols, or scanner config), and on
    /// the first journal, checkpoint or snapshot write that fails.
    pub fn run_with(
        &mut self,
        targets: &[Ipv6Addr],
        opts: &RunOptions,
        resume: Option<&CampaignCheckpoint>,
    ) -> Result<CampaignRun, String> {
        let _span = sos_obs::span_detail(
            "campaign",
            format!(
                "protos={} shards={} round={}",
                self.protocols.len(),
                opts.shards.max(1),
                opts.checkpoint_every
            ),
        );
        let fingerprint = self.fingerprint(targets);
        let mut template = ScanReport::default();
        // A resume re-prepares silently: the restored counter snapshot
        // already carries the original run's dedup/blocklist metrics.
        // Prepared targets carry global indices and the provenance tags
        // are keyed by them, so every round scans a plain sub-slice.
        let (prepared, tags) = self.scanner.prepare(
            targets.iter().copied(),
            resume.is_none(),
            opts.provenance.as_deref(),
            &mut template,
        );

        let mut state = resume.cloned().unwrap_or_else(|| CampaignCheckpoint {
            fingerprint,
            done: 0,
            rounds: 0,
            reports: self.protocols.iter().map(|&p| (p, template.clone())).collect(),
            limiter: None,
            fault_state: Vec::new(),
            breaker: None,
            counters: BTreeMap::new(),
        });
        if let Some(ckpt) = resume {
            if ckpt.fingerprint != fingerprint {
                return Err(format!(
                    "checkpoint fingerprint {} does not match campaign {} \
                     (different targets, protocols, or scanner config)",
                    sos_obs::manifest::digest_hex(ckpt.fingerprint),
                    sos_obs::manifest::digest_hex(fingerprint),
                ));
            }
            same_protocols(&ckpt.reports, &self.protocols)?;
            if ckpt.done > prepared.len() {
                return Err(format!(
                    "checkpoint claims {} done targets but only {} prepared",
                    ckpt.done,
                    prepared.len()
                ));
            }
            self.scanner.lane.restore(LaneState {
                limiter: ckpt.limiter,
                fault_rows: ckpt.fault_state.clone(),
                breaker: ckpt.breaker.clone(),
            });
            self.scanner.metrics().restore_counters(&ckpt.counters);
            self.scanner.metrics().add(RESUMED_TARGETS, ckpt.done as u64);
            sos_obs::debug!(
                "campaign resume: {}/{} targets done after {} rounds",
                ckpt.done,
                prepared.len(),
                ckpt.rounds
            );
        }
        let resumed_targets = state.done;

        let round_size = if opts.checkpoint_every == 0 {
            prepared.len().max(1)
        } else {
            opts.checkpoint_every
        };
        let shards = opts.shards.max(1);
        let snapshot_every = opts.snapshot_every.max(1);
        let mut rounds_this_run = 0usize;
        let mut completed = true;

        let mut sinks = Sinks::open(opts, resume.is_some())?;
        if sinks.any() {
            // The first boundary's baseline is what the scanner holds now
            // (state it carried in, or just restored), so a resume never
            // re-emits transitions the original run already journaled.
            self.refresh(&mut state);
        }
        sinks.event(&state, || match resume {
            Some(_) => Event::Resume {
                fingerprint,
                done: state.done as u64,
                rounds: state.rounds as u64,
            },
            None => Event::CampaignStart {
                fingerprint,
                targets: prepared.len() as u64,
                protocols: self.protocols.iter().map(|p| p.label().to_string()).collect(),
                shards: shards as u64,
                round_size: round_size as u64,
            },
        })?;

        while state.done < prepared.len() {
            let cancelled = opts
                .cancel
                .as_ref()
                // sos-lint: allow(conc-relaxed) advisory stop flag, read only at round boundaries
                .is_some_and(|c| c.load(Ordering::Relaxed));
            let stopped = opts
                .stop_after_rounds
                .is_some_and(|n| rounds_this_run >= n);
            if cancelled || stopped {
                completed = false;
                break;
            }
            let end = (state.done + round_size).min(prepared.len());
            sinks.event(&state, || Event::RoundStart {
                round: (state.rounds + 1) as u64,
                from: state.done as u64,
                to: end as u64,
            })?;
            let (hits_before, packets_before) = state.hit_packet_totals();
            // done <= end <= prepared.len(): end is clamped above, done
            // only ever advances to a previous end.
            let slice = &prepared[state.done..end];
            let round =
                self.scanner
                    .scan_prepared(slice, &self.protocols, shards, tags.as_deref());
            // Every boundary but the campaign's last can append the round
            // to the write-ahead log; its reports are encoded before they
            // are folded away.
            let appendable = (sinks.checkpoint.is_some() && end < prepared.len())
                .then(|| reports_to_json(&round));
            // One report per protocol, in order: a fresh state is built so
            // and a resumed one was checked before the first probe.
            absorb_rounds(&mut state.reports, round);
            state.done = end;
            state.rounds += 1;
            rounds_this_run += 1;
            if !sinks.any() {
                continue;
            }
            let delta = self.refresh(&mut state);
            let plan = self.scanner.transport().carried().and_then(Carried::fault_plan);
            sinks.events(&state, || transitions(&delta, plan))?;
            sinks.event(&state, || {
                let (hits_now, packets_now) = state.hit_packet_totals();
                Event::RoundEnd {
                    round: state.rounds as u64,
                    done: state.done as u64,
                    total: prepared.len() as u64,
                    hits: hits_now - hits_before,
                    packets: packets_now - packets_before,
                }
            })?;
            // Checkpoints always pair with a snapshot: after a kill, the
            // journal's last snapshot must mirror the on-disk checkpoint
            // exactly.
            let persisted = sinks.persist(&state, appendable.map(|reports| (reports, &delta)))?;
            if persisted || state.rounds % snapshot_every == 0 {
                sinks.snapshot(&state)?;
            }
        }

        if !completed {
            // Written even when the loop just wrote one: this is what
            // leaves a checkpoint behind a zero-round cancel, and a
            // stopped campaign as one whole document with no log.
            sinks.persist(&state, None)?;
        }

        // Discovery accounting: raise the attribution counters to the
        // campaign totals (raise-to, so a resumed run lands on the same
        // values as an uninterrupted one) and journal per-source totals.
        let attribution = merged_attribution(&state.reports);
        if !attribution.is_empty() {
            let (_, hits, _) = attribution.totals();
            self.scanner.metrics().raise_attribution(
                attribution.len() as u64,
                hits,
                attribution.wasted(),
            );
        }
        // The final snapshot carries the counters as just raised.
        state.counters = self.scanner.metrics().counters();

        sinks.events(&state, || discovery_events(&attribution))?;
        sinks.snapshot(&state)?;
        sinks.event(&state, || Event::CampaignEnd {
            completed,
            rounds: state.rounds as u64,
            resumed_targets: resumed_targets as u64,
        })?;

        Ok(CampaignRun {
            result: CampaignResult::from_reports(state.reports),
            completed,
            rounds: state.rounds,
            resumed_targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScannerConfig;
    use crate::provenance::Provenance;
    use crate::retry::RetryPolicy;
    use crate::sim::SimTransport;
    use netmodel::{World, WorldConfig};
    use std::sync::Arc;

    fn scanner(world: Arc<World>) -> Scanner<SimTransport> {
        Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::fixed(3),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    #[test]
    fn campaign_merges_per_protocol_results() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        // pick hosts with known, differing port sets
        let icmp_only = world
            .hosts()
            .iter()
            .find(|(a, r)| {
                !world.is_aliased(*a)
                    && r.responds(Protocol::Icmp)
                    && !r.responds(Protocol::Tcp80)
                    && !r.responds(Protocol::Tcp443)
                    && !r.responds(Protocol::Udp53)
            })
            .map(|(a, _)| a)
            .unwrap();
        let web = world
            .hosts()
            .iter()
            .find(|(a, r)| {
                !world.is_aliased(*a) && r.responds(Protocol::Tcp443) && r.responds(Protocol::Icmp)
            })
            .map(|(a, _)| a)
            .unwrap();
        let dead: Ipv6Addr = "3fff::dead".parse().unwrap();

        let mut s = scanner(world.clone());
        let mut campaign = Campaign::standard(&mut s);
        let result = campaign
            .run_with(&[icmp_only, web, dead], &RunOptions::default(), None)
            .unwrap()
            .result;

        assert_eq!(result.reports.len(), 4);
        assert!(result.ports(icmp_only).contains(Protocol::Icmp));
        assert!(!result.ports(icmp_only).contains(Protocol::Tcp443));
        assert!(result.ports(web).contains(Protocol::Tcp443));
        assert!(result.ports(dead).is_empty());
        assert_eq!(result.responsive_count(), 2);
        assert!(result.packets_sent() >= 12, "3 targets × 4 protocols");
        // merged view matches ground truth for the sampled hosts
        for (addr, ports) in result.iter() {
            for p in ports.iter() {
                assert!(world.truth_responds(addr, p), "{addr} on {p}");
            }
        }
    }

    #[test]
    fn custom_protocol_subset() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let target = world
            .hosts()
            .iter()
            .find(|(a, r)| !world.is_aliased(*a) && r.responds(Protocol::Icmp))
            .map(|(a, _)| a)
            .unwrap();
        let mut s = scanner(world);
        let mut campaign = Campaign::new(&mut s, vec![Protocol::Icmp]);
        let result = campaign.run_with(&[target], &RunOptions::default(), None).unwrap().result;
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.responsive_on(Protocol::Icmp), 1);
        assert_eq!(result.responsive_on(Protocol::Udp53), 0);
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let ckpt = CampaignCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            done: 42,
            rounds: 3,
            reports: vec![(
                Protocol::Icmp,
                ScanReport {
                    hits: vec!["2001:db8::1".parse().unwrap()],
                    probed: 10,
                    duplicates: 1,
                    blocked: 2,
                    rsts: 0,
                    unreachables: 3,
                    silent: 6,
                    skipped: 4,
                    retries: 7,
                    packets_sent: 17,
                    faults_injected: 5,
                    breaker_opened: 1,
                    backoff_waited_us: 125_000,
                    throttled_us: 1_500_000,
                    limited_seconds: 0.1 + 0.2, // deliberately non-exact
                    attribution: {
                        let mut t = AttributionTable::new();
                        let p = Provenance { source: 2, region: 7, seed_digest: 0xfeed, round: 1 };
                        t.record_probe(p);
                        t.record_hit(p);
                        t
                    },
                },
            )],
            limiter: Some(BucketSnapshot {
                rate: 100.0f64.to_bits(),
                burst: 100.0f64.to_bits(),
                tokens: 3.7f64.to_bits(),
                now: 12.34f64.to_bits(),
                refilled_at: 12.0f64.to_bits(),
                waited: 0.5f64.to_bits(),
                stalls: 9,
            }),
            fault_state: vec![(0x2001_0db8, 0, 17), (u128::MAX, 3, 1)],
            breaker: Some(BreakerMap::restore(
                BreakerConfig { prefix_len: 48, threshold: 8, cooldown: 32 },
                [(0x2001_0db8, 0, 1, 5), (0x2001_0db9, 2, 2, 0)]
                    .map(|(domain, proto, tag, count)| ((domain, proto), BreakerState::decode(tag, count).unwrap())),
                2,
                11,
            )),
            counters: [("probe.hits".to_string(), 4u64)].into_iter().collect(),
        };
        let doc = ckpt.to_json();
        let text = doc.to_string_pretty();
        let back = CampaignCheckpoint::from_json(&Json::parse(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(back, ckpt, "checkpoint must round-trip bit-exactly");
    }

    /// Checkpoints written before the fingerprint was streamed must still
    /// resume: the digest equals hashing the old one-string rendering.
    #[test]
    fn fingerprint_is_the_hash_of_the_canonical_text() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let targets: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).take(5).collect();
        let mut s = scanner(world);
        let campaign = Campaign::new(&mut s, vec![Protocol::Icmp, Protocol::Udp53]);
        let mut text = String::new();
        for t in &targets {
            write!(text, "{:032x};", u128::from(*t)).unwrap();
        }
        write!(text, "|{:?}|{:?}", campaign.protocols, campaign.scanner.config()).unwrap();
        assert_eq!(
            campaign.fingerprint(&targets),
            sos_obs::manifest::fnv1a64(text.as_bytes())
        );
    }

    #[test]
    fn changed_lists_new_and_rewritten_rows_in_key_order() {
        let before = [((1, 0), 5u32), ((2, 0), 7), ((2, 1), 9), ((4, 0), 1)];
        let now = [((0, 3), 2u32), ((1, 0), 5), ((2, 0), 8), ((2, 1), 9), ((3, 0), 1), ((4, 0), 0)];
        assert_eq!(
            changed(before.into_iter(), now.into_iter()),
            [((0, 3), None, 2), ((2, 0), Some(7), 8), ((3, 0), None, 1), ((4, 0), Some(1), 0)]
        );
        assert!(changed(now.into_iter(), now.into_iter()).is_empty());
        // A key only `before` holds is passed over, not reported.
        assert_eq!(changed(before.into_iter(), [((4, 0), 1u32)].into_iter()), []);
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let targets: Vec<Ipv6Addr> =
            world.hosts().iter().map(|(a, _)| a).take(4).collect();
        let mut s = scanner(world);
        let mut campaign = Campaign::new(&mut s, vec![Protocol::Icmp]);
        let bogus = CampaignCheckpoint {
            fingerprint: 1,
            done: 0,
            rounds: 0,
            reports: Vec::new(),
            limiter: None,
            fault_state: Vec::new(),
            breaker: None,
            counters: BTreeMap::new(),
        };
        let err = campaign
            .run_with(&targets, &RunOptions::default(), Some(&bogus))
            .expect_err("foreign checkpoint must be refused");
        assert!(err.contains("fingerprint"), "{err}");
    }
}
