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
//! and so do the small parts of the cross-target machine state (the rate
//! limiter's virtual clock, the breaker tuning and totals, the metric
//! counters), re-read from the scanner at each round boundary. The two
//! per-prefix tables (the fault layer's density clocks, circuit-breaker
//! states) stay in the scanner: they are read whole only just before a
//! state line is written. Everything a boundary emits is a view of that
//! state and of the per-prefix rows the round changed: the journal's
//! breaker / fault-epoch records are the steps the rows took, the counter
//! snapshot (journal record and `.prom` file, one cadence) carries the
//! state's counters, and the checkpoint is the state's serialization.
//!
//! **A round's delta is what its tasks hand back.** A round's tasks are
//! lent exactly the density and breaker rows of their targets — a
//! one-protocol, one-shard round too, as one task — and the scanner diffs
//! each task's rows at reclaim against the rows it was lent (the round's
//! `Delta`), so a boundary costs what its round touched. Lines are
//! written straight into a reused buffer ([`JsonWriter`]) — no JSON tree
//! is built — and a boundary's journal records go out in one write.
//!
//! The checkpoint is one append-only JSON-lines file. **Line 1 is the
//! state** — the whole of it — and is written where the file must stand
//! on its own: at an invocation's first boundary, on a stop or cancel,
//! and at the campaign's last boundary, each time as a new one-line file
//! renamed over the old one. **Every later line is one round**, appended
//! at every other boundary: the same keys, holding what the round added —
//! its own per-protocol reports and the rows it changed — so a boundary
//! costs what its round touched, not what the campaign has accumulated.
//! [`CampaignCheckpoint::load`] reads line 1 and folds the round lines
//! back in.
//!
//! A killed campaign resumed from its last checkpoint produces a
//! [`CampaignRun`] **bit-identical** to the uninterrupted run's, wherever
//! the kill fell: every piece of cross-target state is keyed by
//! `(prefix-or-address, protocol)` and restored exactly, floats travel as
//! raw bits, and a round line folds with the operation the live run used.
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
use sos_obs::json::{from_hex, hex128, read_lines, Json, JsonWriter};
use sos_obs::manifest::Fnv1a64;
use sos_obs::{Event, JournalWriter};
use v6addr::AddrMap;

use crate::carried::Carried;
use crate::engine::{Delta, LaneState, ScanReport, Scanner};
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
                responsive
                    .entry(u128::from(hit))
                    .or_insert(PortSet::EMPTY)
                    .insert(*proto);
            }
        }
        CampaignResult {
            responsive,
            reports,
        }
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
        self.responsive
            .values()
            .filter(|p| p.contains(proto))
            .count()
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
    /// Where the checkpoint is kept, made durable after every round: one
    /// file whose first line is the state and whose later lines are the
    /// rounds since it was written (`<path>.tmp` is used while line 1 is
    /// rewritten) — read it back with [`CampaignCheckpoint::load`]. `None`
    /// disables persistence (rounds and cancellation still apply).
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
    /// Where to write each counter snapshot (see `snapshot_every`) as
    /// Prometheus-style text ([`sos_obs::render_prometheus`]) — the same
    /// counters the journal's `snapshot` record and the checkpoint carry,
    /// whether or not a journal is configured. `None` disables.
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
/// everything needed to resume a killed campaign bit-identically. A
/// checkpoint line is its serialization: compact JSON (`u128` addresses
/// as 32-digit hex strings, floats as `f64::to_bits`), guarded by a
/// fingerprint over the target list, protocol set, and scanner
/// configuration. A round line is the same encoding of the part of the
/// state one round changed, and decodes to a value of this type too.
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

/// Write one `[domain, protocol index, N counts…]` row of the
/// `fault_state` and `breaker.entries` tables.
fn write_row<const N: usize>(w: &mut JsonWriter, (domain, proto): (u128, u8), counts: [u32; N]) {
    w.arr().hex128(domain).u64(proto.into());
    for n in counts {
        w.u64(n.into());
    }
    w.end_arr();
}

/// Decode a row [`write_row`] wrote. A protocol index no protocol has
/// and a count over `u32::MAX` are errors naming `table`: narrowing them
/// would resume the campaign on state nobody wrote.
fn table_row<const N: usize>(table: &str, row: &Json) -> Result<((u128, u8), [u32; N]), String> {
    let bad = |what: &str| format!("{table}: {what}");
    let Some([domain, proto, counts @ ..]) = row.as_arr().filter(|r| r.len() == 2 + N) else {
        return Err(bad("row is not [domain, proto, counts…]"));
    };
    let proto = proto
        .as_u64()
        .ok_or_else(|| bad("protocol index is not an integer"))?;
    let proto = proto_by_index(proto).map_err(|e| bad(&e))?.index() as u8;
    let mut out = [0u32; N];
    for (slot, count) in out.iter_mut().zip(counts) {
        *slot = count
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad("count is not an integer that fits u32"))?;
    }
    Ok((
        (
            from_hex(domain).ok_or_else(|| bad("domain is not hex"))?,
            proto,
        ),
        out,
    ))
}

/// Both encoders write a per-prefix table's rows in strictly increasing
/// `(domain, protocol)` order, so a key that repeats or goes back is damage
/// named after `table`: decoding it would let the last row win.
fn in_key_order(table: &str, keys: impl Iterator<Item = (u128, u8)>) -> Result<(), String> {
    let mut last = None;
    for (row, key) in keys.enumerate() {
        if last.replace(key).is_some_and(|before| before >= key) {
            return Err(format!(
                "{table}: row {} repeats or goes back on the key before it",
                row + 1
            ));
        }
    }
    Ok(())
}

fn write_report(w: &mut JsonWriter, r: &ScanReport) {
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
    w.obj().key("hits").arr();
    for hit in hits {
        w.hex128(u128::from(*hit));
    }
    w.end_arr();
    for (key, n) in [
        ("probed", *probed as u64),
        ("duplicates", *duplicates as u64),
        ("blocked", *blocked as u64),
        ("rsts", *rsts as u64),
        ("unreachables", *unreachables as u64),
        ("silent", *silent as u64),
        ("skipped", *skipped as u64),
        ("retries", *retries),
        ("packets_sent", *packets_sent),
        ("faults_injected", *faults_injected),
        ("breaker_opened", *breaker_opened),
        ("backoff_waited_us", *backoff_waited_us),
        ("throttled_us", *throttled_us),
        ("limited_seconds_bits", limited_seconds.to_bits()),
    ] {
        w.key(key).u64(n);
    }
    if !attribution.is_empty() {
        w.key("attribution").json(&attribution.to_json());
    }
    w.end_obj();
}

fn report_from_json(j: &Json) -> Result<ScanReport, String> {
    let hits = j
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or("checkpoint report missing hits")?
        .iter()
        .map(|h| {
            from_hex::<u128>(h)
                .map(Ipv6Addr::from)
                .ok_or("checkpoint report: a hit is not hex")
        })
        .collect::<Result<Vec<_>, _>>()?;
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

/// The `[{proto, report}, …]` list a state line stores cumulatively and a
/// round line stores for its one round.
fn write_reports(w: &mut JsonWriter, reports: &[(Protocol, ScanReport)]) {
    w.arr();
    for (proto, report) in reports {
        w.obj().key("proto").u64(proto.index() as u64).key("report");
        write_report(w, report);
        w.end_obj();
    }
    w.end_arr();
}

/// Fold one round's per-protocol reports into the cumulative ones, by
/// position ([`same_protocols`] holds between the two) — the one operation
/// both the live run and a replayed round line advance reports with, so
/// `limited_seconds` adds up in the same order either way.
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
    Err(format!(
        "checkpoint reports cover {have:?}, expected one per protocol of {want:?} in that order"
    ))
}

/// One breaker as the map lists it: `(domain, protocol index)` and state.
type BreakerRow = ((u128, u8), BreakerState);

impl CampaignCheckpoint {
    /// The checkpoint's first line — the whole state — as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut line = JsonWriter::default();
        self.write_state(&mut line);
        #[expect(clippy::expect_used, reason = "the writer's lines are canonical JSON")]
        Json::parse(line.as_str()).expect("a checkpoint line parses")
    }

    /// Write the checkpoint's first line: the whole state.
    fn write_state(&self, w: &mut JsonWriter) {
        let fault = self.fault_state.iter().map(|&(d, p, n)| ((d, p), n));
        let breakers = self.breaker.iter().flat_map(BreakerMap::entries);
        self.encode_line(w, &self.reports, fault, breakers);
    }

    /// The one checkpoint line encoder, `\n` included. The state line
    /// passes every row and the cumulative `reports`; a round line passes
    /// the rows the round changed and the round's own reports, and the
    /// small absolute parts (progress, limiter, breaker tuning and totals,
    /// counters) are whole on both. [`CampaignCheckpoint::from_json`]
    /// decodes either.
    fn encode_line(
        &self,
        w: &mut JsonWriter,
        reports: &[(Protocol, ScanReport)],
        fault: impl Iterator<Item = ((u128, u8), u32)>,
        breakers: impl Iterator<Item = BreakerRow>,
    ) {
        w.obj().key("version").u64(CHECKPOINT_VERSION);
        w.key("fingerprint")
            .str(&sos_obs::manifest::digest_hex(self.fingerprint));
        w.key("done")
            .u64(self.done as u64)
            .key("rounds")
            .u64(self.rounds as u64);
        w.key("reports");
        write_reports(w, reports);
        w.key("limiter");
        match &self.limiter {
            None => w.null(),
            Some(s) => {
                w.obj()
                    .key("rate")
                    .u64(s.rate)
                    .key("burst")
                    .u64(s.burst)
                    .key("tokens")
                    .u64(s.tokens);
                w.key("now")
                    .u64(s.now)
                    .key("refilled_at")
                    .u64(s.refilled_at);
                w.key("waited")
                    .u64(s.waited)
                    .key("stalls")
                    .u64(s.stalls)
                    .end_obj()
            }
        };
        w.key("fault_state").arr();
        for (key, n) in fault {
            write_row(w, key, [n]);
        }
        w.end_arr().key("breaker");
        match &self.breaker {
            None => w.null(),
            Some(map) => {
                let cfg = map.config();
                w.obj().key("prefix_len").u64(cfg.prefix_len.into());
                w.key("threshold")
                    .u64(cfg.threshold.into())
                    .key("cooldown")
                    .u64(cfg.cooldown.into());
                w.key("opened")
                    .u64(map.opened())
                    .key("skipped")
                    .u64(map.skipped());
                w.key("entries").arr();
                for (key, state) in breakers {
                    let (tag, count) = state.encode();
                    write_row(w, key, [tag.into(), count]);
                }
                w.end_arr().end_obj()
            }
        };
        w.key("counters").obj();
        for (name, n) in &self.counters {
            w.key(name).u64(*n);
        }
        w.end_obj().end_obj().end_line();
    }

    /// Decode one checkpoint line: the state, or a round as a state that
    /// holds the round's own reports and changed rows. A field or row
    /// that is damaged is an error naming it, never narrowed into state
    /// nobody wrote.
    pub fn from_json(line: &Json) -> Result<CampaignCheckpoint, String> {
        let version = get_u64(line, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let breaker = match line.get("breaker") {
            None | Some(Json::Null) => None,
            Some(b) => {
                let entries = table(b, "entries")?
                    .iter()
                    .map(|row| {
                        let (key, [tag, count]) = table_row("breaker.entries", row)?;
                        let state = u8::try_from(tag)
                            .ok()
                            .and_then(|t| BreakerState::decode(t, count));
                        Ok((
                            key,
                            state.ok_or_else(|| {
                                format!("breaker.entries: unknown state tag {tag}")
                            })?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                in_key_order("breaker.entries", entries.iter().map(|&(key, _)| key))?;
                let prefix_len = get_u64(b, "prefix_len")?;
                if !(1..=128).contains(&prefix_len) {
                    return Err(format!(
                        "breaker.prefix_len {prefix_len} is outside 1..=128"
                    ));
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
        let reports = table(line, "reports")?.iter().map(|entry| {
            let proto = proto_by_index(get_u64(entry, "proto")?)?;
            Ok((
                proto,
                report_from_json(entry.get("report").ok_or("report entry missing body")?)?,
            ))
        });
        let limiter = match line.get("limiter") {
            None | Some(Json::Null) => None,
            Some(l) => Some(BucketSnapshot {
                rate: get_u64(l, "rate")?,
                burst: get_u64(l, "burst")?,
                tokens: get_u64(l, "tokens")?,
                now: get_u64(l, "now")?,
                refilled_at: get_u64(l, "refilled_at")?,
                waited: get_u64(l, "waited")?,
                stalls: get_u64(l, "stalls")?,
            }),
        };
        let fault_state = table(line, "fault_state")?
            .iter()
            .map(|row| {
                let ((domain, proto), [n]) = table_row("fault_state", row)?;
                Ok((domain, proto, n))
            })
            .collect::<Result<Vec<_>, String>>()?;
        in_key_order(
            "fault_state",
            fault_state
                .iter()
                .map(|&(domain, proto, _)| (domain, proto)),
        )?;
        let counters = line
            .get("counters")
            .and_then(Json::entries)
            .ok_or("checkpoint missing counters")?;
        let counters = counters
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or("bad counter value")?)));
        Ok(CampaignCheckpoint {
            fingerprint: line
                .get("fingerprint")
                .and_then(from_hex)
                .ok_or("checkpoint field \"fingerprint\" is missing or not hex")?,
            done: get_u64(line, "done")? as usize,
            rounds: get_u64(line, "rounds")? as usize,
            reports: reports.collect::<Result<_, String>>()?,
            limiter,
            fault_state,
            breaker,
            counters: counters.collect::<Result<_, String>>()?,
        })
    }

    /// Advance by one decoded round line. Its density rows are folded into
    /// `fault`, which the caller holds keyed for the whole file
    /// (`fault_state` is a sorted list; re-sorting it per line would make a
    /// load quadratic in the campaign's length). A line of another
    /// campaign, one that is not the next round, progress going backwards,
    /// and reports or a breaker that do not match this state's are errors.
    fn fold(&mut self, round: Self, fault: &mut BTreeMap<(u128, u8), u32>) -> Result<(), String> {
        if round.fingerprint != self.fingerprint {
            return Err(format!(
                "fingerprint {} is not the checkpoint's {}",
                sos_obs::manifest::digest_hex(round.fingerprint),
                sos_obs::manifest::digest_hex(self.fingerprint),
            ));
        }
        let (rounds, done) = (round.rounds, round.done);
        if rounds != self.rounds + 1 {
            return Err(format!(
                "round {rounds} follows round {}: a round is missing or repeated",
                self.rounds
            ));
        }
        if done < self.done {
            return Err(format!(
                "done {done} is behind the {} already done",
                self.done
            ));
        }
        same_protocols(&round.reports, &protocols_of(&self.reports))?;
        match (self.breaker.as_mut(), round.breaker) {
            (None, None) => {}
            (Some(map), Some(line)) => map.advance(line.entries(), line.opened(), line.skipped()),
            _ => return Err("breaker: on one of the state and the round line only".to_string()),
        }
        absorb_rounds(&mut self.reports, round.reports);
        self.done = done;
        self.rounds = rounds;
        self.limiter = round.limiter;
        fault.extend(
            round
                .fault_state
                .into_iter()
                .map(|(domain, proto, n)| ((domain, proto), n)),
        );
        self.counters = round.counters;
        Ok(())
    }

    /// Write the state as a one-line checkpoint at `path`: to `<path>.tmp`,
    /// then renamed over `path`, so a kill mid-write never corrupts the
    /// previous checkpoint, and the one rename replaces its round lines.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut line = JsonWriter::default();
        self.write_state(&mut line);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, line.as_str())?;
        std::fs::rename(&tmp, path)
    }

    /// Load the checkpoint at `path`: its first line, advanced by every
    /// round line after it. A file that is one JSON document is the state
    /// alone — what a stop or a completed run leaves, and the
    /// pretty-printed document older versions wrote (a `.wal` file they
    /// left beside it is not read: resuming redoes those rounds). Lines
    /// are read by [`read_lines`]: a last line cut short or torn by a kill
    /// is dropped, and any other damage is an error naming the path and
    /// the line.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        let at =
            |number: usize, e: String| format!("checkpoint {}: line {number}: {e}", path.display());
        let whole = Json::parse(&text);
        let mut lines = match &whole {
            Ok(state) => vec![(1, Self::from_json(state).map_err(|e| at(1, e))?)],
            Err(_) => {
                read_lines(&text, |number, line| {
                    Ok((number, Self::from_json(&Json::parse(line)?)?))
                })
                .map_err(|bad| at(bad.number, bad.error))?
                .0
            }
        }
        .into_iter();
        // Nothing complete to start from: say why the file is not one
        // document either.
        let Some((_, mut state)) = lines.next() else {
            return Err(at(1, whole.err().unwrap_or_default()));
        };
        if lines.as_slice().is_empty() {
            return Ok(state);
        }
        let mut fault: BTreeMap<(u128, u8), u32> = std::mem::take(&mut state.fault_state)
            .into_iter()
            .map(|(d, p, n)| ((d, p), n))
            .collect();
        for (number, round) in lines {
            state.fold(round, &mut fault).map_err(|e| at(number, e))?;
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
        let before = before.map_or(
            FaultEpochs {
                burst: 0,
                blackhole: 0,
                throttle: 0,
            },
            |n| plan.epochs_at(n),
        );
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

/// The file `path` names, for telling whether two sink paths are one
/// file: its directory resolved (`.`, `..` and links; the current
/// directory for a bare name) joined with its file name, so `./x.json`
/// and `x.json` are one. A path whose directory does not resolve is
/// compared as written — nothing can be opened there anyway.
fn file_identity(path: &Path) -> PathBuf {
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    match (dir.canonicalize(), path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => path.to_path_buf(),
    }
}

/// Where a round boundary is written: the checkpoint file, the journal and
/// the `.prom` snapshot file, each optional and independent.
struct Sinks<'o> {
    checkpoint: Option<&'o Path>,
    journal: Option<JournalWriter>,
    snapshot: Option<&'o Path>,
    /// Whether this invocation has written the checkpoint's state line
    /// yet: until it has, nothing on disk is known to be the state the
    /// next round line would extend.
    state_written: bool,
    /// The round line to append, reused from boundary to boundary.
    line: JsonWriter,
}

impl<'o> Sinks<'o> {
    /// Refuse files that coincide — the checkpoint, the `<checkpoint>.tmp`
    /// it is rewritten through, the journal and the snapshot — then open
    /// the journal (a resume appends and continues the sequence, a fresh
    /// run truncates) and note the two other paths.
    fn open(opts: &'o RunOptions, resuming: bool) -> Result<Self, String> {
        let tmp = opts
            .checkpoint_path
            .as_ref()
            .map(|p| p.with_extension("tmp"));
        let files = [
            ("checkpoint", opts.checkpoint_path.as_deref()),
            ("checkpoint's temporary file", tmp.as_deref()),
            ("journal", opts.journal_path.as_deref()),
            ("snapshot", opts.snapshot_path.as_deref()),
        ];
        let files: Vec<(&str, &Path, PathBuf)> = files
            .into_iter()
            .filter_map(|(what, p)| Some((what, p?, file_identity(p?))))
            .collect();
        for (i, (what, path, file)) in files.iter().enumerate() {
            if let Some((other, first, _)) =
                files[..i].iter().find(|(_, _, earlier)| earlier == file)
            {
                let (first, path) = (first.display(), path.display());
                return Err(format!(
                    "the {other} {first} and the {what} {path} are the same file"
                ));
            }
        }
        let journal = match &opts.journal_path {
            None => None,
            Some(path) => Some(
                if resuming {
                    JournalWriter::append(path)
                } else {
                    JournalWriter::create(path)
                }
                .map_err(|e| format!("open journal {}: {e}", path.display()))?,
            ),
        };
        Ok(Sinks {
            checkpoint: opts.checkpoint_path.as_deref(),
            journal,
            snapshot: opts.snapshot_path.as_deref(),
            state_written: false,
            line: JsonWriter::default(),
        })
    }

    /// Whether anything is written at a round boundary at all.
    fn any(&self) -> bool {
        self.checkpoint.is_some() || self.journal.is_some() || self.snapshot.is_some()
    }

    /// Journal `make()`'s events at `state`'s virtual clock, in one write;
    /// nothing is built when no journal is configured.
    fn events<I: IntoIterator<Item = Event>>(
        &mut self,
        state: &CampaignCheckpoint,
        make: impl FnOnce() -> I,
    ) -> Result<(), String> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        journal
            .write_batch(state.vclock_us(), make())
            .map_err(|e| format!("write journal {}: {e}", journal.path().display()))
    }

    /// [`Sinks::events`] for one event.
    fn event(
        &mut self,
        state: &CampaignCheckpoint,
        make: impl FnOnce() -> Event,
    ) -> Result<(), String> {
        self.events(state, || [make()])
    }

    /// Encode the round that ends at `state` as the line the checkpoint
    /// will append — `round` is its own per-protocol reports, not yet
    /// absorbed into `state`, and `delta` the rows it changed.
    fn encode_round(
        &mut self,
        state: &CampaignCheckpoint,
        round: &[(Protocol, ScanReport)],
        delta: &Delta,
    ) {
        self.line.clear();
        let fault = delta.fault.iter().map(|&(key, _, n)| (key, n));
        let breakers = delta.breaker.iter().map(|&(key, _, state)| (key, state));
        state.encode_line(&mut self.line, round, fault, breakers);
    }

    /// Make `state` durable and journal the write. `Ok(false)` when no
    /// checkpoint path is configured.
    ///
    /// With `append`, the round line [`Sinks::encode_round`] encoded is
    /// appended to the checkpoint in one `write_all`, so a boundary costs
    /// what its round touched; the file is never created there — a round
    /// line means nothing without the state line before it. Otherwise the
    /// file is rewritten as the one state line: at an invocation's first
    /// write (whatever is on disk may belong to another run), on a stop or
    /// cancel, and at the campaign's last boundary.
    fn persist(&mut self, state: &CampaignCheckpoint, append: bool) -> Result<bool, String> {
        let Some(path) = self.checkpoint else {
            return Ok(false);
        };
        if append {
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(self.line.as_str().as_bytes()))
                .map_err(|e| format!("append checkpoint {}: {e}", path.display()))?;
        } else {
            state
                .save(path)
                .map_err(|e| format!("write checkpoint {}: {e}", path.display()))?;
            self.state_written = true;
        }
        self.event(state, || Event::CheckpointWrite {
            fingerprint: state.fingerprint,
            done: state.done as u64,
            rounds: state.rounds as u64,
        })?;
        Ok(true)
    }

    /// Journal `state`'s counters and rewrite the `.prom` file with the
    /// same map. The write is plain `fs::write` — the file is a monitoring
    /// surface, not a result artifact, so a torn read by a scraper is
    /// acceptable.
    fn snapshot(&mut self, state: &CampaignCheckpoint) -> Result<(), String> {
        self.event(state, || Event::Snapshot {
            fingerprint: state.fingerprint,
            done: state.done as u64,
            counters: state.counters.clone(),
        })?;
        if let Some(path) = self.snapshot {
            std::fs::write(path, sos_obs::render_prometheus(&state.counters))
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
        // Hashed as it is formatted: the text is 33 bytes per target, the
        // hex digits of its address and a `;`.
        let mut hash = Fnv1a64::default();
        for t in targets {
            hash.update(&hex128(u128::from(*t)));
            hash.update(b";");
        }
        let _ = write!(hash, "|{:?}|{:?}", self.protocols, self.scanner.config());
        hash.finish()
    }

    /// Read the scanner's machine state into `state` at a round boundary:
    /// the limiter, the breaker's tuning and totals and the counters,
    /// which are small. The two per-prefix tables are read — whole — only
    /// with `rows`, just before a state line is written; between state
    /// lines `state` holds none of their rows, and a round line takes the
    /// round's from its [`Delta`].
    fn read_state(&self, state: &mut CampaignCheckpoint, rows: bool) {
        let lane = self.scanner.lane.snapshot(rows);
        state.limiter = lane.limiter;
        state.fault_state = lane.fault_rows;
        state.breaker = lane.breaker;
        state.counters = self.scanner.metrics().counters();
    }
}

impl<'a, T: Transport + Clone + Send> Campaign<'a, T> {
    /// Run (or resume) the campaign in checkpointable rounds.
    ///
    /// The target list is prepared once; rounds of
    /// `opts.checkpoint_every` prepared targets are then scanned on every
    /// protocol (sharded `opts.shards` ways). After each round the machine
    /// state is made durable at `opts.checkpoint_path` (when set; the file
    /// rewritten as one state line, or one round line appended, see the
    /// module docs), and
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
            reports: self
                .protocols
                .iter()
                .map(|&p| (p, template.clone()))
                .collect(),
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
            self.scanner
                .metrics()
                .add(RESUMED_TARGETS, ckpt.done as u64);
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
        sinks.event(&state, || match resume {
            Some(_) => Event::Resume {
                fingerprint,
                done: state.done as u64,
                rounds: state.rounds as u64,
            },
            None => Event::CampaignStart {
                fingerprint,
                targets: prepared.len() as u64,
                protocols: self
                    .protocols
                    .iter()
                    .map(|p| p.label().to_string())
                    .collect(),
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
            let stopped = opts.stop_after_rounds.is_some_and(|n| rounds_this_run >= n);
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
            // Only a boundary that writes anything needs the rows the
            // round changed.
            let mut delta = sinks.any().then(Delta::default);
            let round = self.scanner.scan_prepared(
                slice,
                &self.protocols,
                shards,
                tags.as_deref(),
                delta.as_mut(),
            );
            state.done = end;
            state.rounds += 1;
            rounds_this_run += 1;
            let Some(delta) = delta else {
                absorb_rounds(&mut state.reports, round);
                continue;
            };
            // Every boundary but the campaign's last appends the round to
            // a checkpoint whose state line this invocation wrote; any other
            // checkpoint write is that state line, the one reader of the
            // per-prefix tables whole.
            let append = end < prepared.len() && sinks.state_written;
            self.read_state(&mut state, !append && sinks.checkpoint.is_some());
            // The round line holds the round's own reports, so it is
            // encoded now, before they are folded away.
            if append {
                sinks.encode_round(&state, &round, &delta);
            }
            // One report per protocol, in order: a fresh state is built so
            // and a resumed one was checked before the first probe.
            absorb_rounds(&mut state.reports, round);
            let plan = self
                .scanner
                .transport()
                .carried()
                .and_then(Carried::fault_plan);
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
            let persisted = sinks.persist(&state, append)?;
            if persisted || state.rounds % snapshot_every == 0 {
                sinks.snapshot(&state)?;
            }
        }

        if !completed {
            // Written even when the loop just wrote one: this is what
            // leaves a checkpoint behind a zero-round cancel, and a
            // stopped campaign as one state line with no round lines.
            self.read_state(&mut state, true);
            sinks.persist(&state, false)?;
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
    use crate::engine::{Changed, ScannerConfig};
    use crate::provenance::Provenance;
    use crate::retry::RetryPolicy;
    use crate::sim::SimTransport;
    use netmodel::{FaultConfig, World, WorldConfig};
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

    /// The rows of `now` that `before` lacks or holds with another value: one
    /// walk down the two tables, both sorted by key. Rows are never removed,
    /// so a key only `before` has does not occur and is passed over. This
    /// full-table diff is what a boundary used to compute; it stays here as
    /// the oracle the round delta [`Scanner::scan_prepared`] hands back must
    /// equal.
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

    fn hostile_scanner(world: Arc<World>) -> Scanner<SimTransport> {
        Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::exponential(3, 0.01),
                breaker: Some(BreakerConfig::default()),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    /// Scan `targets` in rounds of `every` the way [`Campaign::run_with`]
    /// does — from `resume` when given — and check at every boundary that
    /// the delta the round's tasks hand back is the full-table diff of the
    /// scanner's state before and after the round. Returns how many changed
    /// rows the boundaries saw, fault and breaker.
    fn deltas_match_the_full_diff(
        campaign: &mut Campaign<'_, SimTransport>,
        targets: &[Ipv6Addr],
        every: usize,
        shards: usize,
        resume: Option<&CampaignCheckpoint>,
    ) -> (usize, usize) {
        let (prepared, _) = campaign.scanner.prepare(
            targets.iter().copied(),
            false,
            None,
            &mut ScanReport::default(),
        );
        if let Some(ckpt) = resume {
            campaign.scanner.lane.restore(LaneState {
                limiter: ckpt.limiter,
                fault_rows: ckpt.fault_state.clone(),
                breaker: ckpt.breaker.clone(),
            });
        }
        let keyed = |rows: &[(u128, u8, u32)]| {
            rows.iter()
                .map(|&(d, p, n)| ((d, p), n))
                .collect::<Vec<_>>()
        };
        let mut seen = (0, 0);
        let done = resume.map_or(0, |ckpt| ckpt.done);
        for (round, slice) in prepared[done..].chunks(every).enumerate() {
            let before = campaign.scanner.lane.snapshot(true);
            let mut delta = Delta::default();
            campaign.scanner.scan_prepared(
                slice,
                &campaign.protocols,
                shards,
                None,
                Some(&mut delta),
            );
            let after = campaign.scanner.lane.snapshot(true);
            let full = Delta {
                fault: changed(
                    keyed(&before.fault_rows).into_iter(),
                    keyed(&after.fault_rows).into_iter(),
                ),
                breaker: changed(
                    before.breaker.iter().flat_map(BreakerMap::entries),
                    after.breaker.iter().flat_map(BreakerMap::entries),
                ),
            };
            assert_eq!(delta, full, "round {round}");
            seen = (seen.0 + full.fault.len(), seen.1 + full.breaker.len());
        }
        seen
    }

    #[test]
    fn round_delta_equals_the_full_diff_at_every_boundary() {
        let mut wc = WorldConfig::tiny(0xCE5);
        wc.faults = FaultConfig::hostile();
        let world = Arc::new(World::build(wc));
        let mut targets: Vec<Ipv6Addr> = world
            .hosts()
            .iter()
            .map(|(a, _)| a)
            .step_by(2)
            .take(200)
            .collect();
        targets.extend((0..30u128).map(|i| Ipv6Addr::from((0x3fff_u128 << 112) | i)));
        let nonempty = |(fault, breaker): (usize, usize), what: &str| {
            assert!(
                fault > 0 && breaker > 0,
                "{what}: the rounds changed nothing to compare ({fault}, {breaker})"
            );
        };

        for shards in [1, 4] {
            let mut s = hostile_scanner(world.clone());
            let seen = deltas_match_the_full_diff(
                &mut Campaign::standard(&mut s),
                &targets,
                48,
                shards,
                None,
            );
            nonempty(seen, &format!("four protocols, {shards} shard(s)"));
        }
        // One protocol at one shard: a lone task, lent all the same so its
        // reclaim hands the rows back.
        let mut s = hostile_scanner(world.clone());
        let seen = deltas_match_the_full_diff(
            &mut Campaign::new(&mut s, vec![Protocol::Icmp]),
            &targets,
            48,
            1,
            None,
        );
        nonempty(seen, "one protocol, one shard");

        // A resumed campaign: the scanner restored from a checkpoint two
        // rounds in.
        let path = std::env::temp_dir().join(format!("sos-delta-{}.json", std::process::id()));
        let stop = RunOptions {
            shards: 4,
            checkpoint_every: 48,
            checkpoint_path: Some(path.clone()),
            stop_after_rounds: Some(2),
            ..RunOptions::default()
        };
        let mut s = hostile_scanner(world.clone());
        Campaign::standard(&mut s)
            .run_with(&targets, &stop, None)
            .unwrap();
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(ckpt.done, 96);
        let mut s = hostile_scanner(world);
        let seen = deltas_match_the_full_diff(
            &mut Campaign::standard(&mut s),
            &targets,
            48,
            4,
            Some(&ckpt),
        );
        nonempty(seen, "resumed after two rounds");
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
        let result = campaign
            .run_with(&[target], &RunOptions::default(), None)
            .unwrap()
            .result;
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
                        let p = Provenance {
                            source: 2,
                            region: 7,
                            seed_digest: 0xfeed,
                            round: 1,
                        };
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
                BreakerConfig {
                    prefix_len: 48,
                    threshold: 8,
                    cooldown: 32,
                },
                [(0x2001_0db8, 0, 1, 5), (0x2001_0db9, 2, 2, 0)].map(
                    |(domain, proto, tag, count)| {
                        ((domain, proto), BreakerState::decode(tag, count).unwrap())
                    },
                ),
                2,
                11,
            )),
            counters: [("probe.hits".to_string(), 4u64)].into_iter().collect(),
        };
        let doc = ckpt.to_json();
        let text = doc.to_string_pretty();
        let back =
            CampaignCheckpoint::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, ckpt, "checkpoint must round-trip bit-exactly");
    }

    /// A checkpoint whose two per-prefix tables hold `(0x20010db8, ICMP)`
    /// and `(0x20010db9, UDP/53)`, saved as one line; returns the line.
    fn two_row_checkpoint(path: &Path) -> String {
        let ckpt = CampaignCheckpoint {
            fingerprint: 0x5eed,
            done: 8,
            rounds: 1,
            reports: vec![(Protocol::Icmp, ScanReport::default())],
            limiter: None,
            fault_state: vec![(0x2001_0db8, 0, 17), (0x2001_0db9, 2, 4)],
            breaker: Some(BreakerMap::restore(
                BreakerConfig::default(),
                [
                    ((0x2001_0db8, 0), BreakerState::Open { skipped: 5 }),
                    ((0x2001_0db9, 2), BreakerState::HalfOpen),
                ],
                2,
                5,
            )),
            counters: BTreeMap::new(),
        };
        ckpt.save(path).unwrap();
        assert_eq!(CampaignCheckpoint::load(path).unwrap(), ckpt);
        std::fs::read_to_string(path).unwrap()
    }

    /// `row` repeated with another value, then the rows swapped: either
    /// line must be refused by a load naming the table and the line, never
    /// resumed with the last row winning.
    fn repeated_or_swapped_rows_are_refused(name: &str, table: &str, row: [&str; 2], repeat: &str) {
        let path =
            std::env::temp_dir().join(format!("sos-order-{name}-{}.json", std::process::id()));
        let line = two_row_checkpoint(&path);
        let both = format!("{},{}", row[0], row[1]);
        assert_eq!(line.matches(&both).count(), 1, "{line}");
        for (what, rows) in [
            ("a repeated key", format!("{},{repeat},{}", row[0], row[1])),
            ("keys out of order", format!("{},{}", row[1], row[0])),
        ] {
            std::fs::write(&path, line.replacen(&both, &rows, 1)).unwrap();
            let err = CampaignCheckpoint::load(&path).expect_err(what);
            assert!(
                err.contains("line 1") && err.contains(table),
                "{what}: {err:?} must name {table} and line 1"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_fault_state_key_listed_twice_is_refused() {
        repeated_or_swapped_rows_are_refused(
            "fault",
            "fault_state:",
            [
                "[\"00000000000000000000000020010db8\",0,17]",
                "[\"00000000000000000000000020010db9\",2,4]",
            ],
            "[\"00000000000000000000000020010db8\",0,18]",
        );
    }

    #[test]
    fn a_breaker_key_listed_twice_is_refused() {
        repeated_or_swapped_rows_are_refused(
            "breaker",
            "breaker.entries:",
            [
                "[\"00000000000000000000000020010db8\",0,1,5]",
                "[\"00000000000000000000000020010db9\",2,2,0]",
            ],
            "[\"00000000000000000000000020010db8\",0,0,3]",
        );
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
        write!(
            text,
            "|{:?}|{:?}",
            campaign.protocols,
            campaign.scanner.config()
        )
        .unwrap();
        assert_eq!(
            campaign.fingerprint(&targets),
            sos_obs::manifest::fnv1a64(text.as_bytes())
        );
    }

    #[test]
    fn changed_lists_new_and_rewritten_rows_in_key_order() {
        let before = [((1, 0), 5u32), ((2, 0), 7), ((2, 1), 9), ((4, 0), 1)];
        let now = [
            ((0, 3), 2u32),
            ((1, 0), 5),
            ((2, 0), 8),
            ((2, 1), 9),
            ((3, 0), 1),
            ((4, 0), 0),
        ];
        assert_eq!(
            changed(before.into_iter(), now.into_iter()),
            [
                ((0, 3), None, 2),
                ((2, 0), Some(7), 8),
                ((3, 0), None, 1),
                ((4, 0), Some(1), 0)
            ]
        );
        assert!(changed(now.into_iter(), now.into_iter()).is_empty());
        // A key only `before` holds is passed over, not reported.
        assert_eq!(
            changed(before.into_iter(), [((4, 0), 1u32)].into_iter()),
            []
        );
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let targets: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).take(4).collect();
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
