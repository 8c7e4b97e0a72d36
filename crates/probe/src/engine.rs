//! The scan engine: dedup, blocklist, rate limit, retry, classify.
//!
//! Implements the paper's scanning methodology (§4.1–§4.2, Appendix A):
//! generated targets are deduplicated and scanned once; blocklisted
//! networks are never probed; scans are rate limited; ICMP Destination
//! Unreachable and TCP RST responses are counted but are **not** hits.
//!
//! One probe loop serves every caller. [`Scanner::scan`],
//! [`Scanner::scan_parallel`], campaign rounds and the [`ScanOracle`]
//! feedback probes all prepare their targets the same way (dedup +
//! blocklist, once) and then run each target through the same per-target
//! policy — breaker admission, retry budget, one
//! [`Transport::probe_burst`], back-off and rate-limiter replay, breaker
//! record — on a `Lane`: a transport with the state it carries, a token
//! bucket and a breaker map. What differs is only whose lane:
//!
//! - the scanner's own ([`Scanner::scan`], one-shard scans, oracle
//!   probes), or
//! - one lent to each of `protocols × W` tasks under
//!   [`sos_obs::par::par_map`]: one rule — task = protocol position × W +
//!   **prefix hash** of the address — deals the targets out, so every
//!   fault domain and breaker domain lands wholly inside one task. The
//!   flow, fault and breaker counters of the addresses a task is dealt
//!   move to it, looked up by key, and back (`Lane::lend`,
//!   `Lane::reclaim`), never forked; state no target of the scan touches
//!   stays with the scanner, so a scan costs what it probes, not what
//!   earlier scans accumulated. Each lent lane carries a `rate / tasks`
//!   bucket, so the aggregate still honors Appendix A. Shard hits carry
//!   their global input index and are merged by sorting on it, so reports
//!   are bit-identical at every width. A campaign round that asks for its
//!   `Delta` is always lent, so the rows it changed are read off what its
//!   tasks hand back.
//!
//! Hostile networks: a [`RetryPolicy`] gives exponential backoff in
//! *virtual* seconds with seeded jitter, and an optional per-prefix
//! circuit breaker ([`BreakerConfig`]) stops probing prefixes that answer
//! with nothing but silence — skipped targets are counted in
//! [`ScanReport::skipped`], never probed, and never billed packets.
//!
//! [`ScanOracle`]: crate::oracle::ScanOracle

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_obs::par::par_map;
use v6addr::{AddrSet, PrefixSet};

use crate::carried::Carried;
use crate::metrics::{
    hits_on, packets_on, Counts, EngineMetrics, BACKOFF_WAITED_US, BREAKER_OPENED, BREAKER_SKIPPED,
    DROP_BLOCKLIST, DROP_DUPLICATE, DROP_MALFORMED, DROP_VALIDATION, FAULTS_INJECTED, HITS,
    PACKETS_SENT, RATELIMIT_STALLS, RETRIES, RSTS, SILENT, UNREACHABLES,
};
use crate::provenance::{AttributionTable, Provenance, ProvenanceLog, RunTally};
use crate::ratelimit::{BucketSnapshot, TokenBucket};
use crate::retry::{Admission, BreakerConfig, BreakerMap, BreakerState, RetryPolicy};
use crate::transport::{Attempt, Burst, ProbeSpec, Transport};

/// Scanner policy knobs.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Source address stamped on probes.
    pub src: Ipv6Addr,
    /// Validation salt (ZMap-style stateless response validation).
    pub salt: u64,
    /// Retry/backoff policy. `RetryPolicy::fixed(n)` reproduces the
    /// historical `retries: n` behaviour (the paper's dealiasing probes
    /// use 3 total attempts; scan probes here default to 2 total).
    pub retry: RetryPolicy,
    /// Per-prefix circuit breaking; `None` probes every target
    /// unconditionally (the historical behaviour).
    pub breaker: Option<BreakerConfig>,
    /// Rate limit in packets/second; `None` disables limiting.
    pub rate_pps: Option<f64>,
    /// Networks that must never be probed (opt-out list, Appendix A).
    pub blocklist: PrefixSet,
    /// Drop responses that fail token validation.
    pub validate: bool,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            #[expect(
                clippy::expect_used,
                reason = "compile-time literal address always parses"
            )]
            src: "2001:db8:5ca0::1".parse().expect("static addr"),
            salt: 0x5eed_5ca0,
            retry: RetryPolicy::fixed(1),
            breaker: None,
            rate_pps: Some(10_000.0),
            blocklist: PrefixSet::new(),
            validate: true,
        }
    }
}

impl ScannerConfig {
    /// The probe spec for one target, optionally carrying a region tag.
    fn spec(&self, dst: Ipv6Addr, proto: Protocol, region: Option<u32>) -> ProbeSpec {
        ProbeSpec {
            src: self.src,
            dst,
            proto,
            salt: self.salt,
            region,
            validate: self.validate,
        }
    }
}

/// Results of one scan invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanReport {
    /// Responsive targets (deduplicated, in probe order).
    pub hits: Vec<Ipv6Addr>,
    /// Targets actually probed after dedup/blocklist.
    pub probed: usize,
    /// Targets skipped as duplicates.
    pub duplicates: usize,
    /// Targets skipped by the blocklist.
    pub blocked: usize,
    /// RST responders (not hits).
    pub rsts: usize,
    /// Unreachable-reported targets (not hits).
    pub unreachables: usize,
    /// Silent targets.
    pub silent: usize,
    /// Targets skipped by an open circuit breaker (never probed, zero
    /// packets transmitted).
    pub skipped: usize,
    /// Retransmissions performed (attempts beyond each target's first).
    pub retries: u64,
    /// Probe packets transmitted (incl. retries).
    pub packets_sent: u64,
    /// Probes the hostile-network fault layer dropped or would have
    /// dropped (loss bursts, rate-limit policing, blackholes).
    pub faults_injected: u64,
    /// Circuit breakers that opened during this scan.
    pub breaker_opened: u64,
    /// Virtual microseconds spent in retry backoff (integer so shard
    /// merges are order-invariant; converted once per target).
    pub backoff_waited_us: u64,
    /// Virtual microseconds of throttle latency the fault layer imposed
    /// (integer, converted once per probe — see `Carried::throttled_us`).
    pub throttled_us: u64,
    /// Virtual seconds the rate limiter would have imposed. For sharded
    /// scans this is the **maximum across shards** — the shards wait
    /// concurrently, so the slowest shard models the wall time (each
    /// shard's budget is `rate / W`, making the aggregate rate equal the
    /// configured budget).
    pub limited_seconds: f64,
    /// Discovery attribution: probes/hits per provenance `(source,
    /// region)` key, when the scan was given a provenance map (empty
    /// otherwise — untagged scans pay nothing). Merged key-wise across
    /// shards, so the table is identical for every shard count.
    pub attribution: AttributionTable,
}

/// Convert a per-target/per-probe virtual-seconds figure to integer
/// microseconds. Applied at a fixed granularity (once per probe for
/// throttle delays, once per target for backoff), so every summation
/// order produces the same integer total — the property the sequential ≡
/// sharded bit-identity contract needs and f64 sums cannot give.
pub(crate) fn secs_to_us(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

impl ScanReport {
    /// Hit rate over probed targets.
    pub fn hit_rate(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.hits.len() as f64 / self.probed as f64
        }
    }

    /// Fold a shard's partial report into this one.
    ///
    /// Exhaustively destructured on purpose: adding a field to
    /// `ScanReport` without deciding its merge rule here is a compile
    /// error, and the `report_invariants` integration test asserts the
    /// decided rules hold (every numeric field is either shard-summed,
    /// max-merged with a written rationale, or parent-owned).
    pub fn absorb_shard(&mut self, shard: ScanReport) {
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
        } = shard;
        self.hits.extend(hits);
        self.probed += probed;
        // duplicates/blocked are parent-owned: preparation happens once,
        // before sharding, so shard partials always carry zero.
        self.duplicates += duplicates;
        self.blocked += blocked;
        self.rsts += rsts;
        self.unreachables += unreachables;
        self.silent += silent;
        self.skipped += skipped;
        self.retries += retries;
        self.packets_sent += packets_sent;
        self.faults_injected += faults_injected;
        self.breaker_opened += breaker_opened;
        self.backoff_waited_us += backoff_waited_us;
        self.throttled_us += throttled_us;
        // max, not sum: shards wait concurrently (see field doc).
        self.limited_seconds = self.limited_seconds.max(limited_seconds);
        // keyed sum: merge order never changes a BTreeMap fold.
        self.attribution.merge(&attribution);
    }

    /// Fold a *sequential* round's report into this one (campaign
    /// checkpoint rounds run one after another, so `limited_seconds`
    /// adds instead of max-merging; everything else matches
    /// [`Self::absorb_shard`]).
    pub(crate) fn absorb_round(&mut self, round: ScanReport) {
        let limited = round.limited_seconds;
        let before = self.limited_seconds;
        self.absorb_shard(round);
        self.limited_seconds = before + limited;
    }
}

/// A prepared target list: deduplicated, unblocked targets paired with
/// their global index (first-occurrence order), plus — for a recording
/// provenance log — each prepared target's tag, keyed by that index.
type Prepared = (Vec<(u32, Ipv6Addr)>, Option<Vec<Provenance>>);

/// Per-target accounting: what [`Lane::probe_one`] adds up for every target
/// it handles, whoever asked, one count per [`NAMES`](crate::metrics::NAMES)
/// slot. A scan task adds it to the engine counters once at the end, an
/// oracle probe after its single target; the hot loop itself touches no
/// shared counter per packet.
#[derive(Debug, Default)]
struct Tally {
    counts: Counts,
    throttled_us: u64,
    limited_s: f64,
}

/// What one scan task owns while it probes: the transport with the state
/// it carries, the task's share of the rate budget, and its breakers. The
/// scanner holds one; a sharded scan lends one to every task and reclaims
/// them ([`Lane::lend`], [`Lane::reclaim`]), and a campaign checkpoints
/// and restores the scanner's ([`Lane::snapshot`], [`Lane::restore`]).
#[derive(Debug)]
pub(crate) struct Lane<T> {
    transport: T,
    limiter: Option<TokenBucket>,
    breaker: Option<BreakerMap>,
}

/// A lane's cross-target state as of a round boundary — what a campaign
/// checkpoint persists of it (see [`Lane::snapshot`]).
pub(crate) struct LaneState {
    pub(crate) limiter: Option<BucketSnapshot>,
    pub(crate) fault_rows: Vec<(u128, u8, u32)>,
    pub(crate) breaker: Option<BreakerMap>,
}

/// A per-prefix row a round wrote: its `(domain, protocol index)` key, the
/// value it replaced (`None` for a row the round created) and its value now.
pub(crate) type Changed<V> = ((u128, u8), Option<V>, V);

/// A lane's per-prefix rows — density clocks, then breakers — each table
/// in key order.
type Rows = (Vec<((u128, u8), u32)>, Vec<((u128, u8), BreakerState)>);

/// What one campaign round changed in the two per-prefix tables, in key
/// order: every lent task's rows as it hands them back, against the rows
/// it was lent ([`Scanner::scan_prepared`]). It is what both the
/// checkpoint's round line (the values now) and the journal's transition
/// records (the step from the value before) are built from.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Delta {
    pub(crate) fault: Vec<Changed<u32>>,
    pub(crate) breaker: Vec<Changed<BreakerState>>,
}

impl Delta {
    /// Add the rows one task changed: those `lane` hands back that `lent`
    /// — its rows at lend — lacks or holds with another value. A task
    /// never drops a row, and no other task holds one of its keys.
    fn add_task<T: Transport>(&mut self, lent: &Rows, lane: &Lane<T>) {
        fn changed<V: Copy + PartialEq>(
            lent: &[((u128, u8), V)],
            now: Vec<((u128, u8), V)>,
            out: &mut Vec<Changed<V>>,
        ) {
            for (key, value) in now {
                let old = lent
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .ok()
                    .map(|at| lent[at].1);
                if old != Some(value) {
                    out.push((key, old, value));
                }
            }
        }
        let (fault, breaker) = lane.rows();
        changed(&lent.0, fault, &mut self.fault);
        changed(&lent.1, breaker, &mut self.breaker);
    }
}

impl<T: Transport> Lane<T> {
    /// `(drops, throttle µs)` the fault layer has cost so far; zeros for a
    /// transport that carries no state.
    fn fault_totals(&self) -> (u64, u64) {
        self.transport
            .carried()
            .map_or((0, 0), |c| (c.fault_drops(), c.throttled_us()))
    }

    /// The prefix length a sharded scan partitions targets by: coarse
    /// enough that no active fault domain or breaker domain spans two
    /// tasks (which would fork their per-prefix virtual clocks and make
    /// results depend on the shard count).
    fn partition_len(&self) -> u8 {
        let fault = self
            .transport
            .carried()
            .and_then(Carried::fault_plan)
            .map(|p| p.prefix_len());
        let breaker = self
            .breaker
            .as_ref()
            .map(|b| b.config().effective_prefix_len());
        fault.into_iter().chain(breaker).fold(48, u8::min)
    }

    /// The lane's cross-target state. With `rows` false the two per-prefix
    /// tables are left out — no density rows, and a breaker map of tuning
    /// and totals only — which is what a campaign re-reads at every round
    /// boundary; it reads the rows whole only for a checkpoint's state line.
    pub(crate) fn snapshot(&self, rows: bool) -> LaneState {
        let breaker = |map: &BreakerMap| {
            if rows {
                map.clone()
            } else {
                BreakerMap::restore(*map.config(), [], map.opened(), map.skipped())
            }
        };
        LaneState {
            limiter: self.limiter.as_ref().map(TokenBucket::snapshot),
            fault_rows: self
                .transport
                .carried()
                .filter(|_| rows)
                .map(Carried::fault_rows)
                .unwrap_or_default(),
            breaker: self.breaker.as_ref().map(breaker),
        }
    }

    /// The lane's per-prefix rows, for a round's [`Delta`].
    fn rows(&self) -> Rows {
        let fault = self
            .transport
            .carried()
            .map(Carried::fault_rows)
            .unwrap_or_default();
        let fault = fault
            .into_iter()
            .map(|(domain, proto, n)| ((domain, proto), n))
            .collect();
        (
            fault,
            self.breaker
                .as_ref()
                .map(BreakerMap::entries)
                .unwrap_or_default(),
        )
    }

    /// Put a snapshot back. A limiter or breaker map the snapshot lacks
    /// (it was written without one) keeps this lane's own fresh one.
    pub(crate) fn restore(&mut self, state: LaneState) {
        if let Some(carried) = self.transport.carried_mut() {
            carried.restore_fault_rows(&state.fault_rows);
        }
        self.limiter = state
            .limiter
            .as_ref()
            .map(TokenBucket::restore)
            .or(self.limiter.take());
        self.breaker = state.breaker.or(self.breaker.take());
    }

    /// The per-target probe policy — the only place a probe is sent from.
    /// Breaker admission, the retry budget, one [`Transport::probe_burst`],
    /// back-off and rate-limiter replay, breaker record; everything it
    /// spends is added to `tally`. Returns `None` when an open breaker
    /// skipped the target (nothing transmitted).
    fn probe_one(
        &mut self,
        cfg: &ScannerConfig,
        spec: &ProbeSpec,
        tally: &mut Tally,
    ) -> Option<Burst> {
        if let Some(b) = self.breaker.as_mut() {
            if b.admit(spec.dst, spec.proto) == Admission::Skip {
                tally.counts[BREAKER_SKIPPED] += 1;
                return None;
            }
        }
        let key = u128::from(spec.dst);
        let budget = cfg.retry.attempts_allowed(cfg.salt, key);
        let (faults, throttled) = self.fault_totals();
        let burst = self.transport.probe_burst(spec, budget);
        let (faults_now, throttled_now) = self.fault_totals();
        let counts = &mut tally.counts;
        counts[FAULTS_INJECTED] += faults_now - faults;
        counts[PACKETS_SENT] += u64::from(burst.used);
        counts[RETRIES] += u64::from(burst.used.saturating_sub(1));
        counts[DROP_MALFORMED] += u64::from(burst.malformed);
        counts[DROP_VALIDATION] += u64::from(burst.invalid);
        tally.throttled_us += throttled_now - throttled;
        // Tokens and backoff are replayed after the burst rather than around
        // each packet: the bucket runs on virtual time, so each wait depends
        // only on the advance/acquire sequence — backoff-advance, acquire,
        // send — which is the order a packet-at-a-time sender would produce.
        if let Some(tb) = self.limiter.as_mut() {
            for attempt in 0..burst.used {
                let d = cfg.retry.delay_before(attempt, cfg.salt, key);
                if d > 0.0 {
                    tb.advance(d);
                }
                let wait = tb.acquire();
                tally.counts[RATELIMIT_STALLS] += u64::from(wait > 0.0);
                tally.limited_s += wait;
            }
        }
        let backoff = cfg.retry.total_backoff(burst.used, cfg.salt, key);
        if backoff > 0.0 {
            tally.counts[BACKOFF_WAITED_US] += secs_to_us(backoff);
        }
        if let Some(b) = self.breaker.as_mut() {
            let failure = !matches!(burst.verdict, Attempt::Hit | Attempt::Rst);
            tally.counts[BREAKER_OPENED] += u64::from(b.record(spec.dst, spec.proto, failure));
        }
        Some(burst)
    }
}

impl<T: Transport + Clone> Lane<T> {
    /// Lend one lane to each job of a fan-out: `(protocol, the prepared
    /// targets the task will probe on it)`. Per-prefix state (flow, fault
    /// and breaker counters) *moves* to a task for exactly the addresses in
    /// its list — looked up by key, so a lend costs what the lists hold,
    /// not what the scanner has accumulated — and everything else stays
    /// here. No two jobs may share a fault or breaker domain on one
    /// protocol (see [`Scanner::scan_prepared`]). Every lane gets a
    /// `rate / jobs` bucket, so the aggregate still honors Appendix A — a
    /// lone job takes this lane's own bucket, whose clock runs on across
    /// scans, and [`Lane::reclaim`] puts it back.
    fn lend(
        &mut self,
        rate: Option<f64>,
        jobs: &[(Protocol, Vec<(u32, Ipv6Addr)>)],
    ) -> Vec<Lane<T>> {
        // The carried state leaves before the transport is cloned, so a
        // lent transport starts with exactly its task's counters and zero
        // totals; a stateless transport lends plain clones.
        let mut kept = self.transport.carried_mut().map(std::mem::take);
        let lanes = jobs
            .iter()
            .map(|(proto, targets)| {
                let addrs = || targets.iter().map(|&(_, addr)| addr);
                let mut transport = self.transport.clone();
                if let (Some(slot), Some(kept)) = (transport.carried_mut(), kept.as_mut()) {
                    *slot = kept.lend(*proto, addrs());
                }
                let limiter = match jobs.len() {
                    1 => self.limiter.take(),
                    n => rate.map(|r| TokenBucket::split(r, r, n)),
                };
                Lane {
                    transport,
                    limiter,
                    breaker: self.breaker.as_mut().map(|b| b.lend(*proto, addrs())),
                }
            })
            .collect();
        if let (Some(slot), Some(kept)) = (self.transport.carried_mut(), kept) {
            *slot = kept;
        }
        lanes
    }

    /// Take a lent lane back after its task: per-prefix state returns, so
    /// later scans (and campaign checkpoints) continue the same clocks, and
    /// fault and breaker totals add. Its packet count does not — the
    /// scanner accounts task packets from the partial reports. A bucket the
    /// lane took from here comes back; a split one is dropped.
    fn reclaim(&mut self, lent: Lane<T>) {
        let Lane {
            mut transport,
            limiter,
            breaker,
        } = lent;
        if let (Some(mine), Some(theirs)) = (self.transport.carried_mut(), transport.carried_mut())
        {
            mine.reclaim(std::mem::take(theirs));
        }
        if let (Some(mine), Some(theirs)) = (self.breaker.as_mut(), breaker) {
            mine.absorb(theirs);
        }
        self.limiter = self.limiter.take().or(limiter);
    }
}

/// Which of `shards` owns an address: a deterministic, uniform-ish hash of
/// its top `partition_len` bits (`1..=48`, see [`Lane::partition_len`]).
#[inline]
fn shard_of(addr: u128, partition_len: u8, shards: usize) -> usize {
    let domain = (addr >> (128 - u32::from(partition_len))) as u64;
    (v6addr::splitmix64(domain) % shards.max(1) as u64) as usize
}

/// Probe one prepared slice of `(global index, target)` pairs, tallying a
/// partial [`ScanReport`] plus index-tagged hits (the caller restores
/// global hit order by sorting on the index). This is the scan loop: a
/// shard worker runs it on its lent lane, and a single-task scan runs it
/// on the scanner's own.
///
/// `prov`, when present, maps **global prepared index → provenance tag**
/// (the full prepared-length slice, not the shard's slice); each probed
/// target and each hit is tallied into the partial report's attribution
/// table, one [`RunTally`] per run of targets with one `(source, region)`
/// key. Attribution writes touch nothing the probe path reads, so a
/// tagged scan's hits and counters are bit-identical to an untagged one.
fn scan_shard<T: Transport>(
    cfg: &ScannerConfig,
    lane: &mut Lane<T>,
    metrics: &EngineMetrics,
    targets: &[(u32, Ipv6Addr)],
    proto: Protocol,
    prov: Option<&[Provenance]>,
) -> (ScanReport, Vec<(u32, Ipv6Addr)>) {
    let mut report = ScanReport::default();
    let mut hits: Vec<(u32, Ipv6Addr)> = Vec::new();
    let mut tally = Tally::default();
    let mut run = RunTally::default();
    for &(idx, dst) in targets {
        let spec = cfg.spec(dst, proto, None);
        let Some(burst) = lane.probe_one(cfg, &spec, &mut tally) else {
            continue;
        };
        report.probed += 1;
        if let Some(&p) = prov.and_then(|ps| ps.get(idx as usize)) {
            run.record(&mut report.attribution, p, burst.verdict == Attempt::Hit);
        }
        let outcome = match burst.verdict {
            Attempt::Hit => {
                hits.push((idx, dst));
                HITS
            }
            Attempt::Rst => RSTS,
            Attempt::Unreachable => UNREACHABLES,
            _ => SILENT,
        };
        tally.counts[outcome] += 1;
    }
    run.flush(&mut report.attribution);
    // The classification and per-protocol series are counted by scans
    // only (oracle probes stay out of them); the report is read off the
    // same slots, and the engine counters take one add per task.
    let counts = &mut tally.counts;
    counts[hits_on(proto)] = counts[HITS];
    counts[packets_on(proto)] = counts[PACKETS_SENT];
    metrics.add_all(counts);
    report.rsts = counts[RSTS] as usize;
    report.unreachables = counts[UNREACHABLES] as usize;
    report.silent = counts[SILENT] as usize;
    report.skipped = counts[BREAKER_SKIPPED] as usize;
    report.retries = counts[RETRIES];
    report.packets_sent = counts[PACKETS_SENT];
    report.faults_injected = counts[FAULTS_INJECTED];
    report.breaker_opened = counts[BREAKER_OPENED];
    report.backoff_waited_us = counts[BACKOFF_WAITED_US];
    report.throttled_us = tally.throttled_us;
    report.limited_seconds = tally.limited_s;
    (report, hits)
}

/// The scanner: a [`Transport`] plus policy.
#[derive(Debug)]
pub struct Scanner<T: Transport> {
    cfg: ScannerConfig,
    /// The scanner's own lane; campaigns checkpoint and restore it.
    pub(crate) lane: Lane<T>,
    metrics: EngineMetrics,
    /// Packets transmitted by lent transports (not visible in
    /// `transport.packets_sent()`); folded into [`Scanner::packets_sent`].
    shard_packets: u64,
}

impl<T: Transport> Scanner<T> {
    /// Create a scanner over `transport`.
    pub fn new(cfg: ScannerConfig, transport: T) -> Self {
        let limiter = cfg.rate_pps.map(|r| TokenBucket::new(r, r));
        let breaker = cfg.breaker.map(BreakerMap::new);
        Scanner {
            cfg,
            lane: Lane {
                transport,
                limiter,
                breaker,
            },
            metrics: EngineMetrics::new(),
            shard_packets: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScannerConfig {
        &self.cfg
    }

    /// This scanner's event accounting (also mirrored into the global
    /// `sos-obs` registry for the run manifest).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The rate limiter, when one is configured.
    pub fn limiter(&self) -> Option<&TokenBucket> {
        self.lane.limiter.as_ref()
    }

    /// Access the underlying transport.
    pub fn transport(&self) -> &T {
        &self.lane.transport
    }

    /// Dedup + blocklist a target stream once, against this scanner's
    /// config — the front half of every scan and of the campaign. Skips
    /// are recorded in `report`, and in the metrics registry unless
    /// `record` is false (a checkpoint resume re-prepares silently: the
    /// original run already counted them, and the restored counter
    /// snapshot carries them). Generators tag candidates in emission
    /// order, so when `prov` is a recording log its tags are re-keyed by
    /// prepared index here; untagged scans build no tag list at all.
    pub(crate) fn prepare(
        &self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        record: bool,
        prov: Option<&ProvenanceLog>,
        report: &mut ScanReport,
    ) -> Prepared {
        let metrics = record.then_some(&self.metrics);
        let prov = prov.filter(|log| log.is_enabled());
        let targets = targets.into_iter();
        let expected = targets.size_hint().0;
        let mut prepared = Vec::with_capacity(expected);
        let mut tags = prov.map(|_| Vec::new());
        let mut seen: AddrSet<u128> =
            AddrSet::with_capacity_and_hasher(expected, Default::default());
        for (i, dst) in targets.enumerate() {
            if !seen.insert(u128::from(dst)) {
                report.duplicates += 1;
                if let Some(m) = metrics {
                    m.add(DROP_DUPLICATE, 1);
                }
                continue;
            }
            if self.cfg.blocklist.contains_addr(dst) {
                report.blocked += 1;
                if let Some(m) = metrics {
                    m.add(DROP_BLOCKLIST, 1);
                }
                continue;
            }
            if let (Some(tags), Some(log)) = (tags.as_mut(), prov) {
                tags.push(log.get_or_fill(i));
            }
            prepared.push((prepared.len() as u32, dst));
        }
        (prepared, tags)
    }

    /// Total packets this scanner has transmitted, including packets sent
    /// by shard workers during parallel scans.
    pub fn packets_sent(&self) -> u64 {
        self.lane.transport.packets_sent() + self.shard_packets
    }

    /// Probe one target to completion, optionally with a region tag: the
    /// feedback probe behind [`crate::oracle::ScanOracle`]. Runs the same
    /// per-target policy as every scan, on this scanner's own lane, and
    /// counts in the flat engine totals only.
    /// `None` means an open breaker skipped the target.
    pub fn probe_target(
        &mut self,
        dst: Ipv6Addr,
        proto: Protocol,
        region: Option<u32>,
    ) -> Option<Burst> {
        let mut tally = Tally::default();
        let spec = self.cfg.spec(dst, proto, region);
        let burst = self.lane.probe_one(&self.cfg, &spec, &mut tally);
        self.metrics.add_all(&tally.counts);
        burst
    }

    /// Run one prepared list as a single task on the scanner's own lane.
    fn scan_single(
        &mut self,
        prepared: &[(u32, Ipv6Addr)],
        proto: Protocol,
        prov: Option<&[Provenance]>,
    ) -> ScanReport {
        let (mut report, hits) = scan_shard(
            &self.cfg,
            &mut self.lane,
            &self.metrics,
            prepared,
            proto,
            prov,
        );
        // A single task sees targets in input order already.
        report.hits = hits.into_iter().map(|(_, a)| a).collect();
        report
    }

    /// Scan a target list on one protocol, with dedup and blocklisting,
    /// as a single task. Works over any transport, `Clone` or not.
    pub fn scan(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
    ) -> ScanReport {
        let mut template = ScanReport::default();
        let (prepared, _) = self.prepare(targets, true, None, &mut template);
        let mut report = self.scan_single(&prepared, proto, None);
        report.duplicates = template.duplicates;
        report.blocked = template.blocked;
        sos_obs::debug!(
            "scan {proto:?}: {} probed, {} hits, {} rst, {} unreach, {} silent, \
             {} skipped, {} pkts, {:.3}s limited",
            report.probed,
            report.hits.len(),
            report.rsts,
            report.unreachables,
            report.silent,
            report.skipped,
            report.packets_sent,
            report.limited_seconds,
        );
        report
    }
}

impl<T: Transport + Clone + Send> Scanner<T> {
    /// Scan a target list on one protocol across `shards` parallel
    /// workers. Produces a report bit-identical to [`Scanner::scan`] on
    /// the same world state: preparation happens once, each shard is lent
    /// the per-flow attempt counters of its own targets and a
    /// `rate / shards` slice of the pps budget, and partial reports merge
    /// in input order.
    pub fn scan_parallel(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        shards: usize,
    ) -> ScanReport {
        let _span = sos_obs::span_detail(
            "scan_parallel",
            format!("protos=1 shards={}", shards.max(1)),
        );
        self.scan_sharded(targets, proto, shards, None)
    }

    /// [`Scanner::scan_parallel`] with discovery attribution: `prov` is
    /// the provenance log a generator recorded alongside `targets` (in
    /// the same emission order), and the returned report's
    /// [`ScanReport::attribution`] tallies probes and hits per `(source,
    /// region)`. Hits, counters, and probe behaviour are bit-identical to
    /// the untagged path — attribution is bookkeeping on the side, and a
    /// disabled log *is* the untagged path.
    pub fn scan_parallel_attributed(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        shards: usize,
        prov: &ProvenanceLog,
    ) -> ScanReport {
        let _span = sos_obs::span_detail("scan_attributed", format!("shards={}", shards.max(1)));
        self.scan_sharded(targets, proto, shards, Some(prov))
    }

    /// Prepare once, scan the prepared list on `proto`, and stamp the
    /// dedup/blocklist accounting onto the report.
    fn scan_sharded(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        shards: usize,
        prov: Option<&ProvenanceLog>,
    ) -> ScanReport {
        let mut template = ScanReport::default();
        let (prepared, tags) = self.prepare(targets, true, prov, &mut template);
        #[expect(
            clippy::expect_used,
            reason = "scan_prepared returns exactly one entry per requested protocol"
        )]
        let (_, mut report) = self
            .scan_prepared(&prepared, &[proto], shards, tags.as_deref(), None)
            .pop()
            .expect("one report per protocol");
        report.duplicates = template.duplicates;
        report.blocked = template.blocked;
        report
    }

    /// Scan an already-prepared (deduplicated, unblocked, globally
    /// indexed) target list on every protocol in `protocols`. This is the
    /// shared back half of the sharded scans and the campaign checkpoint
    /// rounds: targets are partitioned across shards **by prefix hash**
    /// (never round-robin), so every fault domain and breaker domain lands
    /// wholly inside one shard and per-prefix virtual clocks never fork.
    ///
    /// `prov` maps global prepared indices to provenance tags (see
    /// [`scan_shard`]); `None` scans untagged. A campaign passes an empty
    /// `delta` to learn which per-prefix rows the scan changed.
    pub(crate) fn scan_prepared(
        &mut self,
        prepared: &[(u32, Ipv6Addr)],
        protocols: &[Protocol],
        shards: usize,
        prov: Option<&[Provenance]>,
        mut delta: Option<&mut Delta>,
    ) -> Vec<(Protocol, ScanReport)> {
        let shards = shards.max(1);

        // A single task is `scan`'s path: the scanner's own lane, no
        // thread — unless a campaign asks for the delta, which only a
        // reclaim hands back (a lone lent task runs inline all the same).
        if let (&[proto], true, None) = (protocols, shards == 1 || prepared.len() <= 1, &delta) {
            return vec![(proto, self.scan_single(prepared, proto, prov))];
        }

        // The one ownership rule: task = position of the protocol in this
        // call × shards + prefix hash of the address. A task owns the
        // targets it is dealt and — because prefixes hash to shards at a
        // length no fault or breaker domain is coarser than, so no domain
        // spans two tasks — every piece of per-prefix state those targets
        // touch, which is what lets the lend move state by the target
        // lists alone. A protocol listed twice is scanned by its first
        // position's tasks, so its state never forks either.
        let partition_len = self.lane.partition_len();
        let mut jobs: Vec<(Protocol, Vec<(u32, Ipv6Addr)>)> = protocols
            .iter()
            .flat_map(|&proto| (0..shards).map(move |_| (proto, Vec::new())))
            .collect();
        for (pi, proto) in protocols.iter().enumerate() {
            let first = protocols
                .iter()
                .take(pi)
                .position(|p| p == proto)
                .unwrap_or(pi);
            for &(idx, addr) in prepared {
                let task = first * shards + shard_of(u128::from(addr), partition_len, shards);
                jobs[task].1.push((idx, addr)); // task < jobs.len(): first < protocols.len(), shard_of < shards
            }
        }
        let lanes = self.lane.lend(self.cfg.rate_pps, &jobs);
        // The rows each task was lent, for the delta it hands back.
        let lent: Vec<Rows> = if delta.is_some() {
            lanes.iter().map(Lane::rows).collect()
        } else {
            Vec::new()
        };
        let mut lent = lent.into_iter();

        let (cfg, metrics) = (&self.cfg, &self.metrics);
        let tasks = jobs.len();
        let jobs: Vec<_> = jobs.into_iter().zip(lanes).collect();
        let results = par_map(jobs, tasks, |task, ((proto, targets), mut lane)| {
            let _s = sos_obs::span_detail(
                "scan_shard",
                format!(
                    "proto={proto:?} shard={} targets={}",
                    task % shards,
                    targets.len()
                ),
            );
            let (report, hits) = scan_shard(cfg, &mut lane, metrics, &targets, proto, prov);
            (report, hits, lane)
        });

        // Merge in task order: per protocol, its shards' partial reports.
        let mut results = results.into_iter();
        let reports = protocols
            .iter()
            .map(|&proto| {
                let mut report = ScanReport::default();
                let mut hits: Vec<(u32, Ipv6Addr)> = Vec::new();
                for (partial, shard_hits, lane) in results.by_ref().take(shards) {
                    self.shard_packets += partial.packets_sent;
                    if let (Some(delta), Some(lent)) = (delta.as_deref_mut(), lent.next()) {
                        delta.add_task(&lent, &lane);
                    }
                    self.lane.reclaim(lane);
                    hits.extend(shard_hits);
                    report.absorb_shard(partial);
                }
                // Restore global input order across shards.
                hits.sort_unstable_by_key(|&(i, _)| i);
                report.hits = hits.into_iter().map(|(_, a)| a).collect();
                sos_obs::debug!(
                    "scan_parallel {proto:?} x{shards}: {} probed, {} skipped, {} hits, {} pkts",
                    report.probed,
                    report.skipped,
                    report.hits.len(),
                    report.packets_sent,
                );
                (proto, report)
            })
            .collect();
        if let Some(delta) = delta {
            delta.fault.sort_unstable_by_key(|&(key, _, _)| key);
            delta.breaker.sort_unstable_by_key(|&(key, _, _)| key);
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use netmodel::{World, WorldConfig};
    use std::sync::Arc;

    fn scanner() -> (Scanner<SimTransport>, Arc<World>) {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(3),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        (Scanner::new(cfg, SimTransport::new(world.clone())), world)
    }

    fn live_hosts(world: &World, proto: Protocol, n: usize) -> Vec<Ipv6Addr> {
        world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(proto) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(n)
            .collect()
    }

    #[test]
    fn scan_finds_live_hosts() {
        let (mut s, w) = scanner();
        let targets = live_hosts(&w, Protocol::Icmp, 50);
        let report = s.scan(targets.clone(), Protocol::Icmp);
        assert_eq!(report.probed, targets.len());
        // with 4 attempts and 1% loss, missing any is very unlikely
        assert_eq!(report.hits.len(), targets.len());
        assert!(report.packets_sent >= targets.len() as u64);
    }

    #[test]
    fn duplicates_are_probed_once() {
        let (mut s, w) = scanner();
        let mut targets = live_hosts(&w, Protocol::Icmp, 5);
        targets.extend(targets.clone());
        let report = s.scan(targets, Protocol::Icmp);
        assert_eq!(report.probed, 5);
        assert_eq!(report.duplicates, 5);
    }

    #[test]
    fn blocklist_is_honored() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let victims = live_hosts(&world, Protocol::Icmp, 3);
        let mut blocklist = PrefixSet::new();
        for v in &victims {
            blocklist.insert(v6addr::Prefix::new(*v, 128));
        }
        let cfg = ScannerConfig {
            blocklist,
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let report = s.scan(victims.clone(), Protocol::Icmp);
        assert_eq!(report.blocked, victims.len());
        assert_eq!(report.probed, 0);
        assert_eq!(report.packets_sent, 0, "blocked targets get zero packets");
    }

    #[test]
    fn rsts_and_unreachables_are_not_hits() {
        let (mut s, w) = scanner();
        // Find a live host *without* TCP80: probing it elicits RST or
        // silence, never a hit.
        let closed: Vec<Ipv6Addr> = w
            .hosts()
            .iter()
            .filter(|(a, r)| {
                !r.churned
                    && !r.ports.contains(Protocol::Tcp80)
                    && r.responds_any()
                    && !w.is_aliased(*a)
            })
            .map(|(a, _)| a)
            .take(40)
            .collect();
        assert!(!closed.is_empty());
        let report = s.scan(closed.clone(), Protocol::Tcp80);
        assert!(report.hits.is_empty(), "closed ports must not be hits");
        assert_eq!(report.rsts + report.silent, closed.len());
        assert!(report.rsts > 0, "some devices send RSTs");
    }

    #[test]
    fn churned_hosts_are_silent() {
        let (mut s, w) = scanner();
        let dead: Vec<Ipv6Addr> = w
            .hosts()
            .iter()
            .filter(|(a, r)| r.churned && !w.is_aliased(*a))
            .map(|(a, _)| a)
            .take(20)
            .collect();
        let report = s.scan(dead.clone(), Protocol::Icmp);
        assert!(report.hits.is_empty());
        assert_eq!(report.silent, dead.len());
    }

    #[test]
    fn retries_overcome_base_loss() {
        // With 1% loss and 4 attempts, 500 live hosts should all answer.
        let (mut s, w) = scanner();
        let targets = live_hosts(&w, Protocol::Icmp, 500);
        let report = s.scan(targets.clone(), Protocol::Icmp);
        assert_eq!(report.hits.len(), targets.len());
    }

    #[test]
    fn hit_rate_computation() {
        let mut r = ScanReport::default();
        assert_eq!(r.hit_rate(), 0.0);
        r.probed = 10;
        r.hits = vec!["::1".parse().unwrap(); 3];
        assert!((r.hit_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rate_limiter_accumulates_virtual_time() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets = live_hosts(&world, Protocol::Icmp, 30);
        let cfg = ScannerConfig {
            rate_pps: Some(10.0), // absurdly slow to force waiting
            retry: RetryPolicy::fixed(0),
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let report = s.scan(targets, Protocol::Icmp);
        assert!(report.limited_seconds > 0.0);
    }

    /// A mixed workload (live, dead, closed, duplicated, blocklisted,
    /// unreachable-emitting targets) for the identity tests.
    fn mixed_targets(w: &World) -> (Vec<Ipv6Addr>, PrefixSet) {
        let mut targets: Vec<Ipv6Addr> = w.hosts().iter().map(|(a, _)| a).take(300).collect();
        let (base, _) = w.hosts().iter().next().unwrap();
        let net = u128::from(base) & !0xffffu128;
        // routed holes: silence or unreachables
        targets.extend((0..100u128).map(|i| Ipv6Addr::from(net | (0xa000 + i))));
        // unrouted space
        targets.extend((0..50u128).map(|i| Ipv6Addr::from((0x3fff_u128 << 112) | i)));
        // duplicates
        let dups: Vec<Ipv6Addr> = targets.iter().step_by(7).copied().collect();
        targets.extend(dups);
        let mut blocklist = PrefixSet::new();
        for &a in targets.iter().step_by(31) {
            blocklist.insert(v6addr::Prefix::new(a, 128));
        }
        (targets, blocklist)
    }

    /// For every shard width the pipeline reports exactly what the
    /// byte-level reference scanner reports — hits in the same order,
    /// every counter equal — dedup and blocklist drops included.
    #[test]
    fn scan_parallel_is_bit_identical_to_the_wire_scan() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let (targets, blocklist) = mixed_targets(&world);
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(2),
            rate_pps: None,
            blocklist,
            ..ScannerConfig::default()
        };
        for proto in netmodel::PROTOCOLS {
            let wire = crate::transport::WireOnly(SimTransport::new(world.clone()));
            let mut seq = Scanner::new(cfg.clone(), wire);
            let want = seq.scan(targets.iter().copied(), proto);
            for shards in [1, 4, 8] {
                let mut par = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
                let got = par.scan_parallel(targets.iter().copied(), proto, shards);
                assert_eq!(got, want, "{proto:?} x{shards} diverged from the wire scan");
                assert_eq!(
                    par.packets_sent(),
                    seq.packets_sent(),
                    "{proto:?} x{shards}"
                );
            }
        }
    }

    /// A tagged scan's attribution is the per-probe fold of its tags, at
    /// one shard and at four: hits and misses interleaved, runs of one
    /// region, a region that comes back after another, digests mixing 0
    /// and non-zero and rounds falling within a run.
    #[test]
    fn an_attributed_scan_is_the_per_probe_fold() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets: Vec<Ipv6Addr> = live_hosts(&world, Protocol::Icmp, 60)
            .into_iter()
            .flat_map(|a| [a, Ipv6Addr::from(u128::from(a) ^ 0xdead_0000)])
            .collect();
        let mut log = ProvenanceLog::recording(3);
        for i in 0..targets.len() {
            let digest = if i % 3 == 0 { 0 } else { 0x100 + i as u32 };
            log.push([7, 7, 7, 9, 9, 7, 2][i % 7], digest, (40 - i % 11) as u16);
        }
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(1),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        for shards in [1, 4] {
            let mut s = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
            let report =
                s.scan_parallel_attributed(targets.iter().copied(), Protocol::Icmp, shards, &log);
            assert_eq!(report.probed, targets.len());
            assert!(!report.hits.is_empty() && report.hits.len() < targets.len());
            let mut want = AttributionTable::new();
            for (i, t) in targets.iter().enumerate() {
                let p = log.get(i).unwrap();
                want.record_probe(p);
                if report.hits.contains(t) {
                    want.record_hit(p);
                }
            }
            assert_eq!(report.attribution, want, "{shards} shards");
        }
    }

    #[test]
    fn scan_parallel_counts_shard_packets() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets = live_hosts(&world, Protocol::Icmp, 64);
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(1),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let report = s.scan_parallel(targets, Protocol::Icmp, 4);
        assert!(report.packets_sent >= 64);
        assert_eq!(
            s.packets_sent(),
            report.packets_sent,
            "shard packets show up in Scanner::packets_sent"
        );
        assert_eq!(
            s.metrics().counter("probe.packets_sent"),
            report.packets_sent,
            "shards share the scanner's metrics"
        );
    }

    #[test]
    fn scan_parallel_splits_the_rate_budget() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        // One target per /48 — a live host from each populated /48, plus
        // 200 unrouted /48s — so the prefix hash spreads them evenly by
        // construction, however the world lays its hosts out.
        let mut targets = live_hosts(&world, Protocol::Icmp, usize::MAX);
        targets.dedup_by_key(|a| u128::from(*a) >> 80);
        targets.extend((0..200u128).map(|i| Ipv6Addr::from((0x3fff_u128 << 112) | (i << 80) | 1)));
        let cfg = ScannerConfig {
            rate_pps: Some(50.0),
            retry: RetryPolicy::fixed(0),
            ..ScannerConfig::default()
        };
        let mut seq = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
        let want = seq.scan(targets.iter().copied(), Protocol::Icmp);
        let mut par = Scanner::new(cfg, SimTransport::new(world.clone()));
        let got = par.scan_parallel(targets.iter().copied(), Protocol::Icmp, 4);
        assert!(got.limited_seconds > 0.0);
        // 4 shards at 12.5 pps each, waiting concurrently: the modeled
        // wall time stays within a small factor of the sequential scan's
        // (the budget is split, not multiplied).
        assert!(
            got.limited_seconds <= want.limited_seconds * 1.5 + 1.0,
            "sharding must not inflate the modeled scan time: {} vs {}",
            got.limited_seconds,
            want.limited_seconds,
        );
        assert_eq!(got.hits, want.hits, "rate limiting never changes results");
    }
}
