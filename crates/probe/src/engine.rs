//! The scan engine: dedup, blocklist, rate limit, retry, classify.
//!
//! Implements the paper's scanning methodology (§4.1–§4.2, Appendix A):
//! generated targets are deduplicated and scanned once; blocklisted
//! networks are never probed; scans are rate limited; ICMP Destination
//! Unreachable and TCP RST responses are counted but are **not** hits.
//!
//! One probe loop serves every caller. [`Scanner::scan`],
//! [`Scanner::scan_attributed`], campaign rounds and the [`ScanOracle`]
//! feedback probes all prepare their targets the same way (dedup +
//! blocklist, once) and then run each target through the same per-target
//! policy — breaker admission, retry budget, one
//! [`Transport::probe_burst`], back-off and rate-limiter replay, breaker
//! record — on the scanner's one `Lane`: a transport with the state it
//! carries, a token bucket and a breaker map, on the calling thread. A
//! campaign round scans its protocols one after another on that lane.
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
    /// Virtual microseconds spent in retry backoff (integer, converted
    /// once per target, so any summation order gives the same total).
    pub backoff_waited_us: u64,
    /// Virtual microseconds of throttle latency the fault layer imposed
    /// (integer, converted once per probe — see `Carried::throttled_us`).
    pub throttled_us: u64,
    /// Virtual seconds the rate limiter would have imposed.
    pub limited_seconds: f64,
    /// Discovery attribution: probes/hits per provenance `(source,
    /// region)` key, when the scan was given a provenance map (empty
    /// otherwise — untagged scans pay nothing).
    pub attribution: AttributionTable,
}

/// Convert a per-target/per-probe virtual-seconds figure to integer
/// microseconds. Applied at a fixed granularity (once per probe for
/// throttle delays, once per target for backoff), so every summation
/// order produces the same integer total, which f64 sums cannot give.
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

    /// Fold a later campaign round's report into this one: hits
    /// concatenate, attribution merges key-wise and every count adds —
    /// `limited_seconds` too, since rounds run one after another.
    ///
    /// Exhaustively destructured on purpose: adding a field to
    /// `ScanReport` without deciding its rule here is a compile error.
    pub(crate) fn absorb_round(&mut self, round: ScanReport) {
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
        } = round;
        self.hits.extend(hits);
        self.probed += probed;
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
        self.limited_seconds += limited_seconds;
        self.attribution.merge(&attribution);
    }
}

/// A prepared target list: deduplicated, unblocked targets paired with
/// their global index (first-occurrence order), plus — for a recording
/// provenance log — each prepared target's tag, keyed by that index.
type Prepared = (Vec<(u32, Ipv6Addr)>, Option<Vec<Provenance>>);

/// Per-target accounting: what [`Lane::probe_one`] adds up for every target
/// it handles, whoever asked, one count per [`NAMES`](crate::metrics::NAMES)
/// slot. A scan adds it to the engine counters once at the end, an oracle
/// probe after its single target; the hot loop itself touches no shared
/// counter per packet.
#[derive(Debug, Default)]
struct Tally {
    counts: Counts,
    throttled_us: u64,
    limited_s: f64,
}

/// What the scanner probes with: the transport with the state it carries,
/// the rate budget and the breakers. A campaign checkpoints and restores
/// it ([`Lane::snapshot`], [`Lane::restore`]).
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

/// Every per-prefix row a scan can touch, each with its value before the
/// scan (`None` for a row that does not exist yet), in key order: density
/// clocks, then breakers.
type Touched = (
    Vec<((u128, u8), Option<u32>)>,
    Vec<((u128, u8), Option<BreakerState>)>,
);

/// What one campaign round changed in the two per-prefix tables, in key
/// order: the rows its targets touch, read before the round and again
/// after ([`Scanner::scan_prepared`]). It is what both the checkpoint's
/// round line (the values now) and the journal's transition records (the
/// step from the value before) are built from.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Delta {
    pub(crate) fault: Vec<Changed<u32>>,
    pub(crate) breaker: Vec<Changed<BreakerState>>,
}

/// The `(domain, protocol index)` keys of every domain `domain_of` puts a
/// target in, crossed with `protos` (sorted, unique), in key order.
fn keys(
    targets: &[(u32, Ipv6Addr)],
    protos: &[u8],
    domain_of: impl Fn(Ipv6Addr) -> u128,
) -> Vec<(u128, u8)> {
    let mut domains: Vec<u128> = targets.iter().map(|&(_, a)| domain_of(a)).collect();
    domains.sort_unstable();
    domains.dedup();
    domains
        .into_iter()
        .flat_map(|d| protos.iter().map(move |&p| (d, p)))
        .collect()
}

/// The rows of `before` whose value `now` reads differently, or that `now`
/// reads where they did not exist. A row is never removed.
fn changed<V: Copy + PartialEq>(
    before: Vec<((u128, u8), Option<V>)>,
    now: impl Fn((u128, u8)) -> Option<V>,
) -> Vec<Changed<V>> {
    before
        .into_iter()
        .filter_map(|(key, old)| {
            let value = now(key)?;
            (old != Some(value)).then_some((key, old, value))
        })
        .collect()
}

impl<T: Transport> Lane<T> {
    /// `(drops, throttle µs)` the fault layer has cost so far; zeros for a
    /// transport that carries no state.
    fn fault_totals(&self) -> (u64, u64) {
        self.transport
            .carried()
            .map_or((0, 0), |c| (c.fault_drops(), c.throttled_us()))
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

    /// The per-prefix rows a scan of `targets` on `protocols` can touch —
    /// the density clock and the breaker of each target's domain on each
    /// protocol — with their values now.
    fn touched(&self, targets: &[(u32, Ipv6Addr)], protocols: &[Protocol]) -> Touched {
        let mut protos: Vec<u8> = protocols.iter().map(|p| p.index() as u8).collect();
        protos.sort_unstable();
        protos.dedup();
        let carried = self.transport.carried();
        let fault = match carried.and_then(|c| Some((c, c.fault_plan()?))) {
            Some((c, plan)) => keys(targets, &protos, |a| plan.domain_of(u128::from(a)))
                .into_iter()
                .map(|key| (key, c.density_of(key)))
                .collect(),
            None => Vec::new(),
        };
        let breaker = match &self.breaker {
            Some(map) => keys(targets, &protos, |a| map.domain_of(a))
                .into_iter()
                .map(|key| (key, map.state_of(key)))
                .collect(),
            None => Vec::new(),
        };
        (fault, breaker)
    }

    /// The rows of `before` ([`Lane::touched`]) a scan since has changed.
    fn delta_since(&self, (fault, breaker): Touched) -> Delta {
        let carried = self.transport.carried();
        Delta {
            fault: changed(fault, |key| carried?.density_of(key)),
            breaker: changed(breaker, |key| self.breaker.as_ref()?.state_of(key)),
        }
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

/// Probe a prepared list of `(global index, target)` pairs on `proto`:
/// the scan loop every scan and campaign round runs. Hits go straight
/// into the returned report, in list order.
///
/// `prov`, when present, maps **global prepared index → provenance tag**;
/// each probed target and each hit is tallied into the report's
/// attribution table, one [`RunTally`] per run of targets with one
/// `(source, region)` key. Attribution writes touch nothing the probe path
/// reads, so a tagged scan's hits and counters are bit-identical to an
/// untagged one.
fn scan_list<T: Transport>(
    cfg: &ScannerConfig,
    lane: &mut Lane<T>,
    metrics: &EngineMetrics,
    targets: &[(u32, Ipv6Addr)],
    proto: Protocol,
    prov: Option<&[Provenance]>,
) -> ScanReport {
    let mut report = ScanReport::default();
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
                report.hits.push(dst);
                HITS
            }
            Attempt::Rst => RSTS,
            Attempt::Unreachable => UNREACHABLES,
            _ => SILENT,
        };
        tally.counts[outcome] += 1;
    }
    run.flush(&mut report.attribution);
    // A report outlives its scan: drop the doubling slack.
    report.hits.shrink_to_fit();
    // The classification and per-protocol series are counted by scans
    // only (oracle probes stay out of them); the report is read off the
    // same slots, and the engine counters take one add per list.
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
    report
}

/// The scanner: a [`Transport`] plus policy.
#[derive(Debug)]
pub struct Scanner<T: Transport> {
    cfg: ScannerConfig,
    /// The scanner's lane; campaigns checkpoint and restore it.
    pub(crate) lane: Lane<T>,
    metrics: EngineMetrics,
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

    /// Total packets this scanner has transmitted.
    pub fn packets_sent(&self) -> u64 {
        self.lane.transport.packets_sent()
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

    /// Scan a target list on one protocol, with dedup and blocklisting.
    pub fn scan(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
    ) -> ScanReport {
        self.scan_tagged(targets, proto, None)
    }

    /// [`Scanner::scan`] with discovery attribution: `prov` is the
    /// provenance log a generator recorded alongside `targets` (in the
    /// same emission order), and the returned report's
    /// [`ScanReport::attribution`] tallies probes and hits per `(source,
    /// region)`. Hits, counters, and probe behaviour are bit-identical to
    /// the untagged path — attribution is bookkeeping on the side, and a
    /// disabled log *is* the untagged path.
    pub fn scan_attributed(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        prov: &ProvenanceLog,
    ) -> ScanReport {
        let _span = sos_obs::span("scan_attributed");
        self.scan_tagged(targets, proto, Some(prov))
    }

    /// [`Scanner::scan`]; `_shards` is ignored. Kept only because the
    /// benchmark harness compiles against it; it goes when the harness
    /// calls `scan`.
    pub fn scan_parallel(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        _shards: usize,
    ) -> ScanReport {
        self.scan(targets, proto)
    }

    /// [`Scanner::scan_attributed`]; `_shards` is ignored. Kept only
    /// because the benchmark harness compiles against it; it goes when the
    /// harness calls `scan_attributed`.
    pub fn scan_parallel_attributed(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        _shards: usize,
        prov: &ProvenanceLog,
    ) -> ScanReport {
        self.scan_attributed(targets, proto, prov)
    }

    /// Prepare once, scan the prepared list on `proto`, and stamp the
    /// dedup/blocklist accounting onto the report.
    fn scan_tagged(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
        prov: Option<&ProvenanceLog>,
    ) -> ScanReport {
        let mut template = ScanReport::default();
        let (prepared, tags) = self.prepare(targets, true, prov, &mut template);
        let mut report = scan_list(
            &self.cfg,
            &mut self.lane,
            &self.metrics,
            &prepared,
            proto,
            tags.as_deref(),
        );
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

    /// Scan an already-prepared (deduplicated, unblocked, globally
    /// indexed) target list on every protocol in `protocols`, one after
    /// another: the back half of a campaign round. A protocol listed twice
    /// is scanned twice, in list order.
    ///
    /// `prov` maps global prepared indices to provenance tags (see
    /// [`scan_list`]); `None` scans untagged. A campaign passes an empty
    /// `delta` to learn which per-prefix rows the scan changed: the rows
    /// its targets touch are read before the scan and again after.
    pub(crate) fn scan_prepared(
        &mut self,
        prepared: &[(u32, Ipv6Addr)],
        protocols: &[Protocol],
        prov: Option<&[Provenance]>,
        delta: Option<&mut Delta>,
    ) -> Vec<(Protocol, ScanReport)> {
        let before = delta
            .is_some()
            .then(|| self.lane.touched(prepared, protocols));
        let reports = protocols
            .iter()
            .map(|&proto| {
                let report = scan_list(
                    &self.cfg,
                    &mut self.lane,
                    &self.metrics,
                    prepared,
                    proto,
                    prov,
                );
                (proto, report)
            })
            .collect();
        if let (Some(delta), Some(before)) = (delta, before) {
            *delta = self.lane.delta_since(before);
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

    /// The pipeline reports exactly what the byte-level reference scanner
    /// reports — hits in the same order, every counter equal — dedup and
    /// blocklist drops included.
    #[test]
    fn scan_is_bit_identical_to_the_wire_scan() {
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
            let mut fast = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
            let got = fast.scan(targets.iter().copied(), proto);
            assert_eq!(got, want, "{proto:?} diverged from the wire scan");
            assert_eq!(fast.packets_sent(), seq.packets_sent(), "{proto:?}");
        }
    }

    /// A tagged scan's attribution is the per-probe fold of its tags: hits
    /// and misses interleaved, runs of one region, a region that comes
    /// back after another, digests mixing 0 and non-zero and rounds
    /// falling within a run.
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
        let mut s = Scanner::new(cfg, SimTransport::new(world.clone()));
        let report = s.scan_attributed(targets.iter().copied(), Protocol::Icmp, &log);
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
        assert_eq!(report.attribution, want);
    }

    /// Every field of a round's report has a fold rule: hits concatenate,
    /// attribution merges key-wise and every count adds — the limiter's
    /// wait too, since rounds run one after another. `absorb_round`'s
    /// exhaustive destructure makes a new field a compile error, and this
    /// test pins the decided rules.
    #[test]
    fn every_scan_report_field_has_a_merge_rule() {
        let mk = |scale: u64| ScanReport {
            hits: vec![Ipv6Addr::from(0x1000 + u128::from(scale))],
            probed: scale as usize,
            duplicates: 2 * scale as usize,
            blocked: 3 * scale as usize,
            rsts: 4 * scale as usize,
            unreachables: 5 * scale as usize,
            silent: 6 * scale as usize,
            skipped: 7 * scale as usize,
            retries: 8 * scale,
            packets_sent: 9 * scale,
            faults_injected: 10 * scale,
            breaker_opened: 11 * scale,
            backoff_waited_us: 12 * scale,
            throttled_us: 13 * scale,
            limited_seconds: 14.0 * scale as f64,
            attribution: {
                let mut t = AttributionTable::new();
                let p = Provenance {
                    source: 1,
                    region: 9,
                    seed_digest: 0xf00,
                    round: 0,
                };
                for _ in 0..scale {
                    t.record_probe(p);
                }
                t.record_hit(p);
                t
            },
        };
        let mut merged = mk(1);
        merged.absorb_round(mk(100));
        assert_eq!(
            merged.hits,
            [Ipv6Addr::from(0x1001), Ipv6Addr::from(0x1064)],
            "hits concatenate in round order"
        );
        assert_eq!(merged.probed, 101);
        assert_eq!(merged.duplicates, 202);
        assert_eq!(merged.blocked, 303);
        assert_eq!(merged.rsts, 404);
        assert_eq!(merged.unreachables, 505);
        assert_eq!(merged.silent, 606);
        assert_eq!(merged.skipped, 707);
        assert_eq!(merged.retries, 808);
        assert_eq!(merged.packets_sent, 909);
        assert_eq!(merged.faults_injected, 1010);
        assert_eq!(merged.breaker_opened, 1111);
        assert_eq!(merged.backoff_waited_us, 1212);
        assert_eq!(merged.throttled_us, 1313);
        assert_eq!(
            merged.limited_seconds, 1414.0,
            "rounds wait one after another"
        );
        // Attribution tables merge key-wise: same (source, region) row sums.
        assert_eq!(merged.attribution.totals(), (101, 2, 0), "keyed sum");
        assert_eq!(merged.attribution.len(), 1);
    }
}
