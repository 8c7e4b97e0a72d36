//! Candidate provenance and discovery attribution.
//!
//! The paper's *Metrics* axis (§4.1) asks not just "how many hits" but
//! "which part of the generation process produced them". This module
//! carries that answer through the pipeline without perturbing it:
//!
//! - [`Provenance`] is a compact tag — TGA id, internal region/cluster
//!   id, contributing-seed digest, generation round — describing where a
//!   candidate came from.
//! - [`ProvenanceLog`] is the parallel structure-of-arrays carrier the
//!   generators fill alongside their candidate vectors. A disabled log
//!   makes every push a no-op, so the untagged path runs the *same code*
//!   as the tagged one and candidate streams stay bit-identical by
//!   construction.
//! - [`AttributionTable`] folds probes/hits/aliases per `(source,
//!   region)` key. It lives inside [`ScanReport`](crate::ScanReport),
//!   merges **order-invariantly** across shards (a keyed sum), and rides
//!   through campaign checkpoints, so a killed-and-resumed sharded scan
//!   attributes exactly like an uninterrupted sequential one.
//! - [`attribute_hits`] resolves hit lists against the world's ground
//!   truth (addressing scheme, origin AS) for the per-scheme / per-AS
//!   tables `seedscan explain` renders.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use netmodel::{AddressingScheme, World};
use sos_obs::json::Json;

/// Region id the generators use for budget-filling mutation output that
/// has no structural region (the tail `tga::sink::Candidates::finish` adds).
pub const REGION_FILL: u32 = u32::MAX;

/// Source id for candidate lists that did not come from a TGA (campaign
/// target lists, seed replays). Regions under this source are the top 32
/// bits of the address — i.e. per-/32 coverage accounting.
pub const SOURCE_TARGETS: u8 = 0xFF;

/// Where one candidate address came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Provenance {
    /// Generator id (`TgaId::code()`), or [`SOURCE_TARGETS`].
    pub source: u8,
    /// Generator-internal region/cluster/model-state id ([`REGION_FILL`]
    /// for unstructured budget fill).
    pub region: u32,
    /// Order-invariant digest of the seeds that shaped the region.
    pub seed_digest: u32,
    /// Generation round the candidate was emitted in.
    pub round: u16,
}

/// Order-invariant 32-bit digest of a set of contributing seeds: the
/// wrapping sum of each address's splitmix64, folded to 32 bits. Summing
/// makes member order irrelevant, so a region's digest is stable no
/// matter how the generator enumerated it.
pub fn seed_digest<I: IntoIterator<Item = Ipv6Addr>>(seeds: I) -> u32 {
    let mut acc: u64 = 0;
    for a in seeds {
        let v = u128::from(a);
        acc = acc.wrapping_add(v6addr::splitmix64((v as u64) ^ ((v >> 64) as u64)));
    }
    (acc ^ (acc >> 32)) as u32
}

/// The SoA provenance carrier generators fill alongside their output
/// vector. One [`Self::push`] per emitted candidate, in emission order.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    source: u8,
    enabled: bool,
    regions: Vec<u32>,
    digests: Vec<u32>,
    rounds: Vec<u16>,
}

impl ProvenanceLog {
    /// A recording log for generator `source` (`TgaId::code()`).
    pub fn recording(source: u8) -> ProvenanceLog {
        ProvenanceLog {
            source,
            enabled: true,
            ..ProvenanceLog::default()
        }
    }

    /// A disabled log: every push is a no-op. The untagged generation
    /// path uses this so tagged and untagged runs execute identical code.
    pub fn disabled() -> ProvenanceLog {
        ProvenanceLog::default()
    }

    /// Whether pushes are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The source id this log records for.
    pub fn source(&self) -> u8 {
        self.source
    }

    /// Record one candidate's provenance (no-op when disabled).
    #[inline]
    pub fn push(&mut self, region: u32, digest: u32, round: u16) {
        if self.enabled {
            self.regions.push(region);
            self.digests.push(digest);
            self.rounds.push(round);
        }
    }

    /// Drop entries past `len` (generators that trim output to budget
    /// keep the log aligned with the same call).
    pub fn truncate(&mut self, len: usize) {
        if self.enabled {
            self.regions.truncate(len);
            self.digests.truncate(len);
            self.rounds.truncate(len);
        }
    }

    /// Number of recorded entries (0 for a disabled log).
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The i-th candidate's provenance, if recorded.
    pub fn get(&self, i: usize) -> Option<Provenance> {
        let region = *self.regions.get(i)?;
        Some(Provenance {
            source: self.source,
            region,
            seed_digest: self.digests.get(i).copied().unwrap_or(0),
            round: self.rounds.get(i).copied().unwrap_or(0),
        })
    }

    /// The i-th candidate's provenance, defaulting to an untracked fill
    /// tag when the log is shorter than the candidate list.
    pub fn get_or_fill(&self, i: usize) -> Provenance {
        self.get(i).unwrap_or(Provenance {
            source: self.source,
            region: REGION_FILL,
            seed_digest: 0,
            round: 0,
        })
    }

    /// A per-/32 coverage log over an explicit target list (campaign
    /// mode, where candidates have no generator): region = top 32 bits.
    pub fn for_targets(targets: &[Ipv6Addr]) -> ProvenanceLog {
        let mut log = ProvenanceLog::recording(SOURCE_TARGETS);
        for &t in targets {
            log.push((u128::from(t) >> 96) as u32, 0, 0);
        }
        log
    }
}

/// Per-region tallies inside an [`AttributionTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionTally {
    /// Targets probed (post dedup/blocklist, pre response).
    pub probes: u64,
    /// §4.1 positive responses among them.
    pub hits: u64,
    /// Hits later classified as aliased (folded in post-dealias).
    pub aliases: u64,
    /// The region's contributing-seed digest (min-merged: identical for
    /// a stable region, deterministic when a generator rebuilt its tree).
    pub seed_digest: u32,
    /// Earliest generation round that emitted into this region.
    pub first_round: u16,
}

impl RegionTally {
    /// Probes that produced neither a hit nor an alias classification.
    pub fn wasted(&self) -> u64 {
        self.probes.saturating_sub(self.hits)
    }

    /// Take one origin into the metadata: a row that has counted nothing
    /// yet adopts it (min-merging against default zeros would fabricate a
    /// round-0 / digest-0 origin the region never had); otherwise the
    /// minimum wins — order-invariant and stable across shard counts (both
    /// sides carry the same value for one region generated by one run; min
    /// resolves rebuilt-tree collisions deterministically).
    fn note_origin(&mut self, seed_digest: u32, round: u16) {
        if self.probes == 0 && self.hits == 0 && self.aliases == 0 {
            self.seed_digest = seed_digest;
            self.first_round = round;
            return;
        }
        self.seed_digest = match (self.seed_digest, seed_digest) {
            (0, d) | (d, 0) => d,
            (a, b) => a.min(b),
        };
        self.first_round = self.first_round.min(round);
    }

    fn merge(&mut self, other: &RegionTally) {
        self.note_origin(other.seed_digest, other.first_round);
        self.probes += other.probes;
        self.hits += other.hits;
        self.aliases += other.aliases;
    }
}

/// The probes and hits of consecutive targets with one `(source, region)`
/// key, summed before they reach an [`AttributionTable`]: a tagged scan
/// touches the table's map once per run of equal keys, not once per probe
/// and again per hit.
#[derive(Debug, Default)]
pub(crate) struct RunTally {
    key: (u8, u32),
    tally: RegionTally,
}

impl RunTally {
    /// Count one probed target tagged `p`, and its hit, into the open run;
    /// a new key first adds the run so far to `table`.
    #[inline]
    pub(crate) fn record(&mut self, table: &mut AttributionTable, p: Provenance, hit: bool) {
        let key = (p.source, p.region);
        if key != self.key {
            self.flush(table);
            self.key = key;
        }
        self.tally.note_origin(p.seed_digest, p.round);
        self.tally.probes += 1;
        self.tally.hits += u64::from(hit);
    }

    /// Add the open run to `table` and start an empty one.
    pub(crate) fn flush(&mut self, table: &mut AttributionTable) {
        if self.tally.probes > 0 {
            table.add_run(self.key, &std::mem::take(&mut self.tally));
        }
    }
}

/// One provenance source's rows of an [`AttributionTable`], summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTotals {
    /// Distinct regions the source has rows for.
    pub regions: u64,
    /// Targets probed.
    pub probes: u64,
    /// Hits among them.
    pub hits: u64,
    /// Hits later classified as aliased.
    pub aliases: u64,
    /// Wasted probes, summed per region ([`RegionTally::wasted`]).
    pub wasted: u64,
}

/// Provenance-keyed discovery accounting for one scan: hits, aliases,
/// and probes per `(source, region)`. Merging is a keyed sum over a
/// `BTreeMap`, so shard merge order never changes the result, and the
/// table serializes to sorted rows for checkpoints and manifests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionTable {
    rows: BTreeMap<(u8, u32), RegionTally>,
}

impl AttributionTable {
    /// An empty table.
    pub fn new() -> AttributionTable {
        AttributionTable::default()
    }

    /// True when no region was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of distinct `(source, region)` rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&mut self, p: Provenance) -> &mut RegionTally {
        let tally = self.rows.entry((p.source, p.region)).or_default();
        tally.note_origin(p.seed_digest, p.round);
        tally
    }

    /// Record one probed target.
    #[inline]
    pub fn record_probe(&mut self, p: Provenance) {
        self.row(p).probes += 1;
    }

    /// Record one hit (in addition to its probe).
    #[inline]
    pub fn record_hit(&mut self, p: Provenance) {
        self.row(p).hits += 1;
    }

    /// Record one hit later classified as aliased (post-dealias fold).
    pub fn note_alias(&mut self, p: Provenance) {
        self.row(p).aliases += 1;
    }

    /// Add one [`RunTally`] run to its `(source, region)` row: a keyed
    /// [`RegionTally::merge`], whose origin min-merge is associative and
    /// commutative, so the row is the one its probes and hits recorded
    /// one by one would build.
    fn add_run(&mut self, key: (u8, u32), run: &RegionTally) {
        self.rows.entry(key).or_default().merge(run);
    }

    /// Keyed, order-invariant merge of another table into this one.
    pub fn merge(&mut self, other: &AttributionTable) {
        for (key, tally) in &other.rows {
            self.rows.entry(*key).or_default().merge(tally);
        }
    }

    /// Iterate rows in sorted `(source, region)` order.
    pub fn rows(&self) -> impl Iterator<Item = (u8, u32, &RegionTally)> + '_ {
        self.rows.iter().map(|(&(s, r), t)| (s, r, t))
    }

    /// The rows summed per source, in source order.
    pub fn by_source(&self) -> BTreeMap<u8, SourceTotals> {
        let mut out: BTreeMap<u8, SourceTotals> = BTreeMap::new();
        for (&(source, _), t) in &self.rows {
            let s = out.entry(source).or_default();
            s.regions += 1;
            s.probes += t.probes;
            s.hits += t.hits;
            s.aliases += t.aliases;
            s.wasted += t.wasted();
        }
        out
    }

    /// `(probes, hits, aliases)` summed over every region — the invariant
    /// hooks: probes must equal `ScanReport::probed` and hits must equal
    /// `ScanReport::hits.len()` whenever provenance covered every target.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.rows.values().fold((0, 0, 0), |(p, h, a), t| {
            (p + t.probes, h + t.hits, a + t.aliases)
        })
    }

    /// Total wasted-probe mass (probes that were neither hits nor
    /// aliased hits), per the coverage accounting.
    pub fn wasted(&self) -> u64 {
        self.rows.values().map(RegionTally::wasted).sum()
    }

    /// Rows ranked by hits (descending), ties broken by key.
    pub fn top_by_hits(&self, n: usize) -> Vec<(u8, u32, RegionTally)> {
        let mut rows: Vec<(u8, u32, RegionTally)> =
            self.rows.iter().map(|(&(s, r), &t)| (s, r, t)).collect();
        rows.sort_by(|a, b| {
            b.2.hits
                .cmp(&a.2.hits)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        rows.truncate(n);
        rows
    }

    /// Encode as sorted JSON rows
    /// (`[source, region, probes, hits, aliases, seed_digest, first_round]`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|(&(source, region), t)| {
                    Json::Arr(vec![
                        Json::U64(source.into()),
                        Json::U64(region.into()),
                        Json::U64(t.probes),
                        Json::U64(t.hits),
                        Json::U64(t.aliases),
                        Json::U64(t.seed_digest.into()),
                        Json::U64(t.first_round.into()),
                    ])
                })
                .collect(),
        )
    }

    /// Parse the row array [`Self::to_json`] writes. A source, region,
    /// digest or round that does not fit its field is an error naming it:
    /// narrowed, source 300 would credit source 44.
    pub fn from_json(j: &Json) -> Result<AttributionTable, String> {
        fn field<T: TryFrom<u64>>(row: &[Json], i: usize, name: &str) -> Result<T, String> {
            row.get(i)
                .and_then(Json::as_u64)
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| format!("bad attribution field {i} ({name})"))
        }
        let rows = j.as_arr().ok_or("attribution is not an array")?;
        let mut table = AttributionTable::new();
        for row in rows {
            let row = row
                .as_arr()
                .filter(|a| a.len() == 7)
                .ok_or("bad attribution row")?;
            table.rows.insert(
                (field(row, 0, "source")?, field(row, 1, "region")?),
                RegionTally {
                    probes: field(row, 2, "probes")?,
                    hits: field(row, 3, "hits")?,
                    aliases: field(row, 4, "aliases")?,
                    seed_digest: field(row, 5, "seed_digest")?,
                    first_round: field(row, 6, "first_round")?,
                },
            );
        }
        Ok(table)
    }
}

/// Ground-truth hit attribution: hits per addressing scheme and per
/// origin AS, resolved against the world model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HitAttribution {
    /// Hits per addressing scheme label (unmodeled addresses — aliased
    /// responders outside the host map — count under `"unmodeled"`).
    pub by_scheme: BTreeMap<&'static str, u64>,
    /// Hits per origin AS number.
    pub by_as: BTreeMap<u32, u64>,
}

/// Stable label for an addressing scheme.
pub fn scheme_label(scheme: AddressingScheme) -> &'static str {
    match scheme {
        AddressingScheme::LowByte => "low-byte",
        AddressingScheme::StructuredWords => "structured",
        AddressingScheme::Eui64 => "eui64",
        AddressingScheme::EmbeddedV4 => "embedded-v4",
        AddressingScheme::PrivacyRandom => "privacy",
    }
}

/// Resolve a hit list against the world's ground truth.
pub fn attribute_hits(world: &World, hits: &[Ipv6Addr]) -> HitAttribution {
    let mut out = HitAttribution::default();
    for &hit in hits {
        let label = world
            .hosts()
            .get(hit)
            .map_or("unmodeled", |record| scheme_label(record.scheme));
        *out.by_scheme.entry(label).or_insert(0) += 1;
        if let Some(asn) = world.asn_of(hit) {
            *out.by_as.entry(asn.0).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(source: u8, region: u32, digest: u32, round: u16) -> Provenance {
        Provenance {
            source,
            region,
            seed_digest: digest,
            round,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = ProvenanceLog::disabled();
        log.push(1, 2, 3);
        assert!(log.is_empty());
        assert!(!log.is_enabled());
        assert_eq!(log.get(0), None);
        assert_eq!(log.get_or_fill(0).region, REGION_FILL);
    }

    #[test]
    fn recording_log_round_trips_entries() {
        let mut log = ProvenanceLog::recording(4);
        log.push(7, 0xabcd, 2);
        log.push(REGION_FILL, 1, 0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(0), Some(prov(4, 7, 0xabcd, 2)));
        assert_eq!(log.get(1), Some(prov(4, REGION_FILL, 1, 0)));
        log.truncate(1);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn seed_digest_is_order_invariant() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let b: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let c: Ipv6Addr = "2001:db8:77::9".parse().unwrap();
        assert_eq!(seed_digest([a, b, c]), seed_digest([c, a, b]));
        assert_ne!(seed_digest([a, b]), seed_digest([a, c]));
        assert_eq!(seed_digest([]), 0);
    }

    #[test]
    fn attribution_merge_is_order_invariant() {
        let ps = [
            prov(1, 10, 0x11, 0),
            prov(1, 10, 0x11, 1),
            prov(1, 20, 0x22, 2),
            prov(2, 10, 0x33, 0),
        ];
        // Build one table straight through, and one from shard partials
        // merged in the opposite order.
        let mut whole = AttributionTable::new();
        for &p in &ps {
            whole.record_probe(p);
        }
        whole.record_hit(ps[0]);
        whole.record_hit(ps[2]);

        let mut shard_a = AttributionTable::new();
        shard_a.record_probe(ps[2]);
        shard_a.record_hit(ps[2]);
        shard_a.record_probe(ps[3]);
        let mut shard_b = AttributionTable::new();
        shard_b.record_probe(ps[0]);
        shard_b.record_hit(ps[0]);
        shard_b.record_probe(ps[1]);

        let mut ab = AttributionTable::new();
        ab.merge(&shard_a);
        ab.merge(&shard_b);
        let mut ba = AttributionTable::new();
        ba.merge(&shard_b);
        ba.merge(&shard_a);
        assert_eq!(ab, ba, "merge order must not matter");
        assert_eq!(ab, whole, "shard merge equals the straight-through table");
        assert_eq!(ab.totals(), (4, 2, 0));
    }

    /// The run fold against the per-probe fold: runs of one key, a key
    /// that comes back after another (the run's initial key `(0, 0)`
    /// among them), digests mixing 0 and non-zero and rounds falling
    /// within a run, hits mixed in; then random tag sequences.
    #[test]
    fn the_run_fold_is_the_per_probe_fold() {
        let fixed = vec![
            (prov(0, 0, 0, 2), false),
            (prov(0, 0, 0x70, 1), true),
            (prov(1, 10, 0, 3), false),
            (prov(1, 10, 0x55, 2), true),
            (prov(1, 10, 0, 1), false),
            (prov(1, 10, 0x44, 1), true),
            (prov(1, 20, 0x22, 0), true),
            (prov(2, 10, 0x33, 4), false),
            (prov(1, 10, 0x66, 0), false),
            (prov(1, 10, 0, 5), true),
            (prov(0, 0, 0x10, 0), false),
            (prov(1, 20, 0, 2), false),
        ];
        let mut state = 46u64;
        let mut next = |n: u64| {
            state = v6addr::splitmix64(state);
            state % n
        };
        let mut sequences = vec![fixed];
        for _ in 0..200 {
            let len = next(40);
            sequences.push(
                (0..len)
                    .map(|_| {
                        let digest = [0, 0x11, 0x22, 0x33][next(4) as usize];
                        let tag = prov(next(2) as u8, next(3) as u32, digest, next(6) as u16);
                        (tag, next(3) == 0)
                    })
                    .collect(),
            );
        }
        for tags in sequences {
            let mut per_probe = AttributionTable::new();
            let mut folded = AttributionTable::new();
            let mut run = RunTally::default();
            for &(p, hit) in &tags {
                per_probe.record_probe(p);
                if hit {
                    per_probe.record_hit(p);
                }
                run.record(&mut folded, p, hit);
            }
            run.flush(&mut folded);
            assert_eq!(folded, per_probe, "{tags:?}");
        }
    }

    #[test]
    fn totals_and_waste_add_up() {
        let mut t = AttributionTable::new();
        for i in 0..5 {
            t.record_probe(prov(3, i % 2, 0x9, 0));
        }
        t.record_hit(prov(3, 0, 0x9, 0));
        t.note_alias(prov(3, 0, 0x9, 0));
        assert_eq!(t.totals(), (5, 1, 1));
        assert_eq!(t.wasted(), 4);
        assert_eq!(t.len(), 2);
        let by_source = SourceTotals {
            regions: 2,
            probes: 5,
            hits: 1,
            aliases: 1,
            wasted: 4,
        };
        assert_eq!(
            t.by_source().into_iter().collect::<Vec<_>>(),
            [(3, by_source)]
        );
    }

    #[test]
    fn json_round_trips() {
        let mut t = AttributionTable::new();
        t.record_probe(prov(1, 5, 0xdead, 3));
        t.record_hit(prov(1, 5, 0xdead, 3));
        t.record_probe(prov(SOURCE_TARGETS, REGION_FILL, 0, 0));
        let back = AttributionTable::from_json(&t.to_json()).expect("parses");
        assert_eq!(back, t);
        assert_eq!(
            AttributionTable::from_json(&Json::Arr(vec![])).unwrap(),
            AttributionTable::new()
        );
    }

    #[test]
    fn from_json_refuses_values_that_do_not_fit_their_field() {
        let row = |column: usize, value: u64| {
            let mut items = [0xFF, 7, 10, 4, 1, 0xbeef, 3].map(Json::U64);
            items[column] = Json::U64(value);
            AttributionTable::from_json(&Json::Arr(vec![Json::Arr(items.to_vec())]))
        };
        assert_eq!(row(0, 0xFF).unwrap().totals(), (10, 4, 1));
        for (column, value, field) in [
            (0, 300, "source"),
            (1, 1 << 40, "region"),
            (5, 1 << 32, "seed_digest"),
            (6, 70_000, "first_round"),
        ] {
            let err = row(column, value).expect_err(field);
            assert!(err.contains("attribution") && err.contains(field), "{err}");
        }
        assert!(row(2, u64::MAX).is_ok(), "tallies are u64");
    }

    #[test]
    fn top_by_hits_ranks_descending() {
        let mut t = AttributionTable::new();
        for _ in 0..3 {
            t.record_probe(prov(1, 1, 0, 0));
            t.record_hit(prov(1, 1, 0, 0));
        }
        t.record_probe(prov(1, 2, 0, 0));
        t.record_hit(prov(1, 2, 0, 0));
        let top = t.top_by_hits(1);
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].0, top[0].1), (1, 1));
    }

    #[test]
    fn targets_log_maps_slash32() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let log = ProvenanceLog::for_targets(&[a]);
        assert_eq!(log.source(), SOURCE_TARGETS);
        assert_eq!(log.get(0).unwrap().region, 0x2001_0db8);
    }
}
