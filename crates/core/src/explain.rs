//! `seedscan explain` — post-hoc discovery attribution from a run's
//! artifacts.
//!
//! Takes either artifact a campaign leaves behind and renders where the
//! discoveries came from:
//!
//! - a **manifest** (one JSON document, `--manifest FILE`): full
//!   attribution — ranked regions, per-scheme and per-AS hit tables,
//!   per-source waste histograms, and the address-space coverage heatmap,
//!   all reconstructed from the `campaign.*` section the run recorded.
//!   That section's format lives here and nowhere else:
//!   [`ManifestExplain`] is built from a run, writes the section
//!   ([`ManifestExplain::record`]) and reads it back
//!   ([`ManifestExplain::from_manifest`]);
//! - a **journal** (JSON lines, `--journal FILE`): the fold
//!   [`crate::watch`] maintains, summarized once — the status block,
//!   per-source discovery totals, and the last counter snapshot rendered
//!   exactly as the run's `.prom` file holds it.
//!
//! The attribution table's sums are checked against the campaign's own
//! scan counters and the verdict is printed: `explain` is only trustworthy
//! because that invariant holds for faulted, sharded, and
//! killed-and-resumed runs alike (see `crates/core/tests/explain_campaign.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv6Addr;
use std::path::Path;

use netmodel::{Protocol, World};
use sos_obs::json::Json;
use sos_obs::manifest::Manifest;
use sos_probe::provenance::{attribute_hits, AttributionTable, SOURCE_TARGETS};
use sos_probe::ScanReport;

use crate::coverage::CoverageMap;
use crate::watch::WatchState;

/// Parsed form of the artifact handed to `seedscan explain`.
pub enum ExplainInput {
    /// A run manifest: one JSON document.
    Manifest(Json),
    /// A telemetry journal: folded record stream. Boxed — `WatchState` is an
    /// order of magnitude larger than the manifest handle.
    Journal(Box<WatchState>),
}

/// Load `path`, auto-detecting manifest (single JSON document) vs journal
/// (JSON lines). A journal line also parses as a JSON object, so the
/// discriminator is whole-file parseability: manifests are exactly one
/// document, journals are many.
pub fn load(path: &Path) -> Result<ExplainInput, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let trimmed = text.trim();
    if trimmed.starts_with('{') && trimmed.lines().count() > 1 {
        if let Ok(doc) = Json::parse(trimmed) {
            return Ok(ExplainInput::Manifest(doc));
        }
    }
    let state =
        crate::watch::replay(path).map_err(|e| format!("replaying {}: {e}", path.display()))?;
    if state.records == 0 {
        return Err(format!(
            "{}: neither a manifest nor a journal",
            path.display()
        ));
    }
    Ok(ExplainInput::Journal(Box::new(state)))
}

/// Human label for a provenance source byte.
pub fn source_label(source: u8) -> String {
    if source == SOURCE_TARGETS {
        "targets".to_string()
    } else {
        tga::TgaId::from_code(source)
            .map_or_else(|| format!("source-{source}"), |t| t.label().to_string())
    }
}

fn bar(value: u64, max: u64, width: usize) -> String {
    let filled = if max == 0 {
        0
    } else {
        (value as usize * width).div_ceil(max as usize).min(width)
    };
    "#".repeat(filled)
}

/// The campaign's merged per-region attribution table
/// ([`AttributionTable::to_json`] rows).
const ATTRIBUTION: &str = "campaign.attribution";
/// Top-level scan totals: `{probed, hits, aliases, packets}`.
const TOTALS: &str = "campaign.totals";
/// Ground-truth hits per addressing scheme label.
const SCHEME_HITS: &str = "campaign.scheme_hits";
/// Ground-truth hits per origin AS (ASN keys as strings).
const AS_HITS: &str = "campaign.as_hits";
/// Per-/32 coverage rows ([`CoverageMap::to_json`]).
const COVERAGE: &str = "campaign.coverage";

/// `{key: count, …}` in row order.
fn tally_obj<K: ToString>(rows: &[(K, u64)]) -> Json {
    let mut o = Json::obj();
    for (key, n) in rows {
        o.set(&key.to_string(), *n);
    }
    o
}

/// A campaign's discovery summary — what the manifest's `campaign.*`
/// section stores, and everything `explain` reconstructs from it.
#[derive(Debug, PartialEq)]
pub struct ManifestExplain {
    /// The run's attribution table.
    pub attribution: AttributionTable,
    /// Campaign scan totals as the run recorded them: (probed, hits,
    /// aliases, packets). `None` for manifests without a campaign.
    pub scan_totals: Option<(u64, u64, u64, u64)>,
    /// Hits per addressing scheme label.
    pub scheme_hits: Vec<(String, u64)>,
    /// Hits per origin AS.
    pub as_hits: Vec<(u32, u64)>,
    /// Per-/32 coverage.
    pub coverage: CoverageMap,
}

impl ManifestExplain {
    /// Summarize a campaign over `targets`: the merged attribution table
    /// and scan totals of its per-protocol `reports`, its distinct hits
    /// resolved against `world`'s ground truth by addressing scheme and
    /// origin AS, and per-/32 coverage.
    pub fn from_run(
        world: &World,
        targets: &[Ipv6Addr],
        reports: &[(Protocol, ScanReport)],
    ) -> ManifestExplain {
        let attribution = sos_probe::merged_attribution(reports);
        let (probed, hits, packets) = reports.iter().fold((0, 0, 0), |(p, h, k), (_, r)| {
            (
                p + r.probed as u64,
                h + r.hits.len() as u64,
                k + r.packets_sent,
            )
        });
        let mut all_hits: Vec<Ipv6Addr> = reports
            .iter()
            .flat_map(|(_, r)| r.hits.iter().copied())
            .collect();
        all_hits.sort_unstable();
        all_hits.dedup();
        let truth = attribute_hits(world, &all_hits);
        ManifestExplain {
            scan_totals: Some((probed, hits, attribution.totals().2, packets)),
            scheme_hits: truth
                .by_scheme
                .into_iter()
                .map(|(k, n)| (k.to_string(), n))
                .collect(),
            as_hits: truth.by_as.into_iter().collect(),
            coverage: CoverageMap::build(world, targets, &all_hits),
            attribution,
        }
    }

    /// Write the manifest's campaign section: one `campaign.<counter>`
    /// entry per scanner counter, then the entries
    /// [`Self::from_manifest`] reads back.
    pub fn record(&self, counters: &BTreeMap<String, u64>, m: &mut Manifest) {
        for (name, value) in counters {
            m.set(&format!("campaign.{name}"), *value);
        }
        m.set(ATTRIBUTION, self.attribution.to_json());
        if let Some((probed, hits, aliases, packets)) = self.scan_totals {
            let mut totals = Json::obj();
            totals
                .set("probed", probed)
                .set("hits", hits)
                .set("aliases", aliases)
                .set("packets", packets);
            m.set(TOTALS, totals);
        }
        m.set(SCHEME_HITS, tally_obj(&self.scheme_hits));
        m.set(AS_HITS, tally_obj(&self.as_hits));
        m.set(COVERAGE, self.coverage.to_json());
    }

    /// Pull the campaign section out of a manifest document.
    pub fn from_manifest(doc: &Json) -> Result<ManifestExplain, String> {
        let attribution = match doc.get(ATTRIBUTION) {
            Some(rows) => AttributionTable::from_json(rows)?,
            None => AttributionTable::new(),
        };
        let scan_totals = doc.get(TOTALS).map(|t| {
            let u = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
            (u("probed"), u("hits"), u("aliases"), u("packets"))
        });
        let pairs = |key: &str| -> Vec<(String, u64)> {
            doc.get(key)
                .and_then(Json::entries)
                .map(|entries| {
                    entries
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let as_hits = pairs(AS_HITS)
            .into_iter()
            .filter_map(|(k, n)| k.parse::<u32>().ok().map(|asn| (asn, n)))
            .collect();
        let coverage = match doc.get(COVERAGE) {
            Some(rows) => CoverageMap::from_json(rows)?,
            None => CoverageMap::default(),
        };
        Ok(ManifestExplain {
            attribution,
            scan_totals,
            scheme_hits: pairs(SCHEME_HITS),
            as_hits,
            coverage,
        })
    }

    /// Does the attribution table's probe/hit sum equal the campaign's
    /// own scan counters? `None` when the manifest has no totals entry.
    pub fn integrity(&self) -> Option<bool> {
        let (probed, hits, _, _) = self.scan_totals?;
        let (p, h, _) = self.attribution.totals();
        Some(p == probed && h == hits)
    }

    /// Render the ranked tables.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let (probes, hits, aliases) = self.attribution.totals();
        let _ = writeln!(
            out,
            "discovery attribution: {hits} hits / {probes} probes / {aliases} aliased, {} region(s), {} wasted",
            self.attribution.len(),
            self.attribution.wasted(),
        );
        match self.integrity() {
            Some(true) => {
                let _ = writeln!(
                    out,
                    "integrity: attribution sums MATCH the campaign scan counters"
                );
            }
            Some(false) => {
                let (p, h, _, _) = self.scan_totals.unwrap_or_default();
                let _ = writeln!(
                    out,
                    "integrity: MISMATCH — campaign counters say {h} hits / {p} probes"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "integrity: no campaign totals recorded (not a campaign manifest?)"
                );
            }
        }

        if !self.attribution.is_empty() {
            let _ = writeln!(out, "\ntop regions by hits:");
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>8} {:>8} {:>8} {:>8}  {:>8} {:>5}",
                "source", "region", "probes", "hits", "aliases", "wasted", "digest", "round"
            );
            for (source, region, tally) in self.attribution.top_by_hits(top) {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10} {:>8} {:>8} {:>8} {:>8}  {:>08x} {:>5}",
                    source_label(source),
                    if region == u32::MAX {
                        "fill".to_string()
                    } else {
                        format!("{region:#010x}")
                    },
                    tally.probes,
                    tally.hits,
                    tally.aliases,
                    tally.wasted(),
                    tally.seed_digest,
                    tally.first_round,
                );
            }
        }

        if !self.scheme_hits.is_empty() {
            let total: u64 = self.scheme_hits.iter().map(|&(_, n)| n).sum();
            let _ = writeln!(out, "\nhits by addressing scheme:");
            let mut rows = self.scheme_hits.clone();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (scheme, n) in rows {
                let share = if total == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / total as f64
                };
                let rate = if probes == 0 {
                    0.0
                } else {
                    n as f64 / probes as f64
                };
                let _ = writeln!(
                    out,
                    "  {scheme:<12} {n:>8} ({share:>5.1}% of hits, hit rate {rate:.5})"
                );
            }
        }

        if !self.as_hits.is_empty() {
            let _ = writeln!(out, "\nhits by origin AS (top {top}):");
            let mut rows = self.as_hits.clone();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (asn, n) in rows.into_iter().take(top) {
                let _ = writeln!(out, "  AS{asn:<10} {n:>8}");
            }
        }

        // Per-source waste histogram: how much of each source's probe
        // mass found nothing.
        let by_source = self.attribution.by_source();
        if !by_source.is_empty() {
            let max_waste = by_source.values().map(|t| t.wasted).max().unwrap_or(0);
            let _ = writeln!(out, "\nwasted probes per source:");
            for (source, t) in by_source {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>4} region(s) {:>8}/{:<8} wasted |{:<20}|",
                    source_label(source),
                    t.regions,
                    t.wasted,
                    t.probes,
                    bar(t.wasted, max_waste, 20),
                );
            }
        }

        if !self.coverage.is_empty() {
            let (g, h, t) = self.coverage.totals();
            let _ = writeln!(
                out,
                "\ncoverage: {} /32 cell(s), {g} generated / {h} hit / {t} truth, {} missed, {} blind",
                self.coverage.len(),
                self.coverage.missed_cells(),
                self.coverage.blind_cells(),
            );
            out.push_str(&self.coverage.heatmap(48));
        }
        out
    }

    /// The same content as [`Self::render`], machine-readable.
    pub fn to_json(&self) -> Json {
        let (probes, hits, aliases) = self.attribution.totals();
        let mut doc = Json::obj();
        let mut totals = Json::obj();
        totals.set("probes", probes);
        totals.set("hits", hits);
        totals.set("aliases", aliases);
        totals.set("wasted", self.attribution.wasted());
        totals.set("regions", self.attribution.len() as u64);
        doc.set("totals", totals);
        match self.integrity() {
            Some(ok) => doc.set("integrity", ok),
            None => doc.set("integrity", Json::Null),
        };
        doc.set("attribution", self.attribution.to_json());
        doc.set("scheme_hits", tally_obj(&self.scheme_hits));
        doc.set("as_hits", tally_obj(&self.as_hits));
        let mut cov = Json::obj();
        let (g, h, t) = self.coverage.totals();
        cov.set("cells", self.coverage.len() as u64);
        cov.set("generated", g);
        cov.set("hits", h);
        cov.set("truth", t);
        cov.set("missed_cells", self.coverage.missed_cells() as u64);
        cov.set("blind_cells", self.coverage.blind_cells() as u64);
        cov.set("rows", self.coverage.to_json());
        doc.set("coverage", cov);
        doc
    }
}

/// Render a folded journal: the status block, the discovery table, and
/// the last snapshot's counters as the run's `.prom` file holds them.
pub fn render_journal(state: &WatchState) -> String {
    let mut out = state.render();
    if !state.discovery.is_empty() {
        let _ = writeln!(out, "discovery by source:");
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "source", "regions", "probes", "hits", "aliases", "wasted"
        );
        for (&source, &(regions, probes, hits, aliases, wasted)) in &state.discovery {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                source_label(source as u8),
                regions,
                probes,
                hits,
                aliases,
                wasted,
            );
        }
    }
    out.push_str("exact counters (last snapshot):\n");
    out.push_str(&sos_obs::render_prometheus(&state.counters));
    out
}

/// Machine-readable journal summary.
pub fn journal_to_json(state: &WatchState) -> Json {
    let mut doc = Json::obj();
    doc.set("status", state.status());
    doc.set("done", state.done);
    doc.set("targets", state.targets);
    doc.set("rounds", state.rounds);
    doc.set("hits", state.hits);
    doc.set("packets", state.packets);
    let mut discovery = Json::obj();
    for (&source, &(regions, probes, hits, aliases, wasted)) in &state.discovery {
        let mut row = Json::obj();
        row.set("regions", regions);
        row.set("probes", probes);
        row.set("hits", hits);
        row.set("aliases", aliases);
        row.set("wasted", wasted);
        discovery.set(&source_label(source as u8), row);
    }
    doc.set("discovery", discovery);
    let mut counters = Json::obj();
    for (name, value) in &state.counters {
        counters.set(name, *value);
    }
    doc.set("counters", counters);
    doc
}

/// Full driver: load `path` and produce the rendered (or `--json`) text.
pub fn explain(path: &Path, json: bool, top: usize) -> Result<String, String> {
    match load(path)? {
        ExplainInput::Manifest(doc) => {
            let ex = ManifestExplain::from_manifest(&doc)?;
            Ok(if json {
                ex.to_json().to_string_pretty() + "\n"
            } else {
                ex.render(top)
            })
        }
        ExplainInput::Journal(state) => Ok(if json {
            journal_to_json(&state).to_string_pretty() + "\n"
        } else {
            render_journal(&state)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_probe::provenance::Provenance;

    fn sample_summary() -> ManifestExplain {
        let mut table = AttributionTable::new();
        let p = |region| Provenance {
            source: 2,
            region,
            seed_digest: 0xbeef,
            round: 1,
        };
        for _ in 0..10 {
            table.record_probe(p(7));
        }
        for _ in 0..4 {
            table.record_hit(p(7));
        }
        table.record_probe(p(9));
        table.note_alias(p(9));
        let coverage =
            Json::parse("[[536936448,10,4,6],[536936449,1,0,0],[637534208,0,0,3]]").unwrap();
        ManifestExplain {
            attribution: table,
            scan_totals: Some((11, 4, 1, 40)),
            scheme_hits: vec![("eui64".to_string(), 1), ("low-byte".to_string(), 3)],
            as_hits: vec![(64500, 4)],
            coverage: CoverageMap::from_json(&coverage).unwrap(),
        }
    }

    /// The manifest a campaign with [`sample_summary`] leaves, cut down to
    /// the section `record` wrote (a whole manifest also snapshots every
    /// global counter and span of the test process).
    fn sample_manifest() -> Json {
        let mut m = Manifest::new("seedscan");
        let counters = [
            ("probe.hits".to_string(), 4u64),
            ("probe.packets_sent".to_string(), 40),
        ];
        sample_summary().record(&counters.into_iter().collect(), &mut m);
        let doc = m.finish();
        let recorded = doc.entries().unwrap().iter();
        Json::Obj(
            recorded
                .filter(|(k, _)| k == "tool" || k.starts_with("campaign."))
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn what_record_writes_from_manifest_reads_back() {
        let doc = sample_manifest();
        assert_eq!(doc.get("campaign.probe.packets_sent"), Some(&Json::U64(40)));
        assert_eq!(doc.entries().map(<[_]>::len), Some(1 + 2 + 5), "{doc}");
        assert_eq!(
            ManifestExplain::from_manifest(&doc).unwrap(),
            sample_summary()
        );
        // A manifest that is not a campaign's reads back as an empty summary.
        let none = ManifestExplain::from_manifest(&Json::obj()).unwrap();
        assert!(
            none.attribution.is_empty() && none.scan_totals.is_none() && none.coverage.is_empty()
        );
    }

    /// ROADMAP 6a for the section's reader: whatever single byte of a
    /// recorded manifest is lost or changed, it explains — rendered and as
    /// JSON — or is refused, and never panics.
    #[test]
    fn single_byte_damage_to_a_recorded_manifest_never_panics_explain() {
        let explain = |text: &str| {
            let ex = ManifestExplain::from_manifest(&Json::parse(text)?)?;
            Ok::<_, String>((ex.render(5), ex.to_json()))
        };
        let sample = sample_manifest().to_string_pretty();
        assert!(explain(&sample).unwrap().0.contains("MATCH"));
        sos_obs::json::single_byte_damage(sample.as_bytes(), |damaged| {
            let _ = explain(&String::from_utf8_lossy(damaged));
        });
    }

    #[test]
    fn manifest_explain_reconstructs_and_verifies_totals() {
        let ex = ManifestExplain::from_manifest(&sample_manifest()).unwrap();
        assert_eq!(ex.attribution.totals(), (11, 4, 1));
        assert_eq!(ex.integrity(), Some(true));
        let text = ex.render(10);
        assert!(text.contains("4 hits / 11 probes"), "{text}");
        assert!(text.contains("MATCH"), "{text}");
        assert!(text.contains("6Tree"), "source 2 labels as 6Tree: {text}");
        assert!(text.contains("low-byte"), "{text}");
        assert!(text.contains("AS64500"), "{text}");
        assert!(text.contains("wasted probes per source"), "{text}");
    }

    #[test]
    fn manifest_explain_flags_counter_mismatch() {
        let mut doc = sample_manifest();
        let mut totals = Json::obj();
        totals.set("probed", 999u64);
        totals.set("hits", 4u64);
        doc.set("campaign.totals", totals);
        let ex = ManifestExplain::from_manifest(&doc).unwrap();
        assert_eq!(ex.integrity(), Some(false));
        assert!(ex.render(5).contains("MISMATCH"));
    }

    #[test]
    fn explain_json_mode_round_trips_the_table() {
        let ex = ManifestExplain::from_manifest(&sample_manifest()).unwrap();
        let doc = ex.to_json();
        assert_eq!(doc.get("integrity"), Some(&Json::Bool(true)));
        let back = AttributionTable::from_json(doc.get("attribution").unwrap()).unwrap();
        assert_eq!(back, ex.attribution);
        assert_eq!(
            doc.get("totals").and_then(|t| t.get("hits")),
            Some(&Json::U64(4))
        );
    }

    #[test]
    fn load_detects_manifest_vs_journal() {
        let dir = std::env::temp_dir();
        let mpath = dir.join("sos_explain_detect_manifest.json");
        std::fs::write(&mpath, sample_manifest().to_string_pretty() + "\n").unwrap();
        assert!(matches!(load(&mpath), Ok(ExplainInput::Manifest(_))));

        let jpath = dir.join("sos_explain_detect_journal.jsonl");
        {
            let mut w = sos_obs::JournalWriter::create(&jpath).unwrap();
            w.write(
                0,
                sos_obs::Event::Discovery {
                    source: 255,
                    regions: 2,
                    probes: 10,
                    hits: 3,
                    aliases: 0,
                    wasted: 7,
                },
            )
            .unwrap();
        }
        match load(&jpath) {
            Ok(ExplainInput::Journal(state)) => {
                assert!(state.truncated, "no campaign_end record");
                assert_eq!(state.discovery.get(&255), Some(&(2, 10, 3, 0, 7)));
                let text = render_journal(&state);
                assert!(text.contains("targets"), "{text}");
                assert!(
                    text.ends_with("exact counters (last snapshot):\n"),
                    "no snapshot, no counters: {text}"
                );
                let j = journal_to_json(&state);
                assert_eq!(j.get("status"), Some(&Json::Str("truncated".into())));
            }
            other => panic!("journal misdetected: {:?}", other.is_ok()),
        }
        let _ = std::fs::remove_file(&mpath);
        let _ = std::fs::remove_file(&jpath);
    }

    #[test]
    fn unreadable_input_is_an_error() {
        assert!(load(Path::new("/nonexistent/sos_explain.json")).is_err());
        let p = std::env::temp_dir().join("sos_explain_garbage.txt");
        std::fs::write(&p, "not json at all\n").unwrap();
        assert!(load(&p).is_err());
        // Nesting that would run the parser out of stack is refused on the
        // manifest branch and on the journal branch alike.
        for deep in [
            format!("{{\n\"a\":{}", "[".repeat(100_000)),
            "{\"a\":".repeat(100_000),
        ] {
            std::fs::write(&p, deep).unwrap();
            assert!(load(&p).is_err());
        }
        let _ = std::fs::remove_file(&p);
    }
}
