//! The explain acceptance invariant: `seedscan explain` must reproduce a
//! campaign's discovery numbers *exactly* — from both the manifest and
//! the journal of a faulted, sharded, killed-and-resumed campaign — and
//! the attribution table's per-region sums must equal the top-level
//! `ScanReport` counters. This is the end-to-end counterpart of the
//! per-crate provenance identity tests.

use std::net::Ipv6Addr;
use std::path::PathBuf;

use netmodel::FaultConfig;
use sos_core::experiments::campaign;
use sos_core::explain::{self, ExplainInput, ManifestExplain};
use sos_core::{Study, StudyConfig};
use sos_obs::json::Json;
use sos_obs::manifest::Manifest;
use sos_probe::provenance::attribute_hits;
use sos_probe::{CampaignCheckpoint, RunOptions};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sos-explain-{}-{tag}", std::process::id()))
}

#[test]
fn explain_reproduces_a_killed_and_resumed_campaign_exactly() {
    const SEED: u64 = 0xE71;
    let mut cfg = StudyConfig::tiny(SEED);
    cfg.world.faults = FaultConfig::hostile();
    let study = Study::new(cfg);
    let targets = study.pipeline().full.clone();

    let ckpt_path = tmp("ckpt.json");
    let journal_path = tmp("journal.jsonl");
    let manifest_path = tmp("manifest.json");

    // Kill the sharded campaign mid-flight at a checkpoint boundary, the
    // way `seedscan campaign --stop-after 2` does...
    let opts = RunOptions {
        shards: 4,
        checkpoint_every: 64,
        checkpoint_path: Some(ckpt_path.clone()),
        journal_path: Some(journal_path.clone()),
        ..RunOptions::default()
    };
    let kill_opts = RunOptions {
        stop_after_rounds: Some(2),
        ..opts.clone()
    };
    let killed = campaign::run(&study, SEED, "hostile", true, kill_opts, None)
        .unwrap()
        .run;
    assert!(!killed.completed, "stop_after_rounds must interrupt");

    // ...then resume it from the checkpoint (`--resume`: a fresh scanner).
    let ckpt = CampaignCheckpoint::load(&ckpt_path).unwrap();
    let resumed = campaign::run(&study, SEED, "hostile", true, opts, Some(&ckpt_path)).unwrap();
    let outcome = &resumed.run;
    assert!(outcome.completed);
    assert_eq!(outcome.resumed_targets, ckpt.done);

    // Invariant 1: per-region attribution sums equal every report's own
    // top-level counters.
    for (proto, r) in &outcome.result.reports {
        let (probes, hits, _) = r.attribution.totals();
        assert_eq!(probes, r.probed as u64, "{proto:?} probe sum != probed");
        assert_eq!(hits, r.hits.len() as u64, "{proto:?} hit sum != hits");
    }

    // What the section must say, worked out here from the reports alone.
    let attribution = sos_probe::merged_attribution(&outcome.result.reports);
    let (probed, hits, packets) =
        outcome
            .result
            .reports
            .iter()
            .fold((0u64, 0u64, 0u64), |(p, h, k), (_, r)| {
                (
                    p + r.probed as u64,
                    h + r.hits.len() as u64,
                    k + r.packets_sent,
                )
            });
    let all_hits: Vec<Ipv6Addr> = {
        let mut v: Vec<Ipv6Addr> = outcome
            .result
            .reports
            .iter()
            .flat_map(|(_, r)| r.hits.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let hit_attr = attribute_hits(study.world(), &all_hits);
    let coverage = sos_core::coverage::CoverageMap::build(study.world(), &targets, &all_hits);

    // Record the manifest with the call `seedscan campaign` makes.
    let mut m = Manifest::new("explain-test");
    resumed.summary.record(&resumed.counters, &mut m);
    m.write_to_file(&manifest_path).unwrap();

    // Invariant 2: the manifest round-trips through `explain` exactly —
    // same attribution table, same totals, integrity check green.
    let ex = match explain::load(&manifest_path).unwrap() {
        ExplainInput::Manifest(doc) => ManifestExplain::from_manifest(&doc).unwrap(),
        ExplainInput::Journal(_) => panic!("manifest mistaken for a journal"),
    };
    assert_eq!(
        ex, resumed.summary,
        "what `record` wrote is what `from_manifest` reads"
    );
    assert_eq!(ex.attribution, attribution);
    assert_eq!(
        ex.scan_totals,
        Some((probed, hits, attribution.totals().2, packets))
    );
    assert_eq!(
        ex.integrity(),
        Some(true),
        "attribution must sum to scan counters"
    );
    assert_eq!(
        ex.scheme_hits.iter().map(|(_, n)| n).sum::<u64>(),
        hit_attr.by_scheme.values().sum::<u64>(),
    );
    assert_eq!(
        ex.as_hits.iter().map(|(_, n)| n).sum::<u64>(),
        hit_attr.by_as.values().sum::<u64>(),
    );
    assert_eq!(ex.coverage.totals(), coverage.totals());
    let rendered = ex.render(10);
    assert!(
        rendered.contains("MATCH"),
        "render must flag integrity: {rendered}"
    );

    // Invariant 3: the journal replays to the same per-source discovery
    // totals the attribution table holds.
    let state = match explain::load(&journal_path).unwrap() {
        ExplainInput::Journal(state) => state,
        ExplainInput::Manifest(_) => panic!("journal mistaken for a manifest"),
    };
    assert_eq!(state.completed, Some(true));
    assert!(!state.truncated);
    let journal_probes: u64 = state.discovery.values().map(|d| d.1).sum();
    let journal_hits: u64 = state.discovery.values().map(|d| d.2).sum();
    assert_eq!(
        journal_probes, probed,
        "journal discovery probes != campaign probed"
    );
    assert_eq!(
        journal_hits, hits,
        "journal discovery hits != campaign hits"
    );

    // The CLI driver renders both inputs; --json must parse and carry the
    // same totals.
    let json_text = explain::explain(&manifest_path, true, 10).unwrap();
    let doc = Json::parse(json_text.trim()).unwrap();
    let t = doc.get("totals").expect("json totals");
    assert_eq!(t.get("hits").and_then(Json::as_u64), Some(hits));
    assert_eq!(t.get("probes").and_then(Json::as_u64), Some(probed));
    explain::explain(&journal_path, true, 10).unwrap();

    for p in [&ckpt_path, &journal_path, &manifest_path] {
        let _ = std::fs::remove_file(p);
    }
}
