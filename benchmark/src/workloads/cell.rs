//! One experiment cell, as the product runs it and taken apart.
//!
//! [`decomposed`] repeats `sos_core::run_tga` step by step — generate →
//! scan → dealias → metrics — through the same public calls, with a span
//! around each, so that a cell's time can be attributed to a layer. The
//! traced runs assert that it reproduces `run_tga`'s `RunMetrics`, hits and
//! attribution exactly; if `run_tga` changes shape, that check fails and
//! this file follows.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;

use dealias::{DealiasMode, JointDealiaser, OfflineDealiaser, OnlineConfig, OnlineDealiaser};
use netmodel::{Asn, Protocol};
use sos_core::experiments::grid::GRID_DATASETS;
use sos_core::runner::cell_salt;
use sos_core::study::DatasetKind;
use sos_core::{RunMetrics, RunResult, Study, StudyConfig};
use sos_probe::provenance::{Provenance, ProvenanceLog};
use sos_probe::ScanOracle;
use tga::{GenConfig, TgaId};

use crate::names::tga_slug;
use crate::trace;
use crate::workloads::Digest;

/// Pin every parallelism knob of a study to one thread.
pub fn single_threaded(mut cfg: StudyConfig) -> StudyConfig {
    cfg.threads = Some(1);
    cfg.scan_shards = 1;
    cfg.gen_workers = 1;
    cfg
}

/// The salt `experiments::grid` gives the cell `(dataset, proto, tga)`.
pub fn grid_salt(dataset: DatasetKind, proto: Protocol, tga: TgaId) -> u64 {
    let index = GRID_DATASETS
        .iter()
        .position(|&d| d == dataset)
        .expect("dataset is a grid row");
    cell_salt(0x617d, tga, proto, index as u64)
}

/// The invariants of one cell result: `hits` and `ases` agree with the
/// lists they count (hits only where the list was kept), and the generator
/// produced something within budget.
pub fn cell_ok(r: &RunResult, budget: usize, hits_kept: bool) -> bool {
    (!hits_kept || r.metrics.hits == r.clean_hits.len())
        && r.metrics.ases == r.ases.len()
        && r.metrics.generated > 0
        && r.metrics.generated <= budget
}

/// Fold one cell result into a digest.
pub fn digest_cell(digest: &mut Digest, r: &RunResult) {
    let m = &r.metrics;
    for v in [
        m.hits as u64,
        m.ases as u64,
        m.aliases as u64,
        m.generated as u64,
        m.probe_packets,
    ] {
        digest.u64(v);
    }
    digest.addrs(&r.clean_hits);
}

/// What [`decomposed`] measured besides the result itself.
pub struct CellParts {
    pub result: RunResult,
    /// Packets the generator spent on its scan oracle.
    pub oracle_pkts: u64,
    /// Packets the output dealiaser spent.
    pub dealias_pkts: u64,
}

/// `run_tga(study, id, seeds, proto, budget, salt)`, step by step. Spans:
/// `core.cell` ⊃ `tga.<id>.generate`, `probe.cell_scan`, `dealias.cell`,
/// `core.metrics`; the rest of `core.cell` (scanner construction, alias
/// list, attribution fold) is its self time.
pub fn decomposed(
    study: &Study,
    id: TgaId,
    seeds: &[Ipv6Addr],
    proto: Protocol,
    budget: usize,
    salt: u64,
) -> CellParts {
    let _cell = trace::span("core.cell");
    let world = study.world();

    let mut generator = tga::build(id);
    let mut oracle = study.scanner(salt ^ 0x9e0);
    let cfg = GenConfig::new(budget, study.config().gen_seed ^ salt, proto)
        .with_workers(study.config().gen_workers);
    let mut prov = ProvenanceLog::recording(id.code());
    let generated = trace::in_span(format!("tga.{}.generate", tga_slug(id)), || {
        generator.generate_tagged(seeds, &cfg, &mut oracle, &mut prov)
    });
    let oracle_pkts = ScanOracle::packets_sent(&oracle);

    let eval_salt = salt ^ 0xe7a1;
    let mut scanner = study.scanner(eval_salt);
    let shards = study.config().scan_shards.max(1);
    let report = trace::in_span("probe.cell_scan", || {
        scanner.scan_parallel_attributed(generated.iter().copied(), proto, shards, &prov)
    });

    let mut dealiaser = JointDealiaser::new(
        OfflineDealiaser::new(world.published_alias_list()),
        OnlineDealiaser::new(OnlineConfig {
            seed: eval_salt ^ 0x0a11_a5ed,
            ..OnlineConfig::default()
        }),
    );
    let outcome = trace::in_span("dealias.cell", || {
        dealiaser.run(DealiasMode::Joint, &mut scanner, &report.hits, proto)
    });

    let (clean_hits, ases) = trace::in_span("core.metrics", || {
        let mut clean_hits = outcome.clean;
        if proto == Protocol::Icmp {
            if let Some(mega_asn) = world.megapattern().map(|m| m.asn) {
                clean_hits.retain(|&a| world.asn_of(a) != Some(mega_asn));
            }
        }
        let ases: BTreeSet<Asn> = clean_hits.iter().filter_map(|&a| world.asn_of(a)).collect();
        (clean_hits, ases)
    });

    let mut attribution = report.attribution.clone();
    let mut tag_of: HashMap<Ipv6Addr, Provenance> = HashMap::with_capacity(generated.len());
    for (i, &a) in generated.iter().enumerate() {
        tag_of.entry(a).or_insert_with(|| prov.get_or_fill(i));
    }
    for a in &outcome.aliased {
        if let Some(&p) = tag_of.get(a) {
            attribution.note_alias(p);
        }
    }

    let metrics = RunMetrics {
        hits: clean_hits.len(),
        ases: ases.len(),
        aliases: outcome.aliased.len(),
        generated: report.probed,
        probe_packets: scanner.packets_sent() + oracle_pkts,
    };
    CellParts {
        result: RunResult {
            tga: id,
            proto,
            metrics,
            clean_hits,
            ases,
            attribution,
        },
        oracle_pkts,
        dealias_pkts: outcome.probe_packets,
    }
}

/// Whether a decomposed cell equals the product's composite result.
/// `hits_kept` is false for grid cells whose hit list the grid dropped.
pub fn same_result(composite: &RunResult, parts: &RunResult, hits_kept: bool) -> bool {
    composite.metrics == parts.metrics
        && composite.ases == parts.ases
        && composite.attribution == parts.attribution
        && (!hits_kept || composite.clean_hits == parts.clean_hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_cell_reproduces_run_tga_on_the_tiny_world() {
        let study = Study::new(single_threaded(StudyConfig::tiny(41)));
        let seeds = study.dataset(DatasetKind::AllActive);
        for (id, proto) in [
            (TgaId::SixTree, Protocol::Icmp),
            (TgaId::Det, Protocol::Tcp443),
            (TgaId::SixGen, Protocol::Udp53),
        ] {
            let salt = grid_salt(DatasetKind::AllActive, proto, id);
            let composite = sos_core::run_tga(&study, id, seeds, proto, 2_000, salt);
            let parts = decomposed(&study, id, seeds, proto, 2_000, salt);
            assert!(
                same_result(&composite, &parts.result, true),
                "{id} {proto:?}"
            );
            assert!(cell_ok(&parts.result, 2_000, true));
            assert!(parts.oracle_pkts + parts.dealias_pkts <= parts.result.metrics.probe_packets);
            assert_eq!(id.is_online(), parts.oracle_pkts > 0, "{id}");
        }
    }

    #[test]
    fn cell_invariants_catch_a_miscounted_result() {
        let study = Study::new(single_threaded(StudyConfig::tiny(41)));
        let seeds = study.dataset(DatasetKind::AllActive);
        let mut r = sos_core::run_tga(&study, TgaId::SixTree, seeds, Protocol::Icmp, 1_000, 3);
        assert!(cell_ok(&r, 1_000, true));
        assert!(!cell_ok(&r, r.metrics.generated - 1, true), "over budget");
        r.metrics.hits += 1;
        assert!(!cell_ok(&r, 1_000, true));
        assert!(
            cell_ok(&r, 1_000, false),
            "hit list not kept: count unchecked"
        );
    }
}
