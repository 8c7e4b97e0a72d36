//! Experiment cells: run a TGA on a seed list and evaluate its output.
//!
//! [`run_tga`] runs one cell; [`run_cells`] runs every experiment's cells,
//! under one span per experiment and one `cell` span per cell, fitting
//! each TGA's seed model once per seed list.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use netmodel::{Asn, Protocol};
use sos_obs::par::par_map;
use sos_probe::provenance::{AttributionTable, ProvenanceLog};
use sos_probe::ScanOracle;
use tga::{GenConfig, TgaId};

use crate::metrics::RunMetrics;
use crate::study::Study;

/// The outcome of one (TGA, dataset, protocol) cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which TGA ran.
    pub tga: TgaId,
    /// Scan target.
    pub proto: Protocol,
    /// §4.1 metrics after dealiasing and filtering.
    pub metrics: RunMetrics,
    /// The dealiased responsive addresses (consumed by RQ3/RQ4 analyses).
    pub clean_hits: Vec<Ipv6Addr>,
    /// Their origin ASes.
    pub ases: BTreeSet<Asn>,
    /// Per-region discovery attribution: which internal generator regions
    /// produced the probes, hits, and aliases (always recorded; the tags
    /// observe generation without altering the candidate stream — see the
    /// tga crate's `provenance_identity` test).
    pub attribution: AttributionTable,
}

/// Run `tga` with `budget` over `seed_list`, adapting to `proto` (online
/// generators probe the live world through the study's scanner during
/// generation, re-run per port exactly as §4.1 prescribes), then evaluate
/// the output per §4.1–§4.2.
///
/// `salt` decorrelates scanner validation tokens and dealiaser probe
/// choices between cells; results are deterministic per (study, inputs).
pub fn run_tga(
    study: &Study,
    id: TgaId,
    seed_list: &[Ipv6Addr],
    proto: Protocol,
    budget: usize,
    salt: u64,
) -> RunResult {
    let mut generator = tga::build(id);
    run_cell(study, id, proto, budget, salt, |cfg, oracle, prov| {
        generator.generate_tagged(seed_list, cfg, oracle, prov)
    })
}

/// One cell: `generate` through the cell's oracle and provenance log, then
/// evaluate what it generated. [`run_tga`] fits inside `generate`, so its
/// model is gone before the evaluation; [`run_cells`] generates from the
/// model its group shares.
fn run_cell(
    study: &Study,
    id: TgaId,
    proto: Protocol,
    budget: usize,
    salt: u64,
    generate: impl FnOnce(&GenConfig, &mut dyn ScanOracle, &mut ProvenanceLog) -> Vec<Ipv6Addr>,
) -> RunResult {
    let mut oracle = study.scanner(salt ^ 0x9e0);
    let cfg = GenConfig::new(budget, study.config().gen_seed ^ salt, proto);
    let mut prov = ProvenanceLog::recording(id.code());
    let generated = generate(&cfg, &mut oracle, &mut prov);
    let gen_packets = oracle.packets_sent();

    let mut eval = study.evaluate_tagged(&generated, proto, salt ^ 0xe7a1, &prov);
    eval.metrics.probe_packets += gen_packets;
    RunResult {
        tga: id,
        proto,
        metrics: eval.metrics,
        clean_hits: eval.clean_hits,
        ases: eval.ases,
        attribution: eval.attribution.unwrap_or_default(),
    }
}

/// One cell of an experiment: everything [`run_tga`] takes, plus how the
/// cell is named and whether its result keeps its hit list.
pub struct Cell<'a> {
    /// The generator.
    pub tga: TgaId,
    /// Its seeds.
    pub seeds: &'a [Ipv6Addr],
    /// Scan target.
    pub proto: Protocol,
    /// Generation budget.
    pub budget: usize,
    /// The cell's salt (see [`run_tga`]).
    pub salt: u64,
    /// Detail of the cell's `cell` span (`tga=6Tree proto=Icmp`).
    pub detail: String,
    /// Keep [`RunResult::clean_hits`]; otherwise it is dropped in the
    /// worker, so a metrics-only experiment never holds every hit list.
    pub keep_hits: bool,
}

/// Run `cells` over the study's `effective_threads()` and return their
/// results in input order. One `span_name` span (`cells=N threads=T`)
/// holds one `cell` span per cell, and one [`sos_obs::Progress`] counts
/// them. Which worker ran a cell never reaches its result.
///
/// A TGA's model depends on its seed list alone, so the cells that share
/// a TGA and a seed slice form one group: a worker fits the model once
/// (a `fit` span), runs the group's cells on it in input order, and drops
/// it before taking the next group.
pub fn run_cells(study: &Study, span_name: &'static str, cells: Vec<Cell<'_>>) -> Vec<RunResult> {
    let threads = study.config().effective_threads();
    let _span = sos_obs::span_detail(
        span_name,
        format!("cells={} threads={threads}", cells.len()),
    );
    let progress = sos_obs::Progress::new(format!("{span_name} cells"), cells.len() as u64);
    // The same slice means the same seeds; two empty slices may compare
    // equal, and their models are the same too.
    let mut groups: Vec<Vec<(usize, Cell<'_>)>> = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        let same =
            |(_, c): &(usize, Cell<'_>)| c.tga == cell.tga && std::ptr::eq(c.seeds, cell.seeds);
        match groups.iter_mut().find(|g| g.first().is_some_and(same)) {
            Some(group) => group.push((i, cell)),
            None => groups.push(vec![(i, cell)]),
        }
    }
    let mut results: Vec<(usize, RunResult)> = par_map(groups, threads, |_, group| {
        let Some((_, first)) = group.first() else {
            return Vec::new();
        };
        let (id, generator) = (first.tga, tga::build(first.tga));
        let model = generator.fit(first.seeds);
        let run = |(i, cell): (usize, Cell<'_>)| {
            let _cell = sos_obs::span_detail("cell", cell.detail);
            let mut r = run_cell(
                study,
                id,
                cell.proto,
                cell.budget,
                cell.salt,
                |cfg, oracle, prov| model.generate_tagged(cfg, oracle, prov),
            );
            if !cell.keep_hits {
                r.clean_hits = Vec::new();
            }
            progress.tick();
            (i, r)
        };
        group.into_iter().map(run).collect()
    })
    .into_iter()
    .flatten()
    .collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Stable per-cell salt from experiment coordinates.
pub fn cell_salt(experiment: u64, tga: TgaId, proto: Protocol, dataset: u64) -> u64 {
    netmodel::mix::mix3(
        experiment,
        tga as u64 + 1,
        (proto.bit() as u64) << 32 | dataset,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::study::DatasetKind;

    #[test]
    fn a_tree_run_on_active_seeds_finds_hits() {
        let study = Study::new(StudyConfig::tiny(321));
        let seeds = study.dataset(DatasetKind::AllActive).to_vec();
        assert!(!seeds.is_empty());
        let r = run_tga(&study, TgaId::SixTree, &seeds, Protocol::Icmp, 3000, 7);
        assert_eq!(r.tga, TgaId::SixTree);
        assert!(r.metrics.generated > 2500);
        assert!(r.metrics.hits > 0, "6Tree on active seeds must find hits");
        assert_eq!(r.metrics.hits, r.clean_hits.len());
        assert_eq!(r.metrics.ases, r.ases.len());
        assert!(r.metrics.probe_packets > 0);
    }

    #[test]
    fn online_tga_spends_more_packets_than_offline() {
        let study = Study::new(StudyConfig::tiny(321));
        let seeds = study.dataset(DatasetKind::AllActive).to_vec();
        let offline = run_tga(&study, TgaId::SixGraph, &seeds, Protocol::Icmp, 2000, 8);
        let online = run_tga(&study, TgaId::Det, &seeds, Protocol::Icmp, 2000, 8);
        assert!(
            online.metrics.probe_packets > offline.metrics.probe_packets,
            "online {} vs offline {}",
            online.metrics.probe_packets,
            offline.metrics.probe_packets
        );
    }

    #[test]
    fn cell_salts_are_distinct() {
        let mut salts = std::collections::HashSet::new();
        for tga in TgaId::ALL {
            for proto in netmodel::PROTOCOLS {
                for ds in 0..4 {
                    assert!(salts.insert(cell_salt(1, tga, proto, ds)));
                }
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let study = Study::new(StudyConfig::tiny(321));
        let seeds = study.dataset(DatasetKind::AllActive).to_vec();
        let a = run_tga(&study, TgaId::SixGen, &seeds, Protocol::Tcp80, 1500, 9);
        let b = run_tga(&study, TgaId::SixGen, &seeds, Protocol::Tcp80, 1500, 9);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.clean_hits, b.clean_hits);
    }
}
