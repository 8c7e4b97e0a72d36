//! Extension experiment: seed datasets split by AS *category* — the
//! Steger et al. (TMA 2023) methodology this paper builds on (§2.4).
//!
//! Steger et al. partitioned the IPv6 Hitlist by PeeringDB organization
//! labels and compared TGA behavior per category. Our registry carries the
//! analogous classification ([`AsKind`]), so the experiment reproduces
//! cleanly: split the All-Active seeds by the origin AS's category, run
//! each TGA on each slice, and compare what kinds of networks each slice
//! leads the generators into.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use netmodel::{AsKind, Protocol};
use tga::TgaId;

use crate::report::{fmt_count, Table};
use crate::runner::{cell_salt, run_cells, Cell, RunResult};
use crate::study::{DatasetKind, Study};

/// The categories evaluated (every kind the registry assigns).
pub const KINDS: [AsKind; 8] = [
    AsKind::TransitIsp,
    AsKind::AccessIsp,
    AsKind::Mobile,
    AsKind::CloudHosting,
    AsKind::Cdn,
    AsKind::Education,
    AsKind::Government,
    AsKind::Enterprise,
];

/// Split the All-Active seeds by origin-AS category.
pub fn seeds_by_kind(study: &Study) -> BTreeMap<&'static str, Vec<Ipv6Addr>> {
    let mut out: BTreeMap<&'static str, Vec<Ipv6Addr>> = BTreeMap::new();
    for &addr in study.dataset(DatasetKind::AllActive) {
        let Some(asn) = study.world().asn_of(addr) else {
            continue;
        };
        let Some(info) = study.world().registry().info(asn) else {
            continue;
        };
        out.entry(info.kind.label()).or_default().push(addr);
    }
    out
}

/// Per-cell salt: the category's index in [`KINDS`] is the dataset
/// coordinate (label lengths collide — "Education"/"AccessISP").
fn kind_salt(kind: &str, tga: TgaId) -> u64 {
    let index = KINDS
        .iter()
        .position(|&k| k.label() == kind)
        .unwrap_or(KINDS.len());
    cell_salt(0xa5d0, tga, Protocol::Icmp, index as u64)
}

/// Results of the category-split experiment.
pub struct KindResults {
    /// `(category, tga)` → run result.
    pub cells: BTreeMap<(&'static str, TgaId), RunResult>,
    /// Seed count per category.
    pub seed_counts: BTreeMap<&'static str, usize>,
}

/// Run each TGA on each category slice (ICMP, as in Steger et al.).
pub fn run_by_kind(study: &Study, tgas: &[TgaId]) -> KindResults {
    let slices = seeds_by_kind(study);
    let seed_counts: BTreeMap<&'static str, usize> =
        slices.iter().map(|(k, v)| (*k, v.len())).collect();
    let keys: Vec<(&'static str, TgaId)> = slices
        .keys()
        .flat_map(|&k| tgas.iter().map(move |&t| (k, t)))
        .collect();
    let budget = study.config().budget;
    let cells = keys.iter().map(|&(kind, tga)| {
        let (seeds, salt, detail) = (
            &slices[kind],
            kind_salt(kind, tga),
            format!("kind={kind} tga={tga}"),
        );
        Cell {
            tga,
            seeds,
            proto: Protocol::Icmp,
            budget,
            salt,
            detail,
            keep_hits: true,
        }
    });
    let results = run_cells(study, "as_kind", cells.collect());
    KindResults {
        cells: keys.into_iter().zip(results).collect(),
        seed_counts,
    }
}

impl KindResults {
    /// Render per-category hits/ASes per TGA.
    pub fn render(&self) -> String {
        let tgas: Vec<TgaId> = TgaId::ALL
            .iter()
            .copied()
            .filter(|t| self.cells.keys().any(|(_, ct)| ct == t))
            .collect();
        let mut header = vec!["Category".to_string(), "Seeds".to_string()];
        for t in &tgas {
            header.push(format!("{} hits", t.label()));
            header.push(format!("{} ASes", t.label()));
        }
        let mut table = Table::new("Extension — TGA performance on AS-category seed slices (ICMP)")
            .header(header);
        for (&kind, &count) in &self.seed_counts {
            let mut row = vec![kind.to_string(), fmt_count(count)];
            for &t in &tgas {
                match self.cells.get(&(kind, t)) {
                    Some(r) => {
                        row.push(fmt_count(r.metrics.hits));
                        row.push(fmt_count(r.metrics.ases));
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
            table.row(row);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn slices_partition_the_all_active_dataset() {
        let study = Study::new(StudyConfig::tiny(0xA5));
        let slices = seeds_by_kind(&study);
        let total: usize = slices.values().map(Vec::len).sum();
        assert_eq!(total, study.dataset(DatasetKind::AllActive).len());
        assert!(
            slices.len() >= 4,
            "several categories present: {:?}",
            slices.keys()
        );
    }

    #[test]
    fn every_category_and_tga_gets_its_own_salt() {
        let mut salts = std::collections::HashSet::new();
        for kind in KINDS {
            for tga in TgaId::ALL {
                assert!(
                    salts.insert(kind_salt(kind.label(), tga)),
                    "{} {tga}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn category_runs_produce_results_and_containment() {
        let study = Study::new(StudyConfig::tiny(0xA5));
        let r = run_by_kind(&study, &[TgaId::SixTree]);
        assert!(!r.cells.is_empty());
        // hosting seeds should mostly rediscover hosting networks: most
        // clean hits lie in Cloud ASes
        let cloud = r.cells.get(&("Cloud", TgaId::SixTree));
        if let Some(hits) = cloud.map(|c| &c.clean_hits).filter(|h| !h.is_empty()) {
            let world = study.world();
            let inside = hits
                .iter()
                .filter(|&&h| {
                    let info = world.asn_of(h).and_then(|a| world.registry().info(a));
                    info.is_some_and(|i| i.kind.label() == "Cloud")
                })
                .count();
            let c = inside as f64 / hits.len() as f64;
            assert!(c > 0.5, "cloud containment {c}");
        }
        let rendered = r.render();
        assert!(rendered.contains("Category"));
    }
}
