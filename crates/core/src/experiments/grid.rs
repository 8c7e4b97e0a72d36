//! The master experiment grid: every (Table 2 dataset × port × TGA) cell.
//!
//! Tables 4 and 9–12 and Figures 3–5 and 7 are all views over this one
//! grid, so it is computed once (by [`run_cells`], under one `grid` span)
//! and shared. Rows follow the appendix tables exactly: All, Offline
//! Dealiased, Online Dealiased, Active−Inactive (the joint-dealiased set),
//! All Active, and the four port-specific datasets.

use std::collections::HashMap;

use netmodel::{Protocol, PROTOCOLS};
use tga::TgaId;

use crate::runner::{cell_salt, run_cells, Cell, RunResult};
use crate::study::{DatasetKind, Study};

/// The nine dataset rows of Tables 9–12, in table order.
pub const GRID_DATASETS: [DatasetKind; 9] = [
    DatasetKind::Full,
    DatasetKind::OfflineDealiased,
    DatasetKind::OnlineDealiased,
    DatasetKind::JointDealiased,
    DatasetKind::AllActive,
    DatasetKind::PortSpecific(Protocol::Icmp),
    DatasetKind::PortSpecific(Protocol::Tcp80),
    DatasetKind::PortSpecific(Protocol::Tcp443),
    DatasetKind::PortSpecific(Protocol::Udp53),
];

/// Index of a dataset within [`GRID_DATASETS`] (stable salts).
fn dataset_index(kind: DatasetKind) -> u64 {
    GRID_DATASETS
        .iter()
        .position(|&k| k == kind)
        .expect("dataset in grid") as u64
}

/// All cells of the master grid.
pub struct Grid {
    /// Per-TGA generation budget used.
    pub budget: usize,
    cells: HashMap<(DatasetKind, Protocol, TgaId), RunResult>,
}

impl Grid {
    /// The result for one cell.
    ///
    /// # Panics
    /// Panics when the cell was not part of the computed grid.
    pub fn get(&self, dataset: DatasetKind, proto: Protocol, tga: TgaId) -> &RunResult {
        self.try_get(dataset, proto, tga).expect("cell computed")
    }

    /// The result for one cell, if it was computed.
    pub fn try_get(&self, dataset: DatasetKind, proto: Protocol, tga: TgaId) -> Option<&RunResult> {
        self.cells.get(&(dataset, proto, tga))
    }

    /// Number of computed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Compute the full grid (9 datasets × 4 ports × 8 TGAs = 288 cells).
///
/// Hit lists are retained only for the All-Active and port-specific cells
/// (the inputs of RQ4 and Appendix D); other cells keep metrics only.
pub fn master_grid(study: &Study) -> Grid {
    grid_over(study, &GRID_DATASETS, &PROTOCOLS, &TgaId::ALL)
}

/// Compute a sub-grid (used by tests and ablation benches).
pub fn grid_over(
    study: &Study,
    datasets: &[DatasetKind],
    protos: &[Protocol],
    tgas: &[TgaId],
) -> Grid {
    let keys: Vec<(DatasetKind, Protocol, TgaId)> = datasets
        .iter()
        .flat_map(|&d| {
            protos
                .iter()
                .flat_map(move |&p| tgas.iter().map(move |&t| (d, p, t)))
        })
        .collect();
    let budget = study.config().budget;
    let cells = keys.iter().map(|&(dataset, proto, tga)| {
        let (seeds, salt) = (
            study.dataset(dataset),
            cell_salt(0x617d, tga, proto, dataset_index(dataset)),
        );
        let detail = format!("dataset={dataset:?} proto={proto:?} tga={tga}");
        let keep_hits = matches!(
            dataset,
            DatasetKind::AllActive | DatasetKind::PortSpecific(_)
        );
        Cell {
            tga,
            seeds,
            proto,
            budget,
            salt,
            detail,
            keep_hits,
        }
    });
    let results = run_cells(study, "grid", cells.collect());
    Grid {
        budget,
        cells: keys.into_iter().zip(results).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn subgrid_computes_every_requested_cell() {
        let study = Study::new(StudyConfig::tiny(55));
        let grid = grid_over(
            &study,
            &[DatasetKind::AllActive, DatasetKind::Full],
            &[Protocol::Icmp],
            &[TgaId::SixTree, TgaId::SixGen],
        );
        assert_eq!(grid.len(), 4);
        let cell = grid.get(DatasetKind::AllActive, Protocol::Icmp, TgaId::SixTree);
        assert!(cell.metrics.generated > 0);
        // hit lists kept for AllActive, dropped for Full
        assert_eq!(
            grid.get(DatasetKind::AllActive, Protocol::Icmp, TgaId::SixTree)
                .clean_hits
                .len(),
            cell.metrics.hits
        );
        assert!(grid
            .get(DatasetKind::Full, Protocol::Icmp, TgaId::SixTree)
            .clean_hits
            .is_empty());
    }

    #[test]
    fn grid_datasets_have_stable_indices() {
        for (i, &d) in GRID_DATASETS.iter().enumerate() {
            assert_eq!(dataset_index(d), i as u64);
        }
    }
}
