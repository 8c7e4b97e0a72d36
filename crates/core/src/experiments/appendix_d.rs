//! Appendix D (Figure 7): cross-port generation — what does a TGA seeded
//! with port-X-active addresses discover when scanned on port Y?
//!
//! These are master-grid cells (dataset = port-specific(X) or All-Active,
//! evaluated on port Y); this module arranges them into the figure's four
//! panels and computes its takeaway statistics.

use netmodel::{Protocol, PROTOCOLS};
use tga::TgaId;

use crate::experiments::grid::Grid;
use crate::report::{fmt_count, Table};
use crate::study::DatasetKind;

/// The Figure 7 matrix: hits for each (input dataset, scanned port, TGA).
#[derive(Debug, Clone)]
pub struct CrossPortMatrix {
    /// `(input dataset, scanned port, tga, hits)` cells.
    pub cells: Vec<(DatasetKind, Protocol, TgaId, usize)>,
}

/// Input datasets shown in Figure 7: the four port-specific sets plus
/// All-Active.
pub const FIG7_INPUTS: [DatasetKind; 5] = [
    DatasetKind::PortSpecific(Protocol::Icmp),
    DatasetKind::PortSpecific(Protocol::Tcp80),
    DatasetKind::PortSpecific(Protocol::Tcp443),
    DatasetKind::PortSpecific(Protocol::Udp53),
    DatasetKind::AllActive,
];

/// Assemble the matrix from the master grid.
pub fn cross_port_matrix(grid: &Grid) -> CrossPortMatrix {
    let mut cells = Vec::new();
    for input in FIG7_INPUTS {
        for scanned in PROTOCOLS {
            for tga in TgaId::ALL {
                if let Some(cell) = grid.try_get(input, scanned, tga) {
                    cells.push((input, scanned, tga, cell.metrics.hits));
                }
            }
        }
    }
    CrossPortMatrix { cells }
}

impl CrossPortMatrix {
    /// Total hits for (input, scanned) summed over TGAs.
    pub fn total(&self, input: DatasetKind, scanned: Protocol) -> usize {
        self.cells
            .iter()
            .filter(|(i, s, _, _)| *i == input && *s == scanned)
            .map(|(_, _, _, h)| h)
            .sum()
    }

    /// Render one scanned-port panel.
    pub fn render_panel(&self, scanned: Protocol) -> String {
        let mut header = vec!["Input dataset".to_string()];
        header.extend(TgaId::ALL.iter().map(|t| t.label().to_string()));
        let mut t =
            Table::new(format!("Figure 7 — hits when scanning {}", scanned.label())).header(header);
        for input in FIG7_INPUTS {
            let mut row = vec![input.label()];
            for tga in TgaId::ALL {
                let hits = self
                    .cells
                    .iter()
                    .find(|(i, s, g, _)| *i == input && *s == scanned && *g == tga)
                    .map(|(_, _, _, h)| fmt_count(*h))
                    .unwrap_or_else(|| "-".into());
                row.push(hits);
            }
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::experiments::grid::grid_over;
    use crate::study::Study;

    #[test]
    fn matrix_assembles_from_grid_cells() {
        let study = Study::new(StudyConfig::tiny(333));
        let grid = grid_over(
            &study,
            &[
                DatasetKind::AllActive,
                DatasetKind::PortSpecific(Protocol::Icmp),
                DatasetKind::PortSpecific(Protocol::Tcp80),
            ],
            &[Protocol::Icmp, Protocol::Tcp80],
            &[TgaId::SixTree],
        );
        let m = cross_port_matrix(&grid);
        assert_eq!(m.cells.len(), 6);
        assert!(m.total(DatasetKind::AllActive, Protocol::Icmp) > 0);
        let panel = m.render_panel(Protocol::Icmp);
        assert!(panel.contains("All Active"));
    }
}
