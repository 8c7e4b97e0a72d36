//! RQ1 (§6): seed preprocessing — dealiasing (RQ1.a) and responsive-only
//! seeds (RQ1.b). Produces Figure 3, Table 4, Figure 4, and the RQ1 rows
//! of Tables 9–12.

use netmodel::{Protocol, PROTOCOLS};
use tga::TgaId;

use crate::experiments::grid::{Grid, GRID_DATASETS};
use crate::metrics::performance_ratio;
use crate::report::{fmt_count, fmt_ratio, Table};
use crate::study::DatasetKind;

/// Performance ratios of one dataset change, per TGA × port (Figures 3–5).
#[derive(Debug, Clone)]
pub struct RatioFigure {
    /// Which change this figure reports ("Dealiased vs Full", ...).
    pub title: String,
    /// `(tga, proto, hits_ratio, ases_ratio, aliases_ratio)` rows.
    pub rows: Vec<(TgaId, Protocol, f64, f64, f64)>,
}

impl RatioFigure {
    /// Mean hits ratio across all cells.
    pub fn mean_hits_ratio(&self) -> f64 {
        let n = self.rows.len().max(1);
        self.rows.iter().map(|r| r.2).sum::<f64>() / n as f64
    }

    /// Median hits ratio across all cells: one cell whose base is near
    /// zero moves the mean by its ratio over the cell count, the median
    /// not at all.
    pub fn median_hits_ratio(&self) -> f64 {
        median(self.rows.iter().map(|r| r.2).collect())
    }

    /// Median ASes ratio across all cells.
    pub fn median_ases_ratio(&self) -> f64 {
        median(self.rows.iter().map(|r| r.3).collect())
    }

    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t =
            Table::new(&self.title).header(["TGA", "Port", "Hits PR", "ASes PR", "Aliases PR"]);
        for &(tga, proto, h, a, al) in &self.rows {
            t.row([
                tga.label().to_string(),
                proto.label().to_string(),
                fmt_ratio(h),
                fmt_ratio(a),
                fmt_ratio(al),
            ]);
        }
        t.render()
    }
}

/// The middle value, or the mean of the two middle values of an even
/// count; 0 for no values.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Compute a ratio figure comparing `changed` against `original` datasets.
pub fn ratio_figure(
    grid: &Grid,
    title: &str,
    changed: DatasetKind,
    original: DatasetKind,
) -> RatioFigure {
    let mut rows = Vec::new();
    for proto in PROTOCOLS {
        for tga in TgaId::ALL {
            // Sub-grids (tests, ablations) may omit cells; skip them.
            let (Some(c), Some(o)) = (
                grid.try_get(changed, proto, tga),
                grid.try_get(original, proto, tga),
            ) else {
                continue;
            };
            let (c, o) = (&c.metrics, &o.metrics);
            rows.push((
                tga,
                proto,
                performance_ratio(c.hits as f64, o.hits as f64),
                performance_ratio(c.ases as f64, o.ases as f64),
                performance_ratio(c.aliases as f64, o.aliases as f64),
            ));
        }
    }
    RatioFigure {
        title: title.to_string(),
        rows,
    }
}

/// Figure 3: dealiased (joint) seeds vs the full dataset.
pub fn fig3_dealias_ratio(grid: &Grid) -> RatioFigure {
    ratio_figure(
        grid,
        "Figure 3 — Performance Ratio of Dealiased vs Full seeds",
        DatasetKind::JointDealiased,
        DatasetKind::Full,
    )
}

/// Figure 4: responsive-only seeds vs the dealiased dataset.
pub fn fig4_active_ratio(grid: &Grid) -> RatioFigure {
    ratio_figure(
        grid,
        "Figure 4 — Performance Ratio of Only-Active vs Dealiased seeds",
        DatasetKind::AllActive,
        DatasetKind::JointDealiased,
    )
}

/// Table 4: aliases discovered per TGA under the four dealias regimes
/// (ICMP scans).
#[derive(Debug, Clone)]
pub struct Table4 {
    /// `(tga, [D_All, D_offline, D_online, D_joint])` alias counts.
    pub rows: Vec<(TgaId, [usize; 4])>,
}

/// Compute Table 4 from the grid.
pub fn table4_alias_regimes(grid: &Grid) -> Table4 {
    let regimes = [
        DatasetKind::Full,
        DatasetKind::OfflineDealiased,
        DatasetKind::OnlineDealiased,
        DatasetKind::JointDealiased,
    ];
    let rows = TgaId::ALL
        .iter()
        .filter_map(|&tga| {
            let mut counts = [0usize; 4];
            for (i, &regime) in regimes.iter().enumerate() {
                counts[i] = grid.try_get(regime, Protocol::Icmp, tga)?.metrics.aliases;
            }
            Some((tga, counts))
        })
        .collect();
    Table4 { rows }
}

impl Table4 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new("Table 4 — aliases discovered per dealias regime (ICMP)").header([
            "Model",
            "D_All",
            "D_offline",
            "D_online",
            "D_joint",
        ]);
        for &(tga, counts) in &self.rows {
            t.row([
                tga.label().to_string(),
                fmt_count(counts[0]),
                fmt_count(counts[1]),
                fmt_count(counts[2]),
                fmt_count(counts[3]),
            ]);
        }
        t.render()
    }
}

/// Tables 9–12: raw hits and ASes per dataset row per TGA, for one port.
pub fn raw_numbers_table(grid: &Grid, proto: Protocol) -> String {
    let table_no = match proto {
        Protocol::Icmp => 9,
        Protocol::Tcp80 => 10,
        Protocol::Tcp443 => 11,
        Protocol::Udp53 => 12,
    };
    let mut header = vec!["Metric".to_string(), "Dataset".to_string()];
    header.extend(TgaId::ALL.iter().map(|t| t.label().to_string()));
    let mut t = Table::new(format!(
        "Table {table_no} — raw numbers for {} experiments (RQ1–RQ2)",
        proto.label()
    ))
    .header(header);
    for metric in ["Hits", "ASes"] {
        for dataset in GRID_DATASETS {
            let mut row = vec![metric.to_string(), dataset.label()];
            for tga in TgaId::ALL {
                match grid.try_get(dataset, proto, tga) {
                    Some(r) => row.push(fmt_count(if metric == "Hits" {
                        r.metrics.hits
                    } else {
                        r.metrics.ases
                    })),
                    None => row.push("-".to_string()),
                }
            }
            t.row(row);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::experiments::grid::grid_over;
    use crate::study::Study;

    fn mini_grid() -> Grid {
        let study = Study::new(StudyConfig::tiny(88));
        grid_over(
            &study,
            &[
                DatasetKind::Full,
                DatasetKind::OfflineDealiased,
                DatasetKind::OnlineDealiased,
                DatasetKind::JointDealiased,
                DatasetKind::AllActive,
            ],
            &[Protocol::Icmp],
            &[TgaId::SixTree, TgaId::SixGen],
        )
    }

    #[test]
    fn fig3_shape_dealiasing_removes_aliases() {
        let grid = mini_grid();
        for tga in [TgaId::SixTree, TgaId::SixGen] {
            let full = grid.get(DatasetKind::Full, Protocol::Icmp, tga).metrics;
            let joint = grid
                .get(DatasetKind::JointDealiased, Protocol::Icmp, tga)
                .metrics;
            assert!(
                joint.aliases <= full.aliases,
                "{tga}: joint {} vs full {} aliases",
                joint.aliases,
                full.aliases
            );
        }
    }

    #[test]
    fn table4_regimes_order_like_the_paper() {
        let grid = mini_grid();
        let regimes = [
            DatasetKind::Full,
            DatasetKind::OfflineDealiased,
            DatasetKind::OnlineDealiased,
            DatasetKind::JointDealiased,
        ];
        for tga in [TgaId::SixTree, TgaId::SixGen] {
            let counts: Vec<usize> = regimes
                .iter()
                .map(|&r| grid.get(r, Protocol::Icmp, tga).metrics.aliases)
                .collect();
            // The paper's Table 4 claim: magnitudes fall as dealiasing gets
            // more specific — joint beats offline-only beats none. (Online
            // vs joint can be non-monotone; the paper observed that too.)
            assert!(counts[3] <= counts[1], "{tga}: joint vs offline {counts:?}");
            assert!(counts[1] <= counts[0], "{tga}: offline vs none {counts:?}");
        }
    }

    #[test]
    fn ratio_figure_skips_missing_cells() {
        let grid = mini_grid();
        let f = ratio_figure(
            &grid,
            "test",
            DatasetKind::JointDealiased,
            DatasetKind::Full,
        );
        // only the ICMP × {6Tree, 6Gen} cells exist in the mini grid
        assert_eq!(f.rows.len(), 2);
        assert!(f.rows.iter().all(|r| r.1 == Protocol::Icmp));
        assert!(f.render().contains("Hits PR"));
        let _ = (f.mean_hits_ratio(), f.median_ases_ratio());
    }
}
