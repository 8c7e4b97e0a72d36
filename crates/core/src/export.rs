//! CSV export of experiment results — the raw series behind every figure,
//! for replotting with external tooling.

use std::io::Write;

use tga::TgaId;

use crate::experiments::grid::{Grid, GRID_DATASETS};
use crate::experiments::rq1::{self, RatioFigure};
use crate::experiments::rq4::{self, Contribution};
use crate::experiments::{rq2, Run};

/// `seedscan export`: the grid and the figure CSVs in ./export/, which
/// exists, each digested into the manifest as `export.<file>`. The first
/// write that fails names its file.
pub(crate) fn emit(r: &Run) -> Result<(), String> {
    let grid = r.grid();
    let write = |name: &str, render: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        r.write_file(&format!("export/{name}"), &format!("export.{name}"), render)
    };
    write("grid.csv", &|w| write_grid_csv(w, grid))?;
    let fig3 = rq1::fig3_dealias_ratio(grid);
    write("fig3_dealias_ratio.csv", &|w| write_ratio_csv(w, &fig3))?;
    let fig4 = rq1::fig4_active_ratio(grid);
    write("fig4_active_ratio.csv", &|w| write_ratio_csv(w, &fig4))?;
    let fig5 = rq2::port_specific_ratios(grid);
    write("fig5_port_specific.csv", &|w| write_ratio_csv(w, &fig5))?;
    for proto in netmodel::PROTOCOLS {
        let c = rq4::combination_hits(grid, proto);
        let name = format!("fig6_hits_{}.csv", proto.label().to_lowercase());
        write(&name, &|w| write_contribution_csv(w, &c))?;
    }
    Ok(())
}

/// Escape one CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write a ratio figure (Figures 3–5) as CSV:
/// `tga,port,hits_ratio,ases_ratio,aliases_ratio`.
pub fn write_ratio_csv<W: Write>(w: &mut W, fig: &RatioFigure) -> std::io::Result<()> {
    writeln!(w, "tga,port,hits_ratio,ases_ratio,aliases_ratio")?;
    for &(tga, proto, h, a, al) in &fig.rows {
        writeln!(
            w,
            "{},{},{h:.6},{a:.6},{al:.6}",
            field(tga.label()),
            field(proto.label())
        )?;
    }
    Ok(())
}

/// Write the full grid metrics as CSV:
/// `dataset,port,tga,generated,hits,ases,aliases,probe_packets`.
pub fn write_grid_csv<W: Write>(w: &mut W, grid: &Grid) -> std::io::Result<()> {
    writeln!(
        w,
        "dataset,port,tga,generated,hits,ases,aliases,probe_packets"
    )?;
    for dataset in GRID_DATASETS {
        for proto in netmodel::PROTOCOLS {
            for tga in TgaId::ALL {
                if let Some(r) = grid.try_get(dataset, proto, tga) {
                    let m = &r.metrics;
                    writeln!(
                        w,
                        "{},{},{},{},{},{},{},{}",
                        field(&dataset.label()),
                        field(proto.label()),
                        field(tga.label()),
                        m.generated,
                        m.hits,
                        m.ases,
                        m.aliases,
                        m.probe_packets
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Write a Figure 6 contribution curve as CSV:
/// `order,tga,new,cumulative,total`.
pub fn write_contribution_csv<W: Write>(w: &mut W, c: &Contribution) -> std::io::Result<()> {
    writeln!(w, "order,tga,new,cumulative,total")?;
    for (i, &(tga, new, cum)) in c.order.iter().enumerate() {
        writeln!(
            w,
            "{},{},{new},{cum},{}",
            i + 1,
            field(tga.label()),
            c.total
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::experiments::grid::grid_over;
    use crate::experiments::{rq1, rq4};
    use crate::study::{DatasetKind, Study};
    use netmodel::Protocol;

    fn grid() -> Grid {
        let study = Study::new(StudyConfig::tiny(0xC5F));
        grid_over(
            &study,
            &[DatasetKind::Full, DatasetKind::AllActive],
            &[Protocol::Icmp],
            &[TgaId::SixTree, TgaId::SixGen],
        )
    }

    #[test]
    fn grid_csv_has_header_and_rows() {
        let g = grid();
        let mut buf = Vec::new();
        write_grid_csv(&mut buf, &g).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "dataset,port,tga,generated,hits,ases,aliases,probe_packets"
        );
        assert_eq!(lines.len(), 1 + 4, "header + 4 cells");
    }

    #[test]
    fn ratio_csv_roundtrips_values() {
        let g = grid();
        let fig = rq1::ratio_figure(&g, "t", DatasetKind::AllActive, DatasetKind::Full);
        let mut buf = Vec::new();
        write_ratio_csv(&mut buf, &fig).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("tga,port,"));
        assert_eq!(text.lines().count(), 1 + fig.rows.len());
    }

    /// Both figure CSVs list their rows in table order — never in the
    /// order of the grid's hash map, which differs per process.
    #[test]
    fn csv_rows_follow_table_order() {
        let study = Study::new(StudyConfig::tiny(0xC5F));
        let g = grid_over(
            &study,
            &[DatasetKind::Full, DatasetKind::AllActive],
            &[Protocol::Icmp],
            &TgaId::ALL,
        );
        let mut buf = Vec::new();
        write_grid_csv(&mut buf, &g).unwrap();
        let keys: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .skip(1)
            .map(|l| l.splitn(4, ',').take(3).collect::<Vec<_>>().join(","))
            .collect();
        let want: Vec<String> = [DatasetKind::Full, DatasetKind::AllActive]
            .iter()
            .flat_map(|d| TgaId::ALL.map(|t| format!("{},ICMP,{}", d.label(), t.label())))
            .collect();
        assert_eq!(keys, want);

        let rows = TgaId::ALL
            .iter()
            .flat_map(|&t| netmodel::PROTOCOLS.map(|p| (t, p, 1.0, 2.0, 3.0)))
            .collect();
        let fig = RatioFigure {
            title: "t".into(),
            rows,
        };
        let mut buf = Vec::new();
        write_ratio_csv(&mut buf, &fig).unwrap();
        let keys: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .skip(1)
            .map(|l| l.splitn(3, ',').take(2).collect::<Vec<_>>().join(","))
            .collect();
        let want: Vec<String> = fig
            .rows
            .iter()
            .map(|(t, p, ..)| format!("{},{}", t.label(), p.label()))
            .collect();
        assert_eq!(keys, want);
    }

    #[test]
    fn contribution_csv_is_ordered() {
        let g = grid();
        let c = rq4::combination_hits(&g, Protocol::Icmp);
        let mut buf = Vec::new();
        write_contribution_csv(&mut buf, &c).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().nth(1).unwrap().starts_with("1,"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }
}
