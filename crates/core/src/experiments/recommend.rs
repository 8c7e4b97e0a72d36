//! RQ5 (§10): concrete recommendations, derived from measured results.
//!
//! The paper closes with operational guidance; this module regenerates
//! each recommendation *from the data*, attaching the measured support so
//! a reader can verify the claim against their own run.

use netmodel::Protocol;
use tga::TgaId;

use crate::experiments::grid::Grid;
use crate::experiments::rq1::{fig3_dealias_ratio, fig4_active_ratio, table4_alias_regimes};
use crate::experiments::rq2::{mean_hits_ratio_per_protocol, port_specific_ratios};
use crate::experiments::rq4::{combination_ases, combination_hits};
use crate::study::DatasetKind;

/// One recommendation with its measured support.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The paper's bullet this corresponds to.
    pub topic: &'static str,
    /// The operational guidance.
    pub guidance: String,
    /// Supporting numbers from this study run.
    pub evidence: String,
}

/// Derive the §10 recommendation list from a computed master grid.
pub fn recommendations(grid: &Grid) -> Vec<Recommendation> {
    let mut out = Vec::new();

    // Dealiasing.
    let fig3 = fig3_dealias_ratio(grid);
    let t4 = table4_alias_regimes(grid);
    let joint_vs_best_single: Vec<String> = t4
        .rows
        .iter()
        .map(|&(tga, c)| format!("{}: {}→{}", tga.label(), c[0], c[3]))
        .collect();
    out.push(Recommendation {
        topic: "Dealiasing",
        guidance: "Dealias seed datasets with BOTH offline (published list) and online \
                   (6Gen-style probing) before generation."
            .into(),
        evidence: format!(
            "dealiased seeds changed hits by {:+.2} and ASes by {:+.2} (median cell); \
             aliases generated (D_All→D_joint): {}",
            fig3.median_hits_ratio(),
            fig3.median_ases_ratio(),
            joint_vs_best_single.join(", ")
        ),
    });

    // Unresponsive addresses.
    let fig4 = fig4_active_ratio(grid);
    out.push(Recommendation {
        topic: "Unresponsive Addresses",
        guidance: "Pre-scan seeds and keep only addresses responsive on some port/protocol.".into(),
        evidence: format!(
            "active-only seeds changed hits by {:+.2} and ASes by {:+.2} (median cell)",
            fig4.median_hits_ratio(),
            fig4.median_ases_ratio()
        ),
    });

    // Port-specific seeds.
    let fig5 = port_specific_ratios(grid);
    let per_proto = mean_hits_ratio_per_protocol(&fig5);
    let tcp_gain = per_proto
        .iter()
        .filter(|(p, _)| matches!(p, Protocol::Tcp80 | Protocol::Tcp443 | Protocol::Udp53))
        .map(|(_, r)| *r)
        .sum::<f64>()
        / 3.0;
    out.push(Recommendation {
        topic: "Port-Specific",
        guidance: "Restrict seeds to the scan target's responsive addresses for hit volume, \
                   but blend in ICMP-active seeds when AS/network coverage matters."
            .into(),
        evidence: format!(
            "mean application-protocol hits ratio {:+.2}; mean ASes ratio {:+.2}",
            tcp_gain,
            fig5.mean_ases_ratio()
        ),
    });

    // Ports.
    out.push(Recommendation {
        topic: "Ports",
        guidance: "Evaluate TGAs across multiple ports and protocols; per-port topology \
                   differences reorder the generators."
            .into(),
        evidence: match largest_rank_shift(grid, Protocol::Icmp, Protocol::Udp53) {
            Some((tga, icmp, udp)) => format!(
                "largest All-Active hit-rank shift: {} is #{icmp} on ICMP and #{udp} on UDP53",
                tga.label()
            ),
            None => "no TGA was run on both ICMP and UDP53".into(),
        },
    });

    // Generators & combining.
    let hits_comb = combination_hits(grid, Protocol::Icmp);
    let ases_comb = combination_ases(grid, Protocol::Icmp);
    let first_hits = hits_comb.order.first().map(|&(t, _, _)| t);
    let first_ases = ases_comb.order.first().map(|&(t, _, _)| t);
    out.push(Recommendation {
        topic: "Generators",
        guidance: "No single generator wins both metrics; pick per goal or combine.".into(),
        evidence: format!(
            "top unique-hit contributor: {}; top unique-AS contributor: {}",
            first_hits.map(|t| t.label()).unwrap_or("-"),
            first_ases.map(|t| t.label()).unwrap_or("-")
        ),
    });
    out.push(Recommendation {
        topic: "Combining Generators",
        guidance: "Run multiple TGAs together for representative Internet coverage.".into(),
        evidence: format!(
            "top-3 generators cover {:.0}% of combined hits and {:.0}% of combined ASes (ICMP)",
            100.0 * hits_comb.coverage_after(3),
            100.0 * ases_comb.coverage_after(3)
        ),
    });

    out
}

/// The TGA whose All-Active hit rank differs most between `a` and `b`,
/// with its 1-based rank on each (most hits first). Only TGAs the grid
/// holds on both protocols are ranked; equal hits, and equal shifts, go
/// to the first in `TgaId::ALL` order.
fn largest_rank_shift(grid: &Grid, a: Protocol, b: Protocol) -> Option<(TgaId, usize, usize)> {
    let hits = |tga, proto| {
        grid.try_get(DatasetKind::AllActive, proto, tga)
            .map(|r| r.metrics.hits)
    };
    let both: Vec<(TgaId, [usize; 2])> = TgaId::ALL
        .into_iter()
        .filter_map(|t| Some((t, [hits(t, a)?, hits(t, b)?])))
        .collect();
    let rank = |i: usize, p: usize| {
        let own = both[i].1[p];
        let ahead = both
            .iter()
            .enumerate()
            .filter(|&(j, (_, h))| h[p] > own || (h[p] == own && j < i))
            .count();
        ahead + 1
    };
    let mut best: Option<(TgaId, usize, usize)> = None;
    for (i, &(tga, _)) in both.iter().enumerate() {
        let (ra, rb) = (rank(i, 0), rank(i, 1));
        if best.map_or(true, |(_, x, y)| ra.abs_diff(rb) > x.abs_diff(y)) {
            best = Some((tga, ra, rb));
        }
    }
    best
}

/// Render the recommendation list.
pub fn render(recs: &[Recommendation]) -> String {
    let mut out = String::from("== RQ5 — recommendations (with measured support) ==\n");
    for r in recs {
        out.push_str(&format!(
            "* {}: {}\n    evidence: {}\n",
            r.topic, r.guidance, r.evidence
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::experiments::grid::grid_over;
    use crate::study::Study;
    use netmodel::PROTOCOLS;

    #[test]
    fn recommendations_derive_from_a_minimal_grid() {
        let study = Study::new(StudyConfig::tiny(444));
        let grid = grid_over(
            &study,
            &[
                DatasetKind::Full,
                DatasetKind::OfflineDealiased,
                DatasetKind::OnlineDealiased,
                DatasetKind::JointDealiased,
                DatasetKind::AllActive,
                DatasetKind::PortSpecific(Protocol::Icmp),
                DatasetKind::PortSpecific(Protocol::Tcp80),
                DatasetKind::PortSpecific(Protocol::Tcp443),
                DatasetKind::PortSpecific(Protocol::Udp53),
            ],
            &PROTOCOLS,
            &[TgaId::SixTree, TgaId::SixGen],
        );
        let recs = recommendations(&grid);
        assert_eq!(recs.len(), 6);
        let rendered = render(&recs);
        assert!(rendered.contains("Dealiasing"));
        assert!(rendered.contains("evidence"));

        // The Ports evidence against a stable sort of each port's hits.
        let ranks = |proto| {
            let mut order: Vec<(TgaId, usize)> = TgaId::ALL
                .into_iter()
                .filter_map(|t| {
                    let r = grid.try_get(DatasetKind::AllActive, proto, t)?;
                    Some((t, r.metrics.hits))
                })
                .collect();
            order.sort_by_key(|&(_, hits)| std::cmp::Reverse(hits));
            order
        };
        let (icmp, udp) = (ranks(Protocol::Icmp), ranks(Protocol::Udp53));
        let rank_in =
            |order: &[(TgaId, usize)], t| 1 + order.iter().position(|&(o, _)| o == t).unwrap();
        let mut want = None;
        for t in TgaId::ALL
            .into_iter()
            .filter(|&t| icmp.iter().any(|&(o, _)| o == t))
        {
            let (ri, ru) = (rank_in(&icmp, t), rank_in(&udp, t));
            if want.map_or(true, |(_, x, y): (TgaId, usize, usize)| {
                ri.abs_diff(ru) > x.abs_diff(y)
            }) {
                want = Some((t, ri, ru));
            }
        }
        let (t, ri, ru) = want.unwrap();
        let ports = recs.iter().find(|r| r.topic == "Ports").unwrap();
        assert_eq!(
            ports.evidence,
            format!(
                "largest All-Active hit-rank shift: {} is #{ri} on ICMP and #{ru} on UDP53",
                t.label()
            )
        );
    }

    #[test]
    fn a_median_is_the_middle_cell() {
        let fig = |ratios: &[f64]| crate::experiments::rq1::RatioFigure {
            title: String::new(),
            rows: ratios
                .iter()
                .map(|&r| (TgaId::Det, Protocol::Icmp, r, -r, 0.0))
                .collect(),
        };
        // One near-zero base drags the mean, not the median.
        let skewed = fig(&[0.1, 2538.0, -0.2, 0.3]);
        assert_eq!(skewed.median_hits_ratio(), 0.2);
        assert_eq!(skewed.median_ases_ratio(), -0.2);
        assert!(skewed.mean_hits_ratio() > 600.0);
        assert_eq!(fig(&[3.0, -1.0, 2.0]).median_hits_ratio(), 2.0);
        assert_eq!(fig(&[]).median_hits_ratio(), 0.0);
    }
}
