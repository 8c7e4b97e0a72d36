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
            "dealiased seeds changed hits by {:+.2} and ASes by {:+.2} on average; \
             aliases generated (D_All→D_joint): {}",
            fig3.mean_hits_ratio(),
            fig3.mean_ases_ratio(),
            joint_vs_best_single.join(", ")
        ),
    });

    // Unresponsive addresses.
    let fig4 = fig4_active_ratio(grid);
    out.push(Recommendation {
        topic: "Unresponsive Addresses",
        guidance: "Pre-scan seeds and keep only addresses responsive on some port/protocol.".into(),
        evidence: format!(
            "active-only seeds changed hits by {:+.2} and ASes by {:+.2} on average",
            fig4.mean_hits_ratio(),
            fig4.mean_ases_ratio()
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
        evidence: {
            let best_icmp = best_on(grid, Protocol::Icmp);
            let best_udp = best_on(grid, Protocol::Udp53);
            format!(
                "best hit-count TGA: {} on ICMP vs {} on UDP53",
                best_icmp.label(),
                best_udp.label()
            )
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

/// The TGA with the most All-Active hits on `proto` in this grid.
fn best_on(grid: &Grid, proto: Protocol) -> TgaId {
    TgaId::ALL
        .iter()
        .copied()
        .max_by_key(|&t| {
            grid.try_get(DatasetKind::AllActive, proto, t)
                .map(|r| r.metrics.hits)
                .unwrap_or(0)
        })
        .expect("eight TGAs")
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
    }
}
