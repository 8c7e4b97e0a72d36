//! Budget sweep: how do hits and AS coverage scale with generation budget?
//!
//! The paper compares budgets implicitly — 50M per-run vs. a 600M single
//! run (Table 5) — and its contributions list "compar\[ing\] TGA generation
//! budgets". This experiment makes the comparison explicit: each TGA runs
//! at a ladder of budgets, yielding hits/ASes saturation curves. The
//! interesting shape: hit curves flatten as a generator exhausts its
//! model's productive space, while AS curves flatten much earlier —
//! exactly why the paper's metric choice matters.

use netmodel::Protocol;
use tga::TgaId;

use crate::chart::bar_chart;
use crate::experiments::Run;
use crate::report::{fmt_count, Table};
use crate::runner::{cell_salt, run_cells, Cell};
use crate::study::{DatasetKind, Study};

/// One TGA's saturation curve.
#[derive(Debug, Clone)]
pub struct BudgetCurve {
    /// The generator.
    pub tga: TgaId,
    /// `(budget, hits, ases)` points, ascending budget.
    pub points: Vec<(usize, usize, usize)>,
}

impl BudgetCurve {
    /// Marginal hits per extra generated address between the last two
    /// points — the saturation signal (≈0 when the model is exhausted).
    pub fn tail_efficiency(&self) -> f64 {
        match self.points.len() {
            0 | 1 => 0.0,
            n => {
                let (b1, h1, _) = self.points[n - 2];
                let (b2, h2, _) = self.points[n - 1];
                if b2 == b1 {
                    0.0
                } else {
                    (h2 as f64 - h1 as f64) / (b2 as f64 - b1 as f64)
                }
            }
        }
    }
}

/// Run the sweep: each TGA × each budget on the All-Active dataset.
pub fn budget_sweep(
    study: &Study,
    tgas: &[TgaId],
    budgets: &[usize],
    proto: Protocol,
) -> Vec<BudgetCurve> {
    let seeds = study.dataset(DatasetKind::AllActive);
    let cells = tgas.iter().flat_map(|&tga| {
        budgets.iter().map(move |&budget| {
            let salt = cell_salt(0xb5d9e7, tga, proto, budget as u64);
            let detail = format!("tga={tga} budget={budget}");
            Cell {
                tga,
                seeds,
                proto,
                budget,
                salt,
                detail,
                keep_hits: false,
            }
        })
    });
    let mut results = run_cells(study, "budget_sweep", cells.collect()).into_iter();
    tgas.iter()
        .map(|&tga| {
            let mut points: Vec<(usize, usize, usize)> = budgets
                .iter()
                .zip(results.by_ref())
                .map(|(&b, r)| (b, r.metrics.hits, r.metrics.ases))
                .collect();
            points.sort_by_key(|&(b, _, _)| b);
            BudgetCurve { tga, points }
        })
        .collect()
}

/// The default budget ladder relative to the study's configured budget:
/// 1/8×, 1/4×, 1/2×, 1× with floors of 64, 128 and 256, each capped at the
/// budget and listed once, ascending.
pub fn default_ladder(study: &Study) -> Vec<usize> {
    let b = study.config().budget;
    let mut ladder = [(b / 8).max(64), (b / 4).max(128), (b / 2).max(256), b]
        .map(|r| r.min(b))
        .to_vec();
    ladder.dedup();
    ladder
}

/// `seedscan budget-sweep`: every TGA's ICMP curve over the default
/// ladder, then each one's tail efficiency as a bar chart.
pub(crate) fn emit(r: &Run) -> Result<(), String> {
    let ladder = default_ladder(r.study());
    let curves = budget_sweep(r.study(), &TgaId::ALL, &ladder, Protocol::Icmp);
    r.emit("budget_sweep", render(&curves, Protocol::Icmp))?;
    let rows: Vec<(String, f64)> = curves
        .iter()
        .map(|c| (c.tga.label().to_string(), c.tail_efficiency()))
        .collect();
    let chart = bar_chart("Tail efficiency (marginal hits per candidate)", &rows, 50);
    r.emit("budget_sweep.tail", chart)
}

/// Render the sweep as a table.
pub fn render(curves: &[BudgetCurve], proto: Protocol) -> String {
    let mut t = Table::new(format!(
        "Budget sweep on {} (All-Active seeds)",
        proto.label()
    ))
    .header(["TGA", "Budget", "Hits", "ASes", "Hits/Budget"]);
    for c in curves {
        for &(budget, hits, ases) in &c.points {
            t.row([
                c.tga.label().to_string(),
                fmt_count(budget),
                fmt_count(hits),
                fmt_count(ases),
                format!("{:.3}", hits as f64 / budget.max(1) as f64),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn curves_are_monotone_in_budget() {
        let study = Study::new(StudyConfig::tiny(0xb0d6));
        let curves = budget_sweep(
            &study,
            &[TgaId::SixTree, TgaId::SixGen],
            &[500, 2000, 6000],
            Protocol::Icmp,
        );
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert_eq!(c.points.len(), 3);
            // more budget never reduces total hits or ASes (supersets of
            // candidate space scanned; small loss noise tolerated)
            for w in c.points.windows(2) {
                assert!(
                    w[1].1 as f64 >= 0.9 * w[0].1 as f64,
                    "{}: hits fell {} -> {}",
                    c.tga,
                    w[0].1,
                    w[1].1
                );
            }
            // efficiency declines with budget (saturation)
            let first_eff = c.points[0].1 as f64 / c.points[0].0 as f64;
            let last_eff = c.points[2].1 as f64 / c.points[2].0 as f64;
            assert!(
                last_eff <= first_eff * 1.25,
                "{}: efficiency should not grow with budget ({first_eff:.3} -> {last_eff:.3})",
                c.tga
            );
        }
        let rendered = render(&curves, Protocol::Icmp);
        assert!(rendered.contains("Hits/Budget"));
    }

    #[test]
    fn default_ladder_is_ascending_and_capped_at_study_budget() {
        for (budget, want) in [
            (64, vec![64]),
            (100, vec![64, 100]),
            (6_000, vec![750, 1_500, 3_000, 6_000]),
        ] {
            let study = Study::new(StudyConfig {
                budget,
                ..StudyConfig::tiny(0xb0d6)
            });
            assert_eq!(default_ladder(&study), want, "budget {budget}");
        }
    }

    #[test]
    fn tail_efficiency_math() {
        let c = BudgetCurve {
            tga: TgaId::SixTree,
            points: vec![(100, 50, 5), (200, 70, 6)],
        };
        assert!((c.tail_efficiency() - 0.2).abs() < 1e-12);
        assert_eq!(
            BudgetCurve {
                tga: TgaId::SixTree,
                points: vec![]
            }
            .tail_efficiency(),
            0.0
        );
    }
}
