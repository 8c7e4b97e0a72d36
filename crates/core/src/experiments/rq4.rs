//! RQ4 (§9): generator overlap and combination — Figure 6.
//!
//! Greedy set-cover ordering of generators by *unique* contribution: the
//! first generator is the one with the most hits; each subsequent one is
//! the generator adding the most not-yet-covered hits (or ASes). The
//! paper's finding: a small subset of generators yields a supermajority of
//! total coverage, and the ordering differs between the hit and AS
//! metrics.

use std::collections::{BTreeSet, HashSet};

use netmodel::{Asn, Protocol};
use tga::TgaId;

use crate::experiments::grid::Grid;
use crate::report::{fmt_count, Table};
use crate::study::DatasetKind;

/// Cumulative-contribution curve for one metric on one port.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// Scan target.
    pub proto: Protocol,
    /// `(tga, new_items, cumulative_items)` in greedy order.
    pub order: Vec<(TgaId, usize, usize)>,
    /// Union size across all eight generators.
    pub total: usize,
}

impl Contribution {
    /// Fraction of the total covered by the first `k` generators.
    pub fn coverage_after(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.order
            .get(k.saturating_sub(1))
            .map(|&(_, _, cum)| cum as f64 / self.total as f64)
            .unwrap_or(1.0)
    }
}

fn greedy_order<T: std::hash::Hash + Eq + Copy>(
    sets: Vec<(TgaId, HashSet<T>)>,
    proto: Protocol,
) -> Contribution {
    let mut union: HashSet<T> = HashSet::new();
    for (_, s) in &sets {
        union.extend(s.iter().copied());
    }
    let total = union.len();

    let mut covered: HashSet<T> = HashSet::new();
    let mut remaining = sets;
    let mut order = Vec::new();
    while !remaining.is_empty() {
        // Pick the generator with the largest marginal contribution;
        // ties broken by the stable TgaId order.
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (i, s.iter().filter(|x| !covered.contains(x)).count()))
            .max_by_key(|&(i, new)| (new, std::cmp::Reverse(i)))
            .expect("non-empty");
        let (tga, set) = remaining.remove(best_idx);
        let new: usize = set.iter().filter(|x| !covered.contains(x)).count();
        covered.extend(set);
        order.push((tga, new, covered.len()));
    }
    Contribution {
        proto,
        order,
        total,
    }
}

/// Figure 6 (hits panel): cumulative unique hit contribution per TGA on
/// the All-Active dataset.
pub fn combination_hits(grid: &Grid, proto: Protocol) -> Contribution {
    let sets: Vec<(TgaId, HashSet<u128>)> = TgaId::ALL
        .iter()
        .filter_map(|&tga| {
            let cell = grid.try_get(DatasetKind::AllActive, proto, tga)?;
            Some((
                tga,
                cell.clean_hits.iter().map(|&a| u128::from(a)).collect(),
            ))
        })
        .collect();
    greedy_order(sets, proto)
}

/// Figure 6 (ASes panel): cumulative unique AS contribution per TGA.
pub fn combination_ases(grid: &Grid, proto: Protocol) -> Contribution {
    let sets: Vec<(TgaId, HashSet<Asn>)> = TgaId::ALL
        .iter()
        .filter_map(|&tga| {
            let cell = grid.try_get(DatasetKind::AllActive, proto, tga)?;
            let set: BTreeSet<Asn> = cell.ases.clone();
            Some((tga, set.into_iter().collect()))
        })
        .collect();
    greedy_order(sets, proto)
}

/// Render one Figure 6 panel.
pub fn render_contribution(c: &Contribution, metric: &str) -> String {
    let mut t = Table::new(format!(
        "Figure 6 — cumulative unique {metric} contribution ({})",
        c.proto.label()
    ))
    .header(["Order", "TGA", "New", "Cumulative", "Coverage"]);
    for (i, &(tga, new, cum)) in c.order.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            tga.label().to_string(),
            fmt_count(new),
            fmt_count(cum),
            format!("{:.1}%", 100.0 * cum as f64 / c.total.max(1) as f64),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::experiments::grid::grid_over;
    use crate::study::Study;

    #[test]
    fn greedy_order_is_monotone_and_complete() {
        let study = Study::new(StudyConfig::tiny(222));
        let tgas = [TgaId::SixTree, TgaId::SixGen, TgaId::SixGraph];
        let grid = grid_over(&study, &[DatasetKind::AllActive], &[Protocol::Icmp], &tgas);
        let c = combination_hits(&grid, Protocol::Icmp);
        assert_eq!(c.order.len(), 3);
        // marginal contributions are non-increasing
        for w in c.order.windows(2) {
            assert!(w[0].1 >= w[1].1, "{:?}", c.order);
        }
        // final cumulative equals the union size
        assert_eq!(c.order.last().unwrap().2, c.total);
        assert!((c.coverage_after(3) - 1.0).abs() < 1e-12);
        assert!(c.coverage_after(1) <= 1.0);
        let rendered = render_contribution(&c, "hits");
        assert!(rendered.contains("Cumulative"));
    }

    #[test]
    fn as_combination_works_too() {
        let study = Study::new(StudyConfig::tiny(222));
        let grid = grid_over(
            &study,
            &[DatasetKind::AllActive],
            &[Protocol::Icmp],
            &[TgaId::SixTree, TgaId::Det],
        );
        let c = combination_ases(&grid, Protocol::Icmp);
        assert_eq!(c.order.len(), 2);
        assert_eq!(c.order.last().unwrap().2, c.total);
    }
}
