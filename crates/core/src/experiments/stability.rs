//! Measurement-noise quantification: how stable are a TGA's metrics
//! across generation RNG seeds?
//!
//! The paper reports single runs per cell; §4.1 itself concedes that
//! "defining and evaluating detailed metrics for large-scale Internet
//! scanning is still an open problem". This extension runs each generator
//! K times with different RNG seeds (same study, same seeds, same budget)
//! and reports mean ± standard deviation — the error bars the community's
//! TGA comparisons usually omit. Offline deterministic sweeps (6Gen) show
//! near-zero variance; samplers and bandits show more; any conclusion
//! thinner than the noise band is flagged.

use netmodel::Protocol;
use tga::TgaId;

use crate::report::{fmt_count, Table};
use crate::runner::{run_cells, Cell};
use crate::study::{DatasetKind, Study};

/// Mean/stddev summary of one metric across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n<2).
    pub stddev: f64,
    /// Smallest observation.
    pub min: usize,
    /// Largest observation.
    pub max: usize,
}

impl Spread {
    /// Compute from raw observations.
    pub fn of(values: &[usize]) -> Spread {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<usize>() as f64 / n;
        let var = if values.len() < 2 {
            0.0
        } else {
            values
                .iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0)
        };
        Spread {
            mean,
            stddev: var.sqrt(),
            min: values.iter().min().copied().unwrap_or(0),
            max: values.iter().max().copied().unwrap_or(0),
        }
    }

    /// Coefficient of variation (stddev/mean; 0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Stability of one TGA.
#[derive(Debug, Clone)]
pub struct TgaStability {
    /// The generator.
    pub tga: TgaId,
    /// Hit-count spread across repetitions.
    pub hits: Spread,
    /// AS-count spread across repetitions.
    pub ases: Spread,
    /// Repetition count.
    pub reps: usize,
}

/// Run each TGA `reps` times with distinct generation seeds on the
/// All-Active dataset.
pub fn stability(study: &Study, tgas: &[TgaId], reps: usize, proto: Protocol) -> Vec<TgaStability> {
    let (seeds, budget) = (study.dataset(DatasetKind::AllActive), study.config().budget);
    let cells = tgas.iter().flat_map(|&tga| {
        (0..reps as u64).map(move |rep| {
            // the rep perturbs only the generation/evaluation salt
            let (salt, detail) = (
                netmodel::mix::mix3(0x57ab, tga as u64, rep),
                format!("tga={tga} rep={rep}"),
            );
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
    let mut results = run_cells(study, "stability", cells.collect()).into_iter();
    tgas.iter()
        .map(|&tga| {
            let (hits, ases): (Vec<usize>, Vec<usize>) = results
                .by_ref()
                .take(reps)
                .map(|r| (r.metrics.hits, r.metrics.ases))
                .unzip();
            TgaStability {
                tga,
                hits: Spread::of(&hits),
                ases: Spread::of(&ases),
                reps,
            }
        })
        .collect()
}

/// Render the stability table.
pub fn render(rows: &[TgaStability], proto: Protocol) -> String {
    let mut t = Table::new(format!(
        "Extension — metric stability across generation seeds ({})",
        proto.label()
    ))
    .header([
        "TGA",
        "Reps",
        "Hits mean",
        "Hits σ",
        "Hits CV",
        "ASes mean",
        "ASes σ",
    ]);
    for r in rows {
        t.row([
            r.tga.label().to_string(),
            r.reps.to_string(),
            fmt_count(r.hits.mean.round() as usize),
            format!("{:.0}", r.hits.stddev),
            format!("{:.1}%", 100.0 * r.hits.cv()),
            fmt_count(r.ases.mean.round() as usize),
            format!("{:.0}", r.ases.stddev),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn spread_math() {
        let s = Spread::of(&[10, 20, 30]);
        assert!((s.mean - 20.0).abs() < 1e-12);
        assert!((s.stddev - 10.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (10, 30));
        assert!((s.cv() - 0.5).abs() < 1e-12);
        // degenerate cases
        assert_eq!(Spread::of(&[7]).stddev, 0.0);
        assert_eq!(Spread::of(&[]).cv(), 0.0);
    }

    #[test]
    fn deterministic_sweepers_have_low_variance() {
        let study = Study::new(StudyConfig::tiny(0x57ab));
        let rows = stability(&study, &[TgaId::SixGen, TgaId::SixTree], 3, Protocol::Icmp);
        assert_eq!(rows.len(), 2);
        let sixgen = rows.iter().find(|r| r.tga == TgaId::SixGen).unwrap();
        // 6Gen's enumeration is RNG-free until the mutation filler; its
        // hit variance should be far below its mean
        assert!(
            sixgen.hits.cv() < 0.15,
            "6Gen CV {} (mean {}, σ {})",
            sixgen.hits.cv(),
            sixgen.hits.mean,
            sixgen.hits.stddev
        );
        let rendered = render(&rows, Protocol::Icmp);
        assert!(rendered.contains("Hits CV"));
    }
}
