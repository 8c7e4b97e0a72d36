//! `compare A.json B.json`: apply the regression bounds of [`names`] to
//! two `result.json` files, per (metric, workload).
//!
//! A metric whose repetitions spread (min to max, as a share of the
//! median) wider than its bound on either side cannot tell "no change"
//! from noise: it is reported `unresolved`, not `unchanged` — unless every
//! repetition of B reads better than every repetition of A.

use sos_obs::Json;

use crate::names::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;

/// What the bounds say about one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a` for metric `m`.
pub fn judge(m: &EndToEnd, a: Summary, b: Summary) -> Verdict {
    // The bound as a share of the baseline, widened to the metric's
    // absolute slack where that is larger.
    let bound = if a.median > 0.0 {
        m.bound.max(m.abs_slack / a.median)
    } else {
        m.bound
    };
    // Positive `worse` = B is worse than A by that share of A.
    let (worse, b_all_better) = match m.better {
        Better::Lower => ((b.median - a.median) / a.median, b.max < a.min),
        Better::Higher => ((a.median - b.median) / a.median, b.min > a.max),
    };
    let too_noisy = a.spread() > bound || b.spread() > bound;
    if worse > bound {
        Verdict::Regressed
    } else if too_noisy && !b_all_better {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The outcome of comparing two result files.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One printable row per workload.
    pub rows: Vec<String>,
    pub regressed: usize,
    pub unresolved: usize,
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"workloads\" array".to_string())
}

fn side(workload: &Json, metric: &str) -> Option<Summary> {
    let row = workload.get("metrics")?.get(metric)?;
    let field = |k: &str| row.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: field("median")?,
        min: field("min")?,
        max: field("max")?,
        n: row.get("n")?.as_u64()? as usize,
    })
}

/// Compare `b` against baseline `a`, workload by workload.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    for wa in workloads(a)? {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} is missing from B"))?;
        let mut row = format!("{name:<16}");
        for m in &END_TO_END {
            let (sa, sb) = side(wa, m.name)
                .zip(side(wb, m.name))
                .ok_or_else(|| format!("{name}: metric {} missing", m.name))?;
            let verdict = judge(m, sa, sb);
            out.regressed += usize::from(verdict == Verdict::Regressed);
            out.unresolved += usize::from(verdict == Verdict::Unresolved);
            let change = (sb.median - sa.median) / sa.median * 100.0;
            row += &format!(" | {} {} ({change:+.1}%)", m.name, verdict.label());
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let failed_more = share(wb) > share(wa);
        out.regressed += usize::from(failed_more);
        row += &format!(
            " | failed_share {} ({} -> {})",
            if failed_more {
                "REGRESSED"
            } else {
                "unchanged"
            },
            share(wa),
            share(wb)
        );
        out.rows.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn flat(v: f64) -> Summary {
        Summary {
            median: v,
            min: v * 0.99,
            max: v * 1.01,
            n: 3,
        }
    }

    #[test]
    fn lower_is_better_metrics_trip_past_their_bound_only() {
        let wall = end_to_end("wall_s").expect("wall_s");
        assert_eq!(judge(wall, flat(10.0), flat(10.0)), Verdict::Unchanged);
        assert_eq!(judge(wall, flat(10.0), flat(12.4)), Verdict::Unchanged);
        assert_eq!(judge(wall, flat(10.0), flat(12.6)), Verdict::Regressed);
        assert_eq!(judge(wall, flat(10.0), flat(7.0)), Verdict::Improved);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let rate = end_to_end("cand_per_s").expect("cand_per_s");
        assert_eq!(judge(rate, flat(1000.0), flat(740.0)), Verdict::Regressed);
        assert_eq!(judge(rate, flat(1000.0), flat(1300.0)), Verdict::Improved);
        assert_eq!(judge(rate, flat(1000.0), flat(800.0)), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wall = end_to_end("wall_s").expect("wall_s");
        let noisy = Summary {
            median: 10.0,
            min: 8.5,
            max: 11.5,
            n: 3,
        };
        assert_eq!(judge(wall, noisy, flat(10.2)), Verdict::Unresolved);
        assert_eq!(judge(wall, flat(10.2), noisy), Verdict::Unresolved);
        assert_eq!(
            judge(wall, noisy, flat(7.0)),
            Verdict::Improved,
            "all of B below all of A"
        );
        assert_eq!(
            judge(wall, noisy, flat(8.0)),
            Verdict::Unchanged,
            "all below, but inside the bound"
        );
        assert_eq!(
            judge(wall, noisy, flat(13.0)),
            Verdict::Regressed,
            "a regression stays one"
        );
    }

    /// A result file with one workload whose every repetition took
    /// `wall_s` seconds (±1 %).
    fn result(wall_s: f64, failed: u64) -> Json {
        use crate::report::EndToEndRun;
        use crate::workloads::{Outcome, Rep, WorkloadId};
        let outcome = Outcome {
            candidates: 1_000_000,
            packets: 2_000_000,
            ops: 64,
            failed,
            digest: 9,
        };
        let reps: Vec<Rep> = [0.99, 1.0, 1.01]
            .iter()
            .map(|k| Rep {
                setup_s: 0.5 * k,
                wall_s: wall_s * k,
                peak_rss_mb: 60.0,
                outcome,
            })
            .collect();
        let mut doc = Json::obj();
        doc.set(
            "workloads",
            vec![EndToEndRun::from_reps(WorkloadId::GridSmall, 7, &reps).to_json()],
        );
        doc
    }

    #[test]
    fn a_result_agrees_with_itself_and_trips_on_an_injected_slowdown() {
        let same = compare(&result(7.0, 0), &result(7.0, 0)).expect("compare");
        assert_eq!(
            (same.regressed, same.unresolved, same.rows.len()),
            (0, 0, 1)
        );

        // Just inside the bound nothing trips ...
        let inside = compare(&result(7.0, 0), &result(7.0 * 1.15, 0)).expect("compare");
        assert_eq!(
            (inside.regressed, inside.unresolved),
            (0, 0),
            "{:?}",
            inside.rows
        );
        // ... past it wall_s does (cand_per_s falls by 1 - 1/1.3 = 23 %, inside).
        let slower = compare(&result(7.0, 0), &result(7.0 * 1.3, 0)).expect("compare");
        assert_eq!(slower.regressed, 1, "{:?}", slower.rows);
        assert!(
            slower.rows[0].contains("wall_s REGRESSED (+30.0%)"),
            "{}",
            slower.rows[0]
        );
        let much_slower = compare(&result(7.0, 0), &result(7.0 * 1.5, 0)).expect("compare");
        assert_eq!(
            much_slower.regressed, 3,
            "the throughputs follow: {:?}",
            much_slower.rows
        );

        let failing = compare(&result(7.0, 0), &result(7.0, 1)).expect("compare");
        assert_eq!(failing.regressed, 1);
        assert!(failing.rows[0].contains("failed_share REGRESSED"));

        assert!(
            compare(&result(7.0, 0), &Json::obj()).is_err(),
            "B without workloads"
        );
    }

    #[test]
    fn setup_gets_a_tenth_of_a_second_of_slack() {
        let setup = end_to_end("setup_s").expect("setup_s");
        assert_eq!(
            judge(setup, flat(0.2), flat(0.29)),
            Verdict::Unchanged,
            "+45 % but +0.09 s"
        );
        assert_eq!(judge(setup, flat(0.2), flat(0.32)), Verdict::Regressed);
        assert_eq!(judge(setup, flat(4.0), flat(4.9)), Verdict::Unchanged);
        assert_eq!(
            judge(setup, flat(4.0), flat(5.1)),
            Verdict::Regressed,
            "+27 %, share applies"
        );
    }
}
