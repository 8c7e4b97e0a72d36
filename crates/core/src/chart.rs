//! Terminal bar charts for the figures.
//!
//! The paper's figures are bar charts; the tables in [`crate::report`]
//! carry the exact numbers, and these charts carry the *shape* — sign and
//! relative magnitude at a glance — directly in the CLI output.

use std::fmt::Write as _;

/// Render a horizontal bar chart of labeled values.
///
/// Negative values grow left from the axis, positive right, so a
/// performance-ratio figure reads exactly like the paper's: bars above
/// zero are improvements.
pub fn bar_chart(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    if rows.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let label_w = rows
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let max_abs = rows
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let half = (width.max(20)) / 2;
    for (label, value) in rows {
        let cells = ((value.abs() / max_abs) * half as f64).round() as usize;
        let cells = cells.min(half);
        let (neg, pos) = if *value < 0.0 {
            (
                format!("{}{}", " ".repeat(half - cells), "█".repeat(cells)),
                String::new(),
            )
        } else {
            (" ".repeat(half), "█".repeat(cells))
        };
        let _ = writeln!(out, "{label:<label_w$} {neg}|{pos:<half$} {value:+.2}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_the_extreme_value() {
        let rows = vec![
            ("a".to_string(), 2.0),
            ("b".to_string(), 1.0),
            ("c".to_string(), -2.0),
        ];
        let s = bar_chart("t", &rows, 40);
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let bars: Vec<usize> = lines.iter().map(|l| l.matches('█').count()).collect();
        assert_eq!(bars[0], 20, "max positive fills half-width");
        assert_eq!(bars[1], 10, "half value fills half the bar");
        assert_eq!(bars[2], 20, "max negative fills half-width");
        // negative bar sits left of the axis
        let c_line = lines[2];
        assert!(c_line.find('█').unwrap() < c_line.find('|').unwrap());
    }

    #[test]
    fn zero_and_empty_are_safe() {
        let s = bar_chart("t", &[("x".into(), 0.0)], 40);
        assert!(s.contains("+0.00"));
        assert!(bar_chart("t", &[], 40).contains("(no data)"));
    }
}
