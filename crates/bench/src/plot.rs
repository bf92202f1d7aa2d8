//! Terminal rendering of figure rows as log-scale bar charts.
//!
//! The paper's measured figures are log- or linear-scale line charts;
//! a terminal harness can't draw those, but a labelled bar per
//! (series, x) with a logarithmic length axis makes the orders-of-
//! magnitude relationships — the thing the reproduction is about —
//! visible at a glance in `figures` output and in CI logs.

use crate::report::{panels, Row};
use std::fmt::Write as _;

/// Width of the bar area in characters.
const BAR_WIDTH: usize = 48;

/// Render rows as per-panel log-scale bar charts.
///
/// Bars are scaled so the panel's fastest result is one tick and the
/// slowest fills the width; each decade of difference gets an equal
/// share of the bar, so "two orders of magnitude" literally reads as
/// two-thirds of the width on a three-decade panel.
pub fn render_bars(rows: &[Row]) -> String {
    let mut out = String::new();
    for panel in panels(rows) {
        let panel_rows: Vec<&Row> = rows.iter().filter(|r| r.panel == panel).collect();
        let seconds = panel_rows.iter().map(|r| r.seconds);
        let min = seconds.clone().fold(f64::INFINITY, f64::min).max(1e-9);
        let max = seconds.fold(0.0f64, f64::max).max(min * 1.0001);
        let decades = (max / min).log10().max(0.1);
        let _ = writeln!(
            out,
            "--- {} / {panel} (log scale, {:.1} decades) ---",
            panel_rows[0].figure, decades
        );
        for r in &panel_rows {
            let frac = ((r.seconds / min).log10() / decades).clamp(0.0, 1.0);
            let ticks = 1 + (frac * (BAR_WIDTH - 1) as f64).round() as usize;
            let _ = writeln!(
                out,
                "{:>9} {:<20} {:<width$} {:>12.3}s",
                r.x,
                r.series,
                "█".repeat(ticks),
                r.seconds,
                width = BAR_WIDTH
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(panel: &str, series: &str, x: u64, seconds: f64) -> Row {
        Row {
            figure: "figT",
            panel: panel.into(),
            series: series.into(),
            x,
            seconds,
            requests: 0,
            wire_bytes: 0,
        }
    }

    #[test]
    fn bars_scale_logarithmically() {
        let rows = vec![
            row("p", "fast", 1, 1.0),
            row("p", "mid", 1, 10.0),
            row("p", "slow", 1, 100.0),
        ];
        let s = render_bars(&rows);
        let lens: Vec<usize> = s
            .lines()
            .filter(|l| l.contains('█'))
            .map(|l| l.matches('█').count())
            .collect();
        assert_eq!(lens.len(), 3);
        // One decade ≈ half the two-decade span.
        assert!(lens[0] < lens[1] && lens[1] < lens[2]);
        let mid_frac = (lens[1] - lens[0]) as f64 / (lens[2] - lens[0]) as f64;
        assert!((0.4..0.6).contains(&mid_frac), "mid_frac {mid_frac}");
    }

    #[test]
    fn panels_render_separately() {
        let rows = vec![row("a", "s", 1, 1.0), row("b", "s", 1, 2.0)];
        let s = render_bars(&rows);
        assert!(s.contains("figT / a"));
        assert!(s.contains("figT / b"));
    }

    #[test]
    fn equal_values_do_not_panic() {
        let rows = vec![row("p", "x", 1, 5.0), row("p", "y", 1, 5.0)];
        let s = render_bars(&rows);
        assert!(s.contains('█'));
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(render_bars(&[]).is_empty());
    }

    #[test]
    fn two_orders_fill_two_thirds_of_three_decades() {
        let rows = vec![
            row("p", "a", 1, 1.0),
            row("p", "b", 1, 100.0),
            row("p", "c", 1, 1000.0),
        ];
        let s = render_bars(&rows);
        let lens: Vec<usize> = s
            .lines()
            .filter(|l| l.contains('█'))
            .map(|l| l.matches('█').count())
            .collect();
        let frac = (lens[1] - lens[0]) as f64 / (lens[2] - lens[0]) as f64;
        assert!((0.6..0.73).contains(&frac), "frac {frac}");
    }
}
