//! Result rows and rendering.

use std::fmt::Write as _;
use std::path::Path;

/// One measured point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Figure id, e.g. `"fig9"`.
    pub figure: &'static str,
    /// Panel within the figure, e.g. `"8 clients"`.
    pub panel: String,
    /// Series (legend entry), e.g. `"List I/O"`.
    pub series: String,
    /// X value (number of accesses / clients).
    pub x: u64,
    /// Simulated seconds (the y axis).
    pub seconds: f64,
    /// Total wire requests the run issued.
    pub requests: u64,
    /// Total bytes that crossed the network.
    pub wire_bytes: u64,
}

/// Rows as CSV text, header first.
pub(crate) fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("figure,panel,series,x,seconds,requests,wire_bytes\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{}",
            r.figure, r.panel, r.series, r.x, r.seconds, r.requests, r.wire_bytes
        );
    }
    out
}

/// Write `to_csv` of `rows` to `path`.
pub fn write_csv(rows: &[Row], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_csv(rows))
}

/// Render rows as an aligned text table grouped by panel.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut panels: Vec<&str> = rows.iter().map(|r| r.panel.as_str()).collect();
    panels.dedup();
    let mut seen = std::collections::HashSet::new();
    panels.retain(|p| seen.insert(*p));
    for panel in panels {
        let _ = writeln!(out, "--- {} / {panel} ---", rows[0].figure);
        let _ = writeln!(
            out,
            "{:<10} {:>20} {:>14} {:>12} {:>14}",
            "x", "series", "seconds", "requests", "wire MB"
        );
        for r in rows.iter().filter(|r| r.panel == panel) {
            let _ = writeln!(
                out,
                "{:<10} {:>20} {:>14.3} {:>12} {:>14.2}",
                r.x,
                r.series,
                r.seconds,
                r.requests,
                r.wire_bytes as f64 / 1e6
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(panel: &str, series: &str, x: u64, s: f64) -> Row {
        Row {
            figure: "figX",
            panel: panel.into(),
            series: series.into(),
            x,
            seconds: s,
            requests: 10,
            wire_bytes: 1_000_000,
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let rows = vec![row("a", "s1", 1, 0.5), row("a", "s2", 1, 1.5)];
        let dir = pvfs_disk::ScratchDir::new("bench-csv");
        let path = dir.path().join("out.csv");
        write_csv(&rows, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("figure,panel,series,x,seconds,requests,wire_bytes")
        );
        assert_eq!(lines.nth(1), Some("figX,a,s2,1,1.500000,10,1000000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn table_groups_by_panel() {
        let rows = vec![row("p1", "s", 1, 0.5), row("p2", "s", 1, 0.6)];
        let t = render_table(&rows);
        assert!(t.contains("figX / p1"));
        assert!(t.contains("figX / p2"));
    }
}
