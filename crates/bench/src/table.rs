//! Result formatting: aligned ASCII tables, simple bar charts for the
//! figures, and CSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Renders an aligned table: one label column plus numeric columns.
pub fn render_table(title: &str, headers: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(
            headers.first().map(|h| h.len()).unwrap_or(0),
        ))
        .max()
        .unwrap_or(8)
        .max(4);
    let col_w = headers
        .iter()
        .skip(1)
        .map(|h| h.len().max(9))
        .collect::<Vec<_>>();
    let _ = write!(out, "{:<label_w$}", headers.first().copied().unwrap_or(""));
    for (h, w) in headers.iter().skip(1).zip(&col_w) {
        let _ = write!(out, "  {h:>w$}");
    }
    let _ = writeln!(out);
    let total_w = label_w + col_w.iter().map(|w| w + 2).sum::<usize>();
    let _ = writeln!(out, "{}", "-".repeat(total_w));
    for (label, values) in rows {
        let _ = write!(out, "{label:<label_w$}");
        for (v, w) in values.iter().zip(&col_w) {
            let _ = write!(out, "  {v:>w$.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Writes a CSV file with a header row; creates parent directories.
///
/// # Errors
///
/// Returns the underlying I/O error on filesystem failure.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[(String, Vec<f64>)]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut body = String::new();
    let _ = writeln!(body, "{}", headers.join(","));
    for (label, values) in rows {
        let cells: Vec<String> = std::iter::once(label.clone())
            .chain(values.iter().map(|v| format!("{v}")))
            .collect();
        let _ = writeln!(body, "{}", cells.join(","));
    }
    fs::write(path, body)
}

/// Renders a time series as a compact ASCII chart (the terminal stand-in
/// for the paper's behavior graphs): `height` rows, one column per
/// sample bucket, y-axis auto-scaled, optional horizontal marker lines
/// (e.g. a target band's min/max).
pub fn render_series(
    title: &str,
    values: &[f64],
    width: usize,
    height: usize,
    markers: &[f64],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if values.is_empty() || width == 0 || height == 0 {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    // Bucket the series to `width` columns (mean per bucket).
    let cols: Vec<f64> = (0..width.min(values.len()))
        .map(|c| {
            let lo = c * values.len() / width.min(values.len());
            let hi = ((c + 1) * values.len() / width.min(values.len())).max(lo + 1);
            values[lo..hi.min(values.len())].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let lo = cols
        .iter()
        .chain(markers.iter())
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = cols
        .iter()
        .chain(markers.iter())
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let span = (hi - lo).max(1e-12);
    let row_of = |v: f64| (((v - lo) / span) * (height - 1) as f64).round() as usize;
    for row in (0..height).rev() {
        let y = lo + span * row as f64 / (height - 1).max(1) as f64;
        let is_marker_row = markers.iter().any(|&m| row_of(m) == row);
        let _ = write!(out, "{y:>8.2} |");
        for &v in &cols {
            let r = row_of(v);
            let ch = if r == row {
                '*'
            } else if is_marker_row {
                '-'
            } else {
                ' '
            };
            let _ = write!(out, "{ch}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(cols.len()));
    let _ = writeln!(
        out,
        "{:>10}0 .. {} samples ('-' rows mark targets)",
        "",
        values.len()
    );
    out
}

/// The workspace root, the base of [`results_dir`] and of
/// [`relative`].
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The directory experiment binaries write their CSVs to.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// `path` relative to the workspace root (unchanged if it lies
/// elsewhere), so printed paths do not depend on where the checkout
/// lives.
pub fn relative(path: &Path) -> &Path {
    path.strip_prefix(workspace_root()).unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let rows = vec![
            ("BL".to_string(), vec![1.0, 4.2]),
            ("SW".to_string(), vec![1.0, 3.999]),
        ];
        let t = render_table("Figure X", &["bench", "Baseline", "SO"], &rows);
        assert!(t.contains("Figure X"));
        assert!(t.contains("BL"));
        assert!(t.contains("4.200"));
        assert!(t.contains("3.999"));
        let header_line = t.lines().nth(1).unwrap();
        assert!(header_line.contains("Baseline"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("hars-bench-test");
        let path = dir.join("t.csv");
        let rows = vec![("x".to_string(), vec![1.5, 2.5])];
        write_csv(&path, &["label", "a", "b"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.starts_with("label,a,b"));
        assert!(content.contains("x,1.5,2.5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_chart_marks_peaks_and_targets() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 / 10.0).sin() + 2.0).collect();
        let chart = render_series("wave", &values, 40, 8, &[2.0]);
        assert!(chart.contains("wave"));
        assert!(chart.contains('*'), "plot body missing");
        assert!(chart.contains('-'), "marker row missing");
        assert!(chart.lines().count() >= 8);
    }

    #[test]
    fn series_chart_handles_empty_and_flat() {
        assert!(render_series("e", &[], 10, 5, &[]).contains("no data"));
        let flat = render_series("f", &[3.0; 20], 10, 5, &[]);
        assert!(flat.contains('*'));
    }
}
