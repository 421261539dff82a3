//! Plain-text table rendering and CSV output for the reproduction harness.
//!
//! Every experiment prints an aligned table to stdout (the rows/series the
//! paper's tables and figures report) and can persist the same data as CSV
//! under `results/`.

use crate::snapshot::{create_out_dir, Outcome};
use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (i, cell) in cells.iter().enumerate() {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                // Right-align numeric-looking cells, left-align the rest.
                let numeric =
                    cell.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
                        && cell.chars().all(|c| !c.is_ascii_alphabetic() || c == 'e' || c == 'x');
                if numeric {
                    let _ = write!(out, "{cell:>w$}", w = widths[i]);
                } else {
                    let _ = write!(out, "{cell:<w$}", w = widths[i]);
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Serializes as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV next to the other experiment outputs; a directory or
    /// file that cannot be written is the experiment's failure.
    pub fn save_csv(&self, dir: &Path, name: &str) -> Outcome {
        create_out_dir(dir).map_err(|e| vec![e])?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())
            .map_err(|e| vec![format!("could not write {}: {e}", path.display())])
    }
}

/// Formats a duration in seconds with sensible precision.
pub fn secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Formats a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a speedup ratio.
pub fn ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_counts() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "200".into()]);
        assert_eq!(t.len(), 2);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long-name"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["has,comma".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.50");
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(ratio(3.12), "3.1x");
        assert_eq!(ratio(250.0), "250x");
    }
}
