//! Minimal text-table and CSV output for the experiment harness.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple column-aligned table with a title.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Writes the table as CSV under `dir/<name>.csv`.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> std::io::Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        fs::write(dir.join(format!("{name}.csv")), s)
    }
}

/// Formats a float with 4 decimals.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = TextTable::new("demo", &["a", "metric"]);
        t.row(vec!["1".into(), f(0.5)]);
        t.row(vec!["22".into(), f(1.0)]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("0.5000"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = TextTable::new("csv", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("themis_table_test");
        t.write_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
    }
}
