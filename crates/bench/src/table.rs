//! Minimal text-table, CSV and gate output for the experiment harness.
//!
//! A gated experiment returns its table plus a list of [`Claim`]s: an
//! observed value checked against a stated bound. [`TextTable::to_json`]
//! is the one serialiser for `results/BENCH_<name>.json`.

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

    /// Serialises the table and its gate verdict as one JSON document:
    /// `{"title", "header", "rows" (string cells), "claims", "passed"}`.
    /// A table without claims (a paper figure) has `"claims": []` and
    /// passes.
    /// Non-finite numbers become `null`, so the document stays valid even
    /// when a gate fails hardest.
    pub fn to_json(&self, claims: &[Claim]) -> String {
        let strings = |cells: &[String]| {
            let quoted: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| strings(r)).collect();
        let claims_json: Vec<String> = claims
            .iter()
            .map(|c| {
                format!(
                    "{{\"id\": {}, \"observed\": {}, \"cmp\": \"{}\", \"bound\": {}, \"holds\": {}}}",
                    json_str(&c.id),
                    json_num(c.observed),
                    c.cmp.symbol(),
                    json_num(c.bound),
                    c.holds
                )
            })
            .collect();
        // One element per line; an empty list (a figure's claims) is `[]`.
        let list = |items: Vec<String>| {
            if items.is_empty() {
                "[]".to_string()
            } else {
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
        };
        format!(
            "{{\n  \"title\": {},\n  \"header\": {},\n  \"rows\": {},\n  \"claims\": {},\n  \"passed\": {}\n}}\n",
            json_str(&self.title),
            strings(&self.header),
            list(rows),
            list(claims_json),
            claims.iter().all(|c| c.holds)
        )
    }
}

/// How a claim's observed value must compare with its bound. `Above` is
/// for the strict floors (`shed > 0`); boolean facts are counts of
/// violations held `AtMost` 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `observed <= bound`.
    AtMost,
    /// `observed >= bound`.
    AtLeast,
    /// `observed > bound`.
    Above,
}

impl Cmp {
    /// The operator as printed and serialised.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::AtMost => "<=",
            Cmp::AtLeast => ">=",
            Cmp::Above => ">",
        }
    }
}

/// One gate clause: an observed value checked against a stated bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What was measured, e.g. `balance-sic.advantage`.
    pub id: String,
    /// The measured value.
    pub observed: f64,
    /// How `observed` must compare with `bound`.
    pub cmp: Cmp,
    /// The stated threshold.
    pub bound: f64,
    /// The verdict (a NaN observation never holds).
    pub holds: bool,
}

impl Claim {
    fn new(id: impl Into<String>, observed: f64, cmp: Cmp, bound: f64) -> Claim {
        let holds = match cmp {
            Cmp::AtMost => observed <= bound,
            Cmp::AtLeast => observed >= bound,
            Cmp::Above => observed > bound,
        };
        Claim {
            id: id.into(),
            observed,
            cmp,
            bound,
            holds,
        }
    }

    /// `observed <= bound`.
    pub fn at_most(id: impl Into<String>, observed: f64, bound: f64) -> Claim {
        Claim::new(id, observed, Cmp::AtMost, bound)
    }

    /// `observed >= bound`.
    pub fn at_least(id: impl Into<String>, observed: f64, bound: f64) -> Claim {
        Claim::new(id, observed, Cmp::AtLeast, bound)
    }

    /// `observed > bound`.
    pub fn above(id: impl Into<String>, observed: f64, bound: f64) -> Claim {
        Claim::new(id, observed, Cmp::Above, bound)
    }
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number, or `null` for NaN and ±infinity (JSON has neither).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
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

    #[test]
    fn a_figure_without_claims_passes() {
        let json = TextTable::new("fig", &["x"]).to_json(&[]);
        assert!(json.ends_with("\"rows\": [],\n  \"claims\": [],\n  \"passed\": true\n}\n"));
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite_numbers() {
        let mut t = TextTable::new("say \"hi\"\\now", &["a\nb"]);
        t.row(vec!["tab\there\u{1}".into()]);
        let claims = [
            Claim::at_most("inf", f64::INFINITY, 0.15),
            Claim::above("nan", f64::NAN, f64::NEG_INFINITY),
            Claim::at_least("ok", 1.0, 1.0),
        ];
        assert!(claims.iter().map(|c| c.holds).eq([false, false, true]));
        assert_eq!(
            t.to_json(&claims),
            r#"{
  "title": "say \"hi\"\\now",
  "header": ["a\u000ab"],
  "rows": [
    ["tab\u0009here\u0001"]
  ],
  "claims": [
    {"id": "inf", "observed": null, "cmp": "<=", "bound": 0.15, "holds": false},
    {"id": "nan", "observed": null, "cmp": ">", "bound": null, "holds": false},
    {"id": "ok", "observed": 1, "cmp": ">=", "bound": 1, "holds": true}
  ],
  "passed": false
}
"#
        );
    }
}
