//! Minimal aligned-table and CSV emission for the figure harness, and the
//! one reader the claims use: a cell looked up by named key columns.

use std::fmt::Write as _;
use std::path::Path;

/// A titled table with a header row and string cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table (e.g. "Figure 5a: peak throughput").
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No rows yet?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Write as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(out, "{}", self.header.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
        }
        std::fs::write(path, out)
    }

    /// Read a CSV that [`Table::write_csv`] wrote; the title is the path.
    pub fn read_csv(path: &Path) -> Result<Table, String> {
        let title = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{title}: {e}"))?;
        let mut lines = text.lines().map(split_csv_line);
        let header = lines.next().ok_or_else(|| format!("{title}: empty file"))?;
        let rows: Vec<Vec<String>> = lines.collect();
        if let Some(bad) = rows.iter().find(|r| r.len() != header.len()) {
            return Err(format!("{title}: row {bad:?} does not match header {header:?}"));
        }
        Ok(Table { title, header, rows })
    }

    /// The one cell in `column` of the row whose `key` columns hold the given
    /// values. Unless exactly one row matches, the error names the table, the
    /// key and the column.
    pub fn cell(&self, key: &[(&str, &str)], column: &str) -> Result<&str, String> {
        let fail = |problem: String| format!("{}: {problem}", self.lookup(key, column));
        let index = |name: &str| {
            let at = self.header.iter().position(|h| h == name);
            at.ok_or_else(|| fail(format!("no column {name:?}")))
        };
        let col = index(column)?;
        let key_at = key.iter().map(|&(name, value)| Ok((index(name)?, value)));
        let key_at = key_at.collect::<Result<Vec<_>, String>>()?;
        let mut found = self.rows.iter().filter(|r| key_at.iter().all(|&(i, v)| r[i] == v));
        match (found.next(), found.count()) {
            (Some(row), 0) => Ok(&row[col]),
            (None, _) => Err(fail("no such row".into())),
            (Some(_), more) => Err(fail(format!("{} rows", more + 1))),
        }
    }

    /// [`Table::cell`] parsed as a number.
    pub fn value(&self, key: &[(&str, &str)], column: &str) -> Result<f64, String> {
        let cell = self.cell(key, column)?;
        cell.parse().map_err(|_| format!("{}: {cell:?} is not a number", self.lookup(key, column)))
    }

    /// How an error names a lookup: `title [k=v, ...] "column"`.
    fn lookup(&self, key: &[(&str, &str)], column: &str) -> String {
        let key: Vec<String> = key.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{} [{}] {column:?}", self.title, key.join(", "))
    }
}

/// One CSV line as `write_csv` quotes it: a field holding `,` or `"` is
/// wrapped in quotes with each `"` doubled.
fn split_csv_line(line: &str) -> Vec<String> {
    let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => fields.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Format a float compactly (3 significant-ish decimals).
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format bytes as MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.0}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "tx/s"]);
        t.row(vec!["ethereum".into(), "284".into()]);
        t.row(vec!["parity".into(), "45".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("ethereum"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trips_through_disk() {
        let mut t = Table::new("x", &["a", "say \"hi\""]);
        t.row(vec!["1,5".into(), "plain".into()]);
        t.row(vec!["".into(), "a \"quoted\", b".into()]);
        let path = std::env::temp_dir().join(format!("bb_bench_table_{}.csv", std::process::id()));
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"1,5\",plain"));
        let back = Table::read_csv(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!((back.header, back.rows), (t.header, t.rows));
    }

    #[test]
    fn cell_errors_name_the_table_the_key_and_the_column() {
        let mut t = Table::new("Demo", &["platform", "rate", "tx/s"]);
        t.row(vec!["parity".into(), "8".into(), "38".into()]);
        t.row(vec!["parity".into(), "8".into(), "39".into()]);
        t.row(vec!["ethereum".into(), "8".into(), "X".into()]);
        assert_eq!(t.value(&[("platform", "ethereum")], "rate"), Ok(8.0));
        let err = |key: &[(&str, &str)], column| t.cell(key, column).unwrap_err();
        let no_row = "Demo [platform=fabric] \"tx/s\": no such row";
        assert_eq!(err(&[("platform", "fabric")], "tx/s"), no_row);
        assert_eq!(
            err(&[("platform", "parity"), ("rate", "8")], "tx/s"),
            "Demo [platform=parity, rate=8] \"tx/s\": 2 rows"
        );
        assert_eq!(
            err(&[("platform", "parity")], "latency"),
            "Demo [platform=parity] \"latency\": no column \"latency\""
        );
        let no_key_column = "Demo [servers=8] \"tx/s\": no column \"servers\"";
        assert_eq!(err(&[("servers", "8")], "tx/s"), no_key_column);
        let not_a_number = t.value(&[("platform", "ethereum")], "tx/s").unwrap_err();
        assert_eq!(not_a_number, "Demo [platform=ethereum] \"tx/s\": \"X\" is not a number");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(1234.5), "1234"); // Rust rounds half to even
        assert_eq!(num(12.345), "12.35");
        assert_eq!(num(0.01234), "0.0123");
        assert_eq!(mb(2_000_000), "2");
    }
}
