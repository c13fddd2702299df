//! Aligned text-table formatting for experiment reports.

use std::fmt;

/// A simple column-aligned text table with a title and optional notes.
///
/// # Example
///
/// ```
/// use lgr_bench::TextTable;
///
/// let mut t = TextTable::new("Demo", vec!["dataset", "speedup"]);
/// t.row(vec!["sd".into(), "16.8%".into()]);
/// let s = t.to_string();
/// assert!(s.contains("dataset"));
/// assert!(s.contains("16.8%"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl TextTable {
    /// A table with the given title and column headers.
    pub fn new(title: &str, header: Vec<&str>) -> Self {
        TextTable {
            title: title.to_owned(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a free-text note rendered under the table.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_owned());
    }
}

/// Formats a float as a percentage with one decimal, e.g. `16.8`.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Geometric mean of speedup factors (`baseline / value` ratios).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "=== {} ===", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>width$}", cells[i], width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("T", vec!["a", "bbbb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("note: hello"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("T", vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
