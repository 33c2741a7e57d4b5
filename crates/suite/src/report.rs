//! ASCII report rendering: tables plus notes, the textual equivalent of
//! the paper's figures.

/// One table of results.
///
/// # Examples
///
/// ```
/// use m7_suite::Table;
///
/// let mut t = Table::new("speedups", vec!["platform", "x"]);
/// t.push_row(vec!["cpu", "1.0"]);
/// t.push_row(vec!["gpu", "12.3"]);
/// let text = t.to_string();
/// assert!(text.contains("platform"));
/// assert!(text.contains("12.3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(title: impl Into<String>, headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Table title.
    #[must_use]
    pub(crate) fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// The value at `(row, col)`, if present.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row).and_then(|r| r.get(col)).map(String::as_str)
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Column widths from headers and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut core::fmt::Formatter<'_>, cells: &[String]| -> core::fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// A full experiment report: tables plus free-form findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    title: String,
    tables: Vec<Table>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), tables: Vec::new(), notes: Vec::new() }
    }

    /// The tables.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The notes.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a table.
    pub fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Appends a note.
    pub(crate) fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Finds a table by title.
    #[must_use]
    pub fn table(&self, title: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.title() == title)
    }
}

impl core::fmt::Display for Report {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "# {}", self.title)?;
        writeln!(f)?;
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "### Notes")?;
            for note in &self.notes {
                writeln!(f, "- {note}")?;
            }
        }
        Ok(())
    }
}

/// Formats a float with three significant-looking decimals for tables.
#[must_use]
pub fn fmt_f64(value: f64) -> String {
    if !value.is_finite() {
        return if value.is_nan() { "nan".into() } else { "inf".into() };
    }
    if value == 0.0 {
        return "0".into();
    }
    let magnitude = value.abs();
    if magnitude >= 1000.0 {
        format!("{value:.0}")
    } else if magnitude >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new("demo", vec!["name", "value"]);
        t.push_row(vec!["short", "1"]);
        t.push_row(vec!["a-much-longer-name", "2"]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        // Both data lines have the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("bad", vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("experiment");
        let mut t = Table::new("t1", vec!["x"]);
        t.push_row(vec!["7"]);
        r.push_table(t);
        r.push_note("finding");
        assert_eq!(r.table("t1").unwrap().cell(0, 0), Some("7"));
        assert!(r.table("missing").is_none());
        let text = r.to_string();
        assert!(text.contains("# experiment"));
        assert!(text.contains("- finding"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5), "1234");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(0.01234), "0.0123");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(f64::NAN), "nan");
    }
}
