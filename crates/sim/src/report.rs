//! Report formatting: ASCII tables and CSV for the experiment harness.

use std::fmt::Write as _;

use crate::metrics::SuiteResult;

/// A simple column-aligned text table with CSV export.
///
/// # Example
///
/// ```
/// use tlabp_sim::report::Table;
///
/// let mut table = Table::new(vec!["scheme".into(), "accuracy".into()]);
/// table.push_row(vec!["PAg(12)".into(), "97.1%".into()]);
/// let text = table.to_ascii();
/// assert!(text.contains("PAg(12)"));
/// assert_eq!(table.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        Table { headers, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a column-aligned ASCII table.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}");
            }
            out.push('\n');
        };
        emit_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit_row(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let mut emit = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.headers);
        for row in &self.rows {
            emit(row);
        }
        out
    }
}

/// Formats an accuracy as a percentage with two decimals (`"97.13"`), or
/// `"--"` for missing values — the paper's ungraphed data points.
#[must_use]
pub fn format_accuracy(accuracy: Option<f64>) -> String {
    match accuracy {
        Some(a) => format!("{:.2}", a * 100.0),
        None => "--".to_owned(),
    }
}

/// Builds the standard per-benchmark accuracy table (one row per scheme,
/// columns: benchmarks then Int/FP/Tot geometric means) in the layout of
/// the paper's figures.
#[must_use]
pub fn suite_table(results: &[SuiteResult]) -> Table {
    let mut headers = vec!["scheme".to_owned()];
    if let Some(first) = results.first() {
        headers.extend(first.rows.iter().map(|r| r.benchmark.clone()));
    }
    headers.extend(["Int GMean".to_owned(), "FP GMean".to_owned(), "Tot GMean".to_owned()]);

    let mut table = Table::new(headers);
    for result in results {
        let mut row = vec![result.scheme.clone()];
        row.extend(result.rows.iter().map(|r| format_accuracy(r.accuracy)));
        row.push(format_accuracy(Some(result.int_gmean())));
        row.push(format_accuracy(Some(result.fp_gmean())));
        row.push(format_accuracy(Some(result.total_gmean())));
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BenchmarkAccuracy;
    use tlabp_workloads::BenchmarkKind;

    #[test]
    fn ascii_alignment() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.push_row(vec!["xxxx".into(), "y".into()]);
        let text = t.to_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a   "), "{:?}", lines[0]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["name".into()]);
        t.push_row(vec!["PAg(BHT(512,4,12-sr),c)".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"PAg(BHT(512,4,12-sr),c)\""));
    }

    #[test]
    fn csv_quotes_cells_with_commas() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["x,y".into(), "plain".into()]);
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",plain\n");
    }

    #[test]
    fn csv_doubles_embedded_quotes() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "a\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn csv_quotes_cells_with_newlines() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec!["two\nlines".into()]);
        assert_eq!(t.to_csv(), "a\n\"two\nlines\"\n");
    }

    #[test]
    fn csv_escapes_headers_too() {
        let t = Table::new(vec!["k,v".into()]);
        assert_eq!(t.to_csv(), "\"k,v\"\n");
    }

    #[test]
    fn csv_leaves_plain_cells_unquoted() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["97.13".into(), "BTFN".into()]);
        assert_eq!(t.to_csv(), "a,b\n97.13,BTFN\n");
    }

    #[test]
    fn accuracy_formatting() {
        assert_eq!(format_accuracy(Some(0.9713)), "97.13");
        assert_eq!(format_accuracy(None), "--");
    }

    #[test]
    fn suite_table_layout() {
        let result = SuiteResult {
            scheme: "GAg(test)".to_owned(),
            rows: vec![BenchmarkAccuracy {
                benchmark: "li".to_owned(),
                kind: BenchmarkKind::Integer,
                accuracy: Some(0.9),
                context_switches: 0,
                predictions: 100,
            }],
        };
        let table = suite_table(&[result]);
        let csv = table.to_csv();
        assert!(csv.starts_with("scheme,li,Int GMean,FP GMean,Tot GMean"));
        assert!(csv.contains("90.00"));
    }
}
