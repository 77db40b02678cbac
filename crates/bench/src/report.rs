//! Markdown-table rendering for experiment output.

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders GitHub-flavoured markdown.
    pub(crate) fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats an overhead fraction as a percentage (`0.021` → `"2.1%"`).
pub(crate) fn fmt_overhead(overhead: f64) -> String {
    format!("{:.1}%", overhead * 100.0)
}

/// Formats a slowdown ratio (`36.62` → `"36.62x"`).
pub(crate) fn fmt_slowdown(slowdown: f64) -> String {
    format!("{slowdown:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(&["Name", "Overhead"]);
        t.row(&["TMM".into(), "6.2%".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| Name"));
        assert!(md.lines().count() == 3);
        assert!(md.contains("| TMM"));
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_overhead(0.021), "2.1%");
        assert_eq!(fmt_slowdown(36.615), "36.62x");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(&["x".into()]);
    }
}
