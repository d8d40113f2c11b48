//! Plain-text experiment reports.

use crate::orchestrate::canonical::CanonicalJson;

/// A small table of results for one reproduced figure or table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentReport {
    /// Experiment identifier (e.g. "fig10").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports for this artefact (for side-by-side reading).
    pub paper_expectation: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form observations computed from the rows (speed-ups, loss rates…).
    pub findings: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str, paper_expectation: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            paper_expectation: paper_expectation.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Adds a finding.
    pub fn push_finding(&mut self, finding: String) {
        self.findings.push(finding);
    }

    /// Renders the report as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("paper: {}\n", self.paper_expectation));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for finding in &self.findings {
            out.push_str(&format!("-> {finding}\n"));
        }
        out
    }

    /// Converts the report to a canonical JSON value — the shape job
    /// artifacts embed and `reproduce --json` writes.  Every field is a
    /// string (cells are pre-formatted), so the conversion is lossless and
    /// [`Self::from_canonical`] restores an equal report.
    #[must_use]
    pub fn to_canonical(&self) -> CanonicalJson {
        let strings = |items: &[String]| {
            CanonicalJson::Array(items.iter().map(|s| CanonicalJson::str(s)).collect())
        };
        CanonicalJson::object(vec![
            ("findings", strings(&self.findings)),
            ("headers", strings(&self.headers)),
            ("id", CanonicalJson::str(&self.id)),
            (
                "paper_expectation",
                CanonicalJson::str(&self.paper_expectation),
            ),
            (
                "rows",
                CanonicalJson::Array(self.rows.iter().map(|row| strings(row)).collect()),
            ),
            ("title", CanonicalJson::str(&self.title)),
        ])
    }

    /// Restores a report from its [`Self::to_canonical`] value.
    pub fn from_canonical(value: &CanonicalJson) -> Result<Self, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("report is missing `{key}`"))
        };
        let string = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("report `{key}` is not a string"))
        };
        let strings = |v: &CanonicalJson, what: &str| -> Result<Vec<String>, String> {
            v.as_array()
                .ok_or_else(|| format!("report `{what}` is not an array"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("report `{what}` holds a non-string"))
                })
                .collect()
        };
        Ok(Self {
            id: string("id")?,
            title: string("title")?,
            paper_expectation: string("paper_expectation")?,
            headers: strings(field("headers")?, "headers")?,
            rows: field("rows")?
                .as_array()
                .ok_or("report `rows` is not an array")?
                .iter()
                .map(|row| strings(row, "rows"))
                .collect::<Result<_, _>>()?,
            findings: strings(field("findings")?, "findings")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut r = ExperimentReport::new("figX", "Example", "expect things", &["a", "bb"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_row(vec!["333".into(), "4".into()]);
        r.push_finding("done".into());
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("expect things"));
        assert!(text.contains("333"));
        assert!(text.contains("-> done"));
    }

    #[test]
    fn canonical_roundtrip_restores_the_report() {
        let mut r = ExperimentReport::new(
            "figX",
            "title with \"quotes\"",
            "expectation",
            &["K", "mean"],
        );
        r.push_row(vec!["8".into(), "1.25".into()]);
        r.push_row(vec!["16".into(), "2.50".into()]);
        r.push_finding("a finding\nwith a newline".into());
        let restored = ExperimentReport::from_canonical(&r.to_canonical()).unwrap();
        assert_eq!(restored, r);
        // And the canonical value itself is byte-stable through its own
        // parse/serialize cycle.
        let bytes = r.to_canonical().serialize();
        assert_eq!(CanonicalJson::parse(&bytes).unwrap().serialize(), bytes);
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = ExperimentReport::new("figX", "quote \" and \\ slash", "exp", &["a"]);
        r.push_row(vec!["line\nbreak".into()]);
        let json = r.to_canonical().serialize();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\":\"figX\""));
        assert!(json.contains("quote \\\" and \\\\ slash"));
        assert!(json.contains("line\\nbreak"));
    }
}
