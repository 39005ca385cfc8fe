//! Rendering of lint results: human text and machine JSON.
//!
//! The JSON form (`cargo xtask lint --format json`) is what CI
//! archives as a build artifact; its shape is versioned and
//! hand-rolled (xtask takes no dependencies).

use crate::rules::{Finding, RULES};
use std::fmt::Write as _;

/// One waived finding with the waiver's justification.
#[derive(Debug, Clone)]
pub struct Waived {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver comment's justification text.
    pub justification: String,
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Active violations, counted against the allowlist.
    pub findings: Vec<Finding>,
    /// Findings suppressed by in-source waiver comments.
    pub waived: Vec<Waived>,
    /// Findings auto-exempted by syntactic context.
    pub auto_exempt: Vec<Finding>,
    /// Ratchet / waiver errors; non-empty means the lint failed.
    pub errors: Vec<String>,
    /// Allowlist entry count.
    pub allow_entries: usize,
    /// Findings covered by allowlist budgets.
    pub budgeted: usize,
}

impl LintReport {
    /// Whether the run passed.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders the human-readable form (errors to the front).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            let _ = writeln!(out, "{e}");
        }
        if !self.errors.is_empty() {
            let _ = writeln!(
                out,
                "\nlint failed. Fix the violations (preferred), add a \
                 `// lint: allow(<rule>): <why>` waiver, or update budgets in \
                 lint-allowlist.txt with a justification comment per entry."
            );
            return out;
        }
        let _ = write!(
            out,
            "lint clean: {} rule(s), {} waived, {} auto-exempt",
            RULES.len(),
            self.waived.len(),
            self.auto_exempt.len()
        );
        if self.allow_entries == 0 {
            let _ = writeln!(out, ", empty allowlist");
        } else {
            let _ = writeln!(
                out,
                ", {} budgeted finding(s) across {} allowlist entr{}",
                self.budgeted,
                self.allow_entries,
                if self.allow_entries == 1 { "y" } else { "ies" }
            );
        }
        out
    }

    /// Renders the versioned JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(
            out,
            "  \"status\": \"{}\",",
            if self.is_clean() { "clean" } else { "failed" }
        );
        let rules: Vec<String> = RULES.iter().map(|r| json_str(r)).collect();
        let _ = writeln!(out, "  \"rules\": [{}],", rules.join(", "));
        let _ = writeln!(
            out,
            "  \"allowlist\": {{ \"entries\": {}, \"budgeted_findings\": {} }},",
            self.allow_entries, self.budgeted
        );
        write_finding_array(&mut out, "findings", &self.findings, |_| None);
        out.push_str(",\n");
        let _ = write!(out, "  \"waived\": [");
        for (i, w) in self.waived.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            write_one(
                &mut out,
                &w.finding,
                Some(("justification", &w.justification)),
            );
        }
        out.push_str(if self.waived.is_empty() { "]" } else { "\n  ]" });
        out.push_str(",\n");
        write_finding_array(&mut out, "auto_exempt", &self.auto_exempt, |f| {
            f.exempt.map(|r| ("reason", r))
        });
        out.push_str(",\n");
        let errs: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        if errs.is_empty() {
            let _ = writeln!(out, "  \"errors\": []");
        } else {
            let _ = writeln!(out, "  \"errors\": [\n    {}\n  ]", errs.join(",\n    "));
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_one(out: &mut String, f: &Finding, extra: Option<(&str, &str)>) {
    let _ = write!(
        out,
        "    {{ \"rule\": {}, \"file\": {}, \"line\": {}",
        json_str(f.rule),
        json_str(&f.file),
        f.line
    );
    if let Some((key, val)) = extra {
        let _ = write!(out, ", \"{key}\": {}", json_str(val));
    }
    out.push_str(" }");
}

fn write_finding_array<'a>(
    out: &mut String,
    key: &str,
    findings: &'a [Finding],
    extra: impl Fn(&'a Finding) -> Option<(&'a str, &'a str)>,
) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_one(out, f, extra(f));
    }
    if findings.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: usize) -> Finding {
        Finding {
            rule,
            file: "crates/demo/src/lib.rs".into(),
            line,
            exempt: None,
        }
    }

    #[test]
    fn clean_report_renders_text_and_json() {
        let rep = LintReport {
            findings: vec![finding("no-panic", 3)],
            allow_entries: 1,
            budgeted: 1,
            ..LintReport::default()
        };
        assert!(rep.is_clean());
        let text = rep.to_text();
        assert!(text.contains("lint clean"));
        let json = rep.to_json();
        assert!(json.contains("\"status\": \"clean\""));
        assert!(json.contains("\"rule\": \"no-panic\""));
        assert!(json.contains("\"line\": 3"));
    }

    #[test]
    fn errors_flip_status_and_escape() {
        let rep = LintReport {
            errors: vec!["bad \"thing\"\nhappened".into()],
            ..LintReport::default()
        };
        assert!(!rep.is_clean());
        assert!(rep.to_text().contains("lint failed"));
        let json = rep.to_json();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("bad \\\"thing\\\"\\nhappened"));
    }

    #[test]
    fn waived_and_exempt_sections_carry_annotations() {
        let mut exempted = finding("no-panic", 9);
        exempted.exempt = Some("operator-impl");
        let rep = LintReport {
            waived: vec![Waived {
                finding: finding("wall-clock-in-sim", 5),
                justification: "stats are wall-clock".into(),
            }],
            auto_exempt: vec![exempted],
            ..LintReport::default()
        };
        let json = rep.to_json();
        assert!(json.contains("\"justification\": \"stats are wall-clock\""));
        assert!(json.contains("\"reason\": \"operator-impl\""));
    }
}
