//! The ratcheted lint allowlist.
//!
//! `lint-allowlist.txt` at the repo root budgets the known violations
//! per `(rule, file)`. Every entry must carry a justification comment;
//! the budget may only go down over time — `cargo xtask lint` fails
//! both when a file exceeds its budget and when it improves without
//! the budget being lowered.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The allowlist's location, relative to the workspace root.
pub const FILE_NAME: &str = "lint-allowlist.txt";

/// Active finding lines keyed by `(rule, file)` — the shape both the
/// budget check and `--update-allowlist` consume.
pub type FindingLines = BTreeMap<(String, String), Vec<usize>>;

const HEADER: &str = "\
# helmsim lint allowlist — ratcheted budgets for known violations.
#
# Format:  <rule> <file> <count>  # justification (required)
#
# `cargo xtask lint` fails when a file EXCEEDS its budget (new
# violations) and when it comes in UNDER it (lower the budget in the
# same change — the list only shrinks). `--update-allowlist` refreshes
# counts for existing entries and drops stale ones; it refuses to add
# new entries — write those by hand, or waive single findings in
# source with `// lint: allow(<rule>): <justification>`.
";

/// One budgeted `(rule, file)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Number of tolerated violations.
    pub count: usize,
    /// Why these violations are acceptable (for now).
    pub justification: String,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: BTreeMap<(String, String), Entry>,
}

impl Allowlist {
    /// Loads the allowlist, treating a missing file as empty.
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Allowlist::default());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Allowlist::parse(&text, &path.display().to_string())
    }

    /// Parses allowlist text; `origin` names its source in errors.
    pub fn parse(text: &str, origin: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (fields, justification) = match line.split_once('#') {
                Some((f, j)) if !j.trim().is_empty() => (f, j.trim().to_owned()),
                _ => {
                    return Err(format!(
                        "{origin}:{}: allowlist entry without a justification comment",
                        lineno + 1
                    ))
                }
            };
            let parts: Vec<&str> = fields.split_whitespace().collect();
            let [rule, file, count] = parts[..] else {
                return Err(format!(
                    "{origin}:{}: expected `<rule> <file> <count>  # justification`",
                    lineno + 1
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("{origin}:{}: bad count '{count}'", lineno + 1))?;
            entries.insert(
                (rule.to_owned(), file.to_owned()),
                Entry {
                    rule: rule.to_owned(),
                    file: file.to_owned(),
                    count,
                    justification,
                },
            );
        }
        Ok(Allowlist { entries })
    }

    /// The budget for `(rule, file)`; zero when unlisted.
    pub fn budget(&self, rule: &str, file: &str) -> usize {
        self.entries
            .get(&(rule.to_owned(), file.to_owned()))
            .map_or(0, |e| e.count)
    }

    /// All entries, in `(rule, file)` order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A new allowlist matching `found` exactly: existing entries
    /// keep their justification with the refreshed count, stale
    /// entries are dropped. Refuses to invent entries for `(rule,
    /// file)` pairs not already on the list — a justification is a
    /// human judgment, so new entries must be written by hand.
    pub fn rebudget(&self, found: &FindingLines) -> Result<Allowlist, String> {
        let mut entries = BTreeMap::new();
        let mut refused = Vec::new();
        for ((rule, file), lines) in found {
            match self.entries.get(&(rule.clone(), file.clone())) {
                Some(existing) => {
                    entries.insert(
                        (rule.clone(), file.clone()),
                        Entry {
                            rule: rule.clone(),
                            file: file.clone(),
                            count: lines.len(),
                            justification: existing.justification.clone(),
                        },
                    );
                }
                None => refused.push(format!("{rule} {file} {}", lines.len())),
            }
        }
        if refused.is_empty() {
            Ok(Allowlist { entries })
        } else {
            Err(format!(
                "refusing to add allowlist entries without a justification; fix the \
                 violations, waive them in-source, or add these lines to {FILE_NAME} \
                 by hand with a `# justification`:\n    {}",
                refused.join("\n    ")
            ))
        }
    }

    /// Serializes and writes the allowlist.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from(HEADER);
        out.push('\n');
        let width = self
            .entries
            .values()
            .map(|e| e.rule.len() + e.file.len())
            .max()
            .unwrap_or(0);
        for e in self.entries.values() {
            let key = format!("{} {}", e.rule, e.file);
            let _ = writeln!(
                out,
                "{key:<w$} {:>3}  # {}",
                e.count,
                e.justification,
                w = width + 1
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Allowlist, String> {
        Allowlist::parse(text, "allow.txt")
    }

    #[test]
    fn parses_entries_and_budgets() {
        let a = parse(
            "# header\n\nno-panic crates/cli/src/args.rs 3  # flag parser aborts with usage\n",
        )
        .expect("parses");
        assert_eq!(a.budget("no-panic", "crates/cli/src/args.rs"), 3);
        assert_eq!(a.budget("no-panic", "crates/cli/src/other.rs"), 0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn rejects_unjustified_entries() {
        let err = parse("no-panic crates/x/src/lib.rs 1\n").expect_err("must fail");
        assert!(err.contains("justification"));
    }

    #[test]
    fn rejects_malformed_fields() {
        assert!(parse("no-panic 3  # missing file\n").is_err());
        assert!(parse("no-panic a.rs many  # bad count\n").is_err());
    }

    #[test]
    fn missing_file_is_empty() {
        let a = Allowlist::load(Path::new("/nonexistent/allow.txt")).expect("empty");
        assert!(a.is_empty());
    }

    #[test]
    fn rebudget_keeps_justifications_and_counts() {
        let a = parse("no-panic crates/x/src/lib.rs 5  # legacy path\n").expect("parses");
        let mut found = BTreeMap::new();
        found.insert(
            ("no-panic".to_owned(), "crates/x/src/lib.rs".to_owned()),
            vec![1, 2, 3],
        );
        let b = a.rebudget(&found).expect("all entries known");
        assert_eq!(b.budget("no-panic", "crates/x/src/lib.rs"), 3);
        let kept = b.entries().find(|e| e.rule == "no-panic").expect("kept");
        assert_eq!(kept.justification, "legacy path");
    }

    #[test]
    fn rebudget_refuses_unjustified_new_entries() {
        let a = parse("no-panic crates/x/src/lib.rs 5  # legacy path\n").expect("parses");
        let mut found = BTreeMap::new();
        found.insert(
            (
                "raw-unit-arith".to_owned(),
                "crates/y/src/lib.rs".to_owned(),
            ),
            vec![9],
        );
        let err = a.rebudget(&found).expect_err("must refuse");
        assert!(err.contains("raw-unit-arith crates/y/src/lib.rs 1"));
        assert!(err.contains("justification"));
    }

    #[test]
    fn rebudget_drops_stale_entries() {
        let a = parse("no-panic crates/x/src/lib.rs 5  # legacy path\n").expect("parses");
        let b = a.rebudget(&BTreeMap::new()).expect("empty is fine");
        assert!(b.is_empty());
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("helmsim-xtask-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("roundtrip.txt");
        let a = parse("no-panic crates/x/src/lib.rs 2  # legacy path\n").expect("parses");
        a.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("# helmsim lint allowlist"));
        let b = Allowlist::load(&path).expect("load");
        assert_eq!(b.budget("no-panic", "crates/x/src/lib.rs"), 2);
        std::fs::remove_file(&path).ok();
    }
}
