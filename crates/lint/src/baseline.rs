//! The violation baseline: a checked-in ratchet.
//!
//! Pre-existing violations are frozen as per-`(rule, file)` **counts**
//! in `crates/lint/baseline.toml`. Counts (rather than line numbers)
//! survive unrelated edits to a file; the gate only fails when a file's
//! count for some rule *rises* above its frozen value, so new debt
//! cannot land while old debt is burned down file by file. When a count
//! falls, the baseline is stale — regenerate it with `--write-baseline`
//! to ratchet the ceiling down.
//!
//! The format is a deliberately tiny TOML subset (array-of-tables with
//! string/integer values) so the linter needs no parser crate.

use std::collections::BTreeMap;

/// Frozen violation counts, keyed by `(rule, file)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), usize>,
}

/// A baseline file that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineParseError {
    /// 1-based line in the baseline file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BaselineParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineParseError {}

impl Baseline {
    /// The frozen count for a `(rule, file)` pair (0 when absent).
    pub fn allowed(&self, rule: &str, file: &str) -> usize {
        self.entries
            .get(&(rule.to_string(), file.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates entries in sorted order as `(rule, file, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, usize)> {
        self.entries
            .iter()
            .map(|((r, f), &c)| (r.as_str(), f.as_str(), c))
    }

    /// Number of `(rule, file)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds a baseline from observed `(rule, file)` counts.
    pub fn from_counts(counts: &BTreeMap<(String, String), usize>) -> Baseline {
        Baseline {
            entries: counts
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| (k.clone(), c))
                .collect(),
        }
    }

    /// Parses the TOML-subset baseline format.
    pub fn parse(text: &str) -> Result<Baseline, BaselineParseError> {
        let mut entries = BTreeMap::new();
        let mut current: Option<(Option<String>, Option<String>, Option<usize>)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                flush(&mut current, &mut entries, lineno)?;
                current = Some((None, None, None));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineParseError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let slot = current.as_mut().ok_or(BaselineParseError {
                line: lineno,
                message: "key outside any [[entry]] table".to_string(),
            })?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => slot.0 = Some(parse_string(value, lineno)?),
                "file" => slot.1 = Some(parse_string(value, lineno)?),
                "count" => {
                    slot.2 = Some(value.parse().map_err(|_| BaselineParseError {
                        line: lineno,
                        message: format!("count must be an integer, got `{value}`"),
                    })?)
                }
                other => {
                    return Err(BaselineParseError {
                        line: lineno,
                        message: format!("unknown key `{other}`"),
                    })
                }
            }
        }
        flush(&mut current, &mut entries, text.lines().count())?;
        Ok(Baseline { entries })
    }

    /// Serializes to the TOML subset, sorted by `(rule, file)`.
    pub fn to_toml(&self) -> String {
        let mut out = String::from(
            "# nessa-lint baseline — frozen pre-existing violations.\n\
             # Regenerate with: cargo run --release --bin lint -- --write-baseline\n\
             # The CI gate fails only on violations beyond these counts.\n",
        );
        for (rule, file, count) in self.iter() {
            out.push_str("\n[[entry]]\n");
            out.push_str(&format!("rule = \"{rule}\"\n"));
            out.push_str(&format!("file = \"{file}\"\n"));
            out.push_str(&format!("count = {count}\n"));
        }
        out
    }
}

fn flush(
    current: &mut Option<(Option<String>, Option<String>, Option<usize>)>,
    entries: &mut BTreeMap<(String, String), usize>,
    lineno: usize,
) -> Result<(), BaselineParseError> {
    if let Some((rule, file, count)) = current.take() {
        let (Some(rule), Some(file), Some(count)) = (rule, file, count) else {
            return Err(BaselineParseError {
                line: lineno,
                message: "entry needs rule, file, and count".to_string(),
            });
        };
        if entries
            .insert((rule.clone(), file.clone()), count)
            .is_some()
        {
            return Err(BaselineParseError {
                line: lineno,
                message: format!("duplicate entry for {rule} / {file}"),
            });
        }
    }
    Ok(())
}

fn parse_string(value: &str, lineno: usize) -> Result<String, BaselineParseError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|v| v.to_string())
        .ok_or(BaselineParseError {
            line: lineno,
            message: format!("expected a quoted string, got `{value}`"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert(
            ("p1-panic".to_string(), "crates/a/src/lib.rs".to_string()),
            3,
        );
        counts.insert(("d1-wall-clock".to_string(), "src/lib.rs".to_string()), 1);
        counts.insert(("f1-float-eq".to_string(), "src/x.rs".to_string()), 0);
        let b = Baseline::from_counts(&counts);
        assert_eq!(b.len(), 2, "zero counts are dropped");
        let reparsed = Baseline::parse(&b.to_toml()).unwrap();
        assert_eq!(b, reparsed);
        assert_eq!(reparsed.allowed("p1-panic", "crates/a/src/lib.rs"), 3);
        assert_eq!(reparsed.allowed("p1-panic", "crates/b/src/lib.rs"), 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Baseline::parse("rule = \"x\"\n").is_err()); // outside table
        assert!(Baseline::parse("[[entry]]\nrule = \"x\"\n").is_err()); // incomplete
        assert!(Baseline::parse("[[entry]]\nbogus = 1\n").is_err());
        assert!(Baseline::parse("[[entry]]\nrule = \"r\"\nfile = \"f\"\ncount = x\n").is_err());
        let dup = "[[entry]]\nrule = \"r\"\nfile = \"f\"\ncount = 1\n\
                   [[entry]]\nrule = \"r\"\nfile = \"f\"\ncount = 2\n";
        assert!(Baseline::parse(dup).is_err());
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let text = "# header\n\n[[entry]]\n# inline note\nrule = \"r\"\nfile = \"f\"\ncount = 2\n";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.allowed("r", "f"), 2);
        assert!(Baseline::parse("").unwrap().is_empty());
    }
}
