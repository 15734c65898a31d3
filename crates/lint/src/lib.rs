//! `nessa-lint`: the workspace invariant linter.
//!
//! The NeSSA reproduction leans on invariants an ordinary compiler
//! cannot check: selection must be bit-reproducible under a fixed seed
//! (the trace-diff regression gate depends on it), library code must
//! fail with typed errors rather than panics, and telemetry phases must
//! come from one registered vocabulary so run profiles stay diffable.
//! This crate enforces those invariants statically. Its one dependency,
//! `nessa-telemetry` (which has none), supplies rule T1's vocabulary:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `d1-wall-clock` | `Instant::now`/`SystemTime::now` only in the telemetry clock module / SmartSSD `SimClock` |
//! | `d2-unseeded-rng` | RNGs only via the seeded `nessa_tensor::rng::Rng64` |
//! | `d3-hash-iteration` | no `HashMap`/`HashSet` in `crates/select` / `crates/core` |
//! | `p1-panic` | no `.unwrap()` / `.expect(` / `panic!` in library code |
//! | `f1-float-eq` | no exact float `==`/`!=` outside `nessa_tensor::approx` |
//! | `t1-unregistered-phase` | span names from the registered phase set |
//!
//! Matching happens on a masked view of each file ([`lexer`]) so
//! comments and string literals can never trip — or suppress — a rule.
//! Findings are reconciled against a checked-in ratchet
//! ([`baseline`]): the gate fails only on *new* debt. See DESIGN.md
//! §10 for the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use std::collections::BTreeMap;
use std::path::Path;

use baseline::Baseline;
use lexer::SourceFile;
use workspace::SourceEntry;

/// One rule finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (e.g. `p1-panic`).
    pub rule: &'static str,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// Rust module path (e.g. `nessa_select::facility`).
    pub module: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (character offset).
    pub column: usize,
    /// What to do instead.
    pub message: String,
    /// The offending line, trimmed.
    pub snippet: String,
}

/// The result of linting a workspace against a baseline.
#[derive(Debug, Default)]
pub struct Outcome {
    /// How many files were scanned.
    pub files_checked: usize,
    /// Violations absorbed by the baseline.
    pub baselined: usize,
    /// Violations **beyond** the baseline — these fail the gate. When a
    /// `(rule, file)` count exceeds its frozen ceiling, every violation
    /// in that group is listed (counts cannot tell old from new).
    pub new_violations: Vec<Violation>,
    /// Every violation found, baselined or not.
    pub all_violations: Vec<Violation>,
    /// Baseline entries whose frozen count exceeds what was found:
    /// `(rule, file, frozen, seen)`. Not a failure, but worth
    /// ratcheting down.
    pub stale: Vec<(String, String, usize, usize)>,
}

impl Outcome {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.new_violations.is_empty()
    }

    /// Observed `(rule, file)` counts — the input to `--write-baseline`.
    pub fn counts(&self) -> BTreeMap<(String, String), usize> {
        let mut counts = BTreeMap::new();
        for v in &self.all_violations {
            *counts
                .entry((v.rule.to_string(), v.file.clone()))
                .or_insert(0) += 1;
        }
        counts
    }
}

/// Lints every workspace source under `root` (no baseline applied:
/// `new_violations == all_violations`).
pub fn lint_workspace(root: &Path) -> Outcome {
    let files = workspace::discover(root);
    let mut all = Vec::new();
    for entry in &files {
        if let Ok(text) = std::fs::read_to_string(&entry.path) {
            all.extend(lint_source(entry, &text));
        }
    }
    Outcome {
        files_checked: files.len(),
        baselined: 0,
        new_violations: all.clone(),
        all_violations: all,
        stale: Vec::new(),
    }
}

/// Lints one already-loaded source file.
pub fn lint_source(entry: &SourceEntry, text: &str) -> Vec<Violation> {
    let sf = SourceFile::parse(text);
    rules::check_file(entry, &sf)
}

/// Lints the workspace and reconciles against `baseline`.
pub fn lint_with_baseline(root: &Path, baseline: &Baseline) -> Outcome {
    let mut outcome = lint_workspace(root);
    let counts = outcome.counts();
    let mut new = Vec::new();
    let mut baselined = 0;
    for ((rule, file), &seen) in &counts {
        let frozen = baseline.allowed(rule, file);
        if seen > frozen {
            new.extend(
                outcome
                    .all_violations
                    .iter()
                    .filter(|v| v.rule == *rule && v.file == *file)
                    .cloned(),
            );
        } else {
            baselined += seen;
        }
    }
    // Baseline entries that reference more debt than exists (or files
    // that no longer violate at all) are stale.
    for (rule, file, frozen) in baseline.iter() {
        let seen = counts
            .get(&(rule.to_string(), file.to_string()))
            .copied()
            .unwrap_or(0);
        if seen < frozen {
            outcome
                .stale
                .push((rule.to_string(), file.to_string(), frozen, seen));
        }
    }
    new.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.column, a.rule).cmp(&(
            b.file.as_str(),
            b.line,
            b.column,
            b.rule,
        ))
    });
    outcome.new_violations = new;
    outcome.baselined = baselined;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use workspace::{classify, module_path};

    fn entry(rel: &str) -> SourceEntry {
        SourceEntry {
            path: rel.into(),
            rel: rel.to_string(),
            kind: classify(rel),
            module: module_path(rel),
        }
    }

    #[test]
    fn lint_source_ties_the_layers_together() {
        let v = lint_source(
            &entry("crates/nn/src/x.rs"),
            "fn f() { t.unwrap(); } // nessa-lint: allow(p1-panic)\nfn g() { u.unwrap(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].module, "nessa_nn::x");
    }

    #[test]
    fn counts_group_by_rule_and_file() {
        let violations = lint_source(
            &entry("crates/nn/src/x.rs"),
            "fn f() { a.unwrap(); b.unwrap(); let t = std::time::Instant::now(); }\n",
        );
        let outcome = Outcome {
            files_checked: 1,
            baselined: 0,
            new_violations: violations.clone(),
            all_violations: violations,
            stale: Vec::new(),
        };
        let counts = outcome.counts();
        assert_eq!(
            counts[&("p1-panic".to_string(), "crates/nn/src/x.rs".to_string())],
            2
        );
        assert_eq!(
            counts[&(
                "d1-wall-clock".to_string(),
                "crates/nn/src/x.rs".to_string()
            )],
            1
        );
    }
}
