//! Rendering lint results for humans and for machines.
//!
//! The human report groups violations by rule with `file:line:col`
//! spans (clickable in most terminals/editors); the JSON report is a
//! stable machine-readable document the CI gate uploads as an artifact.
//! JSON is emitted by hand — the linter pulls in no serializer.

use crate::rules::registry;
use crate::Outcome;
use nessa_telemetry::json::quote;

/// Renders the human-readable report.
pub fn human(outcome: &Outcome) -> String {
    let mut out = String::new();
    if outcome.new_violations.is_empty() {
        out.push_str(&format!(
            "nessa-lint: clean — {} files checked, {} baselined violation(s) remain\n",
            outcome.files_checked, outcome.baselined
        ));
    } else {
        out.push_str(&format!(
            "nessa-lint: {} new violation(s) across {} files checked\n",
            outcome.new_violations.len(),
            outcome.files_checked
        ));
        for rule in registry() {
            let of_rule: Vec<_> = outcome
                .new_violations
                .iter()
                .filter(|v| v.rule == rule.id)
                .collect();
            if of_rule.is_empty() {
                continue;
            }
            out.push_str(&format!("\n{} — {}\n", rule.id, rule.summary));
            for v in of_rule {
                out.push_str(&format!(
                    "  {}:{}:{} ({}) {}\n      {}\n",
                    v.file, v.line, v.column, v.module, v.message, v.snippet
                ));
            }
        }
        out.push_str(
            "\nFix the code, add `// nessa-lint: allow(<rule>)` with a justification,\n\
             or (for legacy debt only) regenerate the baseline with --write-baseline.\n",
        );
    }
    for (rule, file, frozen, seen) in &outcome.stale {
        out.push_str(&format!(
            "note: baseline is stale — {rule} in {file} froze {frozen} but only {seen} remain; \
             run --write-baseline to ratchet down\n"
        ));
    }
    out
}

/// Renders the machine-readable JSON report.
pub fn json(outcome: &Outcome) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_checked\": {},\n  \"baselined\": {},\n",
        outcome.files_checked, outcome.baselined
    ));
    out.push_str(&format!(
        "  \"clean\": {},\n  \"new_violations\": [",
        outcome.new_violations.is_empty()
    ));
    for (i, v) in outcome.new_violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"column\": {}, \
             \"module\": {}, \"message\": {}, \"snippet\": {}}}",
            quote(v.rule),
            quote(&v.file),
            v.line,
            v.column,
            quote(&v.module),
            quote(&v.message),
            quote(&v.snippet)
        ));
    }
    if !outcome.new_violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"stale_baseline\": [");
    for (i, (rule, file, frozen, seen)) in outcome.stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"frozen\": {frozen}, \"seen\": {seen}}}",
            quote(rule),
            quote(file)
        ));
    }
    if !outcome.stale.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn outcome_with(news: Vec<Violation>) -> Outcome {
        Outcome {
            files_checked: 3,
            baselined: 1,
            new_violations: news,
            all_violations: Vec::new(),
            stale: vec![(
                "p1-panic".to_string(),
                "crates/a/src/lib.rs".to_string(),
                5,
                4,
            )],
        }
    }

    fn sample() -> Violation {
        Violation {
            rule: "d1-wall-clock",
            file: "crates/nn/src/train.rs".to_string(),
            module: "nessa_nn::train".to_string(),
            line: 10,
            column: 13,
            message: "read the clock through nessa_telemetry::clock".to_string(),
            snippet: "let t = Instant::now();".to_string(),
        }
    }

    #[test]
    fn human_report_lists_spans_and_stale_notes() {
        let text = human(&outcome_with(vec![sample()]));
        assert!(text.contains("crates/nn/src/train.rs:10:13"));
        assert!(text.contains("d1-wall-clock"));
        assert!(text.contains("baseline is stale"));
        let clean = human(&outcome_with(Vec::new()));
        assert!(clean.contains("clean"));
    }

    #[test]
    fn json_report_is_wellformed_and_escaped() {
        let mut v = sample();
        v.snippet = "say \"hi\"\tnow".to_string();
        let text = json(&outcome_with(vec![v]));
        assert!(text.contains("\"clean\": false"));
        assert!(text.contains("say \\\"hi\\\"\\tnow"));
        assert!(text.contains("\"line\": 10"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }
}
