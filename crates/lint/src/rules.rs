//! The rule registry.
//!
//! Every rule scans the **masked** view of a library file (tests,
//! benches, examples, and binaries are exempt — they are allowed to
//! unwrap, time things, and use ad-hoc names) and yields violations
//! with 1-based line spans. Inline `// nessa-lint: allow(<rule>)`
//! comments suppress individual findings; everything else is matched
//! against the checked-in baseline by the engine.

use crate::lexer::SourceFile;
use crate::workspace::{FileKind, SourceEntry};
use crate::Violation;
use nessa_telemetry::phase::{REGISTERED_COUNTERS, REGISTERED_PHASES};

/// A lint rule: identifier, what it protects, and where it looks.
pub struct Rule {
    /// Stable rule id used in reports, baselines, and suppressions.
    pub id: &'static str,
    /// One-line rationale shown in reports.
    pub summary: &'static str,
    check: fn(&SourceEntry, &SourceFile, &mut Vec<Violation>),
}

/// All registered rules, in report order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "d1-wall-clock",
            summary: "wall-clock reads outside the telemetry clock module break \
                      sim-time determinism",
            check: check_d1,
        },
        Rule {
            id: "d2-unseeded-rng",
            summary: "entropy-seeded RNG construction breaks bit-reproducible selection",
            check: check_d2,
        },
        Rule {
            id: "d3-hash-iteration",
            summary: "HashMap/HashSet in selection result paths has unstable iteration order",
            check: check_d3,
        },
        Rule {
            id: "p1-panic",
            summary: "library code must return typed errors, not unwrap/expect/panic",
            check: check_p1,
        },
        Rule {
            id: "f1-float-eq",
            summary: "exact float == / != compares noise; use nessa_tensor::approx",
            check: check_f1,
        },
        Rule {
            id: "t1-unregistered-phase",
            summary: "telemetry span/counter names must come from the registered sets",
            check: check_t1,
        },
    ]
}

/// Runs every rule over one lexed file.
pub fn check_file(entry: &SourceEntry, sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if entry.kind != FileKind::Library {
        return out;
    }
    for rule in registry() {
        (rule.check)(entry, sf, &mut out);
    }
    out
}

/// Scans masked lines for a fixed token, filtering test regions and
/// suppressions, and pushes one violation per occurrence.
fn flag_token(
    entry: &SourceEntry,
    sf: &SourceFile,
    rule: &'static str,
    token: &str,
    message: &str,
    out: &mut Vec<Violation>,
) {
    for (i, line) in sf.masked.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        let mut start = 0;
        // Tokens starting with `.` anchor on the dot itself; identifier
        // tokens need a word boundary on the left so e.g. `should_panic`
        // never matches `panic!`.
        let needs_boundary = token
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        while let Some(pos) = line[start..].find(token) {
            let at = start + pos;
            let bounded = !needs_boundary
                || at == 0
                || !line[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if bounded && !sf.is_suppressed(i, rule) {
                out.push(Violation {
                    rule,
                    file: entry.rel.clone(),
                    module: entry.module.clone(),
                    line: i + 1,
                    column: at + 1,
                    message: message.to_string(),
                    snippet: sf.lines[i].trim().to_string(),
                });
            }
            start = at + token.len();
        }
    }
}

// --- D1: wall-clock quarantine -------------------------------------------

/// Files allowed to touch the wall clock: the telemetry clock module
/// (the single sanctioned `Instant::now` site) and the SmartSSD
/// simulator's virtual clock.
const D1_ALLOWED_FILES: &[&str] = &[
    "crates/telemetry/src/clock.rs",
    "crates/smartssd/src/clock.rs",
];

fn check_d1(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    if D1_ALLOWED_FILES.contains(&entry.rel.as_str()) {
        return;
    }
    for token in ["Instant::now", "SystemTime::now"] {
        flag_token(
            entry,
            sf,
            "d1-wall-clock",
            token,
            "read the clock through nessa_telemetry::clock (or the SmartSSD SimClock)",
            out,
        );
    }
}

// --- D2: seeded RNG only -------------------------------------------------

/// The one sanctioned RNG construction site: `nessa_tensor::rng`
/// (xoshiro256++ seeded via SplitMix64).
const D2_ALLOWED_FILES: &[&str] = &["crates/tensor/src/rng.rs"];

fn check_d2(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    if D2_ALLOWED_FILES.contains(&entry.rel.as_str()) {
        return;
    }
    for token in [
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
    ] {
        flag_token(
            entry,
            sf,
            "d2-unseeded-rng",
            token,
            "construct RNGs only through the seeded nessa_tensor::rng::Rng64",
            out,
        );
    }
}

// --- D3: no hash collections in selection result paths -------------------

fn check_d3(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    if !(entry.rel.starts_with("crates/select/") || entry.rel.starts_with("crates/core/")) {
        return;
    }
    for token in ["HashMap", "HashSet"] {
        flag_token(
            entry,
            sf,
            "d3-hash-iteration",
            token,
            "use a sorted Vec or dense index table; hash iteration order is unstable",
            out,
        );
    }
}

// --- P1: no panics in library code ---------------------------------------

fn check_p1(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    // `.expect(` anchors on the opening quote of the message so that
    // Result-returning parser methods that happen to be named `expect`
    // (e.g. the telemetry JSON parser's `self.expect('{')?`) never
    // match — `Option::expect`/`Result::expect` always take a message.
    for token in [".unwrap()", ".expect(\"", "panic!"] {
        flag_token(
            entry,
            sf,
            "p1-panic",
            token,
            "return a typed error (SelectError / PipelineError) instead of panicking",
            out,
        );
    }
}

// --- F1: no exact float comparison ---------------------------------------

/// The approved tolerance-comparison helper may use exact `==`.
const F1_ALLOWED_FILES: &[&str] = &["crates/tensor/src/approx.rs"];

fn check_f1(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    if F1_ALLOWED_FILES.contains(&entry.rel.as_str()) {
        return;
    }
    for (i, line) in sf.masked.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        let bytes: Vec<char> = line.chars().collect();
        let mut j = 0;
        while j + 1 < bytes.len() {
            let is_eq = bytes[j] == '=' && bytes[j + 1] == '=';
            let is_ne = bytes[j] == '!' && bytes[j + 1] == '=';
            if !(is_eq || is_ne) {
                j += 1;
                continue;
            }
            // Reject `<=`, `>=`, `===`-like runs and `!=` that is really
            // part of a longer operator.
            let prev = if j > 0 { Some(bytes[j - 1]) } else { None };
            let after = bytes.get(j + 2).copied();
            if is_eq && matches!(prev, Some('<') | Some('>') | Some('=') | Some('!')) {
                j += 2;
                continue;
            }
            if after == Some('=') {
                j += 2;
                continue;
            }
            let window = operand_window(line, j);
            if window_mentions_float(&window) && !sf.is_suppressed(i, "f1-float-eq") {
                out.push(Violation {
                    rule: "f1-float-eq",
                    file: entry.rel.clone(),
                    module: entry.module.clone(),
                    line: i + 1,
                    column: j + 1,
                    message: "use nessa_tensor::approx::approx_eq (or suppress for exact \
                              sentinels)"
                        .to_string(),
                    snippet: sf.lines[i].trim().to_string(),
                });
            }
            j += 2;
        }
    }
}

/// The text around a comparison operator, clipped at expression
/// boundaries (`;`, `{`, `}`, `,`, `&&`, `||`) — enough context to ask
/// "does either operand look like a float?" without dragging in the
/// rest of the statement.
fn operand_window(line: &str, op_at: usize) -> String {
    let chars: Vec<char> = line.chars().collect();
    let boundary = |k: usize| {
        matches!(chars[k], ';' | '{' | '}' | ',')
            || (k + 1 < chars.len()
                && ((chars[k] == '&' && chars[k + 1] == '&')
                    || (chars[k] == '|' && chars[k + 1] == '|')))
    };
    let mut lo = op_at;
    while lo > 0 && !boundary(lo - 1) {
        lo -= 1;
    }
    let mut hi = (op_at + 2).min(chars.len());
    while hi < chars.len() && !boundary(hi) {
        hi += 1;
    }
    chars[lo..hi].iter().collect()
}

/// Float heuristics: a `digit.digit` literal, an explicit `f32`/`f64`
/// type mention, or a float-typed cast in the window.
fn window_mentions_float(window: &str) -> bool {
    let chars: Vec<char> = window.chars().collect();
    for k in 1..chars.len().saturating_sub(1) {
        if chars[k] == '.' && chars[k - 1].is_ascii_digit() && chars[k + 1].is_ascii_digit() {
            return true;
        }
    }
    let mut prev_ident = false;
    for token in ["f32", "f64"] {
        let mut start = 0;
        while let Some(pos) = window[start..].find(token) {
            let at = start + pos;
            let left_ok = at == 0
                || !window[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let right_ok = !window[at + 3..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if left_ok && right_ok {
                prev_ident = true;
            }
            start = at + token.len();
        }
    }
    prev_ident
}

// --- T1: registered telemetry phase names --------------------------------

fn check_t1(entry: &SourceEntry, sf: &SourceFile, out: &mut Vec<Violation>) {
    // (anchor token, allowed vocabulary, registry named in the message)
    let vocabularies: [(&str, &[&str], &str); 3] = [
        (".span(\"", REGISTERED_PHASES, "REGISTERED_PHASES"),
        (".span_child_of(\"", REGISTERED_PHASES, "REGISTERED_PHASES"),
        (".counter(\"", REGISTERED_COUNTERS, "REGISTERED_COUNTERS"),
    ];
    for (i, masked) in sf.masked.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        let raw = &sf.lines[i];
        for (token, allowed, registry) in vocabularies {
            let mut start = 0;
            while let Some(pos) = masked[start..].find(token) {
                let at = start + pos;
                // The literal's body lives in the RAW line at the same
                // offsets (masking is length-preserving).
                let open = at + token.len();
                let name: String = raw.chars().skip(open).take_while(|&c| c != '"').collect();
                if !allowed.contains(&name.as_str())
                    && !sf.is_suppressed(i, "t1-unregistered-phase")
                {
                    out.push(Violation {
                        rule: "t1-unregistered-phase",
                        file: entry.rel.clone(),
                        module: entry.module.clone(),
                        line: i + 1,
                        column: at + 1,
                        message: format!(
                            "name \"{name}\" is not in nessa_telemetry::phase::{registry}"
                        ),
                        snippet: raw.trim().to_string(),
                    });
                }
                start = open;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{classify, module_path, SourceEntry};
    use std::path::PathBuf;

    fn entry(rel: &str) -> SourceEntry {
        SourceEntry {
            path: PathBuf::from(rel),
            rel: rel.to_string(),
            kind: classify(rel),
            module: module_path(rel),
        }
    }

    fn lint(rel: &str, src: &str) -> Vec<Violation> {
        let sf = SourceFile::parse(src);
        check_file(&entry(rel), &sf)
    }

    #[test]
    fn d1_flags_instant_now_outside_clock_module() {
        let v = lint(
            "crates/nn/src/train.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "d1-wall-clock");
        assert_eq!(v[0].line, 1);
        let v = lint("crates/telemetry/src/clock.rs", "Instant::now();\n");
        assert!(v.is_empty());
    }

    #[test]
    fn d1_ignores_comments_strings_and_tests() {
        let src = "\
// Instant::now() would be wrong here
fn f() { log(\"Instant::now\"); }

#[cfg(test)]
mod tests {
    fn t() { let _ = std::time::Instant::now(); }
}
";
        assert!(lint("crates/nn/src/train.rs", src).is_empty());
    }

    #[test]
    fn d2_flags_entropy_rngs() {
        let v = lint("crates/nn/src/init.rs", "let r = thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "d2-unseeded-rng");
        assert!(lint("crates/tensor/src/rng.rs", "from_entropy();\n").is_empty());
    }

    #[test]
    fn d3_applies_only_to_select_and_core() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("crates/select/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
        assert!(lint("crates/telemetry/src/x.rs", src).is_empty());
    }

    #[test]
    fn p1_flags_unwrap_expect_panic_in_library_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }\n";
        let v = lint("crates/select/src/x.rs", src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == "p1-panic"));
        assert!(lint("crates/select/tests/x.rs", src).is_empty());
        assert!(lint("crates/bench/src/bin/x.rs", src).is_empty());
        assert!(lint("benches/x.rs", src).is_empty());
    }

    #[test]
    fn p1_does_not_match_expect_err_or_should_panic() {
        let src = "fn f() { r.expect_err(\"m\"); }\n#[should_panic(expected = \"x\")]\n";
        assert!(lint("crates/select/src/x.rs", src).is_empty());
        // .unwrap_or / .unwrap_or_else are fine too.
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }\n";
        assert!(lint("crates/select/src/x.rs", src).is_empty());
    }

    #[test]
    fn f1_flags_float_comparisons_only() {
        let v = lint("crates/nn/src/x.rs", "if loss == 0.0 { done(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "f1-float-eq");
        let v = lint("crates/nn/src/x.rs", "if c == f32::NEG_INFINITY { x(); }\n");
        assert_eq!(v.len(), 1);
        // Integer comparisons and <=, >= pass.
        assert!(lint("crates/nn/src/x.rs", "if i == 0 { x(); }\n").is_empty());
        assert!(lint("crates/nn/src/x.rs", "if a <= 0.5 { x(); }\n").is_empty());
        // The window clips at `&&`: only the float side trips the rule.
        assert!(lint("crates/nn/src/x.rs", "if i == 0 && f < 0.5 { x(); }\n").is_empty());
    }

    #[test]
    fn f1_respects_suppressions_and_approx_module() {
        let src = "// nessa-lint: allow(f1-float-eq) — exact sentinel\nif c == f32::MAX { x(); }\n";
        assert!(lint("crates/nn/src/x.rs", src).is_empty());
        assert!(lint("crates/tensor/src/approx.rs", "if a == 0.0 {}\n").is_empty());
    }

    #[test]
    fn t1_checks_span_names_against_registry() {
        let v = lint(
            "crates/core/src/x.rs",
            "let s = t.span(\"warmup\").finish();\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "t1-unregistered-phase");
        assert!(v[0].message.contains("warmup"));
        assert!(lint("crates/core/src/x.rs", "t.span(\"epoch\").finish();\n").is_empty());
        // `.spans(` (the accessor) must not anchor the rule.
        assert!(lint("crates/core/src/x.rs", "let all = t.spans();\n").is_empty());
    }

    #[test]
    fn suppression_works_for_token_rules() {
        let src = "x.unwrap(); // nessa-lint: allow(p1-panic) — invariant\n";
        assert!(lint("crates/select/src/x.rs", src).is_empty());
    }

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let rules = registry();
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
        for id in ids {
            assert!(id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }
}
