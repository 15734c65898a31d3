//! The linter's dogfood test: running nessa-lint over the real
//! workspace must match `baseline.toml` **exactly** — no new
//! violations, no stale entries — and the burn-down guarantees must
//! hold (zero frozen debt in `crates/select` and `crates/core`).
//!
//! If this test fails after you edited workspace code, either fix the
//! new violation, add a justified inline suppression, or (legacy debt
//! only) run `cargo run --release --bin lint -- --write-baseline`.

use std::path::Path;

use nessa_lint::baseline::Baseline;
use nessa_lint::lexer::SourceFile;
use nessa_lint::workspace::discover;
use nessa_lint::{lint_with_baseline, lint_workspace};

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    assert!(
        root.join("Cargo.toml").exists(),
        "not a workspace root: {}",
        root.display()
    );
    root
}

fn load_baseline() -> Baseline {
    let path = workspace_root().join("crates/lint/baseline.toml");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Baseline::parse(&text).expect("baseline.toml must parse")
}

#[test]
fn workspace_matches_baseline_exactly() {
    let baseline = load_baseline();
    let outcome = lint_with_baseline(workspace_root(), &baseline);
    assert!(
        outcome.new_violations.is_empty(),
        "new violations beyond baseline:\n{}",
        outcome
            .new_violations
            .iter()
            .map(|v| format!("  {} {}:{} — {}", v.rule, v.file, v.line, v.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "baseline is stale (debt was burned down — ratchet it): {:?}",
        outcome.stale
    );
    // The counts must agree entry for entry, both directions.
    let counts = outcome.counts();
    for (rule, file, frozen) in baseline.iter() {
        let seen = counts
            .get(&(rule.to_string(), file.to_string()))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            seen, frozen,
            "baseline drift for {rule} in {file}: frozen {frozen}, found {seen}"
        );
    }
    for ((rule, file), seen) in &counts {
        assert_eq!(
            *seen,
            baseline.allowed(rule, file),
            "unbaselined count for {rule} in {file}"
        );
    }
}

#[test]
fn burned_down_paths_have_no_frozen_debt() {
    let baseline = load_baseline();
    for (rule, file, count) in baseline.iter() {
        assert!(
            !file.starts_with("crates/select/"),
            "crates/select must stay lint-clean, found {rule} x{count} in {file}"
        );
        assert!(
            file != "crates/core/src/pipeline.rs",
            "the pipeline hot path must stay lint-clean, found {rule} x{count}"
        );
        // The whole of crates/core is clean today; keep it that way.
        assert!(
            !file.starts_with("crates/core/"),
            "crates/core must stay lint-clean, found {rule} x{count} in {file}"
        );
        // Telemetry locks recover from poisoning instead of unwrapping;
        // its parser keeps an f1 entry, so only p1 is pinned here.
        assert!(
            !(file.starts_with("crates/telemetry/") && rule == "p1-panic"),
            "crates/telemetry must stay panic-free, found {rule} x{count} in {file}"
        );
    }
}

#[test]
fn workspace_scan_finds_the_expected_shape() {
    let outcome = lint_workspace(workspace_root());
    assert!(
        outcome.files_checked > 100,
        "only {} files checked — walker regression?",
        outcome.files_checked
    );
    // Determinism of the scan itself: two runs, identical findings.
    let again = lint_workspace(workspace_root());
    assert_eq!(outcome.all_violations, again.all_violations);
}

#[test]
fn seeded_violations_are_caught_with_correct_spans() {
    // Build a miniature workspace in the test tmpdir, seed one D1, one
    // D2, and one P1 violation, and check the gate trips on each with
    // the right file:line.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded-ws");
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub mod a;\n\npub fn t() -> f64 {\n    let t0 = std::time::Instant::now();\n    t0.elapsed().as_secs_f64()\n}\n",
    )
    .expect("write lib.rs");
    std::fs::write(
        src.join("a.rs"),
        "pub fn r() -> u64 {\n    let mut rng = thread_rng();\n    rng.gen()\n}\n\npub fn p(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write a.rs");

    let outcome = lint_with_baseline(&root, &Baseline::default());
    assert!(!outcome.is_clean());
    let spans: Vec<(&str, &str, usize)> = outcome
        .new_violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert!(spans.contains(&("d1-wall-clock", "crates/demo/src/lib.rs", 4)));
    assert!(spans.contains(&("d2-unseeded-rng", "crates/demo/src/a.rs", 2)));
    assert!(spans.contains(&("p1-panic", "crates/demo/src/a.rs", 7)));
    assert_eq!(spans.len(), 3, "{spans:?}");
}

/// Every occurrence of the word `token` in the linted sources' code, as
/// `file:line`, read from the lexer's masked view so comments and strings
/// never count.
fn code_tokens(token: &str) -> Vec<String> {
    let mut found = Vec::new();
    for entry in discover(workspace_root()) {
        let text = std::fs::read_to_string(&entry.path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", entry.rel));
        for (i, line) in SourceFile::parse(&text).masked.iter().enumerate() {
            let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            for _ in words.filter(|w| *w == token) {
                found.push(format!("{}:{}", entry.rel, i + 1));
            }
        }
    }
    found
}

#[test]
fn unsafe_code_is_confined_to_the_one_audited_dispatch() {
    // The unsafe policy: every library crate root forbids unsafe code,
    // except nessa-tensor, which denies it and allows it on the one block
    // that calls a kernel's AVX2 instance after detecting AVX2.
    let mut roots = 0;
    for entry in discover(workspace_root()) {
        if !(entry.rel == "src/lib.rs" || entry.rel.ends_with("/src/lib.rs")) {
            continue;
        }
        roots += 1;
        let text = std::fs::read_to_string(&entry.path).expect("readable crate root");
        let attrs: Vec<String> = SourceFile::parse(&text)
            .masked
            .iter()
            .map(|l| l.split_whitespace().collect::<String>())
            .filter(|l| l.starts_with("#![") && l.contains("unsafe_code"))
            .collect();
        let expected = if entry.rel == "crates/tensor/src/lib.rs" {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert_eq!(attrs, [expected], "{}", entry.rel);
    }
    assert!(roots >= 11, "only {roots} library crate roots found");
    let blocks = code_tokens("unsafe");
    assert!(
        blocks.len() == 1 && blocks[0].starts_with("crates/tensor/src/dispatch.rs:"),
        "the workspace must hold exactly one unsafe block, in the dispatch: {blocks:?}"
    );
    assert_eq!(
        code_tokens("unsafe_code").len(),
        roots + 1,
        "one allow beyond the roots"
    );
}
