//! Fixture-driven self-tests: every shipped rule must fire at the expected
//! `file:line`, must NOT fire on the same tokens inside strings, comments,
//! or `#[cfg(test)]` code, and must be suppressible by a justified
//! `// kset-lint: allow(<rule>): …` comment.

use kset_lint::rules::{self, check_file, Diagnostic, Status};
use kset_lint::scan::ScannedFile;
use kset_lint::shim_manifest::{check_drift, extract_pub_items, render_manifest};
use kset_lint::workspace::{SourceFile, TargetKind};

fn run_fixture(rel_path: &str, kind: TargetKind, source: &str) -> Vec<Diagnostic> {
    let file = SourceFile {
        rel_path: rel_path.to_string(),
        kind,
        crate_name: "fixture".to_string(),
    };
    let mut scanned = ScannedFile::scan(rel_path, source.to_string());
    check_file(&file, &mut scanned)
}

/// `(rule, line, status)` triples, sorted, for exact-set comparison.
fn shape(diags: &[Diagnostic]) -> Vec<(&'static str, usize, Status)> {
    let mut v: Vec<_> = diags.iter().map(|d| (d.rule, d.line, d.status)).collect();
    v.sort();
    v
}

#[test]
fn nondeterminism_fires_at_expected_lines() {
    let diags = run_fixture(
        "crates/sim/src/sweep/fixture.rs",
        TargetKind::Lib,
        include_str!("fixtures/nondeterminism.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (rules::NONDETERMINISM_IN_RECORD_PATH, 3, Status::Violation),
            (rules::NONDETERMINISM_IN_RECORD_PATH, 8, Status::Violation),
            (rules::NONDETERMINISM_IN_RECORD_PATH, 9, Status::Violation),
            (rules::NONDETERMINISM_IN_RECORD_PATH, 13, Status::Allowed),
        ],
        "expected HashMap hits at 3/8/9, allowed Instant at 13, nothing from \
         comments, strings, or the test module: {diags:#?}"
    );
    let allowed = diags.iter().find(|d| d.status == Status::Allowed).unwrap();
    assert_eq!(
        allowed.justification.as_deref(),
        Some("fixture proves suppression works")
    );
}

#[test]
fn nondeterminism_is_scoped_to_record_paths() {
    // The same source outside a record path produces no diagnostics at all
    // (the unused allow on line 12 still flags: the rule cannot fire there).
    let diags = run_fixture(
        "crates/graph/src/fixture.rs",
        TargetKind::Lib,
        include_str!("fixtures/nondeterminism.rs"),
    );
    assert!(
        diags
            .iter()
            .all(|d| d.rule == rules::UNUSED_ALLOW || d.rule == rules::PANIC_IN_LIBRARY),
        "off the record path only allow-hygiene may fire: {diags:#?}"
    );
}

#[test]
fn observer_bypass_fires_at_expected_lines() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        include_str!("fixtures/observer_bypass.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (rules::OBSERVER_BYPASS, 4, Status::Violation),
            (rules::OBSERVER_BYPASS, 5, Status::Violation),
            (rules::OBSERVER_BYPASS, 13, Status::Allowed),
            (rules::OBSERVER_BYPASS, 22, Status::Violation),
        ],
        "expected .step/.step_observed at 4/5, allowed .execute_round_observed at 13, \
         the DES driver .dispatch at 22 but not the gone .tick/.dispatch_observed \
         at 21/23, and nothing from the comment, the string, or the bare `step` \
         ident: {diags:#?}"
    );
}

#[test]
fn observer_bypass_exempts_home_files() {
    for home in [
        "crates/sim/src/engine.rs",
        "crates/core/src/sync.rs",
        "crates/sim/src/des/engine.rs",
    ] {
        let diags = run_fixture(
            home,
            TargetKind::Lib,
            "pub fn f(sim: &mut Sim) {\n    sim.step(0);\n    sim.dispatch();\n}\n",
        );
        assert!(
            diags.iter().all(|d| d.rule != rules::OBSERVER_BYPASS),
            "{home} hosts the engine internals and must be exempt: {diags:#?}"
        );
    }
}

#[test]
fn unchecked_capacity_fires_at_expected_lines() {
    let diags = run_fixture(
        "crates/core/src/fixture.rs",
        TargetKind::Lib,
        include_str!("fixtures/unchecked_capacity.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (rules::UNCHECKED_CAPACITY, 4, Status::Violation),
            (rules::UNCHECKED_CAPACITY, 16, Status::Allowed),
            (rules::UNCHECKED_CAPACITY, 20, Status::Violation),
            (rules::UNCHECKED_CAPACITY, 25, Status::Allowed),
        ],
        "expected full() at 4, allowed singleton() at 16, the turbofish \
         with_oracle() at 20 and the allowed nested turbofish new() at 25; \
         try_full, try_new, another type's turbofish new() and the \
         comment/string/test occurrences must not fire: {diags:#?}"
    );
}

#[test]
fn panic_in_library_fires_at_expected_lines() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        include_str!("fixtures/panic_in_library.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (rules::PANIC_IN_LIBRARY, 4, Status::Violation),
            (rules::PANIC_IN_LIBRARY, 8, Status::Violation),
            (rules::PANIC_IN_LIBRARY, 16, Status::Allowed),
        ],
        "expected unwrap at 4, expect at 8, allowed panic! at 16; unwrap_or, \
         the comment, the string, and the #[test] fn must not fire: {diags:#?}"
    );
}

#[test]
fn panic_in_library_skips_binaries() {
    let diags = run_fixture(
        "crates/bench/src/bin/fixture.rs",
        TargetKind::Bin,
        "pub fn cli() {\n    std::env::args().next().unwrap();\n}\n",
    );
    assert!(
        diags.iter().all(|d| d.rule != rules::PANIC_IN_LIBRARY),
        "CLI entry shells may panic on startup errors: {diags:#?}"
    );
}

#[test]
fn shim_drift_detects_new_and_stale_items() {
    let source = include_str!("fixtures/shim_surface.rs");
    let surface = extract_pub_items("rand", source);
    let manifest = render_manifest(&surface);

    // In-sync manifest: silent.
    assert!(check_drift(&manifest, &surface).is_empty());

    // A new pub item not in the manifest: drift violation naming it.
    let mut grown = surface.clone();
    let extra = extract_pub_items("rand", "pub fn brand_new() {}\n");
    grown.extend(extra);
    let drift = check_drift(&manifest, &grown);
    assert_eq!(drift.len(), 1, "{drift:#?}");
    assert_eq!(drift[0].rule, rules::SHIM_DRIFT);
    assert_eq!(drift[0].status, Status::Violation);
    assert!(
        drift[0].message.contains("brand_new"),
        "{}",
        drift[0].message
    );

    // A removed pub item still listed: stale-entry violation.
    let shrunk: Vec<_> = surface
        .iter()
        .filter(|i| i.path != "seeded")
        .cloned()
        .collect();
    let stale = check_drift(&manifest, &shrunk);
    assert_eq!(stale.len(), 1, "{stale:#?}");
    assert_eq!(stale[0].rule, rules::SHIM_DRIFT);
    assert!(stale[0].message.contains("seeded"), "{}", stale[0].message);

    // pub(crate) items never reach the surface.
    assert!(surface.iter().all(|i| i.path != "internal_only"));
}

#[test]
fn malformed_allow_is_a_violation() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        "// kset-lint: alow(panic-in-library): typo in the keyword\npub fn f() {}\n",
    );
    assert_eq!(
        shape(&diags),
        vec![(rules::MALFORMED_ALLOW, 1, Status::Violation)]
    );
}

#[test]
fn missing_justification_is_a_violation() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        "pub fn f(x: Option<u32>) -> u32 {\n    // kset-lint: allow(panic-in-library):\n    x.unwrap()\n}\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == rules::MALFORMED_ALLOW && d.status == Status::Violation),
        "an allow without a justification must not suppress: {diags:#?}"
    );
}

#[test]
fn unused_allow_is_a_violation() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        "// kset-lint: allow(panic-in-library): nothing here panics\npub fn f() {}\n",
    );
    assert_eq!(
        shape(&diags),
        vec![(rules::UNUSED_ALLOW, 1, Status::Violation)]
    );
}

#[test]
fn unknown_rule_allow_is_a_violation() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        "// kset-lint: allow(no-such-rule): misspelled rule name\npub fn f() {}\n",
    );
    assert_eq!(
        shape(&diags),
        vec![(rules::UNKNOWN_RULE_ALLOW, 1, Status::Violation)]
    );
}

#[test]
fn trailing_allow_targets_its_own_line() {
    let diags = run_fixture(
        "crates/sim/src/fixture.rs",
        TargetKind::Lib,
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // kset-lint: allow(panic-in-library): trailing form covers this line\n}\n",
    );
    assert_eq!(
        shape(&diags),
        vec![(rules::PANIC_IN_LIBRARY, 2, Status::Allowed)]
    );
}
