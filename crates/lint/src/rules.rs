//! The named rule set and the matching engine.
//!
//! Every rule is a *token-level* check over the [masked](crate::lexer::Lexed)
//! code text of a file — the scanner has no type information, so rules match
//! qualified names and method-call shapes and say so in their messages. The
//! known gaps (an aliased `type S = Simulation<…>; S::new(…)` escapes
//! `unchecked-capacity`; a `Process::step` delegation textually collides with
//! `observer-bypass`) are deliberate: the escape hatch is a justified
//! per-site `// kset-lint: allow(<rule>): <why>` comment, and the collision
//! cost is one justified allow rather than a missed bypass.

use crate::scan::ScannedFile;
use crate::workspace::{SourceFile, TargetKind};

/// Severity/status of one diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// The rule fired and no allow covers the site: the pass fails.
    Violation,
    /// The rule fired but a justified allow covers the site.
    Allowed,
}

/// One diagnostic produced by the pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (stable identifier, used in allow comments).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the hit.
    pub message: String,
    /// [`Status::Allowed`] carries the justification text.
    pub status: Status,
    /// Justification from the allow comment, when `status` is `Allowed`.
    pub justification: Option<String>,
}

/// Names of the shipped rules, in report order.
pub const RULES: &[&str] = &[
    NONDETERMINISM_IN_RECORD_PATH,
    OBSERVER_BYPASS,
    UNCHECKED_CAPACITY,
    PANIC_IN_LIBRARY,
    SHIM_DRIFT,
];

/// Pseudo-rules for the suppression machinery itself (not allowable).
pub const META_RULES: &[&str] = &[MALFORMED_ALLOW, UNUSED_ALLOW, UNKNOWN_RULE_ALLOW];

pub const NONDETERMINISM_IN_RECORD_PATH: &str = "nondeterminism-in-record-path";
pub const OBSERVER_BYPASS: &str = "observer-bypass";
pub const UNCHECKED_CAPACITY: &str = "unchecked-capacity";
pub const PANIC_IN_LIBRARY: &str = "panic-in-library";
pub const SHIM_DRIFT: &str = "shim-drift";
pub const MALFORMED_ALLOW: &str = "malformed-allow";
pub const UNUSED_ALLOW: &str = "unused-allow";
pub const UNKNOWN_RULE_ALLOW: &str = "unknown-rule-allow";

/// Modules that produce `kset-sweep` records, digests, and scenario lines:
/// the byte-identity contracts (shard merge ≡ sequential, resume ≡
/// uninterrupted) forbid any nondeterministic iteration order, ambient
/// clock, or ambient RNG here.
const RECORD_PATH_PREFIXES: &[&str] = &[
    "crates/sim/src/sweep/",
    "crates/sim/src/textfmt.rs",
    "crates/sim/src/scenario.rs",
    "crates/core/src/scenario.rs",
    "crates/bench/src/sweeps.rs",
];

/// Files where the engine-driving internals legitimately live: the homes of
/// the `_observed` unified event stream — the step engine, the lock-step
/// round executor, and the discrete-event dispatcher.
const OBSERVER_HOME_FILES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/core/src/sync.rs",
    "crates/sim/src/des/engine.rs",
];

/// The defining module of `WideSet`/`ProcessSet`: its panicking wrappers are
/// implemented (and documented) here in terms of the `try_*` forms.
const CAPACITY_HOME_FILES: &[&str] = &["crates/sim/src/ids.rs"];

/// Whether `file` is in scope for `rule` at all (before per-site matching).
pub fn rule_applies(rule: &str, file: &SourceFile) -> bool {
    match rule {
        NONDETERMINISM_IN_RECORD_PATH => RECORD_PATH_PREFIXES
            .iter()
            .any(|p| file.rel_path.starts_with(p)),
        OBSERVER_BYPASS => !OBSERVER_HOME_FILES.contains(&file.rel_path.as_str()),
        UNCHECKED_CAPACITY => !CAPACITY_HOME_FILES.contains(&file.rel_path.as_str()),
        // Binaries get a pass on `panic-in-library` only for their CLI entry
        // shell; library code (everything under `src/` except `src/bin/`)
        // must use typed errors or justify.
        PANIC_IN_LIBRARY => file.kind == TargetKind::Lib,
        // shim-drift runs as a separate workspace-level pass.
        _ => false,
    }
}

/// Runs all line-level rules over one scanned file, producing diagnostics
/// (violations and allowed hits) plus the allow-hygiene pseudo-diagnostics.
pub fn check_file(file: &SourceFile, scanned: &mut ScannedFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut hits: Vec<(usize, &'static str, String)> = Vec::new();

    if rule_applies(NONDETERMINISM_IN_RECORD_PATH, file) {
        nondeterminism_hits(scanned, &mut hits);
    }
    if rule_applies(OBSERVER_BYPASS, file) {
        observer_bypass_hits(scanned, &mut hits);
    }
    if rule_applies(UNCHECKED_CAPACITY, file) {
        unchecked_capacity_hits(scanned, &mut hits);
    }
    if rule_applies(PANIC_IN_LIBRARY, file) {
        panic_hits(scanned, &mut hits);
    }

    hits.sort_by_key(|&(off, rule, _)| (off, rule));
    for (offset, rule, message) in hits {
        if scanned.in_test_code(offset) {
            continue;
        }
        let line = scanned.line_of(offset);
        let (status, justification) = match scanned.consume_allow(rule, line) {
            Some(allow) => (Status::Allowed, Some(allow.justification.clone())),
            None => (Status::Violation, None),
        };
        diags.push(Diagnostic {
            rule,
            file: scanned.rel_path.clone(),
            line,
            message,
            status,
            justification,
        });
    }

    // Allow hygiene: malformed markers, allows that never fired, allows
    // naming a rule that does not exist. All are violations — a stale or
    // misspelled suppression is itself a bug in the contract record.
    for &(line, ref problem) in &scanned.malformed_allows {
        diags.push(Diagnostic {
            rule: MALFORMED_ALLOW,
            file: scanned.rel_path.clone(),
            line,
            message: format!("malformed kset-lint comment: {problem}"),
            status: Status::Violation,
            justification: None,
        });
    }
    for allow in &scanned.allows {
        if !RULES.contains(&allow.rule.as_str()) {
            diags.push(Diagnostic {
                rule: UNKNOWN_RULE_ALLOW,
                file: scanned.rel_path.clone(),
                line: allow.comment_line,
                message: format!("allow names unknown rule `{}`", allow.rule),
                status: Status::Violation,
                justification: None,
            });
        } else if !allow.used {
            diags.push(Diagnostic {
                rule: UNUSED_ALLOW,
                file: scanned.rel_path.clone(),
                line: allow.comment_line,
                message: format!(
                    "allow({}) suppresses nothing on line {}; remove it",
                    allow.rule, allow.target_line
                ),
                status: Status::Violation,
                justification: None,
            });
        }
    }

    diags
}

// ---------------------------------------------------------------------------
// Token matching helpers over masked text.
// ---------------------------------------------------------------------------

/// Byte offsets of word-bounded occurrences of `ident` in `masked`.
fn ident_occurrences(masked: &str, ident: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = masked[from..].find(ident) {
        let at = from + pos;
        let before_ok = at == 0 || !crate::lexer::is_ident_byte(bytes[at - 1]);
        let after = at + ident.len();
        let after_ok = after >= bytes.len() || !crate::lexer::is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + ident.len().max(1);
    }
    out
}

/// Whether the last non-whitespace byte before `at` is `want`.
fn preceded_by(masked: &str, at: usize, want: u8) -> bool {
    masked.as_bytes()[..at]
        .iter()
        .rev()
        .find(|b| !b.is_ascii_whitespace())
        .is_some_and(|&b| b == want)
}

/// Whether the first non-whitespace byte after the ident ending at `end` is
/// `want`.
fn followed_by(masked: &str, end: usize, want: u8) -> bool {
    masked.as_bytes()[end..]
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        .is_some_and(|&b| b == want)
}

/// Whether `at` is directly preceded by the path `prefix` (e.g.
/// `Simulation::`), either exactly or with one turbofish argument list
/// between the type and the method (`Simulation::<P, O>::`). Nothing else
/// is skipped — qualified-call matching is exact.
fn preceded_by_path(masked: &str, at: usize, prefix: &str) -> bool {
    let bytes = masked.as_bytes();
    let ends_at = |end: usize| {
        end >= prefix.len() && {
            let start = end - prefix.len();
            let glued_ident = start > 0 && crate::lexer::is_ident_byte(bytes[start - 1]);
            bytes.get(start..end) == Some(prefix.as_bytes()) && !glued_ident
        }
    };
    ends_at(at) || turbofish_start(bytes, at).is_some_and(ends_at)
}

/// The offset of the `<` that opens a turbofish argument list ending right
/// before `at` as `…>::`, or `None`. Nested brackets are balanced; the walk
/// stops at a statement or block boundary.
fn turbofish_start(bytes: &[u8], at: usize) -> Option<usize> {
    let close = at.checked_sub(3)?;
    if bytes.get(close..at) != Some(b">::".as_slice()) {
        return None;
    }
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        match bytes[i] {
            b'>' => depth += 1,
            b'<' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            b';' | b'{' | b'}' => return None,
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule matchers.
// ---------------------------------------------------------------------------

fn nondeterminism_hits(scanned: &ScannedFile, hits: &mut Vec<(usize, &'static str, String)>) {
    const FORBIDDEN: &[(&str, &str)] = &[
        ("HashMap", "iteration order is nondeterministic across runs"),
        ("HashSet", "iteration order is nondeterministic across runs"),
        (
            "SystemTime",
            "ambient wall clock breaks record byte-identity",
        ),
        (
            "Instant",
            "ambient monotonic clock breaks record byte-identity",
        ),
        ("thread_rng", "ambient RNG breaks deterministic cell seeds"),
        (
            "from_entropy",
            "entropy-seeded RNG breaks deterministic cell seeds",
        ),
    ];
    for &(ident, why) in FORBIDDEN {
        for at in ident_occurrences(&scanned.lexed.masked, ident) {
            hits.push((
                at,
                NONDETERMINISM_IN_RECORD_PATH,
                format!("`{ident}` in a record/digest path: {why}"),
            ));
        }
    }
}

fn observer_bypass_hits(scanned: &ScannedFile, hits: &mut Vec<(usize, &'static str, String)>) {
    // The raw unit bodies of the three substrates: the simulation's steps,
    // the lock-step round and the discrete-event dispatch loop.
    const DRIVERS: &[&str] = &[
        "step",
        "step_observed",
        "step_routed",
        "step_undoable",
        "execute_round_observed",
        "dispatch",
    ];
    for &ident in DRIVERS {
        for at in ident_occurrences(&scanned.lexed.masked, ident) {
            let is_method_call = preceded_by(&scanned.lexed.masked, at, b'.')
                && followed_by(&scanned.lexed.masked, at + ident.len(), b'(');
            if is_method_call {
                hits.push((
                    at,
                    OBSERVER_BYPASS,
                    format!(
                        "`.{ident}(…)` drives an engine outside the substrate homes \
                         (engine.rs/sync.rs/des/engine.rs), skipping the `_observed` unified \
                         event stream"
                    ),
                ));
            }
        }
    }
}

fn unchecked_capacity_hits(scanned: &ScannedFile, hits: &mut Vec<(usize, &'static str, String)>) {
    const QUALIFIED: &[(&str, &str, &str)] = &[
        ("Simulation::", "new", "Simulation::try_new"),
        ("Simulation::", "with_oracle", "Simulation::try_with_oracle"),
        ("LockStep::", "new", "LockStep::try_new"),
        ("ProcessSet::", "singleton", "ProcessSet::try_singleton"),
        ("ProcessSet::", "full", "ProcessSet::try_full"),
        ("WideSet::", "singleton", "WideSet::try_singleton"),
        ("WideSet::", "full", "WideSet::try_full"),
        ("Self::", "full", "Self::try_full"),
        ("Self::", "singleton", "Self::try_singleton"),
    ];
    for &(prefix, ident, fallible) in QUALIFIED {
        for at in ident_occurrences(&scanned.lexed.masked, ident) {
            if preceded_by_path(&scanned.lexed.masked, at, prefix)
                && followed_by(&scanned.lexed.masked, at + ident.len(), b'(')
            {
                hits.push((
                    at,
                    UNCHECKED_CAPACITY,
                    format!(
                        "`{prefix}{ident}(…)` panics on oversized systems; use `{fallible}` and \
                         surface the `CapacityError`"
                    ),
                ));
            }
        }
    }
}

fn panic_hits(scanned: &ScannedFile, hits: &mut Vec<(usize, &'static str, String)>) {
    // Method-shaped: `.unwrap()` / `.expect("…")`.
    for &(ident, needs_empty_args) in &[("unwrap", true), ("expect", false)] {
        for at in ident_occurrences(&scanned.lexed.masked, ident) {
            let end = at + ident.len();
            let masked = &scanned.lexed.masked;
            if !preceded_by(masked, at, b'.') || !followed_by(masked, end, b'(') {
                continue;
            }
            if needs_empty_args {
                // `.unwrap()` exactly — `unwrap` taking arguments is some
                // other API.
                let after_paren = masked[end..].find('(').map(|p| end + p + 1);
                let closes_immediately =
                    after_paren.is_some_and(|p| masked.as_bytes().get(p).copied() == Some(b')'));
                if !closes_immediately {
                    continue;
                }
            }
            hits.push((
                at,
                PANIC_IN_LIBRARY,
                format!("`.{ident}(…)` in library code panics on the error path; return a typed error or justify"),
            ));
        }
    }
    // Macro-shaped: panic!/unreachable!/todo!/unimplemented!.
    for &mac in &["panic", "unreachable", "todo", "unimplemented"] {
        for at in ident_occurrences(&scanned.lexed.masked, mac) {
            if followed_by(&scanned.lexed.masked, at + mac.len(), b'!') {
                hits.push((
                    at,
                    PANIC_IN_LIBRARY,
                    format!("`{mac}!` in library code; return a typed error or justify"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(rel: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            kind: TargetKind::Lib,
            crate_name: "kset-sim".to_string(),
        }
    }

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = lib_file(rel);
        let mut scanned = ScannedFile::scan(rel, src.to_string());
        check_file(&file, &mut scanned)
    }

    #[test]
    fn record_path_scope_is_exact() {
        let src = "use std::collections::HashMap;\n";
        assert!(run("crates/sim/src/sweep/record.rs", src)
            .iter()
            .any(|d| d.rule == NONDETERMINISM_IN_RECORD_PATH));
        assert!(!run("crates/sim/src/engine.rs", src)
            .iter()
            .any(|d| d.rule == NONDETERMINISM_IN_RECORD_PATH));
    }

    #[test]
    fn observer_home_files_exempt() {
        let src = "fn f(s: &mut S) { s.step(p, d); }\n";
        assert!(run("crates/sim/src/explore.rs", src)
            .iter()
            .any(|d| d.rule == OBSERVER_BYPASS));
        assert!(run("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn undoable_steps_fire_outside_the_engine() {
        // The explorer's in-place step skips the observers like `.step(`.
        let src = "fn f(s: &mut S) { s.step_undoable(p, d, &mut log); }\n";
        assert!(run("crates/sim/src/explore.rs", src)
            .iter()
            .any(|d| d.rule == OBSERVER_BYPASS));
        assert!(run("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn des_dispatch_entry_points_fire_outside_their_home() {
        // Every surviving raw driver — the discrete-event dispatch loop
        // among them — is a bypass vector outside the substrate homes…
        for (src, home) in [
            (
                "fn f(s: &mut S) { s.step(p, d); }\n",
                "crates/sim/src/engine.rs",
            ),
            (
                "fn f(s: &mut S) { s.step_observed(p, d, &mut obs); }\n",
                "crates/sim/src/engine.rs",
            ),
            (
                "fn f(s: &mut S) { s.step_routed(p, d, &mut obs, &mut out); }\n",
                "crates/sim/src/des/engine.rs",
            ),
            (
                "fn f(s: &mut S) { s.step_undoable(p, d, &mut log); }\n",
                "crates/sim/src/engine.rs",
            ),
            (
                "fn f(l: &mut L) { l.execute_round_observed(&mut obs); }\n",
                "crates/core/src/sync.rs",
            ),
            (
                "fn f(e: &mut E) { e.dispatch(&mut obs); }\n",
                "crates/sim/src/des/engine.rs",
            ),
        ] {
            assert!(
                run("crates/sim/src/explore.rs", src)
                    .iter()
                    .any(|d| d.rule == OBSERVER_BYPASS),
                "{src}"
            );
            // …and exempt in the home that calls it.
            assert!(run(home, src).is_empty(), "{src}");
        }
        // The drivers the substrates no longer have are ordinary names
        // again, like any other type's `tick`.
        for src in [
            "fn f(m: &mut M) { m.tick(); }\n",
            "fn f(l: &mut L) { l.execute_round(); }\n",
            "fn f(e: &mut E) { e.dispatch_observed(&mut obs); }\n",
        ] {
            assert!(run("crates/sim/src/explore.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn step_field_access_is_not_a_call() {
        // `x.step` without a call, and a bare fn `step(…)`, do not fire.
        let diags = run("crates/sim/src/explore.rs", "let a = x.step; step(1);\n");
        assert!(diags.is_empty());
    }

    #[test]
    fn unwrap_with_args_not_flagged() {
        let diags = run(
            "crates/sim/src/buffer.rs",
            "let x = v.unwrap_or(3); let y = w.unwrap( z );\n",
        );
        assert!(diags.iter().all(|d| d.rule != PANIC_IN_LIBRARY));
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let src = "let x = v.unwrap(); // kset-lint: allow(panic-in-library): checked above\n";
        let diags = run("crates/sim/src/buffer.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].status, Status::Allowed);
        assert_eq!(diags[0].justification.as_deref(), Some("checked above"));

        let stale = "// kset-lint: allow(panic-in-library): nothing here\nlet x = 1;\n";
        let diags = run("crates/sim/src/buffer.rs", stale);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, UNUSED_ALLOW);
    }

    #[test]
    fn unknown_rule_allow_fires() {
        let src = "// kset-lint: allow(no-such-rule): because\nlet x = 1;\n";
        let diags = run("crates/sim/src/buffer.rs", src);
        assert!(diags.iter().any(|d| d.rule == UNKNOWN_RULE_ALLOW));
    }

    #[test]
    fn qualified_capacity_matching() {
        let src = "let s = ProcessSet::singleton(p); let t = NotProcessSet::singleton(p);\n";
        let diags = run("crates/sim/src/buffer.rs", src);
        let caps: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == UNCHECKED_CAPACITY)
            .collect();
        assert_eq!(caps.len(), 1, "{diags:?}");
    }

    #[test]
    fn try_forms_do_not_fire() {
        let src = "let s = ProcessSet::try_singleton(p)?; let f = Self::try_full(n)?;\n";
        assert!(run("crates/sim/src/buffer.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); panic!(\"x\"); }\n}\n";
        assert!(run("crates/sim/src/buffer.rs", src).is_empty());
    }
}
