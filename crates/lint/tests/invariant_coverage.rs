//! Representation-invariant coverage: every mutator of the core data
//! structures in `crates/sim/src/ids.rs` must re-check its structure's
//! debug invariant before returning. The check is textual (over the
//! comment-stripped masked source), so removing a `debug_check_*` call —
//! or adding a new mutator without one — fails this test, not just a code
//! review.

use kset_lint::lexer::lex;
use std::path::Path;

/// Extracts the body of `fn <name>` from masked source: the text between
/// the brace that opens the function and its matching close brace.
fn fn_body<'a>(masked: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("fn {name}");
    let mut from = 0;
    while let Some(pos) = masked[from..].find(&needle) {
        let at = from + pos;
        let after = at + needle.len();
        // Reject identifiers that merely start with `name` (fn foo vs foo_bar).
        let boundary = !masked[after..]
            .bytes()
            .next()
            .is_some_and(kset_lint::lexer::is_ident_byte);
        if !boundary {
            from = after;
            continue;
        }
        let open_rel = masked[after..].find('{')?;
        let open = after + open_rel;
        let mut depth = 0usize;
        for (i, b) in masked[open..].bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&masked[open..open + i + 1]);
                    }
                }
                _ => {}
            }
        }
        return None;
    }
    None
}

fn masked_ids_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("sim")
        .join("src")
        .join("ids.rs");
    let src = std::fs::read_to_string(path).expect("crates/sim/src/ids.rs");
    lex(&src).masked
}

/// The masked source from `marker` onwards — scopes a fn-name search to one
/// `impl` block when the name (insert, remove, …) recurs across types.
fn section<'a>(masked: &'a str, marker: &str) -> &'a str {
    let at = masked
        .find(marker)
        .unwrap_or_else(|| panic!("marker {marker:?} not found in ids.rs"));
    &masked[at..]
}

#[test]
fn sender_map_mutators_check_density() {
    let masked = masked_ids_source();
    let masked = section(&masked, "impl<M> SenderMap<M>");
    for mutator in ["insert", "remove", "clear", "entry_or_insert_with"] {
        let body = fn_body(masked, mutator)
            .unwrap_or_else(|| panic!("SenderMap mutator fn {mutator} not found"));
        assert!(
            body.contains("debug_check_density"),
            "SenderMap::{mutator} must re-check the density invariant before returning"
        );
    }
}

#[test]
fn wide_set_bounded_constructors_check_confinement() {
    let masked = masked_ids_source();
    let try_full = fn_body(&masked, "try_full").expect("WideSet::try_full");
    assert!(
        try_full.contains("debug_assert"),
        "WideSet::try_full must debug-assert that exactly the first n bits are set"
    );
    let complement = fn_body(&masked, "complement").expect("WideSet::complement");
    assert!(
        complement.contains("debug_assert"),
        "WideSet::complement must debug-assert confinement to the first n ids"
    );
}
