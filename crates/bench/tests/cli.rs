//! The `experiments` binary's argument contract: a table flag prints its
//! table and exits 0; anything that is neither a table flag nor a
//! subcommand is a usage error (exit 2) instead of a silent no-op.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn unknown_arguments_are_usage_errors() {
    for bad in [["--e9"].as_slice(), &["e3"], &["--e1", "--bogus"]] {
        let out = experiments(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:") && stderr.contains("[--e7]"),
            "{bad:?}: usage lists the table flags: {stderr}"
        );
    }
}

#[test]
fn a_known_table_flag_prints_its_table() {
    let out = experiments(&["--e6"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== E6 "), "{stdout}");
    assert!(
        !stdout.contains("== E1 "),
        "only the requested table prints"
    );
}
