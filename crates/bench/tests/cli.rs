//! The `experiments` binary's contract. Arguments: a table flag prints its
//! table and exits 0; anything that is neither a table flag nor a
//! subcommand is a usage error (exit 2) instead of a silent no-op.
//! Outputs: the catalog sweeps write the files their pinned digests name,
//! and the tables equal the checked-in EXPERIMENTS.md byte for byte.

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

#[test]
fn catalog_sweeps_reproduce_the_pinned_file_digests() {
    // The behaviour contract: both catalog grids, swept sequentially at
    // grid seed 42, must write byte-for-byte the files these digests pin.
    for (grid, digest) in [
        ("scale", "0x8a5a8765f66cd47e"),
        ("border", "0x91e9f2098fdc14a2"),
    ] {
        let path = std::env::temp_dir().join(format!("kset-cli-{grid}-{}.txt", std::process::id()));
        let out = experiments(&[
            "sweep",
            "--grid",
            grid,
            "--seq",
            "--grid-seed",
            "42",
            "--out",
            path.to_str().expect("temp paths are UTF-8"),
        ]);
        let _ = std::fs::remove_file(&path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{grid}: {stdout}");
        assert!(
            stdout.contains(&format!("file-digest={digest}")),
            "{grid}: expected file-digest={digest}, got: {stdout}"
        );
    }
}

#[test]
fn experiments_md_is_the_current_table_output() {
    // EXPERIMENTS.md records what the reproduction claims: it must be the
    // exact output of `experiments` with no arguments.
    let out = experiments(&[]);
    assert_eq!(out.status.code(), Some(0));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let recorded = std::fs::read(path).expect("EXPERIMENTS.md exists at the repo root");
    assert!(
        out.stdout == recorded,
        "EXPERIMENTS.md differs from the `experiments` output; if the change \
         is intended, regenerate it with\n    \
         cargo run --release -q -p kset-bench --bin experiments > EXPERIMENTS.md\n\
         --- current output ---\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
