//! The `experiments` binary's contract. Arguments: a table flag prints its
//! table and exits 0; anything that is neither a table flag nor a
//! subcommand is a usage error (exit 2) instead of a silent no-op, and so
//! is a flag of `sweep` or `merge` given twice.
//! Outputs: the catalog sweeps write the files their pinned digests name
//! on every path that writes one (`--seq`, the default path, shards +
//! `merge`, and `--resume` of clean and torn prefixes), and the tables
//! equal the checked-in EXPERIMENTS.md byte for byte.

use std::path::{Path, PathBuf};
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

/// The behaviour contract: the file digest of each catalog grid at grid
/// seed 42, whichever path writes the file.
const PINNED: [(&str, &str); 2] = [
    ("scale", "0x8a5a8765f66cd47e"),
    ("border", "0x91e9f2098fdc14a2"),
];

/// A per-process temp path, distinct per test (`tag`) and grid.
fn temp(tag: &str, grid: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kset-cli-{tag}-{grid}-{}.txt", std::process::id()))
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Runs `experiments` and asserts that it exits 0 and reports `digest`.
fn assert_digest(args: &[&str], digest: &str) {
    let out = experiments(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
    assert!(
        stdout.contains(&format!("file-digest={digest}")),
        "{args:?}: expected file-digest={digest}, got: {stdout}"
    );
}

/// Sweeps `grid` at seed 42 into `out`, with `extra` arguments.
fn sweep(grid: &str, out: &Path, extra: &[&str], digest: &str) {
    let mut args = vec!["sweep", "--grid", grid, "--grid-seed", "42"];
    args.extend(extra);
    args.extend(["--out", path_arg(out)]);
    assert_digest(&args, digest);
}

#[test]
fn catalog_sweeps_reproduce_the_pinned_file_digests() {
    // The behaviour contract: both catalog grids, swept sequentially at
    // grid seed 42, must write byte-for-byte the files these digests pin.
    for (grid, digest) in PINNED {
        let path = temp("seq", grid);
        sweep(grid, &path, &["--seq"], digest);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn default_sweeps_reproduce_the_pinned_file_digests() {
    for (grid, digest) in PINNED {
        let path = temp("default", grid);
        sweep(grid, &path, &[], digest);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn merged_shards_reproduce_the_pinned_file_digests() {
    for (grid, digest) in PINNED {
        let shards: Vec<PathBuf> = (0..3).map(|i| temp(&format!("shard{i}"), grid)).collect();
        for (i, shard) in shards.iter().enumerate() {
            let spec = format!("{i}/3");
            let out = experiments(&[
                "sweep",
                "--grid",
                grid,
                "--grid-seed",
                "42",
                "--shard",
                &spec,
                "--out",
                path_arg(shard),
            ]);
            assert_eq!(out.status.code(), Some(0), "{grid} shard {spec}");
        }
        let merged = temp("merged", grid);
        let mut args = vec!["merge", "--out", path_arg(&merged)];
        args.extend(shards.iter().map(|p| path_arg(p)));
        assert_digest(&args, digest);
        for path in shards.iter().chain([&merged]) {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[test]
fn resumed_sweeps_reproduce_the_pinned_file_digests() {
    // A sweep killed after three cell lines, at a line boundary and torn
    // 9 bytes into the next line, resumes to the pinned file.
    for (grid, digest) in PINNED {
        let full = temp("resume-full", grid);
        sweep(grid, &full, &["--seq"], digest);
        let text = std::fs::read_to_string(&full).expect("the sweep wrote its file");
        // The header is 3 lines; keep it and three cell lines.
        let prefix_len: usize = text.split_inclusive('\n').take(6).map(str::len).sum();
        for (tag, cut) in [
            ("resume-clean", prefix_len),
            ("resume-torn", prefix_len + 9),
        ] {
            let partial = temp(tag, grid);
            std::fs::write(&partial, &text[..cut]).expect("write the partial file");
            assert_digest(&["sweep", "--resume", path_arg(&partial)], digest);
            let resumed = std::fs::read_to_string(&partial).expect("resume rewrote the file");
            assert!(resumed == text, "{grid} {tag}: resumed file differs");
            let _ = std::fs::remove_file(&partial);
        }
        let _ = std::fs::remove_file(&full);
    }
}

#[test]
fn repeated_flags_are_usage_errors() {
    // A repeated flag would otherwise let its last value win silently.
    let out = temp("repeat-out", "any");
    let other = temp("repeat-other", "any");
    let (out_arg, other_arg) = (path_arg(&out), path_arg(&other));
    fn scale_sweep<'a>(out: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        let mut args = vec!["sweep", "--grid", "scale", "--out", out];
        args.extend(extra);
        args
    }
    let cases = [
        scale_sweep(out_arg, &["--shard", "0/3", "--shard", "1/3"]),
        scale_sweep(out_arg, &["--out", other_arg]),
        scale_sweep(out_arg, &["--grid", "border"]),
        scale_sweep(out_arg, &["--grid-seed", "1", "--grid-seed", "1"]),
        scale_sweep(out_arg, &["--seq", "--seq"]),
        vec!["sweep", "--resume", out_arg, "--resume", out_arg],
        vec!["merge", "--out", other_arg, "--out", out_arg, out_arg],
        vec![
            "merge",
            "--out",
            out_arg,
            "--check-against-sequential",
            "--check-against-sequential",
            other_arg,
        ],
    ];
    for args in cases {
        let run = experiments(&args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} must report no run");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("given more than once") && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(
            !out.exists() && !other.exists(),
            "{args:?} must write no file"
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
