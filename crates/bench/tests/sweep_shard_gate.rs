//! The shard-matrix CI gate, in-process: for every catalog grid, a 3-way
//! shard partition swept through `SweepGrid::run_range` (the path
//! `experiments sweep --shard I/J` takes) and merged from the text format
//! must reproduce the sequential single-process sweep **byte for byte** —
//! and withholding a shard must fail the merge loudly. The
//! kill-and-resume gate rides along: any truncation of a shard file must
//! resume — recomputing only the owed cells — to those same bytes.
//!
//! `.github/workflows/sweep-shards.yml` runs exactly this across three
//! runner processes plus artifact upload/download (and a kill-and-resume
//! job on the release binary); this test keeps the gate honest without a
//! CI round-trip.

use kset_bench::sweeps::{grid, SweepGrid, GRID_NAMES};
use kset_sim::sweep::{merge, MergeError, PartialShardFile, ShardFile, ShardSpec};

const SHARDS: usize = 3;

/// Shard `spec` of `g`, swept through `run_range` as the CLI sweeps it.
fn shard_file(g: &SweepGrid, spec: ShardSpec) -> ShardFile {
    let mut records = Vec::new();
    g.run_range(spec.range(g.cells.len()), |r| records.push(r));
    ShardFile {
        header: g.header(spec),
        records,
    }
}

fn shard_files(name: &str) -> (Vec<ShardFile>, ShardFile) {
    let g = grid(name, 42).expect("catalog grid");
    let files: Vec<ShardFile> = (0..SHARDS)
        .map(|i| shard_file(&g, ShardSpec::new(i, SHARDS).unwrap()))
        .collect();
    let sequential = ShardFile {
        header: g.header(ShardSpec::FULL),
        records: g.sweep_sequential(),
    };
    (files, sequential)
}

#[test]
fn merged_shards_are_byte_identical_to_sequential() {
    for name in GRID_NAMES {
        let (files, sequential) = shard_files(name);
        // Each shard file survives the text round-trip unchanged …
        for file in &files {
            assert_eq!(
                ShardFile::parse(&file.render()).as_ref(),
                Ok(file),
                "grid {name}: render→parse must be identity"
            );
        }
        // … and the merge of the reparsed files is the sequential file.
        let reparsed: Vec<ShardFile> = files
            .iter()
            .map(|f| ShardFile::parse(&f.render()).unwrap())
            .collect();
        let merged = merge(&reparsed).expect("full partition merges");
        assert_eq!(merged, sequential, "grid {name}");
        assert_eq!(
            merged.render(),
            sequential.render(),
            "grid {name}: merged file must be byte-identical to sequential"
        );
    }
}

#[test]
fn withheld_shard_fails_the_merge_loudly() {
    let (files, _) = shard_files("scale");
    let withheld: Vec<ShardFile> = files
        .iter()
        .filter(|f| f.header.shard.shard_index() != 1)
        .cloned()
        .collect();
    assert_eq!(
        merge(&withheld),
        Err(MergeError::MissingShard { shard_index: 1 })
    );
    let doubled: Vec<ShardFile> = files.iter().chain(files.first()).cloned().collect();
    assert_eq!(
        merge(&doubled),
        Err(MergeError::DuplicateShard { shard_index: 0 })
    );
}

#[test]
fn killed_sweeps_resume_to_identical_bytes() {
    // The resume contract on the real catalog: cut a shard file anywhere —
    // between lines or mid-line — and completing the owed cells from the
    // partial must rebuild the uninterrupted file byte for byte. This is
    // the in-process form of the CI kill-and-resume job.
    let g = grid("border", 42).expect("catalog grid");
    let reference = shard_file(&g, ShardSpec::new(1, 2).unwrap()).render();

    // Every cut position: after the header, after each record line, and a
    // mid-line tear inside each record line.
    let line_ends: Vec<usize> = reference
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .map(|(i, _)| i + 1)
        .collect();
    let header_end = line_ends[2];
    for (i, &line_end) in line_ends.iter().enumerate().skip(2) {
        for cut in [line_end, line_end.saturating_sub(7).max(header_end)] {
            if cut < header_end {
                continue;
            }
            let partial = PartialShardFile::parse(&reference[..cut])
                .unwrap_or_else(|e| panic!("cut at byte {cut} (line {i}): {e}"));
            let mut resumed = partial.records.clone();
            g.run_range(partial.owed(), |r| resumed.push(r));
            let rebuilt = ShardFile {
                header: partial.header,
                records: resumed,
            };
            assert_eq!(
                rebuilt.render(),
                reference,
                "cut at byte {cut} must resume to identical bytes"
            );
        }
    }
}

#[test]
fn grids_under_different_seeds_do_not_mix() {
    let a = grid("scale", 42).unwrap();
    let b = grid("scale", 43).unwrap();
    let file = |g, i| shard_file(g, ShardSpec::new(i, 2).unwrap());
    assert!(matches!(
        merge(&[file(&a, 0), file(&b, 1)]),
        Err(MergeError::GridMismatch { .. })
    ));
}
