//! Property tests for resumable shard files: any truncation of a shard
//! file resumes — recomputing only the owed cells — to bytes identical to
//! the uninterrupted sweep, through the merge gate included.

use proptest::prelude::*;

use kset_sim::observe::EventCounts;
use kset_sim::sweep::{
    cell_seed, merge, CellRecord, Observation, PartialShardFile, ShardFile, ShardSpec, SweepHeader,
};

/// The deterministic per-cell "sweep worker" of these tests: digest and
/// observation are pure functions of `(grid_seed, index)`, like every real
/// catalog worker.
fn record(grid_seed: u64, index: usize) -> CellRecord {
    let seed = cell_seed(grid_seed, index);
    let base = CellRecord {
        index,
        n: 4 + index % 7,
        f: index % 3,
        k: 1 + index % 2,
        seed,
        digest: seed.rotate_left((index % 61) as u32),
        obs: None,
    };
    match seed % 4 {
        0 => base,
        1 => base.with_observation(Observation::distinct((0..seed % 5).map(|v| v * 3))),
        2 => base.with_observation(Observation::Decisions(
            (0..3)
                .map(|i| !(seed >> i).is_multiple_of(3))
                .map(|d| d.then_some(seed % 9))
                .collect(),
        )),
        _ => base.with_observation(Observation::Counts(EventCounts {
            sends: seed % 100,
            dropped: seed % 7,
            delivers: seed % 90,
            fd_samples: seed % 11,
            steps: seed % 50,
            rounds: seed % 6,
            crashes: seed % 3,
            decides: seed % 5,
            halts: 1,
        })),
    }
}

fn shard_file(grid_seed: u64, total: usize, spec: ShardSpec) -> ShardFile {
    let header = SweepHeader::new("props", grid_seed, "synthetic", total, spec);
    let records = header
        .range()
        .map(|index| record(grid_seed, index))
        .collect();
    ShardFile { header, records }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut a shard file at ANY byte past its header: the partial
    /// parses, owes exactly the un-recorded tail, and recomputing only
    /// that remainder rebuilds the uninterrupted bytes — which then merge
    /// (with the untouched sibling shards) to the sequential file.
    #[test]
    fn truncated_v2_resumes_to_uninterrupted_bytes(
        grid_seed in 0u64..1_000_000,
        total in 1usize..40,
        shard_count in 1usize..5,
        cut_permille in 0usize..1001,
    ) {
        let victim_index = (grid_seed as usize) % shard_count;
        let spec = ShardSpec::new(victim_index, shard_count).unwrap();
        let full = shard_file(grid_seed, total, spec);
        let reference = full.render();

        // Cut anywhere strictly past the 3-line header.
        let header_len = full.header.render().len();
        let cut = header_len + (reference.len() - header_len) * cut_permille / 1000;
        let cut = cut.min(reference.len());
        let partial = PartialShardFile::parse(&reference[..cut])
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", reference.len()));

        // The prefix is honest: records are exactly the leading ones, and
        // owed names exactly the rest.
        let range = full.header.range();
        prop_assert_eq!(&partial.records[..], &full.records[..partial.records.len()]);
        prop_assert_eq!(
            partial.owed(),
            range.start + partial.records.len()..range.end
        );

        // Resume: recompute ONLY the owed cells with the same pure worker.
        let mut rebuilt_records = partial.records.clone();
        rebuilt_records.extend(partial.owed().map(|index| record(grid_seed, index)));
        let rebuilt = ShardFile { header: partial.header, records: rebuilt_records };
        prop_assert_eq!(rebuilt.render(), reference.clone(), "resume == uninterrupted");

        // The merge gate cannot tell a resumed shard from a clean one.
        let shards: Vec<ShardFile> = (0..shard_count)
            .map(|i| {
                if i == victim_index {
                    rebuilt.clone()
                } else {
                    shard_file(grid_seed, total, ShardSpec::new(i, shard_count).unwrap())
                }
            })
            .collect();
        let sequential = shard_file(grid_seed, total, ShardSpec::FULL);
        let merged = merge(&shards).expect("full partition merges");
        prop_assert_eq!(merged.render(), sequential.render());
    }
}
