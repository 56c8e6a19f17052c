//! The batched-execution conformance gate: batching a sweep changes the
//! execution schedule and **nothing else**.
//!
//! For every catalog grid and batch sizes B ∈ {1, 3, 8, 16} — including
//! batches that leave a ragged final chunk — the batched sweep must
//! produce per-cell digests and `Observation` payloads identical to the
//! one-at-a-time scalar path, and the rendered `kset-sweep v2` shard
//! file must be **byte-identical** to the sequential reference. The
//! default path, `SweepGrid::run_range`, runs the same kernel at 16 lanes
//! over any range of cells, and must equal the matching slice of the
//! sequential reference however the range cuts the grid. This is the
//! in-process twin of the `cmp`-based CI leg in `sweep-shards.yml`.

use std::ops::Range;

use kset_bench::sweeps::{grid, GRID_NAMES};
use kset_core::algorithms::floodmin::floodmin_rounds;
use kset_sim::sweep::{cell_seed, GridCell, ShardFile, ShardSpec};

const BATCHES: [usize; 4] = [1, 3, 8, 16];

#[test]
fn batched_sweep_records_match_sequential_for_every_grid_and_batch() {
    for name in GRID_NAMES {
        let g = grid(name, 42).expect("catalog grid resolves");
        let reference = g.sweep_sequential();
        for batch in BATCHES {
            let batched = g.sweep_shard_batched(ShardSpec::FULL, batch);
            assert_eq!(batched.len(), reference.len());
            for (b, s) in batched.iter().zip(&reference) {
                assert_eq!(b.index, s.index, "grid {name} batch {batch}: order");
                assert_eq!(
                    b.digest, s.digest,
                    "grid {name} batch {batch} cell {}: digest",
                    s.index
                );
                assert_eq!(
                    b.obs, s.obs,
                    "grid {name} batch {batch} cell {}: observation payload",
                    s.index
                );
                assert_eq!(b, s, "grid {name} batch {batch} cell {}", s.index);
            }
        }
    }
}

#[test]
fn batched_shard_file_is_byte_identical_to_sequential() {
    for name in GRID_NAMES {
        let g = grid(name, 42).expect("catalog grid resolves");
        let sequential = ShardFile {
            header: g.header(ShardSpec::FULL),
            records: g.sweep_sequential(),
        }
        .render();
        for batch in BATCHES {
            let batched = ShardFile {
                header: g.header(ShardSpec::FULL),
                records: g.sweep_shard_batched(ShardSpec::FULL, batch),
            }
            .render();
            assert_eq!(
                batched, sequential,
                "grid {name} batch {batch}: rendered shard file must be byte-identical"
            );
        }
    }
}

#[test]
fn batched_sub_shards_match_the_sequential_slice() {
    // Batching composes with sharding: each shard's batched records equal
    // the matching slice of the sequential reference.
    for name in GRID_NAMES {
        let g = grid(name, 42).expect("catalog grid resolves");
        let reference = g.sweep_sequential();
        let mut reassembled = Vec::new();
        for shard_index in 0..3 {
            let shard = ShardSpec::new(shard_index, 3).unwrap();
            let batched = g.sweep_shard_batched(shard, 8);
            assert_eq!(batched.as_slice(), shard.slice(&reference), "grid {name}");
            reassembled.extend(batched);
        }
        assert_eq!(reassembled, reference, "grid {name}: shards cover the grid");
    }
}

#[test]
fn ragged_final_batch_matches_per_cell_records() {
    // 19 same-shape cells at B = 8 chunk as 8 + 8 + 3: the ragged tail
    // must flow through the same kernel and come out identical. The cells
    // are synthetic because the catalog grids never repeat an (n, f, k)
    // point, so their largest same-shape group is 3 cells.
    let g = grid("scale", 42).expect("catalog grid resolves");
    let cells: Vec<GridCell> = (0..19)
        .map(|index| GridCell {
            index,
            n: 64,
            f: 3,
            k: 2,
            seed: cell_seed(42, index),
        })
        .collect();
    let refs: Vec<&GridCell> = cells.iter().collect();
    let scalar: Vec<_> = cells.iter().map(|cell| g.record(cell)).collect();
    for batch in BATCHES {
        for chunk in refs.chunks(batch) {
            let start = chunk[0].index;
            let batched = g.record_batch(chunk);
            assert_eq!(
                batched,
                scalar[start..start + chunk.len()],
                "batch {batch} chunk at {start}"
            );
        }
    }
}

#[test]
fn run_range_matches_the_sequential_slice_over_any_range() {
    for &name in GRID_NAMES {
        let g = grid(name, 42).expect("catalog grid resolves");
        let reference = g.sweep_sequential();
        let total = reference.len();
        // Empty ranges, a single cell and the full grid …
        let mut ranges: Vec<Range<usize>> = vec![0..0, 4..4, total..total, 2..3, 0..total];
        // … each range of a 3-shard partition …
        ranges.extend((0..3).map(|i| ShardSpec::new(i, 3).unwrap().range(total)));
        // … and a range that splits a shape group: `1..=j` holds cell j
        // but not cell 0, the first member of j's group.
        let shape = |c: &GridCell| (c.n, floodmin_rounds(c.f, c.k));
        let j = (1..total).find(|&j| shape(&g.cells[j]) == shape(&g.cells[0]));
        if name == "scale" {
            assert!(
                j.is_some(),
                "the scale grid's first shape group has more cells"
            );
        }
        ranges.extend(j.map(|j| 1..j + 1));
        for range in ranges {
            let mut got = Vec::new();
            g.run_range(range.clone(), |r| got.push(r));
            assert_eq!(got, reference[range.clone()], "grid {name} range {range:?}");
        }
    }
}
