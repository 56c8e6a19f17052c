//! Shape-grouped batched sweeps: run same-shape cells as one computation.
//!
//! A sweep grid mixes cells of many shapes — system size, scheduled round
//! count — but a structure-of-arrays kernel can only fuse cells whose
//! per-round buffers line up. [`sweep_batched`] is the generic driver for
//! that split: it groups cells by a caller-supplied *shape key*, cuts each
//! group into batches of at most `batch` lanes (the final batch of a
//! group may be ragged), hands every batch to the kernel, and scatters
//! the per-lane results back into **canonical cell order**.
//!
//! Nothing about a cell changes under batching — not its index, not its
//! [`cell_seed`](super::cell_seed), not its inputs — only the execution
//! schedule does. A deterministic kernel that matches the scalar worker
//! lane-for-lane therefore reproduces [`sweep_seq`](super::sweep_seq)'s
//! output *exactly*, which is what lets a batched sweep's rendered
//! `kset-sweep v2` record be byte-identical to the sequential reference.
//!
//! Degenerate grids are not an error: a grid where no two cells share a
//! shape simply yields single-lane batches — the driver is a no-op
//! reordering, not a failure.
//!
//! `kset-bench`'s `SweepGrid::run_range`, the default path of `experiments
//! sweep`, drives the catalog's FloodMin kernel through this function at
//! 16 lanes per batch, over whatever range of cells it is given.
//!
//! # Examples
//!
//! ```
//! use kset_sim::sweep::sweep_batched;
//!
//! // "Shape" = parity; the kernel doubles every lane.
//! let cells: Vec<u32> = vec![1, 2, 3, 4, 5];
//! let out = sweep_batched(
//!     &cells,
//!     2,
//!     |_, c| c % 2,
//!     |lanes| lanes.iter().map(|(_, c)| **c * 2).collect(),
//! );
//! assert_eq!(out, vec![2, 4, 6, 8, 10]);
//! ```

use std::collections::BTreeMap;

/// Runs `cells` through `run_batch` in shape-grouped batches of at most
/// `batch` lanes, returning results in cell order.
///
/// * `shape(index, cell)` — the grouping key: two cells may share a batch
///   iff their keys are equal. Keys are ordered (`BTreeMap`), so batch
///   composition is deterministic; **within** a group, cells keep their
///   emission order.
/// * `run_batch(lanes)` — the kernel; `lanes` is a non-empty slice of
///   `(index, &cell)` pairs, all of one shape, at most `batch` long. It
///   must return exactly one result per lane, in lane order.
///
/// The final batch of each group carries the group's remainder and may be
/// shorter than `batch` (ragged). Groups with a single cell produce
/// single-lane batches — degenerate grids are a documented fallback to
/// the scalar path, not an error.
///
/// # Panics
///
/// Panics if `batch` is zero or the kernel returns a result count that
/// differs from its lane count.
pub fn sweep_batched<C, K, R>(
    cells: &[C],
    batch: usize,
    shape: impl Fn(usize, &C) -> K,
    run_batch: impl Fn(&[(usize, &C)]) -> Vec<R>,
) -> Vec<R>
where
    K: Ord,
{
    assert!(batch >= 1, "batch size must be at least 1");
    let mut groups: BTreeMap<K, Vec<(usize, &C)>> = BTreeMap::new();
    for (i, c) in cells.iter().enumerate() {
        groups.entry(shape(i, c)).or_default().push((i, c));
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(cells.len());
    slots.resize_with(cells.len(), || None);
    for lanes in groups.values() {
        for chunk in lanes.chunks(batch) {
            let results = run_batch(chunk);
            assert_eq!(
                results.len(),
                chunk.len(),
                "batch kernel must return one result per lane"
            );
            for ((i, _), r) in chunk.iter().zip(results) {
                debug_assert!(slots[*i].is_none());
                slots[*i] = Some(r);
            }
        }
    }
    slots
        .into_iter()
        .enumerate()
        // kset-lint: allow(panic-in-library): deliberate loud hole-check — a reassembly gap must abort the sweep rather than silently permute records
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn batched_results_keep_cell_order() {
        let cells: Vec<u32> = (0..23).rev().collect();
        let out = sweep_batched(
            &cells,
            4,
            |_, c| c % 3,
            |lanes| lanes.iter().map(|(i, c)| (*i as u32, **c)).collect(),
        );
        for (i, (idx, c)) in out.iter().enumerate() {
            assert_eq!(*idx as usize, i);
            assert_eq!(*c, cells[i]);
        }
    }

    #[test]
    fn groups_chunk_with_ragged_tail() {
        // 7 cells of one shape at batch 3 → chunks of 3, 3, 1; order
        // within the group is emission order.
        let cells = vec![10u32; 7];
        let chunks: RefCell<Vec<Vec<usize>>> = RefCell::new(Vec::new());
        sweep_batched(
            &cells,
            3,
            |_, _| 0u8,
            |lanes| {
                chunks
                    .borrow_mut()
                    .push(lanes.iter().map(|(i, _)| *i).collect());
                vec![(); lanes.len()]
            },
        );
        assert_eq!(
            *chunks.borrow(),
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]
        );
    }

    #[test]
    fn degenerate_grid_falls_back_to_single_lanes() {
        // Every cell has its own shape: batching degenerates to B = 1
        // batches in shape-key order, but results still come back in cell
        // order.
        let cells: Vec<u32> = vec![30, 10, 20];
        let sizes: RefCell<Vec<usize>> = RefCell::new(Vec::new());
        let out = sweep_batched(
            &cells,
            16,
            |_, c| *c,
            |lanes| {
                sizes.borrow_mut().push(lanes.len());
                lanes.iter().map(|(_, c)| **c + 1).collect()
            },
        );
        assert_eq!(out, vec![31, 11, 21]);
        assert_eq!(*sizes.borrow(), vec![1, 1, 1]);
    }

    #[test]
    fn batch_one_is_the_scalar_schedule() {
        let cells: Vec<u32> = (0..9).collect();
        let out = sweep_batched(
            &cells,
            1,
            |_, c| c % 2,
            |lanes| {
                assert_eq!(lanes.len(), 1);
                vec![*lanes[0].1 * 3]
            },
        );
        assert_eq!(out, (0..9).map(|c| c * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_rejected() {
        sweep_batched(&[1u32], 0, |_, _| 0u8, |lanes| vec![(); lanes.len()]);
    }

    #[test]
    #[should_panic(expected = "one result per lane")]
    fn short_kernel_output_rejected() {
        sweep_batched(&[1u32, 2], 2, |_, _| 0u8, |_| Vec::<()>::new());
    }
}
