//! Parallel grid sweeps over scenarios, with deterministic per-cell seeds.
//!
//! The experiment harness spends its time running many independent
//! `(n, f, k, seed)` cells — border constructions, possibility grids,
//! randomized schedule batteries. Each cell is a pure function of its
//! parameters, so the grid parallelizes trivially; this module provides the
//! shared runner, and [`scale_grid`] builds capacity-checked `(n, f, k)`
//! cell lists spanning system sizes up to the full [`ProcessSet`] capacity
//! (n ∈ {64, 128, 256, 512} all run under the same [`cell_seed`] contract).
//!
//! Guarantees:
//!
//! * **Determinism** — [`sweep`] returns results in cell order, and each
//!   cell sees only its own inputs, so the parallel run is *identical* to
//!   [`sweep_seq`] whenever the worker itself is deterministic.
//! * **Deterministic seeding** — [`cell_seed`] derives a well-mixed per-cell
//!   seed from a grid seed and the cell index, so "cell 17 of grid 42" is
//!   the same scenario on every machine and at every thread count.
//!
//! Parallelism uses `std::thread::scope` with one stride of the cell list
//! per worker thread (the environment vendors no rayon). Beyond one host,
//! the grid shards across processes under the same contract:
//!
//! * [`ShardSpec`] ([`shard`]) — deterministic, validated cell→shard
//!   assignment as contiguous ranges over the emitted index space; cell
//!   indices and seeds are globally stable regardless of shard count.
//! * [`CellRecord`] / [`ShardFile`] / [`merge`] ([`record`]) — the
//!   plain-text per-shard result format and its coverage-checked merge,
//!   whose output is byte-identical to a sequential sweep's.
//! * [`sweep_batched`] ([`batched`]) — shape-grouped batched execution:
//!   same-shape cells run as one structure-of-arrays kernel invocation,
//!   with results scattered back into canonical cell order (so records
//!   stay byte-identical to the sequential reference).
//!
//! The catalog grids of `kset-bench` run on top of these: its
//! `SweepGrid::run_range` runs a range of cells through the batch kernel
//! (or cell by cell when a grid has none) and hands each record to a sink
//! in cell order, which is how `experiments sweep` writes whole grids,
//! shards and resumed files alike. [`sweep`] is the one threaded map; the
//! paper tables use it.
//!
//! # Examples
//!
//! ```
//! use kset_sim::sweep::{cell_seed, sweep, sweep_seq};
//!
//! let cells: Vec<u64> = (0..32).collect();
//! let par = sweep(&cells, |i, &c| c * 2 + cell_seed(7, i) % 2);
//! let seq = sweep_seq(&cells, |i, &c| c * 2 + cell_seed(7, i) % 2);
//! assert_eq!(par, seq);
//! ```

use std::fmt;
use std::num::NonZeroUsize;
use std::thread;

use crate::ids::{CapacityError, ProcessSet};

pub mod batched;
pub mod record;
pub mod shard;

pub use batched::sweep_batched;
pub use record::{
    merge, CellLineError, CellRecord, MergeError, Observation, ParseError, PartialShardFile,
    ShardFile, SweepHeader,
};
pub use shard::{ShardError, ShardSpec};

/// One cell of an `(n, f, k)` scale grid, with its deterministic seed.
///
/// Produced by [`scale_grid`]; `seed` is [`cell_seed`] of the grid seed and
/// the cell's emission index, so a cell's scenario is a pure function of the
/// grid parameters — identical across hosts, thread counts and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Position of this cell in the emitted grid (the `index` argument the
    /// sweep worker receives).
    pub index: usize,
    /// System size.
    pub n: usize,
    /// Number of failures the scenario tolerates/injects.
    pub f: usize,
    /// Agreement degree (k-set agreement).
    pub k: usize,
    /// Deterministic per-cell seed: `cell_seed(grid_seed, index)`.
    pub seed: u64,
}

/// Why a grid could not be built from its axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// An `n` axis value exceeds [`ProcessSet::CAPACITY`].
    Capacity(CapacityError),
    /// An axis lists the same value twice. Duplicates would emit the same
    /// `(n, f, k)` point as two cells with *different* seeds — almost
    /// certainly an axis typo, and poison for "cell X of grid Y" citations
    /// — so they are rejected rather than deduplicated.
    DuplicateAxisValue {
        /// Which axis repeats (`"ns"`, `"fs"` or `"ks"`).
        axis: &'static str,
        /// The repeated value.
        value: usize,
    },
}

impl From<CapacityError> for GridError {
    fn from(e: CapacityError) -> Self {
        GridError::Capacity(e)
    }
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Capacity(e) => e.fmt(f),
            GridError::DuplicateAxisValue { axis, value } => write!(
                f,
                "axis {axis} lists {value} twice; duplicate axis values would \
                 emit duplicate (n, f, k) cells under different seeds"
            ),
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::Capacity(e) => Some(e),
            GridError::DuplicateAxisValue { .. } => None,
        }
    }
}

/// Crosses system sizes × failure counts × agreement degrees into a cell
/// list with deterministic per-cell seeds, validating every `n` against
/// [`ProcessSet::CAPACITY`] and every axis against repeated values up
/// front, so bad grids fail with a typed [`GridError`] before any work is
/// scheduled.
///
/// Iteration order (and therefore cell indices and seeds) is `ns` outer,
/// `fs` middle, `ks` inner. Infeasible combinations — `f ≥ n`, `k < 1`, or
/// `k > n` — are skipped *before* indices are assigned, so the seed of a
/// surviving cell never depends on how many infeasible neighbours the
/// caller's axes produced. Duplicate axis values are rejected outright:
/// they would emit the same `(n, f, k)` point twice under different seeds.
///
/// # Examples
///
/// ```
/// use kset_sim::sweep::{cell_seed, scale_grid, GridError};
///
/// let grid = scale_grid(&[64, 128, 256, 512], &[1], &[1, 2], 42).unwrap();
/// assert_eq!(grid.len(), 8);
/// assert_eq!((grid[0].n, grid[0].f, grid[0].k), (64, 1, 1));
/// assert_eq!(grid[0].seed, cell_seed(42, 0));
/// assert!(scale_grid(&[513], &[0], &[1], 42).is_err());
/// assert_eq!(
///     scale_grid(&[128, 128], &[1], &[1], 42),
///     Err(GridError::DuplicateAxisValue { axis: "ns", value: 128 })
/// );
/// ```
pub fn scale_grid(
    ns: &[usize],
    fs: &[usize],
    ks: &[usize],
    grid_seed: u64,
) -> Result<Vec<GridCell>, GridError> {
    for &n in ns {
        if n > ProcessSet::CAPACITY {
            return Err(CapacityError::new(n, ProcessSet::CAPACITY).into());
        }
    }
    for (axis, values) in [("ns", ns), ("fs", fs), ("ks", ks)] {
        let mut seen = std::collections::BTreeSet::new();
        for &value in values {
            if !seen.insert(value) {
                return Err(GridError::DuplicateAxisValue { axis, value });
            }
        }
    }
    let mut cells = Vec::new();
    for &n in ns {
        for &f in fs {
            for &k in ks {
                if f >= n || k < 1 || k > n {
                    continue;
                }
                let index = cells.len();
                cells.push(GridCell {
                    index,
                    n,
                    f,
                    k,
                    seed: cell_seed(grid_seed, index),
                });
            }
        }
    }
    Ok(cells)
}

/// Derives the deterministic seed of cell `index` within grid `grid_seed`
/// (SplitMix64 over the pair).
pub fn cell_seed(grid_seed: u64, index: usize) -> u64 {
    let mut z = grid_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `worker` over every cell sequentially; the reference semantics of
/// [`sweep`].
pub fn sweep_seq<C, R>(cells: &[C], worker: impl Fn(usize, &C) -> R) -> Vec<R> {
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| worker(i, c))
        .collect()
}

/// Runs `worker` over every cell in parallel, returning results in cell
/// order.
///
/// Threads process strided slices of the cell list (`i % threads == t`), so
/// no work queue or locking is involved; results are reassembled in input
/// order before returning. With a deterministic worker the output equals
/// [`sweep_seq`]'s exactly.
pub fn sweep<C, R>(cells: &[C], worker: impl Fn(usize, &C) -> R + Sync) -> Vec<R>
where
    C: Sync,
    R: Send,
{
    let threads = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(cells.len().max(1));
    if threads <= 1 || cells.len() <= 1 {
        return sweep_seq(cells, worker);
    }
    let worker = &worker;
    let mut strides: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    cells
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, c)| (i, worker(i, c)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            // kset-lint: allow(panic-in-library): propagating a worker panic at join keeps a failed cell loud; swallowing it would silently drop part of the grid
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    // Reassemble in cell order by *index*, not by interleave position: a
    // stride bug then loses results loudly (a hole, caught below) instead of
    // silently permuting them in release builds.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(cells.len());
    slots.resize_with(cells.len(), || None);
    for (i, r) in strides.iter_mut().flat_map(|s| s.drain(..)) {
        assert!(i < slots.len(), "worker produced an out-of-range index {i}");
        assert!(slots[i].is_none(), "cell {i} produced two results");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        // kset-lint: allow(panic-in-library): deliberate loud hole-check — a reassembly gap must abort the sweep rather than silently permute records
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} produced no result")))
        .collect()
}

/// Maps every cell of a [`scale_grid`] to a concrete
/// [`Scenario`](crate::scenario::Scenario) via
/// [`Scenario::from_cell`](crate::scenario::Scenario::from_cell): the
/// sweep's deterministic seed contract now pins whole scenarios (crash
/// layouts included) instead of bare `(n, f, k)` tuples.
///
/// # Errors
///
/// As [`scale_grid`]: a [`GridError`] if any `n` exceeds
/// [`ProcessSet::CAPACITY`] or an axis repeats a value.
///
/// # Examples
///
/// ```
/// use kset_sim::sweep::scenario_grid;
///
/// let scenarios = scenario_grid(&[4, 8], &[1], &[1], 42).unwrap();
/// assert_eq!(scenarios.len(), 2);
/// assert!(scenarios.iter().all(|sc| sc.validate().is_ok()));
/// ```
pub fn scenario_grid(
    ns: &[usize],
    fs: &[usize],
    ks: &[usize],
    grid_seed: u64,
) -> Result<Vec<crate::scenario::Scenario>, GridError> {
    Ok(scale_grid(ns, fs, ks, grid_seed)?
        .iter()
        .map(crate::scenario::Scenario::from_cell)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_grid_orders_filters_and_seeds() {
        let grid = scale_grid(&[4, 8], &[1, 9], &[1], 7).unwrap();
        // f = 9 is infeasible at n = 4 and n = 8; only the f = 1 cells
        // survive, with contiguous indices.
        assert_eq!(grid.len(), 2);
        assert_eq!((grid[0].n, grid[0].f, grid[0].k), (4, 1, 1));
        assert_eq!((grid[1].n, grid[1].f, grid[1].k), (8, 1, 1));
        for (i, cell) in grid.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, cell_seed(7, i));
        }
    }

    #[test]
    fn scale_grid_rejects_oversized_n_up_front() {
        let err = scale_grid(&[64, ProcessSet::CAPACITY + 1], &[1], &[1], 7).unwrap_err();
        let GridError::Capacity(err) = err else {
            panic!("expected a capacity error, got {err:?}");
        };
        assert_eq!(err.requested(), ProcessSet::CAPACITY + 1);
        assert_eq!(err.capacity(), ProcessSet::CAPACITY);
    }

    #[test]
    fn scale_grid_rejects_duplicate_axis_values() {
        // Regression: ns = [128, 128] used to emit the same (n, f, k) point
        // twice, as two cells with *different* seeds.
        assert_eq!(
            scale_grid(&[128, 128], &[1], &[1], 7),
            Err(GridError::DuplicateAxisValue {
                axis: "ns",
                value: 128
            })
        );
        assert_eq!(
            scale_grid(&[8, 16], &[1, 2, 1], &[1], 7),
            Err(GridError::DuplicateAxisValue {
                axis: "fs",
                value: 1
            })
        );
        assert_eq!(
            scale_grid(&[8], &[1], &[2, 2], 7),
            Err(GridError::DuplicateAxisValue {
                axis: "ks",
                value: 2
            })
        );
        // Distinct values stay accepted, whatever their order.
        assert!(scale_grid(&[16, 8], &[2, 1], &[1, 2], 7).is_ok());
    }

    #[test]
    fn cell_seed_is_deterministic_and_mixed() {
        assert_eq!(cell_seed(1, 2), cell_seed(1, 2));
        assert_ne!(cell_seed(1, 2), cell_seed(1, 3));
        assert_ne!(cell_seed(1, 2), cell_seed(2, 2));
        // No adjacent-index collisions over a reasonable window.
        let seeds: Vec<u64> = (0..1000).map(|i| cell_seed(42, i)).collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len());
    }

    #[test]
    fn parallel_equals_sequential() {
        let cells: Vec<u64> = (0..257).collect();
        let f = |i: usize, c: &u64| c.wrapping_mul(3).wrapping_add(cell_seed(9, i));
        assert_eq!(sweep(&cells, f), sweep_seq(&cells, f));
    }

    #[test]
    fn empty_and_singleton_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep(&empty, |_, c| *c).is_empty());
        assert_eq!(sweep(&[5u32], |i, c| *c as usize + i), vec![5]);
    }

    #[test]
    fn scenario_grid_matches_scale_grid_cells() {
        let cells = scale_grid(&[4, 8], &[1, 2], &[1], 9).unwrap();
        let scenarios = scenario_grid(&[4, 8], &[1, 2], &[1], 9).unwrap();
        assert_eq!(cells.len(), scenarios.len());
        for (cell, sc) in cells.iter().zip(&scenarios) {
            assert_eq!((sc.n, sc.f, sc.k), (cell.n, cell.f, cell.k));
            assert_eq!(sc, &crate::scenario::Scenario::from_cell(cell));
            sc.validate().expect("grid scenarios are valid");
        }
        assert!(scenario_grid(&[ProcessSet::CAPACITY + 1], &[1], &[1], 9).is_err());
    }

    #[test]
    fn results_keep_cell_order() {
        // Make later cells finish first to catch ordering bugs.
        let cells: Vec<u64> = (0..64).rev().collect();
        let out = sweep(&cells, |_, c| {
            std::thread::sleep(std::time::Duration::from_micros(*c * 10));
            *c
        });
        assert_eq!(out, cells);
    }
}
