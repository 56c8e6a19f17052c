//! Bounded-memory streaming sweeps: results flow to a sink as cells
//! complete, instead of materializing the whole grid in a `Vec`.
//!
//! [`sweep_streaming_ordered`] (`std::mpsc` under `std::thread::scope`,
//! no rayon) delivers results in **cell order** without holding the grid:
//! a worker may only *start* cell `i` once fewer than `window` cells
//! separate it from the next cell the sink expects, so at most `window`
//! results exist outside the sink at any instant — the reorder stash can
//! never grow past the in-flight window, however slow the straggler cell
//! is.
//!
//! Peak memory is therefore bounded by the in-flight window, not the grid
//! size; a million-cell grid streams through a `window`-sized buffer. With
//! a deterministic worker, [`sweep_streaming_ordered`] invokes the sink on
//! exactly the sequence `(i, sweep_seq(cells, worker)[i])` for
//! `i = 0, 1, …` — the property the shard files of
//! [`record`](super::record) and the merge gate in CI rely on.
//!
//! # The window contract
//!
//! The window is the explicit edge of the API:
//!
//! * `window == 0` is a **typed error** ([`StreamError::ZeroWindow`]) —
//!   a zero window could never deliver anything, so it is always a
//!   caller bug, reported before any thread spawns or any cell runs;
//! * `window >= cells.len()` is a **documented no-op bound**: the gate
//!   never blocks and the runner behaves exactly like an unwindowed
//!   parallel sweep — same results, same order, just nothing left for
//!   the window to limit. Both properties are pinned by tests.
//!
//! # Examples
//!
//! ```
//! use kset_sim::sweep::{sweep_seq, sweep_streaming_ordered};
//!
//! let cells: Vec<u64> = (0..100).collect();
//! let mut seen = Vec::new();
//! // Stream a 100-cell grid through an 8-result window.
//! sweep_streaming_ordered(&cells, 8, |_, &c| c * 3, |i, r| seen.push((i, r))).unwrap();
//! let seq = sweep_seq(&cells, |_, &c| c * 3);
//! assert!(seen.iter().map(|&(i, _)| i).eq(0..100));
//! assert!(seen.iter().map(|&(_, r)| r).eq(seq));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::thread;

/// Why a streaming sweep could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The in-flight window is zero: nothing could ever be delivered.
    ZeroWindow,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::ZeroWindow => {
                write!(f, "streaming sweep needs a window of at least 1")
            }
        }
    }
}

impl std::error::Error for StreamError {}

fn worker_threads(cells: usize) -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(cells.max(1))
}

/// Shuts the sweep down when the consumer stops consuming (normally or by
/// unwinding out of a panicking sink): raises the shutdown flag and wakes
/// every gate-blocked worker, so `thread::scope` can always join.
struct GateOpener<'a> {
    emitted: &'a Mutex<usize>,
    cvar: &'a Condvar,
    shutdown: &'a AtomicBool,
}

impl Drop for GateOpener<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poison-proof: this drop runs while unwinding out of a panicking
        // sink, and a second panic here (on a poisoned lock) would abort
        // the process instead of propagating the sink's panic. The guarded
        // value is a plain counter, so a torn update cannot exist.
        *self.emitted.lock().unwrap_or_else(PoisonError::into_inner) = usize::MAX;
        self.cvar.notify_all();
    }
}

/// Streams `worker(i, &cells[i])` results to `sink` in **cell order**,
/// holding at most `window` undelivered results.
///
/// Workers are *gated*, not just buffered — cell `i` may only start once
/// `i < emitted + window` (where `emitted` counts sink deliveries) — so
/// the reorder stash plus the channel never exceed `window` results even
/// when cell `emitted` itself is the slowest of the grid. `window = 1`
/// degenerates to lock-step sequential delivery; larger windows trade
/// memory for parallel slack.
///
/// With a deterministic worker the sink observes exactly the sequence a
/// [`sweep_seq`](super::sweep_seq) pass would produce, which makes this
/// the runner of choice for writing shard result files: bytes on disk are
/// identical to a sequential sweep's, whatever the thread count.
///
/// `window >= cells.len()` is a documented no-op bound: the gate never
/// blocks, and the sweep equals the unwindowed parallel runner (see the
/// [module docs](self)).
///
/// # Errors
///
/// [`StreamError::ZeroWindow`] if `window == 0`, before any thread
/// spawns or any cell runs.
///
/// # Panics
///
/// Propagates panics from `worker`.
pub fn sweep_streaming_ordered<C, R>(
    cells: &[C],
    window: usize,
    worker: impl Fn(usize, &C) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) -> Result<(), StreamError>
where
    C: Sync,
    R: Send,
{
    if window == 0 {
        return Err(StreamError::ZeroWindow);
    }
    // More workers than the window can never run: they would gate-block.
    let threads = worker_threads(cells.len()).min(window);
    if threads <= 1 || cells.len() <= 1 {
        for (i, c) in cells.iter().enumerate() {
            sink(i, worker(i, c));
        }
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    let emitted = Mutex::new(0usize);
    let cvar = Condvar::new();
    let shutdown = AtomicBool::new(false);
    // Unbounded on purpose: the *gate* bounds how many results can exist
    // undelivered (≤ window), so the channel never holds more than that in
    // normal operation — while a send can never block, which is what lets
    // a panicking sink unwind without deadlocking senders.
    let (tx, rx) = mpsc::channel::<(usize, thread::Result<R>)>();
    let (next, emitted, cvar, shutdown, worker) = (&next, &emitted, &cvar, &shutdown, &worker);
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                {
                    // Gate: stay within `window` of the delivery frontier.
                    // Poison-proof (see GateOpener::drop): the counter has
                    // no multi-step invariant, so a poisoned lock still
                    // yields a usable frontier and the worker proceeds to
                    // the shutdown check instead of double-panicking.
                    let mut e = emitted.lock().unwrap_or_else(PoisonError::into_inner);
                    while i >= e.saturating_add(window) {
                        e = cvar.wait(e).unwrap_or_else(PoisonError::into_inner);
                    }
                }
                if shutdown.load(Ordering::SeqCst) {
                    break; // the consumer is gone; don't compute dead cells
                }
                // Catch worker panics and forward them through the channel:
                // the consumer re-raises, so a panicking cell fails the
                // sweep instead of deadlocking it (the consumer would
                // otherwise wait forever for this cell's result while the
                // other workers gate-block).
                let r =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(i, &cells[i])));
                let failed = r.is_err();
                if tx.send((i, r)).is_err() || failed {
                    break;
                }
            });
        }
        drop(tx);
        let _opener = GateOpener {
            emitted,
            cvar,
            shutdown,
        };
        let mut stash: BTreeMap<usize, R> = BTreeMap::new();
        for expect in 0..cells.len() {
            let r = loop {
                if let Some(r) = stash.remove(&expect) {
                    break r;
                }
                // kset-lint: allow(panic-in-library): load-bearing liveness check; a closed channel here means workers died without even a panic payload, which the gate protocol makes unreachable
                let (i, r) = rx.recv().expect("workers ended before the grid completed");
                let r = r.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                if i == expect {
                    break r;
                }
                stash.insert(i, r);
            };
            sink(expect, r);
            *emitted.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            cvar.notify_all();
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{sweep_seq, GridCell};
    use super::*;

    #[test]
    fn ordered_equals_sequential_in_order() {
        let cells: Vec<u64> = (0..257).rev().collect();
        let f = |i: usize, c: &u64| c.wrapping_mul(7).wrapping_add(i as u64);
        let mut got = Vec::new();
        sweep_streaming_ordered(&cells, 8, f, |i, r| {
            assert_eq!(i, got.len(), "sink must see cell order");
            got.push(r);
        })
        .unwrap();
        assert_eq!(got, sweep_seq(&cells, f));
    }

    #[test]
    fn ordered_bounds_outstanding_results_by_window() {
        // A grid much larger than the window, with a deliberately slow
        // straggler: the count of results produced but not yet delivered
        // must never exceed the window — i.e. peak memory is the window,
        // not the grid.
        const WINDOW: usize = 6;
        let cells: Vec<u64> = (0..500).collect();
        let produced = AtomicUsize::new(0);
        let delivered = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        sweep_streaming_ordered(
            &cells,
            WINDOW,
            |i, &c| {
                if i == 0 {
                    // Straggle: everything the gate allows piles up behind us.
                    thread::sleep(std::time::Duration::from_millis(30));
                }
                let outstanding =
                    produced.fetch_add(1, Ordering::SeqCst) + 1 - delivered.load(Ordering::SeqCst);
                peak.fetch_max(outstanding, Ordering::SeqCst);
                c
            },
            |_, _| {
                delivered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
        assert_eq!(delivered.load(Ordering::SeqCst), cells.len());
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= WINDOW,
            "outstanding results peaked at {peak}, window is {WINDOW}"
        );
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn ordered_worker_panic_propagates_instead_of_deadlocking() {
        // Regression: a panicking worker used to leave the consumer blocked
        // on recv() forever (its cell never arrives, the other senders stay
        // alive) while the remaining workers gate-blocked — a hang, not a
        // failure. The panic must propagate.
        let cells: Vec<u32> = (0..100).collect();
        sweep_streaming_ordered(
            &cells,
            4,
            |i, &c| {
                if i == 37 {
                    panic!("worker boom");
                }
                c
            },
            |_, _| {},
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "sink boom")]
    fn ordered_sink_panic_propagates_instead_of_deadlocking() {
        // Regression: a panicking sink used to deadlock workers blocked on
        // a full bounded channel with no receiver draining it.
        let cells: Vec<u32> = (0..100).collect();
        sweep_streaming_ordered(
            &cells,
            4,
            |_, &c| c,
            |i, _| {
                if i == 10 {
                    panic!("sink boom");
                }
            },
        )
        .unwrap();
    }

    #[test]
    fn zero_window_is_a_typed_error_before_any_work() {
        // The window contract at the API boundary: window == 0 could never
        // deliver, so it errors before any thread spawns or worker runs —
        // on empty and non-empty grids alike.
        let cells: Vec<u32> = (0..10).collect();
        let worker_ran = AtomicUsize::new(0);
        let run = |f: &dyn Fn() -> Result<(), StreamError>| {
            let err = f().unwrap_err();
            assert_eq!(err, StreamError::ZeroWindow);
            assert_eq!(
                err.to_string(),
                "streaming sweep needs a window of at least 1"
            );
            assert_eq!(worker_ran.load(Ordering::SeqCst), 0, "no cell may run");
        };
        run(&|| {
            sweep_streaming_ordered(
                &cells,
                0,
                |_, &c| {
                    worker_ran.fetch_add(1, Ordering::SeqCst);
                    c
                },
                |_, _| {},
            )
        });
        let empty: Vec<u32> = Vec::new();
        run(&|| sweep_streaming_ordered(&empty, 0, |_, &c| c, |_, _| {}));
    }

    #[test]
    fn oversized_windows_are_documented_no_ops() {
        // window >= cells.len(): the gate never blocks and the sweep is
        // exactly the unwindowed parallel run, in sequential delivery
        // order.
        let cells: Vec<u64> = (0..50).rev().collect();
        let f = |i: usize, c: &u64| c.wrapping_mul(11).wrapping_add(i as u64);
        let seq = sweep_seq(&cells, f);
        for window in [cells.len(), cells.len() + 1, 10 * cells.len(), usize::MAX] {
            let mut got = Vec::new();
            sweep_streaming_ordered(&cells, window, f, |i, r| {
                assert_eq!(i, got.len(), "window {window}: cell order holds");
                got.push(r);
            })
            .unwrap();
            assert_eq!(got, seq, "window {window}");
        }
    }

    #[test]
    fn window_one_is_lock_step() {
        let cells: Vec<u32> = (0..40).collect();
        let mut got = Vec::new();
        sweep_streaming_ordered(&cells, 1, |_, &c| c, |i, r| got.push((i, r))).unwrap();
        assert_eq!(got, (0..40).map(|c| (c as usize, c)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_streams_nothing() {
        let cells: Vec<u32> = Vec::new();
        sweep_streaming_ordered(&cells, 3, |_, &c| c, |_, _| panic!("no cells to deliver"))
            .unwrap();
    }

    #[test]
    fn sharded_streaming_reassembles_to_sequential() {
        // The tentpole identity: shard the grid, stream each shard, and the
        // union of (global index, result) pairs is the sequential sweep.
        use super::super::ShardSpec;
        let grid: Vec<GridCell> =
            super::super::scale_grid(&[8, 16, 32], &[1, 2], &[1, 2], 11).expect("valid grid");
        let work = |cell: &GridCell| cell.seed.wrapping_mul(cell.n as u64 + cell.k as u64);
        let seq = sweep_seq(&grid, |_, c| work(c));
        for count in 1..=5 {
            let mut merged: Vec<Option<u64>> = vec![None; grid.len()];
            for index in 0..count {
                let spec = ShardSpec::new(index, count).unwrap();
                let slice = spec.slice(&grid);
                sweep_streaming_ordered(
                    slice,
                    4,
                    |_, c| work(c),
                    |local, r| {
                        let global = spec.range(grid.len()).start + local;
                        assert_eq!(global, slice[local].index, "GridCell keeps global index");
                        assert!(merged[global].is_none());
                        merged[global] = Some(r);
                    },
                )
                .unwrap();
            }
            let merged: Vec<u64> = merged.into_iter().map(Option::unwrap).collect();
            assert_eq!(
                merged, seq,
                "{count}-way shard must reassemble to sequential"
            );
        }
    }
}
