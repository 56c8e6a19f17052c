//! The parallel sweep against real workload: the Theorem 8 border grid run
//! through `kset_sim::sweep` must produce results identical to the
//! sequential pass, and per-cell seeds must be stable.

use kset::impossibility::theorem8::border_demo;
use kset::impossibility::THEOREM8_BORDER_GRID;
use kset::sim::sweep::{cell_seed, sweep, sweep_seq};

/// The E3 border grid (every divisible point the experiments binary runs).
fn border_grid() -> Vec<(usize, usize)> {
    THEOREM8_BORDER_GRID.to_vec()
}

#[test]
fn theorem8_border_grid_parallel_equals_sequential() {
    let grid = border_grid();
    let run_cell = |_i: usize, &(n, k): &(usize, usize)| {
        let demo = border_demo(n, k, 300_000).expect("divisible border point");
        (
            demo.f,
            demo.pasted.verified,
            demo.pasted.distinct_decisions(),
            demo.pasted.report.failure_pattern.num_faulty(),
            demo.violates_k_agreement(),
        )
    };
    let parallel = sweep(&grid, run_cell);
    let sequential = sweep_seq(&grid, run_cell);
    assert_eq!(
        parallel, sequential,
        "parallel grid must equal the sequential run"
    );
    // And the grid results themselves are the Theorem 8 border facts.
    for (&(n, k), &(f, verified, distinct, faulty, violates)) in grid.iter().zip(&parallel) {
        assert!(verified, "n={n} k={k}");
        assert_eq!(distinct, k + 1, "n={n} k={k}");
        assert_eq!(faulty, 0, "n={n} k={k}");
        assert!(violates, "n={n} k={k}");
        assert_eq!(k * n, (k + 1) * f, "n={n} k={k}: exact border");
    }
}

#[test]
fn sweep_seeds_are_stable_across_runs() {
    // Seeds are pure functions of (grid seed, index): scenario
    // reproducibility relies on it.
    let first: Vec<u64> = (0..4).map(|i| cell_seed(7, i)).collect();
    let second: Vec<u64> = (0..4).map(|i| cell_seed(7, i)).collect();
    assert_eq!(first, second);
    let distinct: std::collections::BTreeSet<u64> = first.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        first.len(),
        "adjacent cells get distinct seeds"
    );
}

#[test]
fn sweep_handles_heterogeneous_cell_costs() {
    // Cells of very different cost (n from 4 to 12) still come back in
    // order; this is the property the table printers rely on.
    let grid = border_grid();
    let sizes = sweep(&grid, |_, &(n, _)| n);
    assert_eq!(sizes, grid.iter().map(|&(n, _)| n).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Wide-bitset scale grids: n ∈ {64, 128, 256, 512} under the same
// deterministic cell_seed contract.
// ---------------------------------------------------------------------------

use kset::core::algorithms::floodmin::{floodmin_rounds, FloodMin};
use kset::core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset::core::sync::{LockStep, RoundCrash};
use kset::core::task::distinct_proposals;
use kset::sim::sched::random::SeededRandom;
use kset::sim::sweep::{scale_grid, GridCell};
use kset::sim::{fingerprint, CrashPlan, Engine, ProcessId, ProcessSet, Simulation};

/// One lock-step FloodMin cell: crash layout and observations are a pure
/// function of the cell's deterministic seed.
fn run_floodmin_cell(cell: &GridCell) -> (u64, usize, usize) {
    let GridCell { n, f, k, seed, .. } = *cell;
    let base = (seed as usize) % n;
    let crashes: Vec<RoundCrash> = (0..f)
        .map(|j| RoundCrash {
            round: 1 + j % floodmin_rounds(f, k),
            pid: ProcessId::new((base + j) % n),
            receivers: ProcessId::all((seed >> 8) as usize % n).collect(),
        })
        .collect();
    let mut engine = LockStep::new(
        FloodMin::system(&distinct_proposals(n), f, k),
        floodmin_rounds(f, k),
        &crashes,
    );
    engine.drive(u64::MAX);
    let out = engine.outcome();
    let distinct = out
        .decisions
        .iter()
        .flatten()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    (fingerprint(&out.decisions), distinct, out.rounds)
}

#[test]
fn wide_grid_parallel_equals_sequential_up_to_512() {
    // The whole point of the wide bitset: the same sweep contract carries
    // from the old 128-process cap to n = 512 unchanged.
    let grid = scale_grid(&[64, 128, 256, 512], &[2], &[1], 42).expect("all n within capacity");
    assert_eq!(grid.len(), 4);
    assert!(grid.iter().all(|c| c.n <= ProcessSet::CAPACITY));
    let parallel = sweep(&grid, |_, c| run_floodmin_cell(c));
    let sequential = sweep_seq(&grid, |_, c| run_floodmin_cell(c));
    assert_eq!(
        parallel, sequential,
        "parallel wide grid must equal sequential"
    );
    for (cell, &(_, distinct, rounds)) in grid.iter().zip(&parallel) {
        assert!(
            distinct <= cell.k,
            "n={} f={} k={}: FloodMin must reach k-agreement, got {distinct} values",
            cell.n,
            cell.f,
            cell.k
        );
        assert_eq!(rounds, floodmin_rounds(cell.f, cell.k), "n={}", cell.n);
    }
}

#[test]
fn async_simulation_at_256_is_deterministic_across_substrate() {
    // The step-level substrate at n = 256: a seeded-random schedule of the
    // two-stage protocol must fingerprint identically in parallel and
    // sequential sweeps (same cell_seed ⇒ same run, bit for bit).
    let grid = scale_grid(&[256], &[3], &[2], 7).expect("n = 256 fits");
    let run_cell = |_: usize, cell: &GridCell| {
        let mut sim: Simulation<TwoStage, _> = Simulation::try_new(
            two_stage_inputs(cell.f, &distinct_proposals(cell.n)),
            CrashPlan::none(),
        )
        .expect("n = 256 is within the ProcessSet capacity");
        let report = sim.run_to_report(&mut SeededRandom::new(cell.seed), 40_000);
        (fingerprint(&report.decisions), report.decisions.len())
    };
    let parallel = sweep(&grid, run_cell);
    let sequential = sweep_seq(&grid, run_cell);
    assert_eq!(parallel, sequential);
    assert_eq!(parallel[0].1, 256);
}

#[test]
fn scale_grid_rejects_duplicate_axis_values() {
    // Regression: `ns = [128, 128]` used to emit the same (n, f, k) point
    // twice as two cells with *different* seeds — poison for
    // (grid_seed, index) citations. Duplicates are now a typed error.
    use kset::sim::sweep::GridError;
    assert_eq!(
        scale_grid(&[128, 128], &[2], &[1], 42),
        Err(GridError::DuplicateAxisValue {
            axis: "ns",
            value: 128
        })
    );
}

#[test]
fn sharded_streaming_floodmin_merges_to_sequential() {
    // The CI shard-matrix gate on the real lock-step workload, in one
    // process: shard the grid three ways, sweep each shard on the threaded
    // map, round-trip the records through the text format, merge — and
    // the merged file must be byte-identical to the sequential sweep's.
    use kset::sim::sweep::{merge, CellRecord, ShardFile, ShardSpec, SweepHeader};
    let grid = scale_grid(&[64, 256], &[2, 3], &[1], 42).expect("valid axes");
    let digest = |cell: &GridCell| fingerprint(&run_floodmin_cell(cell));
    let header =
        |shard| SweepHeader::new("floodmin", 42, "ns=64,256;fs=2,3;ks=1", grid.len(), shard);
    let sequential = ShardFile {
        header: header(ShardSpec::FULL),
        records: sweep_seq(&grid, |_, c| CellRecord::new(c, digest(c))),
    };
    let shards: Vec<ShardFile> = (0..3)
        .map(|i| {
            let spec = ShardSpec::new(i, 3).unwrap();
            let file = ShardFile {
                header: header(spec),
                records: sweep(spec.slice(&grid), |_, c| CellRecord::new(c, digest(c))),
            };
            ShardFile::parse(&file.render()).expect("round-trips")
        })
        .collect();
    let merged = merge(&shards).expect("full partition merges");
    assert_eq!(merged.render(), sequential.render(), "byte-identical");
}

#[test]
fn cell_seed_values_are_pinned() {
    // Regression pin: cell_seed is part of the sweep's public determinism
    // contract — experiment tables cite scenarios as (grid_seed, index), so
    // these exact values must never drift, at any system size.
    assert_eq!(cell_seed(42, 0), 0xbdd7_3226_2feb_6e95);
    assert_eq!(cell_seed(42, 1), 0xd7fc_1bde_f4d9_4d80);
    assert_eq!(cell_seed(42, 2), 0x5e02_37db_c956_d288);
    assert_eq!(cell_seed(42, 3), 0xc86a_910a_935d_c447);
    assert_eq!(cell_seed(7, 0), 0x63cb_e1e4_5932_0dd7);
    assert_eq!(cell_seed(7, 8), 0x4ae0_e1f6_0792_2428);
    assert_eq!(cell_seed(1234, 17), 0x55cc_9533_f4fa_fec1);
}

#[test]
fn legacy_small_grids_keep_their_seeds() {
    // An existing n ≤ 128 grid: widening the bitset must not renumber its
    // cells or change any seed (emission order is ns × fs × ks with
    // infeasible combinations skipped before indexing).
    let grid = scale_grid(&[4, 6, 8], &[1, 2], &[1], 42).expect("small grid");
    let expect: Vec<(usize, usize)> = vec![(4, 1), (4, 2), (6, 1), (6, 2), (8, 1), (8, 2)];
    assert_eq!(grid.iter().map(|c| (c.n, c.f)).collect::<Vec<_>>(), expect);
    for (i, cell) in grid.iter().enumerate() {
        assert_eq!(cell.index, i);
        assert_eq!(cell.seed, cell_seed(42, i));
    }
    assert_eq!(
        grid[0].seed, 0xbdd7_3226_2feb_6e95,
        "pinned first-cell seed"
    );
}
